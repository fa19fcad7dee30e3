"""The closed-loop feedback recursion, run for a batch of loops in lockstep.

Every closed-loop simulation in this package is a per-step feedback
recursion that cannot be vectorized over time.  It is vectorized over
loops instead: :func:`feedback_loop` advances G loops of one source (the
grid points of a sweep) side by side on arrays of shape ``(p, G)`` and
``(r, G)``, one step at a time.  All randomness is drawn by the callers
and passed in as arrays, one stream per loop.

The loops run in innovations/error coordinates,

    k_t = A e_{t-1} + bw_{t-1}   (k_0 = x_0,  bw_t = B w_t)
    alpha_t = fe @ k_t
    beta_t = alpha_t + v_t       (or the dithered-quantizer output)
    e_t = k_t - g @ beta_t

which is an exact rearrangement of the reproduction recursion
y_t = A y_{t-1} + g beta_t with e_t = x_t - y_t.  Unstable sources push
x_t itself past float64 range long before 1e5 steps; e_t and k_t stay
stationary, so rates and distortions remain computable.  With no channel
(r = 0) the recursion is the source's own state recursion, e_t = x_t.

Each sum is accumulated as a scalar loop over i and j would: every term
is rounded as its own elementwise product, and the terms are added one at a
time in index order.  No matrix product is used: BLAS sums in its own order,
which would move the results in their last bits and make a loop's result
depend on which other loops share its batch.  ``fe`` and ``g`` are padded
with zeros to the widest active set of the batch; a padded term adds an
exact zero.

A step makes the same few numpy calls whatever p and r.  The terms of
each sum are one broadcast product into a stack made once, with term j in
row j, and the sum is one reduction along axis 0:
``np.add.reduce`` over [bw_{t-1}; A terms] for k, ``np.add.reduce`` over
the fe terms for alpha, and ``np.subtract.reduce`` over [k_t; g terms]
for e, k being written into row 0 of that stack.  A reduction along
axis 0 of a C-contiguous stack runs the rows in its outer loop, adding
row j + 1 elementwise into the sum of rows 0..j, so it keeps index order.
That holds while the result has two or more elements; with one, numpy
reduces along the rows themselves, and ``np.add`` sums pairwise from eight
terms on.  So alpha carries a spare zero row, and k has one element only at
p = 1, where it is bw plus one term.  ``np.add.reduce`` starts from
``initial``, +0.0 unless given: alpha starts there as a zeroed sum would,
and k starts from -0.0, the exact additive identity, so that k is bw plus
the terms even when all of them are -0.0.
``tests/test_kernels.py::TestReductionOrder`` pins these facts.

The quantizer is a step function ``step(t, alpha) -> (indices or None,
beta)``.  :func:`awgn_step` builds the Gaussian channel and
:func:`lattice_step` the subtractive-dithered quantizer of any lattice,
given its nearest-point rule on the ``(r, G)`` layout (``quantizers``).
A step may return views of buffers it reuses: the loop reads them before
the next step.
"""

import numpy as np

from .quantizers import d4_nearest, d4_nearest_columns, dithered_decode, dithered_encode, z_nearest


def get_backend():
    """Name of the kernel implementation: always ``"numpy"``."""
    return "numpy"


def feedback_loop(A, bw, x0, fe=None, g=None, step=None):
    """Run G feedback loops of one source in lockstep.

    A is (p, p); bw (n, p, G) holds B w_t of each loop, x0 (p, G) its
    initial state; fe (r, p, G) and g (p, r, G) are zero-padded to the
    widest active set, and ``step`` quantizes alpha (r, G).  Without fe
    there is no channel.  Returns (idx, e): idx (n+1, r, G) holds the
    indices ``step`` returned, cast to int64 (None when it returned none),
    e (n+1, p, G) the errors.
    """
    n1 = bw.shape[0] + 1
    p, G = x0.shape
    if fe is None:
        fe, g = np.zeros((0, p, G)), np.zeros((p, 0, G))
    r = fe.shape[0]
    # a step's terms go into stacks, term j in row j, as the products of
    # a_t[j, i] = A[i, j], fe_t[j, i] = fe[i, j] and g_t[j, i] = g[i, j]
    # with the columns e_{t-1}[j], k_t[j] and beta_t[j]
    a_t = np.ascontiguousarray(A.T)[:, :, None]
    fe_t = np.zeros((p, r + 1, G))  # row r is alpha's spare zero
    fe_t[:, :r] = fe.transpose(1, 0, 2)
    g_t = np.ascontiguousarray(g.transpose(1, 0, 2))
    k_stack = np.empty((p + 1, p, G))  # [bw_{t-1}; A terms]
    alpha_stack = np.empty((p, r + 1, G))  # fe terms
    e_stack = np.empty((r + 1, p, G))  # [k_t; g terms]
    a_terms, k, g_terms = k_stack[1:], e_stack[0], e_stack[1:]
    alpha_sum = np.empty((r + 1, G))
    alpha = alpha_sum[:r]
    e = np.empty((n1, p, G))
    e_cols, k_col = e[:, :, None], k[:, None]
    idx = None
    k[...] = x0
    e[0] = x0  # e_0 without a channel; with one, step 0 overwrites it
    for t in range(n1):
        if t:
            k_stack[0] = bw[t - 1]
            np.multiply(a_t, e_cols[t - 1], out=a_terms)
            # without a channel k_t is e_t
            np.add.reduce(k_stack, axis=0, initial=-0.0, out=k if r else e[t])
        if not r:
            continue
        np.multiply(fe_t, k_col, out=alpha_stack)
        np.add.reduce(alpha_stack, axis=0, initial=0.0, out=alpha_sum)
        q, beta = step(t, alpha)
        if q is not None:
            if idx is None:
                idx = np.empty((n1, r, G), dtype=np.int64)
            idx[t] = q
        np.multiply(g_t, beta[:, None], out=g_terms)
        np.subtract.reduce(e_stack, axis=0, out=e[t])
    return idx, e


def awgn_step(noise):
    """Channel step beta_t = alpha_t + v_t, with noise (n+1, r, G)."""
    beta = np.empty(noise.shape[1:])

    def step(t, alpha):
        np.add(alpha, noise[t], out=beta)
        return None, beta

    return step


def lattice_step(dither, scale, nearest):
    """Dithered lattice step; dither (n+1, r, G), scale broadcasting against (r, G).

    z = nearest((alpha + q) / scale) are the lattice coordinates
    (``quantizers.dithered_encode``) and beta = z * scale - q
    (``quantizers.dithered_decode``), both written into buffers made once;
    ``nearest`` rounds the (r, G) layout in place.  The loop casts z to its
    int64 indices.
    """
    scale = np.asarray(scale, float)  # a scalar as a 0-d array, cheaper for ufuncs
    z, beta = np.empty((2,) + dither.shape[1:])

    def step(t, alpha):
        q = dither[t]
        dithered_encode(alpha, q, scale, nearest, out=z)
        return z, dithered_decode(z, q, scale, out=beta)

    return step


def innovations(A, bw, x0, fe, e):
    """k_t and alpha_t of one finished loop, recomputed from its errors e.

    Vectorized over time with the loop's arithmetic and order, so the
    results equal the values the loop used.
    """
    p = A.shape[0]
    k = np.empty_like(e)
    k[0] = x0
    k[1:] = bw
    for j in range(p):
        k[1:] += A[:, j] * e[:-1, j : j + 1]
    alpha = np.zeros((e.shape[0], fe.shape[0]))
    for j in range(p):
        alpha += fe[:, j] * k[:, j : j + 1]
    return k, alpha


def _single(A, bw, x0, fe, g, step):
    """One loop through :func:`feedback_loop`: G = 1, results as (n+1, .) arrays."""
    idx, e = feedback_loop(A, bw[..., None], x0[:, None], fe[..., None], g[..., None], step)
    if idx is None:  # no indices, or no channel to index
        return np.empty((e.shape[0], 0), dtype=np.int64), e[..., 0]
    return idx[..., 0], e[..., 0]


def awgn_loop(A, bw, x0, fe, g, noise):
    """One loop over the unit Gaussian channel; returns (k, alpha, beta, e)."""
    _, e = _single(A, bw, x0, fe, g, awgn_step(noise[..., None]))
    k, alpha = innovations(A, bw, x0, fe, e)
    return k, alpha, alpha + noise, e


def _lattice_loop(A, bw, x0, fe, g, dither, scale, nearest):
    """One loop through :func:`lattice_step`; returns (idx, k, alpha, beta, e)."""
    scale = np.asarray(scale, float)
    idx, e = _single(A, bw, x0, fe, g, lattice_step(dither[..., None], scale[..., None], nearest))
    k, alpha = innovations(A, bw, x0, fe, e)
    return idx, k, alpha, dithered_decode(idx, dither, scale), e


def sdusq_loop(A, bw, x0, fe, g, dither, deltas):
    """One loop with the dithered scalar quantizer, step sizes deltas (r,)."""
    return _lattice_loop(A, bw, x0, fe, g, dither, deltas, z_nearest)


def d4_loop(A, bw, x0, fe, g, dither, scale):
    """One loop with the dithered scale*D4 quantizer on blocks of four."""
    return _lattice_loop(A, bw, x0, fe, g, dither, scale, d4_nearest_columns)


def d4_dither(rng, scale, count):
    """``count`` rows uniform on the scale*D4 Voronoi cell of the origin.

    The rows are scale * (u - d4_nearest(u)), u uniform on the fundamental
    box [0,1)^3 x [0,2) of D4 (``quantizers``); ties have probability zero.
    """
    u = rng.random((count, 4))
    u[:, 3] *= 2.0
    return scale * (u - d4_nearest(u))
