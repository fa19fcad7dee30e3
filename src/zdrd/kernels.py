"""The closed-loop feedback recursion, run for a batch of loops in lockstep.

Every closed-loop simulation in this package is a per-step feedback
recursion that cannot be vectorized over time.  It is vectorized over
loops instead: :func:`feedback_loop` advances G loops of one source (the
grid points of a sweep) side by side on arrays of shape ``(p, G)`` and
``(r, G)``, one step at a time.  All randomness is passed in as arrays, one
stream per loop.  The package's one driver, ``coding._run_loops``, draws the
streams of both channels, runs the horizon in chunks and forms the squared
errors; :func:`awgn_loop`, :func:`sdusq_loop` and :func:`d4_loop` run one
loop over a horizon, for tests that compare them with scalar references.

The loops run in innovations/error coordinates, one step per input row u_t,

    k_t = A e_{t-1} + u_t
    alpha_t = fe @ k_t
    beta_t = alpha_t + v_t       (or the dithered-quantizer output)
    e_t = k_t - g @ beta_t

A horizon's rows are u_0 = x_0 and u_t = B w_{t-1}, all made by
``source_model.source_rows``, from e_{-1} = 0 (its A terms add exact zeros
to x_0); a piece of a horizon runs from the last error of the piece
before.  This rearranges the reproduction recursion
y_t = A y_{t-1} + g beta_t exactly, with e_t = x_t - y_t.  Unstable sources
push x_t itself past float64 range long before 1e5 steps; e_t and k_t stay
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
``np.add.reduce`` over [u_t; A terms] for k, ``np.add.reduce`` over
the fe terms for alpha, and ``np.subtract.reduce`` over [k_t; g terms]
for e, k being written into row 0 of that stack.  A reduction along
axis 0 of a C-contiguous stack runs the rows in its outer loop, adding
row j + 1 elementwise into the sum of rows 0..j, so it keeps index order.
That holds while the result has two or more elements; with one, numpy
reduces along the rows themselves, and ``np.add`` sums pairwise from eight
terms on.  So alpha carries a spare zero row, and k has one element only at
p = 1, where it is u plus one term.  ``np.add.reduce`` starts from
``initial``, +0.0 unless given: alpha starts there as a zeroed sum would,
and k starts from -0.0, the exact additive identity, so that k is u plus
the terms even when all of them are -0.0.
``tests/test_kernels.py::TestReductionOrder`` pins these facts.

The quantizer is a step function ``step(t, k, alpha) -> beta``; k (p, G)
and alpha (r, G) are views of buffers the loop reuses, so a step that keeps
them copies them.  Without a channel no step is called, and k is e.
:func:`awgn_step` builds the Gaussian channel and :func:`lattice_step` the
subtractive-dithered quantizer of any lattice, given its nearest-point rule
on the ``(r, G)`` layout (``quantizers``); it writes each step's lattice
coordinates into an array of its caller.  A step may return a view of a
buffer it reuses: the loop reads it before the next step.
"""

import numpy as np

from .quantizers import d4_nearest, d4_nearest_columns, dithered_decode, dithered_encode, z_nearest


def get_backend():
    """Name of the kernel implementation: always ``"numpy"``."""
    return "numpy"


def feedback_loop(A, u, e_prev, fe=None, g=None, step=None):
    """Run G feedback loops of one source in lockstep, one step per row of u.

    A is (p, p); u (m, p, G) holds the input rows u_t of each loop and
    e_prev (p, G) its error before the first of them; fe (r, p, G) and
    g (p, r, G) are zero-padded to the widest active set, and ``step``
    quantizes alpha (r, G).  Without fe there is no channel.  Returns the
    errors e (m, p, G); ``step`` is called with the row numbers, 0 first,
    and the step's k and alpha.
    """
    p, G = e_prev.shape
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
    k_stack = np.empty((p + 1, p, G))  # [u_t; A terms]
    alpha_stack = np.empty((p, r + 1, G))  # fe terms
    e_stack = np.empty((r + 1, p, G))  # [k_t; g terms]
    a_terms, k, g_terms = k_stack[1:], e_stack[0], e_stack[1:]
    alpha_sum = np.empty((r + 1, G))
    alpha = alpha_sum[:r]
    # row t + 1 of e is e_t, and row 0 is e_prev
    e = np.empty((u.shape[0] + 1, p, G))
    e[0] = e_prev
    e_cols, k_col = e[:, :, None], k[:, None]
    for t in range(u.shape[0]):
        k_stack[0] = u[t]
        np.multiply(a_t, e_cols[t], out=a_terms)
        # without a channel k_t is e_t
        np.add.reduce(k_stack, axis=0, initial=-0.0, out=k if r else e[t + 1])
        if not r:
            continue
        np.multiply(fe_t, k_col, out=alpha_stack)
        np.add.reduce(alpha_stack, axis=0, initial=0.0, out=alpha_sum)
        beta = step(t, k, alpha)
        np.multiply(g_t, beta[:, None], out=g_terms)
        np.subtract.reduce(e_stack, axis=0, out=e[t + 1])
    return e[1:]


def awgn_step(noise):
    """Channel step beta_t = alpha_t + v_t, with noise (n+1, r, G)."""
    beta = np.empty(noise.shape[1:])

    def step(t, k, alpha):
        return np.add(alpha, noise[t], out=beta)

    return step


def lattice_step(dither, scale, nearest, z):
    """Dithered lattice step; dither and z (n+1, r, G), scale broadcasting against (r, G).

    Step t writes its lattice coordinates, integral floats, to
    z[t] = nearest((alpha + q) / scale) (``quantizers.dithered_encode``;
    ``nearest`` rounds the C-contiguous (r, G) row of z in place) and
    returns beta = z[t] * scale - q (``quantizers.dithered_decode``), in a
    buffer made once.
    """
    scale = np.asarray(scale, float)  # a scalar as a 0-d array, cheaper for ufuncs
    beta = np.empty(dither.shape[1:])

    def step(t, k, alpha):
        q = dither[t]
        zt = dithered_encode(alpha, q, scale, nearest, out=z[t])
        return dithered_decode(zt, q, scale, out=beta)

    return step


def _one_loop(A, bw, x0, fe, g, step):
    """(k, alpha, e), each (n+1, .), of one loop over x0, then bw (n, p), as its steps saw them."""
    u = np.concatenate([x0[None], bw])[..., None]
    k, alpha = np.empty(u.shape), np.empty((u.shape[0], fe.shape[0], 1))

    def recording(t, kt, at):
        k[t], alpha[t] = kt, at
        return step(t, kt, at)

    e = feedback_loop(A, u, np.zeros_like(u[0]), fe[..., None], g[..., None], recording)
    return (e if fe.shape[0] == 0 else k)[..., 0], alpha[..., 0], e[..., 0]


def awgn_loop(A, bw, x0, fe, g, noise):
    """One loop over the unit Gaussian channel; returns (k, alpha, beta, e)."""
    k, alpha, e = _one_loop(A, bw, x0, fe, g, awgn_step(noise[..., None]))
    return k, alpha, alpha + noise, e


def _lattice_loop(A, bw, x0, fe, g, dither, scale, nearest):
    """One loop through :func:`lattice_step`; returns (idx, k, alpha, beta, e)."""
    scale = np.asarray(scale, float)
    z = np.empty(dither.shape + (1,))
    step = lattice_step(dither[..., None], scale[..., None], nearest, z)
    k, alpha, e = _one_loop(A, bw, x0, fe, g, step)
    idx = z[..., 0].astype(np.int64)
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
