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
is rounded as its own elementwise product (one multiply forms the terms of
all sums of a step), and the terms are added one at a time in index order.
No matrix product is used: BLAS sums in its own order, which would move
the results in their last bits and make a loop's result depend on which
other loops share its batch.  ``fe`` and ``g`` are padded with zeros to the
widest active set of the batch; a padded term adds an exact zero.

The quantizer is a step function ``step(t, alpha) -> (indices or None,
beta)``.  :func:`awgn_step` builds the Gaussian channel and
:func:`lattice_step` the subtractive-dithered quantizer of any lattice,
given its nearest-point rule on the ``(r, G)`` layout (``quantizers``).
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
    indices ``step`` returned (None when it returned none), e (n+1, p, G)
    the errors.
    """
    n1 = bw.shape[0] + 1
    p, G = x0.shape
    if fe is None:
        fe, g = np.zeros((0, p, G)), np.zeros((p, 0, G))
    r = fe.shape[0]
    # the products of a step, laid out so that term j of each sum is one
    # view: a_t[j, i] = A[i, j], fe_t[j, i] = fe[i, j], g_t[j, i] = g[i, j]
    a_t = np.ascontiguousarray(A.T)[:, :, None]
    fe_t = np.ascontiguousarray(fe.transpose(1, 0, 2))
    g_t = np.ascontiguousarray(g.transpose(1, 0, 2))
    a_prod = np.empty((p, p, G))
    fe_prod = np.empty((p, r, G))
    g_prod = np.empty((r, p, G))
    a_terms, fe_terms, g_terms = list(a_prod), list(fe_prod), list(g_prod)
    e = np.empty((n1, p, G))
    idx = None
    alpha = np.empty((r, G))
    e[0] = x0
    for t in range(n1):
        k = e[t]  # holds k_t until the channel output is subtracted
        if t:
            np.copyto(k, bw[t - 1])
            np.multiply(a_t, e[t - 1][:, None], out=a_prod)
            for term in a_terms:
                np.add(k, term, out=k)
        if not r:
            continue
        alpha.fill(0.0)
        np.multiply(fe_t, k[:, None], out=fe_prod)
        for term in fe_terms:
            np.add(alpha, term, out=alpha)
        q, beta = step(t, alpha)
        if q is not None:
            if idx is None:
                idx = np.empty((n1, r, G), dtype=np.int64)
            idx[t] = q
        np.multiply(g_t, beta[:, None], out=g_prod)
        for term in g_terms:
            np.subtract(k, term, out=k)
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
    (``quantizers.dithered_encode``), returned as int64 indices, and
    beta = z * scale - q (``quantizers.dithered_decode``).
    """

    def step(t, alpha):
        z = dithered_encode(alpha, dither[t], scale, nearest)
        return z.astype(np.int64), dithered_decode(z, dither[t], scale)

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
