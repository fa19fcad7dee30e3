"""Hot sequential loops with numba-compiled and pure-NumPy twins.

Every closed-loop simulation in this package is a per-step feedback
recursion that cannot be vectorized over time.  The loop bodies are written
once, in nopython-compatible Python, and compiled with ``@njit`` when numba
is available.  The active backend is chosen from ``ZDRD_DISABLE_NUMBA`` at
import time and can be switched with :func:`set_backend`.

All randomness is drawn by the callers and passed in as arrays, so a given
seed produces the same run regardless of backend.

The feedback loops run in innovations/error coordinates,

    k_t = A e_{t-1} + bw_{t-1}   (k_0 = x_0,  bw_t = B w_t)
    alpha_t = fe @ k_t
    beta_t = alpha_t + v_t       (or the dithered-quantizer output)
    e_t = k_t - g @ beta_t

which is an exact rearrangement of the reproduction recursion
y_t = A y_{t-1} + g beta_t with e_t = x_t - y_t.  Unstable sources push
x_t itself past float64 range long before 1e5 steps; e_t and k_t stay
stationary, so rates and distortions remain computable.
"""

import numpy as np

from ._backend import HAVE_NUMBA, default_backend, njit
from .quantizers import d4_nearest


def _state_loop(A, bw, x0, out):
    """States of x(t+1) = A x(t) + bw(t); bw rows precomputed as B @ w_t."""
    n1, p = out.shape
    for i in range(p):
        out[0, i] = x0[i]
    for t in range(1, n1):
        for i in range(p):
            acc = bw[t - 1, i]
            for j in range(p):
                acc += A[i, j] * out[t - 1, j]
            out[t, i] = acc


def _channel_loop(A, bw, x0, fe, g, noise, deltas, quantized, idx, k, alpha, beta, e):
    """Feedback loop for the AWGN channel and the dithered scalar quantizer.

    ``noise`` holds the channel noise v_t in the AWGN case (quantized=False)
    and the per-coordinate dither q_t in the quantized case, where the output
    is beta_i = round-to-cell(alpha_i + q_i) * delta_i - q_i with indices
    recorded in ``idx`` (cell ties round half away from zero).
    """
    n1, p = k.shape
    r = alpha.shape[1]
    eprev = np.zeros(p)
    for t in range(n1):
        if t == 0:
            for i in range(p):
                k[t, i] = x0[i]
        else:
            for i in range(p):
                acc = bw[t - 1, i]
                for j in range(p):
                    acc += A[i, j] * eprev[j]
                k[t, i] = acc
        for i in range(r):
            acc = 0.0
            for j in range(p):
                acc += fe[i, j] * k[t, j]
            alpha[t, i] = acc
        if quantized:
            for i in range(r):
                z = (alpha[t, i] + noise[t, i]) / deltas[i]
                if z >= 0.0:
                    ji = np.floor(z + 0.5)
                else:
                    ji = -np.floor(-z + 0.5)
                idx[t, i] = np.int64(ji)
                beta[t, i] = ji * deltas[i] - noise[t, i]
        else:
            for i in range(r):
                beta[t, i] = alpha[t, i] + noise[t, i]
        for i in range(p):
            acc = k[t, i]
            for j in range(r):
                acc -= g[i, j] * beta[t, j]
            e[t, i] = acc
            eprev[i] = acc


def _d4_loop(A, bw, x0, fe, g, dither, scale, idx, k, alpha, beta, e):
    """Feedback loop quantizing each block of four coordinates to scale*D4.

    Nearest-point rule, the one of ``quantizers.d4_nearest``: round every
    coordinate half away from zero; if the rounded sum is odd, move the
    coordinate with the largest rounding error (lowest index among equal
    errors) one step toward its input, upward when the two are equal.
    """
    n1, p = k.shape
    r = alpha.shape[1]
    nblk = r // 4
    eprev = np.zeros(p)
    z = np.zeros(4)
    for t in range(n1):
        if t == 0:
            for i in range(p):
                k[t, i] = x0[i]
        else:
            for i in range(p):
                acc = bw[t - 1, i]
                for j in range(p):
                    acc += A[i, j] * eprev[j]
                k[t, i] = acc
        for i in range(r):
            acc = 0.0
            for j in range(p):
                acc += fe[i, j] * k[t, j]
            alpha[t, i] = acc
        for b in range(nblk):
            o = 4 * b
            ssum = 0.0
            worst = -1.0
            wk = 0
            for i in range(4):
                xi = (alpha[t, o + i] + dither[t, o + i]) / scale
                if xi >= 0.0:
                    fi = np.floor(xi + 0.5)
                else:
                    fi = -np.floor(-xi + 0.5)
                z[i] = fi
                ssum += fi
                d = abs(xi - fi)
                if d > worst:
                    worst = d
                    wk = i
            if np.int64(ssum) % 2 != 0:
                xk = (alpha[t, o + wk] + dither[t, o + wk]) / scale
                if xk >= z[wk]:
                    z[wk] += 1.0
                else:
                    z[wk] -= 1.0
            for i in range(4):
                idx[t, o + i] = np.int64(z[i])
                beta[t, o + i] = z[i] * scale - dither[t, o + i]
        for i in range(p):
            acc = k[t, i]
            for j in range(r):
                acc -= g[i, j] * beta[t, j]
            e[t, i] = acc
            eprev[i] = acc


_PY_IMPLS = {
    "state_loop": _state_loop,
    "channel_loop": _channel_loop,
    "d4_loop": _d4_loop,
}

if HAVE_NUMBA:
    _NB_IMPLS = {name: njit(cache=True)(fn) for name, fn in _PY_IMPLS.items()}
else:  # pragma: no cover - numba is a declared dependency
    _NB_IMPLS = {}

_backend = default_backend()


def set_backend(name):
    """Select 'numba' or 'numpy' kernels at runtime (used by the benchmark)."""
    global _backend
    if name not in ("numba", "numpy"):
        raise ValueError(f"unknown backend {name!r}")
    if name == "numba" and not HAVE_NUMBA:
        raise ValueError("numba backend requested but numba is not importable")
    _backend = name


def get_backend():
    return _backend


def _impl(name):
    return (_NB_IMPLS if _backend == "numba" else _PY_IMPLS)[name]


def d4_roots():
    """The 24 minimal vectors of D4: all permutations of (+-1, +-1, 0, 0)."""
    roots = []
    for a in range(4):
        for b in range(a + 1, 4):
            for sa in (1.0, -1.0):
                for sb in (1.0, -1.0):
                    v = np.zeros(4)
                    v[a] = sa
                    v[b] = sb
                    roots.append(v)
    return np.array(roots)


def state_loop(A, bw, x0):
    out = np.empty((bw.shape[0] + 1, A.shape[0]))
    _impl("state_loop")(A, bw, x0, out)
    return out


def _alloc(n1, p, r):
    return (
        np.empty((n1, p)),
        np.empty((n1, r)),
        np.empty((n1, r)),
        np.empty((n1, p)),
    )


def awgn_loop(A, bw, x0, fe, g, noise):
    n1 = bw.shape[0] + 1
    k, alpha, beta, e = _alloc(n1, A.shape[0], fe.shape[0])
    idx = np.empty((0, fe.shape[0]), dtype=np.int64)
    deltas = np.ones(fe.shape[0])
    _impl("channel_loop")(A, bw, x0, fe, g, noise, deltas, False, idx, k, alpha, beta, e)
    return k, alpha, beta, e


def sdusq_loop(A, bw, x0, fe, g, dither, deltas):
    n1 = bw.shape[0] + 1
    k, alpha, beta, e = _alloc(n1, A.shape[0], fe.shape[0])
    idx = np.empty((n1, fe.shape[0]), dtype=np.int64)
    _impl("channel_loop")(A, bw, x0, fe, g, dither, deltas, True, idx, k, alpha, beta, e)
    return idx, k, alpha, beta, e


def d4_loop(A, bw, x0, fe, g, dither, scale):
    n1 = bw.shape[0] + 1
    k, alpha, beta, e = _alloc(n1, A.shape[0], fe.shape[0])
    idx = np.empty((n1, fe.shape[0]), dtype=np.int64)
    _impl("d4_loop")(A, bw, x0, fe, g, dither, scale, idx, k, alpha, beta, e)
    return idx, k, alpha, beta, e


def d4_dither(rng, scale, count):
    """``count`` rows uniform on the scale*D4 Voronoi cell of the origin.

    u is uniform on the fundamental box [0,1)^3 x [0,2) of D4 and the rows
    are scale * (u - d4_nearest(u)), which is exactly uniform on the cell
    (Zamir & Feder 1996).  d4_nearest rounds half away from zero and, on an
    odd sum, steps the largest-error coordinate (lowest index on equal
    errors) toward u; ties have probability zero here.
    """
    u = rng.random((count, 4))
    u[:, 3] *= 2.0
    return scale * (u - d4_nearest(u))
