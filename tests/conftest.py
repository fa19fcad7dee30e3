import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import zdrd
from zdrd import kernels
from zdrd.errors import DimensionMismatch
from zdrd.linalg import symmetrize
from zdrd.realization import channel_matrices
from zdrd.source_model import source_rows

STABLE_4D_A = np.array(
    [
        [0.0551, 0.0893, 0.0051, 0.0649],
        [0.0708, 0.0896, 0.0441, 0.0278],
        [0.0291, 0.0126, 0.0030, 0.0676],
        [0.0511, 0.0207, 0.0457, 0.0591],
    ]
)
UNSTABLE_4D_A = np.array(
    [
        [0.8147, 0.6324, 0.9575, 0.9572],
        [0.9058, 0.0975, 0.9649, 0.4854],
        [0.1270, 0.2785, 0.1576, 0.8003],
        [0.9134, 0.5469, 0.9706, 0.1419],
    ]
)


def random_source(p, seed, rho=0.9):
    """Seeded random source with spectral radius rho and B = I."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(p, p))
    A *= rho / np.max(np.abs(np.linalg.eigvals(A)))
    return zdrd.new_source(A, np.eye(p), np.eye(p))


def half_away(x):
    """The integer nearest to the float x, ties away from zero, by exact rationals."""
    q = Fraction(abs(x)) + Fraction(1, 2)
    return math.copysign(float(q.numerator // q.denominator), x)


def sign_floor(z):
    """sign(z) * floor(|z| + 1/2), exactly: floor(|z|), plus one when the exact
    difference |z| - floor(|z|) is at least 1/2.  (The float sum |z| + 1/2
    rounds up for the double below 1/2 and for odd integers from 2^52.)
    The tests' one half-away rounding; -0.0 maps to +0.0."""
    a = np.abs(z)
    f = np.floor(a)
    return np.sign(z) * (f + (a - f >= 0.5))


def d4_quantize(point, scale=1.0):
    """Nearest point of scale*D4, exact even at ties: the exhaustive reference.

    Candidates are built per coordinate from the two enclosing integers
    (three when the coordinate is already integral), filtered to even sum;
    among minimal-distance candidates the lexicographically smallest wins.
    It agrees with ``d4_nearest`` away from ties.  Returns the lattice point
    (not the integer coordinates).
    """
    x = np.asarray(point, float) / scale
    if x.shape != (4,):
        raise DimensionMismatch(f"D4 operates on 4-vectors, got shape {x.shape}")
    options = []
    for xi in x:
        f = np.floor(xi)
        if f == xi:
            options.append((xi - 1.0, xi, xi + 1.0))
        else:
            options.append((f, f + 1.0))
    best = None
    for cand in itertools.product(*options):
        if int(sum(cand)) % 2 != 0:
            continue
        d = sum((xi - ci) ** 2 for xi, ci in zip(x, cand))
        key = (d, cand)
        if best is None or key < best:
            best = key
    return np.array(best[1]) * scale


def d4_rule(x, axis=-1):
    """Nearest D4 points of the blocks of four along ``axis`` of x, by the tie
    rule ``quantizers`` states: round every coordinate half away from zero
    (``sign_floor``); if their sum is odd, move the coordinate with the
    largest rounding error one step toward x, the lowest index among equal
    errors, and up when x equals its rounding.  Zeros come out as +0.0."""
    x = np.asarray(x, float).swapaxes(axis, -1)
    f = sign_floor(x)
    worst = np.arange(4) == np.argmax(np.abs(x - f), axis=-1)[..., None]
    odd = np.sum(f, axis=-1, keepdims=True) % 2.0 != 0.0
    move = np.where(worst & odd, np.where(x >= f, 1.0, -1.0), 0.0)
    return (f + move).swapaxes(axis, -1)  # a -0.0 of f plus the +0.0 of move is +0.0


def in_order(ufunc, first, terms):
    """first, then the rows of terms applied to it by ufunc one at a time in
    index order: row i of ``ufunc.accumulate`` is row i - 1 combined with term i."""
    return ufunc.accumulate(np.concatenate([first[None], terms]))[-1]


def reference_loop(A, u, e_prev, fe=None, g=None, step=None):
    """``kernels.feedback_loop`` as scalar loops over i and j state it.

    Row t of u (m, p, G) makes k_t = u_t + sum_j A[:, j] e_{t-1}[j], from
    e_{-1} = e_prev (p, G); with a channel fe (r, p, G), alpha_t =
    sum_j fe[:, j] k_t[j] from a zero, beta_t = step(t, k_t, alpha_t) and
    e_t = k_t - sum_j g[:, j] beta_t[j], else e_t = k_t.  Every term is its
    own rounded product, and the terms are added in index order.  Returns
    e (m, p, G).
    """
    G = e_prev.shape[1]
    r = 0 if fe is None else fe.shape[0]
    e = np.empty(u.shape)
    for t in range(len(u)):
        # row j of each product is term j of its sum: A[:, j] e_{t-1}[j],
        # fe[:, j] k_t[j] or g[:, j] beta_t[j]
        k = in_order(np.add, u[t], A.T[:, :, None] * (e[t - 1] if t else e_prev)[:, None])
        if r:
            alpha = in_order(np.add, np.zeros((r, G)), fe.transpose(1, 0, 2) * k[:, None])
            k = in_order(np.subtract, k, g.transpose(1, 0, 2) * step(t, k, alpha)[:, None])
        e[t] = k
    return e


def reference_step(kind, noise, scale=None, z=None):
    """The step of a channel kind for :func:`reference_loop`, on (r, G) columns.

    "awgn" is the Gaussian channel beta_t = alpha_t + v_t, v_t = noise[t].
    "sdusq" and "d4" are the subtractive-dithered Z and D4 quantizers: with
    q_t = noise[t], they write z[t] = nearest((alpha_t + q_t) / scale), by
    ``sign_floor`` or by ``d4_rule`` on each column's blocks of four, and
    return z[t] * scale - q_t.
    """
    if kind == "awgn":
        return lambda t, k, alpha: alpha + noise[t]

    def step(t, k, alpha):
        x = (alpha + noise[t]) / scale
        if kind == "sdusq":
            z[t] = sign_floor(x)
        else:
            z[t] = d4_rule(x.reshape(-1, 4, x.shape[1]), axis=1).reshape(x.shape)
        return z[t] * scale - noise[t]

    return step


def awgn_reference(src, scheme, n, seeds):
    """(k, alpha, beta, e) of one ``kernels.awgn_loop`` over steps 0..n, on the
    streams ``coding.run_awgn_batch`` draws from ``seeds``: the source path
    from seeds.source and the channel noise from seeds.dither."""
    u = source_rows(src, seeds.source)(n + 1)
    noise = np.random.default_rng(seeds.dither).standard_normal((n + 1, scheme.r))
    fe, g = channel_matrices(scheme)
    return kernels.awgn_loop(src.A, u[1:], u[0], fe, g, noise)


def fixed_gains(scheme, sol):
    """(H, sigma_v) of a scheme: H = E^{-1} diag(h_tilde) E = I - pi lam^{-1}
    and sigma_v = pi H^T, the gain and noise covariance of the realization read
    as a fixed-gain filter, which only the steady-state checks use."""
    H = scheme.E_inv @ np.diag(scheme.h_tilde) @ scheme.E
    return H, symmetrize(sol.pi @ H.T)


def steady_state_update(lam, H, sigma_v, A, BBt):
    """One predicted-covariance update with fixed gains.

    Sigma -> A (Sigma - Sigma H^T (H Sigma H^T + sigma_v)^+ H Sigma) A^T + BB^T.
    The innovation covariance may be singular when coordinates are inactive,
    hence the pseudoinverse.
    """
    lam = np.asarray(lam, float)
    S = H @ lam @ H.T + sigma_v
    # rcond above the solver-gap scale: inactive directions are exact zeros
    # of the innovation covariance that carry only numerical noise
    gain = lam @ H.T @ np.linalg.pinv(symmetrize(S), rcond=1e-9)
    filt = lam - gain @ H @ lam
    return symmetrize(A @ filt @ A.T + BBt)


@pytest.fixture(scope="session")
def stable4():
    return zdrd.new_source(STABLE_4D_A, np.eye(4), np.eye(4))


@pytest.fixture(scope="session")
def unstable4():
    return zdrd.new_source(UNSTABLE_4D_A, np.eye(4), np.eye(4))


@pytest.fixture(scope="session")
def stable_ar2():
    return zdrd.augment_ar([[[0.3]], [[0.5]]], [[1.0]])


@pytest.fixture(scope="session")
def unstable_ar2():
    return zdrd.augment_ar([[[1.2]], [[0.5]]], [[1.0]])


@pytest.fixture(scope="session")
def scalar_half():
    return zdrd.new_source([[0.5]], [[1.0]], [[1.0]])
