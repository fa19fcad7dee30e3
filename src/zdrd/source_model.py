"""Vector Gauss-Markov sources: validation, stability, augmentation, simulation.

The source is the linear state recursion x_{t+1} = A x_t + B w_t with
w_t ~ N(0, I) i.i.d. and x_0 ~ N(0, sigma_x0).  The driving-noise covariance
is fixed to the identity; any other covariance is absorbed into B.

Randomness comes from NumPy's PCG64 generator (``numpy.random.default_rng``)
with ziggurat Gaussian sampling, so a seed pins a trajectory bit-for-bit
across runs of the same build.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels
from .errors import ConfigParse, DimensionMismatch, NotPSD, config_mapping
from .linalg import as_matrix, check_psd, discrete_lyapunov, sorted_eig

# eigenvalues with |mu| >= 1 - MARGINAL_TOL count as on or outside the unit
# circle: eig returns |mu| = 1 - 1e-16 for a rotation, whose Lyapunov system
# S = A S A^T + B B^T is singular
MARGINAL_TOL = 1e-9


@dataclass(frozen=True)
class GaussMarkovSource:
    """Validated time-invariant source (A, B, sigma_x0); immutable after construction."""

    A: np.ndarray
    B: np.ndarray
    sigma_x0: np.ndarray
    p: int = field(init=False)
    q: int = field(init=False)

    def __post_init__(self):
        A = as_matrix(self.A, "A")
        B = as_matrix(self.B, "B")
        if A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        p = A.shape[0]
        if B.ndim != 2 or B.shape[0] != p:
            raise DimensionMismatch(f"B must have {p} rows, got {B.shape}")
        sigma = check_psd(self.sigma_x0, "sigma_x0")
        if sigma.shape != (p, p):
            raise DimensionMismatch(
                f"sigma_x0 must be {p}x{p} to match A, got {sigma.shape}"
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "sigma_x0", sigma)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", B.shape[1])
        self.A.setflags(write=False)
        self.B.setflags(write=False)
        self.sigma_x0.setflags(write=False)

    @cached_property
    def _stationary(self):
        """Read-only stationary covariance, or None when the source is not
        stable; solved once per source."""
        if not stability_report(self).is_stable:
            return None
        S = discrete_lyapunov(self.A, self.B @ self.B.T)
        S = 0.5 * (S + S.T)
        S.setflags(write=False)
        return S


@dataclass(frozen=True)
class StabilityReport:
    eigenvalues: np.ndarray  # complex, descending magnitude
    is_stable: bool
    rate_floor_bits: float


@dataclass(frozen=True)
class Trajectory:
    """A simulated run: samples[t] is the state at time t, 0 <= t <= n.

    ``noise`` keeps the driving w_t sequence (shape (n, q)) and ``x0`` the
    initial state, so downstream closed-loop runs can re-drive the exact
    same source even when an unstable state sequence leaves float64 range.
    ``source`` is the generating model.
    """

    samples: np.ndarray
    seed: int
    noise: np.ndarray
    x0: np.ndarray
    source: "GaussMarkovSource"

    @property
    def n(self):
        return self.samples.shape[0] - 1


def new_source(A, B, sigma_x0) -> GaussMarkovSource:
    """Build and validate a source; raises DimensionMismatch / NotPSD."""
    return GaussMarkovSource(np.asarray(A, float), np.asarray(B, float), np.asarray(sigma_x0, float))


def stability_report(src: GaussMarkovSource) -> StabilityReport:
    """Eigenvalues of A by descending magnitude plus the unstable rate floor.

    The floor is sum(log2 |mu|) over eigenvalues with |mu| > 1, in bits per
    vector per step; it lower-bounds every achievable rate for the source.
    The source is stable when every |mu| < 1 - MARGINAL_TOL, so marginally
    stable sources (a rotation, say) are not.
    """
    ev = sorted_eig(src.A)
    mags = np.abs(ev)
    floor = float(np.sum(np.log2(mags[mags > 1.0]))) if np.any(mags > 1.0) else 0.0
    return StabilityReport(
        eigenvalues=ev,
        is_stable=bool(np.all(mags < 1.0 - MARGINAL_TOL)),
        rate_floor_bits=floor,
    )


def augment_ar(coefficients, B, sigma_x0=None) -> GaussMarkovSource:
    """Lift an order-s autoregression x_{t+1} = sum_j A_j x_{t-j+1} + B w_t
    to a first-order source on the stacked state (x_t, ..., x_{t-s+1}).

    The transition matrix takes companion-block form with the A_j across the
    top row and identity blocks on the subdiagonal; the noise loads B into
    the top block only.  With s = 1 the source (A_1, B) is returned as-is.
    """
    mats = [as_matrix(M, f"A_{j + 1}") for j, M in enumerate(coefficients)]
    if not mats:
        raise DimensionMismatch("need at least one coefficient matrix")
    p = mats[0].shape[0]
    for j, M in enumerate(mats):
        if M.shape != (p, p):
            raise DimensionMismatch(f"A_{j + 1} must be {p}x{p}, got {M.shape}")
    B = as_matrix(B, "B")
    if B.shape[0] != p:
        raise DimensionMismatch(f"B must have {p} rows, got {B.shape}")
    s = len(mats)
    q = B.shape[1]
    if sigma_x0 is None:
        sigma_x0 = np.eye(s * p)
    if s == 1:
        return new_source(mats[0], B, sigma_x0)
    At = np.zeros((s * p, s * p))
    for j, M in enumerate(mats):
        At[:p, j * p : (j + 1) * p] = M
    At[p:, : (s - 1) * p] = np.eye((s - 1) * p)
    Bt = np.zeros((s * p, s * q))
    Bt[:p, :q] = B
    return new_source(At, Bt, sigma_x0)


def d_max(src: GaussMarkovSource) -> float:
    """Smallest distortion with zero rate: trace of the stationary covariance.

    The stationary covariance solves S = A S A^T + B B^T; at D >= trace(S)
    the prediction-only reproduction already meets the target, so the rate
    is zero.  Unstable and marginally stable sources have no stationary
    covariance: returns +inf.
    """
    try:
        return float(np.trace(stationary_covariance(src)))
    except NotPSD:
        return float("inf")


def stationary_covariance(src: GaussMarkovSource) -> np.ndarray:
    """Solution of S = A S A^T + B B^T; raises NotPSD unless the source is stable.

    The read-only result is computed once per source and shared by every call.
    """
    S = src._stationary
    if S is None:
        raise NotPSD("stationary covariance requires a stable source")
    return S


def source_noise(src: GaussMarkovSource, n: int, seed: int):
    """(x0, w) of a run from ``seed``: x0 = F N(0, I), F F^T = sigma_x0, then
    the (n, q) driving noise w, drawn in that order from one PCG64 stream.
    F = V sqrt(ev) by one eigh of the validated sigma_x0, ev clipped at 0."""
    rng = np.random.default_rng(seed)
    ev, V = np.linalg.eigh(src.sigma_x0)
    x0 = (V * np.sqrt(np.clip(ev, 0.0, None))) @ rng.standard_normal(src.p)
    w = rng.standard_normal((n, src.q))
    return x0, w


def simulate(src: GaussMarkovSource, n: int, seed: int) -> Trajectory:
    """Simulate n steps (n+1 samples); deterministic given seed.

    For unstable sources the raw state grows geometrically and leaves
    float64 range after enough steps; the stored driving noise keeps such
    trajectories usable by the bounded closed-loop runs.
    """
    if n < 0:
        raise DimensionMismatch(f"n must be >= 0, got {n}")
    x0, w = source_noise(src, n, seed)
    bw = w @ src.B.T
    with np.errstate(over="ignore", invalid="ignore"):
        # the feedback loop without a channel is the state recursion
        _, samples = kernels.feedback_loop(src.A, bw[..., None], x0[:, None])
    return Trajectory(samples=samples[..., 0], seed=int(seed), noise=w, x0=x0, source=src)


def source_from_dict(doc) -> GaussMarkovSource:
    """Load a source from a JSON-style mapping.

    Either {"A": [[...]], "B": [[...]], "sigma_x0": [[...]]} or
    {"ar_coefficients": [[[...]], ...], "B": [[...]], "sigma_x0": optional}.
    sigma_x0 defaults to the identity.  Other keys raise ConfigParse.
    """
    config_mapping(doc, "source", ("A", "B", "sigma_x0", "ar_coefficients"))
    try:
        if "ar_coefficients" in doc:
            coeffs = [np.asarray(M, float) for M in doc["ar_coefficients"]]
            B = np.asarray(doc["B"], float)
            sigma = doc.get("sigma_x0")
            return augment_ar(coeffs, B, None if sigma is None else np.asarray(sigma, float))
        A = np.asarray(doc["A"], float)
        B = np.asarray(doc["B"], float)
        sigma = doc.get("sigma_x0")
        if sigma is None:
            sigma = np.eye(A.shape[0])
        return new_source(A, B, np.asarray(sigma, float))
    except KeyError as exc:
        raise ConfigParse(f"source description missing key {exc}") from exc
    except (ValueError, TypeError) as exc:
        if isinstance(exc, (DimensionMismatch, NotPSD)):
            raise
        raise ConfigParse(f"malformed source description: {exc}") from exc
