"""Vector Gauss-Markov sources: validation, stability, augmentation, simulation.

The source is the linear state recursion x_{t+1} = A x_t + B w_t with
w_t ~ N(0, I) i.i.d. and x_0 ~ N(0, sigma_x0).  The driving-noise covariance
is fixed to the identity; any other covariance is absorbed into B.

Randomness comes from NumPy's PCG64 generator (``numpy.random.default_rng``)
with ziggurat Gaussian sampling, so a seed pins a run's input rows
(:func:`source_rows`) bit-for-bit across runs of the same build.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels
from .errors import ConfigParse, DimensionMismatch, NotPSD, config_mapping
from .linalg import as_matrix, check_psd, discrete_lyapunov, sorted_eig, symmetrize

# eigenvalues with |mu| >= 1 - MARGINAL_TOL count as on or outside the unit
# circle: eig returns |mu| = 1 - 1e-16 for a rotation, whose Lyapunov system
# S = A S A^T + B B^T is singular
MARGINAL_TOL = 1e-9
# loops run in time segments only when the steps two runs take to coalesce
# are at most 1/SEGMENT_SPAN of a run, and as at most SEGMENT_WIDTH columns
SEGMENT_SPAN = 5
SEGMENT_WIDTH = 64


@dataclass(frozen=True)
class GaussMarkovSource:
    """Validated time-invariant source (A, B, sigma_x0); immutable after construction."""

    A: np.ndarray
    B: np.ndarray
    sigma_x0: np.ndarray
    p: int = field(init=False)
    q: int = field(init=False)

    def __post_init__(self):
        # copies, so that freezing them leaves the caller's arrays writable
        # (check_psd returns a new sigma_x0)
        A = as_matrix(self.A, "A").copy()
        B = as_matrix(self.B, "B").copy()
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
        S = symmetrize(S)
        S.setflags(write=False)
        return S


@dataclass(frozen=True)
class StabilityReport:
    eigenvalues: np.ndarray  # complex, descending magnitude
    is_stable: bool
    rate_floor_bits: float


def new_source(A, B, sigma_x0) -> GaussMarkovSource:
    """Build and validate a source; raises DimensionMismatch / NotPSD."""
    return GaussMarkovSource(A, B, sigma_x0)


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
    S = src._stationary  # None unless the source is stable
    return float("inf") if S is None else float(np.trace(S))


def stationary_covariance(src: GaussMarkovSource) -> np.ndarray:
    """Solution of S = A S A^T + B B^T; raises NotPSD unless the source is stable.

    The read-only result is computed once per source and shared by every call.
    """
    S = src._stationary
    if S is None:
        raise NotPSD("stationary covariance requires a stable source")
    return S


def source_rows(src: GaussMarkovSource, seed: int):
    """``rows(m)``: the next m input rows (m, p) of the feedback loop on a run
    from ``seed``.  Row 0 is x_0 = F z, F = V sqrt(ev) by one eigh of the
    validated sigma_x0, ev clipped at 0; row t > 0 is B w_{t-1}, summed as
    the loop sums (``kernels``), one rounded product per term in index order,
    without BLAS, so a row does not depend on the rows beside it.  All come
    from one PCG64 stream, p normals for z, then q per row of w, so a
    horizon drawn in pieces equals one draw."""
    rng = np.random.default_rng(seed)
    ev, V = np.linalg.eigh(src.sigma_x0)
    x0 = (V * np.sqrt(np.clip(ev, 0.0, None))) @ rng.standard_normal(src.p)
    given = 0  # rows given out so far

    def rows(m):
        nonlocal given
        head = int(given == 0 < m)  # row 0 of the run is x_0
        given += m
        u = np.full((m, src.p), -0.0)
        u[:head] = x0
        w = rng.standard_normal((m - head, src.q))
        for j in range(src.q):
            u[head:] += w[:, j, None] * src.B[:, j]
        return u

    return rows


def time_segments(src: GaussMarkovSource, steps: int, loops: int) -> int:
    """The number S of time segments in which ``loops`` closed loops of
    ``src`` run ``steps`` steps side by side (``kernels.segmented_loop``).

    Two runs of the same streams from different errors agree to the last
    bit once rho(A)^t has shrunk their difference below half an ulp, after
    about -53 ln 2 / ln rho(A) steps.  S = 1 unless the source is stable and
    that is at most 1/SEGMENT_SPAN of the steps; then S G is at most
    SEGMENT_WIDTH columns, and a segment at least ``kernels.FIXUP_BLOCK`` steps.
    """
    report = stability_report(src)
    rho = float(np.abs(report.eigenvalues[0]))
    slow = rho > 0.0 and SEGMENT_SPAN * 53 * math.log(2) > steps * -math.log(rho)
    if not report.is_stable or slow:
        return 1
    return max(1, min(SEGMENT_WIDTH // loops, steps // kernels.FIXUP_BLOCK))


def simulate(src: GaussMarkovSource, n: int, seed: int) -> np.ndarray:
    """The states x_0..x_n (n + 1, p) of a run from ``seed``: the feedback
    loop without a channel, which is the state recursion, over
    ``source_rows(src, seed)``, run in :func:`time_segments` segments.  For
    unstable sources the raw state grows geometrically and leaves float64
    range after enough steps."""
    if n < 0:
        raise DimensionMismatch(f"n must be >= 0, got {n}")
    segments = kernels.TimeSegments(n + 1, time_segments(src, n + 1, 1), 1)
    u = segments.zeros(src.p)
    segments.put(u, 0, source_rows(src, seed)(n + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        e, _ = kernels.segmented_loop(src.A, u, np.zeros((src.p, 1)), segments)
    return segments.get(e, 0)


def source_from_dict(doc) -> GaussMarkovSource:
    """Load a source from a JSON-style mapping.

    Either {"A": [[...]], "B": [[...]], "sigma_x0": [[...]]} or
    {"ar_coefficients": [[[...]], ...], "B": [[...]], "sigma_x0": optional}.
    sigma_x0 defaults to the identity.  Other keys, or both A and
    ar_coefficients, raise ConfigParse.
    """
    config_mapping(doc, "source", ("A", "B", "sigma_x0", "ar_coefficients"))
    if "A" in doc and "ar_coefficients" in doc:
        raise ConfigParse("source description takes 'A' or 'ar_coefficients', not both")
    try:
        sigma = doc.get("sigma_x0")
        if "ar_coefficients" in doc:
            return augment_ar(doc["ar_coefficients"], doc["B"], sigma)
        A = as_matrix(doc["A"], "A")  # its size gives the default sigma_x0
        return new_source(A, doc["B"], np.eye(A.shape[0]) if sigma is None else sigma)
    except KeyError as exc:
        raise ConfigParse(f"source description missing key {exc}") from exc
    except (ValueError, TypeError) as exc:
        if isinstance(exc, (DimensionMismatch, NotPSD)):
            raise
        raise ConfigParse(f"malformed source description: {exc}") from exc
