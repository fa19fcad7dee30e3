"""Steady-state information rate of a Gauss-Markov source at a distortion target.

``nrdf`` returns the minimal bits-per-vector-per-step rate of any causal
reproduction meeting E||x - y||^2 <= D in steady state, together with the
optimizing covariance pair: pi (filtered error covariance) and
lam = A pi A^T + B B^T (one-step prediction error covariance).  The rate is
1/2 log2(|lam| / |pi|).

Dispatch: first the exact zero-rate solution for stable sources at
D >= d_max, at every dimension and in every form; below d_max the closed
form for scalar sources, otherwise one of the two determinant-maximization
representations in :mod:`zdrd.maxdet` (form_b when BB^T is invertible,
form_a when only A is).  ``dispatch_form`` checks a forced form's condition
before the zero-rate exit, so it holds at every D.  Whether a source is
stable, and its d_max, are decided in :mod:`zdrd.source_model` alone.

Grids: ``nrdf_grid(src, Ds, form)`` solves a source's whole distortion grid
at once and returns each point's solution or the error it raises.  It
checks the targets, dispatches the form once, and takes the zero-rate and
closed-form points first.  The other points make one grid problem, which
:func:`maxdet.solve_grid` solves in lockstep: every factorization, Newton
system and line-search round of the live points is one call on a stack,
and each point's iterates, rate, residual and stats are bit for bit those
of its solve alone (the :mod:`zdrd.maxdet` docstring gives the rules that
keep them so).  ``nrdf`` is the grid of one.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import maxdet
from .errors import POINT_ERRORS, BadDistortion, InfeasibleModel
from .linalg import symmetrize
from .source_model import GaussMarkovSource, d_max, stationary_covariance

RANK_RTOL = 1e-10  # singular values below RANK_RTOL * s_max count as zero

FORM_B = "form_b"
FORM_A = "form_a"
SCALAR_CLOSED_FORM = "scalar_closed_form"


@dataclass(frozen=True)
class NrdfSolution:
    distortion_target: float
    rate_bits: float
    pi: np.ndarray
    lam: np.ndarray
    kkt_residual: float
    form_used: str
    stats: maxdet.SolverStats = maxdet.SolverStats()  # zeros unless the barrier ran

    def to_dict(self):
        return {
            "distortion_target": self.distortion_target,
            "rate_bits": self.rate_bits,
            "pi": self.pi.tolist(),
            "lambda": self.lam.tolist(),
            "kkt_residual": self.kkt_residual,
            "form_used": self.form_used,
            "stats": asdict(self.stats),
        }


def scalar_ar1_nrdf(alpha: float, sigma2: float, D: float) -> float:
    """Closed-form rate for a scalar source x_{t+1} = alpha x_t + w_t, var sigma2.

    Returns max(0, 1/2 log2(alpha^2 + sigma2 / D)) bits.
    """
    if not (np.isfinite(D) and D > 0):
        raise BadDistortion(f"D must be a positive real, got {D}")
    if not (np.isfinite(sigma2) and sigma2 > 0):
        raise BadDistortion(f"sigma2 must be a positive real, got {sigma2}")
    return max(0.0, 0.5 * math.log2(alpha * alpha + sigma2 / D))


def _full_rank(M):
    s = np.linalg.svd(M, compute_uv=False)
    return bool(np.all(s > RANK_RTOL * s[0]))


def _rate_from_pair(pi, lam):
    sp, ldp = np.linalg.slogdet(pi)
    sl, ldl = np.linalg.slogdet(lam)
    if sp <= 0 or sl <= 0:
        raise InfeasibleModel("solution covariances are not positive definite")
    return max(0.0, 0.5 * (ldl - ldp) / math.log(2.0))


def _zero_rate_solution(src, D, form_name):
    S = stationary_covariance(src)
    if np.linalg.slogdet(S)[0] <= 0:
        raise InfeasibleModel("stationary covariance is singular")
    return NrdfSolution(
        distortion_target=float(D),
        rate_bits=0.0,
        pi=S,
        lam=S.copy(),
        kkt_residual=0.0,
        form_used=form_name,
    )


def _scalar_solution(src, D):
    """The closed-form pair below d_max: pi = D and lam = a^2 D + b^2."""
    alpha = float(src.A[0, 0])
    pi = np.array([[D]])
    lam = alpha * alpha * pi + src.B @ src.B.T
    return NrdfSolution(
        distortion_target=float(D),
        rate_bits=_rate_from_pair(pi, lam),
        pi=pi,
        lam=lam,
        kkt_residual=0.0,
        form_used=SCALAR_CLOSED_FORM,
    )


def dispatch_form(src: GaussMarkovSource, form: str | None = None) -> str:
    """The representation ``nrdf`` solves in; checks its existence condition.

    form_b needs BB^T nonsingular and form_a needs A nonsingular.  A forced
    ``form`` must meet its own condition; by default scalar sources take the
    closed form, then form_b is preferred over form_a.
    """
    conditions = {FORM_B: (src.B @ src.B.T, "BB^T"), FORM_A: (src.A, "A")}
    if form is None:
        if src.p == 1:
            return SCALAR_CLOSED_FORM
        for name, (M, _) in conditions.items():
            if _full_rank(M):
                return name
        raise InfeasibleModel(
            "existence requires A nonsingular or B with full row rank; neither holds"
        )
    if form not in conditions:
        raise ValueError(f"unknown form {form!r}")
    M, what = conditions[form]
    if not _full_rank(M):
        raise InfeasibleModel(f"{form} requires {what} to be nonsingular")
    return form


def _target(D):
    """D as a float; BadDistortion unless it is a positive real."""
    try:
        D = float(D)
    except (TypeError, ValueError) as exc:
        raise BadDistortion(f"D must be a positive real, got {D!r}") from exc
    if not (np.isfinite(D) and D > 0):
        raise BadDistortion(f"D must be a positive real, got {D!r}")
    return D


def nrdf_grid(src: GaussMarkovSource, Ds, form: str | None = None) -> list:
    """:func:`nrdf` at every distortion target of ``Ds``, solved together.

    Entry k is the solution at ``Ds[k]``, or the error (one of
    ``errors.POINT_ERRORS``) that ``nrdf(src, Ds[k], form)`` raises; any
    other error propagates.  Each point meets nrdf's checks and exits in
    its order: the target, the form's existence condition, the zero-rate
    exit, the closed form.  The remaining points build one grid problem and
    run in lockstep (:func:`maxdet.solve_grid`), each bit for bit as it
    would alone.
    """
    out = []
    for D in Ds:
        try:
            out.append(_target(D))
        except BadDistortion as exc:
            out.append(exc)
    todo = [k for k, D in enumerate(out) if isinstance(D, float)]
    if not todo:
        return out
    try:
        form = dispatch_form(src, form)
    except InfeasibleModel as exc:
        return [exc if k in todo else err for k, err in enumerate(out)]
    dm = d_max(src)
    barrier = []
    for k in todo:
        D = out[k]
        try:
            if D >= dm:
                out[k] = _zero_rate_solution(src, D, form)
            elif form == SCALAR_CLOSED_FORM:
                out[k] = _scalar_solution(src, D)
            else:
                barrier.append(k)
        except POINT_ERRORS as exc:
            out[k] = exc
    if not barrier:
        return out
    build = maxdet.form_b_problem if form == FORM_B else maxdet.form_a_problem
    prob = build(src.A, src.B, np.array([out[k] for k in barrier]))
    for k, solved in zip(barrier, maxdet.solve_grid(prob)):
        try:
            if isinstance(solved, BaseException):
                raise solved
            out[k] = _barrier_solution(src, out[k], form, *solved)
        except POINT_ERRORS as exc:
            out[k] = exc
    return out


def _barrier_solution(src, D, form, pi, kkt, stats):
    lam = symmetrize(src.A @ pi @ src.A.T + src.B @ src.B.T)
    return NrdfSolution(
        distortion_target=D,
        rate_bits=_rate_from_pair(pi, lam),
        pi=pi,
        lam=lam,
        kkt_residual=float(kkt),
        form_used=form,
        stats=stats,
    )


def nrdf(src: GaussMarkovSource, D: float, form: str | None = None) -> NrdfSolution:
    """Rate (bits/vector/step) and optimizing pair at distortion target D.

    ``form`` forces a representation ("form_b" or "form_a"); the default is
    :func:`dispatch_form`'s choice.  Stable sources at D >= d_max return the
    exact zero-rate stationary solution, whatever their dimension or form;
    a singular stationary covariance there raises InfeasibleModel.  It is
    the grid of one: :func:`nrdf_grid` at the one target D.
    """
    (sol,) = nrdf_grid(src, [D], form)
    if isinstance(sol, BaseException):
        raise sol
    return sol
