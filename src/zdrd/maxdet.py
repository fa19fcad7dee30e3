"""Determinant-maximization solver for the steady-state rate program.

The program minimized here is

    minimize   -1/2 logdet Q  (+ a data constant)
    subject to G(Pi, Q) >= 0,

where G collects, block-diagonally, the linear matrix inequalities of one of
two equivalent semidefinite representations:

* form_b (noise loading with full row rank, BB^T invertible):
      [[Pi - Q, Pi A^T], [A Pi, A Pi A^T + BB^T]] >= 0,
      constant 1/2 log|BB^T|, Q of size p;
* form_a (A invertible, B may be singular):
      [[I - Q, B^T], [B, A Pi A^T + BB^T]] >= 0,
      constant log|det A|, Q of size q;

both joined with Lambda(Pi) - Pi >= 0, Pi > 0, Q > 0 and trace(Pi) <= D.
At the optimum -1/2 logdet Q + const equals 1/2 log(|Lambda|/|Pi|), the
information rate of the optimal one-step predictor pair.

Assembly: each form is written once, as the linear part top(Pi, Q) of its
top LMI on stacks of matrices plus its constant top_C (form_b:
[[Pi - Q, Pi A^T], [A Pi, A Pi A^T]] and [[0, 0], [0, BB^T]]; form_a:
blockdiag(-Q, A Pi A^T) and [[I, B^T], [B, BB^T]]).  One shared map joins it
block-diagonally with A Pi A^T - Pi, Pi and -tr Pi and is applied once to
the vech basis stacks, which gives the coefficient of every variable.
Phase 1 bounds Q by a Schur complement of the same top map.  The existence
conditions (BB^T resp. A nonsingular) are checked by the caller,
``solver.dispatch_form``.

Solution method: a primal log-barrier path follower.  For an increasing
weight t we Newton-minimize

    psi_t(Pi, Q) = -(1 + t/2) logdet Q - logdet G_rest(Pi, Q)

over the vectorized symmetric variables, with backtracking line search that
keeps every block strictly positive definite.  The centering weight t grows
geometrically by T_GROWTH = 100 per stage, a long-step schedule, until
nu / t falls below the duality-gap target GAP_TARGET, nu being the total
barrier degree.  Total Newton steps are flat for factors of roughly 10-100
(Boyd & Vandenberghe, Convex Optimization, 11.3.3); this repository's scan
of 158 solves was flat from 50 to 150.  An example1 form_b point at D = 1
takes 47 Newton steps in 7 stages, against 104 in 18 stages at factor 5;
the gap target is the same for both.  Suboptimality of the returned point
is at most the reported gap.

Each visited point is assembled and Cholesky-factored once (``_factors``);
a point outside the cone has no factors.  The factors give psi_t (twice
the log-diagonal sums), so the line search tests a candidate with one
factorization, and the accepted candidate's factors are those of the next
iterate: its potential and Newton system reuse them.  Phase 1 hands over the
factors of the starting point the same way.

Newton system (Vandenberghe, Boyd & Wu 1998): with the Cholesky factor
G = L L^T of the current iterate each basis block is whitened,
W_j = L^-1 F_j L^-T, and flattened to a row; then g_j = -tr W_j and
H = W W^T, and likewise for the Q block with weight 1 + t/2.  This costs
O(n S^3 + n^2 S^2) per step instead of the O(n S^4) of contracting explicit
inverses, and H is exactly symmetric.

Every BLAS/LAPACK call, phase 1's Lyapunov solve included
(``linalg.discrete_lyapunov``), goes through numpy (``@`` and
``np.linalg``).
"""

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleModel, SolverDivergence
from .linalg import discrete_lyapunov, symmetrize

GAP_TARGET = 1e-10  # nats; |rate error| <= gap/ln 2 bits
T_GROWTH = 100.0  # long steps: t grows 100x per stage (module docstring)
MAX_OUTER = 500
MAX_INNER = 50
INNER_TOL = 1e-5  # half squared Newton decrement, intermediate stages
INNER_TOL_FINAL = 1e-9


def sym_basis(p):
    """Basis of symmetric p x p matrices ordered by vech (row-major upper)."""
    i, j = np.triu_indices(p)
    E = np.zeros((len(i), p, p))
    E[np.arange(len(i)), i, j] = 1.0
    E[np.arange(len(i)), j, i] = 1.0
    return E


def vech(M):
    return M[np.triu_indices(M.shape[0])]


def unvech(x, p):
    i, j = np.triu_indices(p)
    M = np.zeros((p, p))
    M[i, j] = x
    M[j, i] = x
    return M


def _blockdiag(*blocks):
    """Block-diagonal matrices from (stacks of) square blocks, broadcast."""
    lead = np.broadcast_shapes(*(b.shape[:-2] for b in blocks))
    S = sum(b.shape[-1] for b in blocks)
    out = np.zeros(lead + (S, S))
    o = 0
    for b in blocks:
        s = b.shape[-1]
        out[..., o : o + s, o : o + s] = b
        o += s
    return out


@dataclass(frozen=True)
class SolverStats:
    """Work of one barrier solve; all zero for solutions found without it."""

    stages: int = 0  # centering stages, one per value of t
    newton_steps: int = 0  # Newton systems formed and solved
    backtracks: int = 0  # line-search step halvings


@dataclass
class MaxdetProblem:
    """Affine problem data: one fused unit-weight LMI group plus the Q block."""

    A: np.ndarray
    B: np.ndarray
    D: float
    top: Callable  # (Pi, Q) stacks -> linear part of the form's top LMI
    top_C: np.ndarray  # constant part of the top LMI; Q sits in its leading m x m block
    fused_C: np.ndarray  # (S, S)
    fused_dA: np.ndarray  # (n, S, S)
    q_dA: np.ndarray  # (n, m, m); the Q block value is sum x_j q_dA[j]
    nb_pi: int
    p: int
    m: int

    @property
    def n(self):
        return self.fused_dA.shape[0]

    @property
    def nu(self):
        return self.fused_C.shape[0] + self.m


def _problem(A, B, D, m, top, top_C):
    """Apply [top LMI] + [Lambda - Pi] + [Pi] + [D - tr Pi] to the vech basis.

    The variable stacks are [E_Pi; 0] for Pi and [0; E_Q] for Q, so row j
    of each map is the coefficient of x_j.
    """
    p = A.shape[0]
    Epi, Eq = sym_basis(p), sym_basis(m)
    P = np.concatenate([Epi, np.zeros((len(Eq), p, p))])
    Q = np.concatenate([np.zeros((len(Epi), m, m)), Eq])
    tr = -np.trace(P, axis1=1, axis2=2)[:, None, None]
    dA = _blockdiag(top(P, Q), A @ P @ A.T - P, P, tr)
    C = _blockdiag(top_C, B @ B.T, np.zeros((p, p)), np.array([[D]], float))
    return MaxdetProblem(A, B, D, top, top_C, C, dA, Q, len(Epi), p, m)


def form_b_problem(A, B, D) -> MaxdetProblem:
    """Blocks for the representation that needs BB^T invertible."""
    p = A.shape[0]

    def top(P, Q):
        return np.block([[P - Q, P @ A.T], [A @ P, A @ P @ A.T]])

    return _problem(A, B, D, p, top, _blockdiag(np.zeros((p, p)), B @ B.T))


def form_a_problem(A, B, D) -> MaxdetProblem:
    """Blocks for the representation that needs A invertible (B may be singular)."""

    def top(P, Q):
        return _blockdiag(-Q, A @ P @ A.T)

    top_C = np.block([[np.eye(B.shape[1]), B.T], [B, B @ B.T]])
    return _problem(A, B, D, B.shape[1], top, top_C)


def _factors(prob: MaxdetProblem, x):
    """Cholesky factors (Lg, Lq) of G(x) and Q(x), or None outside the cone.

    The affine maps are the one BLAS product ``np.tensordot(x, dA, 1)``
    makes, without its argument handling; another product (matmul, einsum)
    would round differently.
    """
    n, S = prob.n, prob.fused_C.shape[0]
    G = prob.fused_C + np.dot(x[None], prob.fused_dA.reshape(n, -1)).reshape(S, S)
    Q = np.dot(x[None], prob.q_dA.reshape(n, -1)).reshape(prob.m, prob.m)
    try:
        return np.linalg.cholesky(G), np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        return None


def _potential(factors, t):
    """Barrier potential psi_t from the factors of a strictly feasible point."""
    Lg, Lq = factors
    ld_f = 2.0 * float(np.sum(np.log(np.diag(Lg))))
    ld_q = 2.0 * float(np.sum(np.log(np.diag(Lq))))
    return -ld_f - (1.0 + 0.5 * t) * ld_q


def phase1_point(prob: MaxdetProblem):
    """A strictly feasible x with its factors: (x, (Lg, Lq)).

    Pi0 is a scaled solution of the contracted stationarity equation
    P = s A P A^T + s BB^T with s = 1/(2 max(1, rho(A))^2): such P
    satisfies P < Lambda(P) strictly, and every downscaling c P with
    c <= 1 stays strictly inside while meeting trace(c P) < D.  Q0 sits at
    0.99 of its Schur-complement bound T11 - T12 T22^-1 T21 in the top LMI
    T = top(Pi0, 0) + top_C, whose leading m x m block carries -Q.
    """
    A, B, D, m = prob.A, prob.B, prob.D, prob.m
    BBt = B @ B.T
    rho = max(1.0, float(np.max(np.abs(np.linalg.eigvals(A)))))
    s = 1.0 / (2.0 * rho * rho)
    try:
        Pstar = discrete_lyapunov(np.sqrt(s) * A, s * BBt)
    except np.linalg.LinAlgError as exc:
        raise InfeasibleModel(f"phase-1 stationarity solve failed: {exc}") from exc
    Pstar = symmetrize(Pstar)
    tr = float(np.trace(Pstar))
    if not np.isfinite(tr) or tr <= 0:
        raise InfeasibleModel("phase-1 produced a degenerate candidate")
    c = min(0.9 * D / tr, 0.95)
    for _ in range(8):
        Pi0 = c * Pstar
        T = prob.top(Pi0, np.zeros((m, m))) + prob.top_C
        try:
            Sb = T[:m, :m] - T[:m, m:] @ np.linalg.solve(T[m:, m:], T[m:, :m])
        except np.linalg.LinAlgError:
            c *= 0.5
            continue
        Q0 = 0.99 * symmetrize(Sb)
        x = np.concatenate([vech(Pi0), vech(Q0)])
        factors = _factors(prob, x)
        if factors is not None:
            return x, factors
        c *= 0.5
    raise InfeasibleModel("phase-1 cannot find a strictly feasible point")


def _whitened(L, dA):
    """Rows W_j = vec(L^-1 dA_j L^-T) of the basis whitened by the factor L."""
    Li = np.linalg.inv(L)
    return (Li @ dA @ Li.T).reshape(dA.shape[0], -1)


def _newton_system(prob: MaxdetProblem, factors, t):
    """Gradient and Hessian of psi_t at the point with Cholesky factors (Lg, Lq).

    With G = L L^T and W_j = L^-1 F_j L^-T, the barrier -logdet G has
    gradient -tr W_j and Hessian <W_j, W_l>, so H is one Gram product and
    exactly symmetric.
    """
    Lg, Lq = factors
    S, m = Lg.shape[0], prob.m
    w = 1.0 + 0.5 * t
    Wg = _whitened(Lg, prob.fused_dA)
    Wq = _whitened(Lq, prob.q_dA)
    g = -Wg[:, :: S + 1].sum(axis=1) - w * Wq[:, :: m + 1].sum(axis=1)
    H = Wg @ Wg.T + w * (Wq @ Wq.T)
    return g, H


def solve_maxdet(prob: MaxdetProblem):
    """Run the barrier path follower; returns (Pi, Q, kkt_residual_nats, stats).

    The residual is the duality-gap bound nu/t at the final stage plus the
    centering slack; all LMI blocks of the returned point are strictly
    positive definite.  ``stats`` is the solve's :class:`SolverStats`.
    """
    x, factors = phase1_point(prob)
    n = prob.n
    nu = float(prob.nu)
    t = 1.0
    last_lam2 = np.inf
    newton_steps = backtracks = 0
    for stage in range(1, MAX_OUTER + 1):
        final = nu / t <= GAP_TARGET
        tol = INNER_TOL_FINAL if final else INNER_TOL
        base = _potential(factors, t)
        for _ in range(MAX_INNER):
            g, H = _newton_system(prob, factors, t)
            newton_steps += 1
            try:
                L = np.linalg.cholesky(H)
                dx = -np.linalg.solve(L.T, np.linalg.solve(L, g))
            except np.linalg.LinAlgError:
                ridge = 1e-10 * np.trace(H) / n
                dx = -np.linalg.solve(H + ridge * np.eye(n), g)
            lam2 = float(-g @ dx)
            if not np.isfinite(lam2) or lam2 < 0.0:
                break
            last_lam2 = lam2
            if 0.5 * lam2 <= tol:
                break
            gdx = float(g @ dx)
            step = 1.0
            while step > 1e-16:
                x_cand = x + step * dx
                f_cand = _factors(prob, x_cand)
                if f_cand is not None:
                    cand = _potential(f_cand, t)
                    if cand <= base + 0.25 * step * gdx:
                        break
                step *= 0.5
                backtracks += 1
            else:
                break
            x, factors = x_cand, f_cand
            if base - cand < 1e-13 * (1.0 + abs(base)):
                break
            base = cand  # same factors and t: the next iterate's potential
        if final:
            Pi = unvech(x[: prob.nb_pi], prob.p)
            Qm = unvech(x[prob.nb_pi :], prob.m)
            slack = np.sqrt(max(last_lam2, 0.0)) * np.sqrt(nu) / t
            return Pi, Qm, nu / t + slack, SolverStats(stage, newton_steps, backtracks)
        t *= T_GROWTH
    raise SolverDivergence(
        f"barrier path following exceeded {MAX_OUTER} stages (gap target {GAP_TARGET})"
    )
