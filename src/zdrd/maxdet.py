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
of 158 solves was flat from 50 to 150.  Suboptimality of the returned point
is at most the reported gap.

Stage starts: stage 1 starts from phase 1's point and stage 2 from the
first centre.  With x_j the centre of stage j, every later stage k starts
at x_{k-1} + (x_{k-1} - x_{k-2}) / T_GROWTH: the value at its t of the
barrier trajectory's expansion x(t) = a + b/t (Fiacco & McCormick 1968,
SUMT) fitted through the last two centres.  If that point lies outside the
cone the stage starts from x_{k-1}.  An example1 form_b point at D = 1
takes 35 Newton steps in 7 stages; started from the last centre it took
47, and 104 in 18 stages at factor 5.

Line search: steps halve from 1 until psi_t falls by the Armijo fraction
1/4 of the decrement.  With G(x) = L L^T, G(x + s dx) = L (I + s M) L^T,
M = sum_j dx_j W_j the whitened step (below), so a diagonal entry
1 + s d_i of I + s M at or below 0 proves the candidate infeasible.  A step
with 1 + s min_i d_i <= -SKIP_MARGIN (delta = 1e-2, over the G and Q
blocks) is skipped without being factored and counts as a halving; the
margin absorbs the rounding of the whitened diagonals.  Those diagonals are
accurate only while L is well conditioned, and only then does the skip
leave the accepted step as it is, saving factorizations alone.  Under
forced form_a on example1 (|det A| = 1.8e-6) it skips steps that factor:
two solves of that default grid took 41 and 40 Newton steps with the skip
against 37 and 39 without it, the second rate 7e-14 bits apart.

Each visited point is assembled and Cholesky-factored once (``_factors``);
a point outside the cone has no factors.  The factors give psi_t (twice
the log-diagonal sums), so the line search tests a candidate with one
factorization, and the accepted candidate's factors are those of the next
iterate: its potential and Newton system reuse them.  Phase 1 and an
extrapolated stage start hand over the factors of their point the same way.
``SolverStats.factorizations`` counts every attempt.

Newton system (Vandenberghe, Boyd & Wu 1998): with the Cholesky factor
G = L L^T of the current iterate each basis block is whitened,
W_j = L^-1 F_j L^-T, and flattened to a row; then g_j = -tr W_j and
H = W W^T, and likewise for the Q block with weight 1 + t/2.  The diagonals
of the W_j, which the traces sum, also give the line search's d_i.  This costs
O(n S^3 + n^2 S^2) per step instead of the O(n S^4) of contracting explicit
inverses, and H is exactly symmetric.

Lockstep grids: the points of a source's distortion grid are one grid
problem, built from the array of their targets D.  The basis stacks are
shared, and only fused_C's D entry differs between points, so fused_C
carries a leading point axis.  Phase 1's eigenvalues and Lyapunov solve
(``_phase1_start``) are also done once per grid; each point keeps its
scaling c, its Schur bound on Q and its feasibility halvings.
:func:`solve_grid` solves all points together.  The path follower of one
point is written once, as a generator (``_path``) that yields requests: a
point to factor, or a Newton system to form and solve at its factors and
t.  Each point keeps its own t, stage, centres, stop tests, Armijo test,
skip certificate and :class:`SolverStats`.  One driver (``_lockstep``)
serves each round's pending requests of all live points with one call on
a stack with a leading point axis.  A lone point is a stack of one: a
round of one request, a path left alone and :func:`solve_maxdet`, the
grid of one, take the same calls.  Every point's iterates are bit for bit
those of its solve alone, because each stacked call runs the same
BLAS/LAPACK kernels on each point's data whatever the stack's length:

* the affine maps are ``np.matmul(x[..., None, :], dA)`` with dA
  flattened to (n, S^2): one product per point.  The 2-D product of a
  (points, n) stack with dA is a single larger product and rounds
  differently;
* ``np.linalg.cholesky``, ``inv`` and ``solve`` work matrix by matrix on
  a stack, and ``solve(L, g[..., None])`` equals ``solve(L, g)``;
* whitening is ``Li[..., None, :, :] @ dA @ Li^T[..., None, :, :]``: per
  point, the (S, S) products of its solve alone.  The two-product form,
  ``Li @ [dA_0 | ... | dA_{n-1}]`` and then the stacked blocks ``@ Li^T``,
  issues fewer and larger products.  With numpy 2.4's OpenBLAS its second
  product rounded differently at S = 33 (p = 8), and a contiguous copy of
  Li^T did too, so neither is used;
* sums along the last axis, Gram products (one per point, exactly
  symmetric) and log-diagonal sums are per point, and the scalar products
  g dx and dx diag are taken in each point's path.

A stacked Cholesky raises when any matrix of the stack fails, so such a
stack is factored again matrix by matrix, and each point sees its own
success or failure.  A stacked call that raises one of
``errors.POINT_ERRORS`` is served again as stacks of one request, and the
error of a stack of one is raised inside the path of its point.

BATCH_BYTES = 256 KiB bounds the whitened rows of a batch, 8 n (S^2 + m^2)
bytes per point (form_b): 4 KB at p = 2, 49 KB at p = 4, 112 KB at p = 5
and 222 KB at p = 6.  So a batch holds up to 64 points at p = 2, 5 at
p = 4 and 2 at p = 5, and grids from p = 6 run one point at a time.
Lockstep saves the per-call overhead of the ~40 small numpy calls of a
step, which dominates only at small p.  On a 2-core Xeon (2 MB L2 per
core, one BLAS thread), solving 10 barrier points in batches of 5
instead of 1 cut the time per point by 25% at p = 3, 23% at p = 4 and 4%
at p = 5, while at p = 6 and 8 batches of 2 to 10 took from as long to
1.7 times as long.

Every BLAS/LAPACK call, phase 1's Lyapunov solve included
(``linalg.discrete_lyapunov``), goes through numpy (``@`` and
``np.linalg``).
"""

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .errors import POINT_ERRORS, InfeasibleModel, SolverDivergence
from .linalg import discrete_lyapunov, symmetrize

GAP_TARGET = 1e-10  # nats; |rate error| <= gap/ln 2 bits
T_GROWTH = 100.0  # long steps: t grows 100x per stage (module docstring)
MAX_OUTER = 500
MAX_INNER = 50
INNER_TOL = 1e-5  # half squared Newton decrement, intermediate stages
INNER_TOL_FINAL = 1e-9
SKIP_MARGIN = 1e-2  # delta of the line search's infeasibility test (module docstring)
BATCH_BYTES = 256 << 10  # bound on a lockstep batch's whitened rows (module docstring)

_FACTOR, _NEWTON = "factor", "newton"  # the requests a point's path yields


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
    backtracks: int = 0  # line-search step halvings, skipped steps included
    factorizations: int = 0  # Cholesky attempts: phase 1, stage starts, line-search candidates


@dataclass
class MaxdetProblem:
    """Affine problem data: one fused unit-weight LMI group plus the Q block.

    A grid problem, built from an array of targets D, carries one point per
    target: D is then that array and fused_C the (G, S, S) stack of the
    points' constants, which differ only in their D entry.
    """

    A: np.ndarray
    B: np.ndarray
    D: float  # or the (G,) targets of a grid
    top: Callable  # (Pi, Q) stacks -> linear part of the form's top LMI
    top_C: np.ndarray  # constant part of the top LMI; Q sits in its leading m x m block
    fused_C: np.ndarray  # (S, S), or (G, S, S) for a grid
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
        return self.fused_C.shape[-1] + self.m

    def points(self):
        """The one-point problems of a grid, which share its basis stacks; [self] for one point."""
        if self.fused_C.ndim == 2:
            return [self]
        return [replace(self, D=float(D), fused_C=C) for D, C in zip(self.D, self.fused_C)]


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
    C = _blockdiag(top_C, B @ B.T, np.zeros((p, p)), np.asarray(D, float)[..., None, None])
    return MaxdetProblem(A, B, D, top, top_C, C, dA, Q, len(Epi), p, m)


def form_b_problem(A, B, D) -> MaxdetProblem:
    """Blocks for the representation that needs BB^T invertible; D a target or a grid's."""
    p = A.shape[0]

    def top(P, Q):
        return np.block([[P - Q, P @ A.T], [A @ P, A @ P @ A.T]])

    return _problem(A, B, D, p, top, _blockdiag(np.zeros((p, p)), B @ B.T))


def form_a_problem(A, B, D) -> MaxdetProblem:
    """Blocks for the representation that needs A invertible (B may be singular); D as above."""

    def top(P, Q):
        return _blockdiag(-Q, A @ P @ A.T)

    top_C = np.block([[np.eye(B.shape[1]), B.T], [B, B @ B.T]])
    return _problem(A, B, D, B.shape[1], top, top_C)


def _cholesky(M):
    """Cholesky factors of the matrices M[..., :, :] and where they exist.

    The second value is True when every matrix has a factor.  A stacked
    factorization raises when any matrix of the stack fails, so a failed
    stack is factored again matrix by matrix: the second value is then
    False for a lone matrix, or a bool array over the stack, and a matrix
    that has no factor gets the identity in its place.
    """
    try:
        return np.linalg.cholesky(M), True
    except np.linalg.LinAlgError:
        if M.ndim == 2:
            return np.eye(M.shape[-1]), False
        L, ok = np.empty(M.shape), np.empty(M.shape[:-2], bool)
        for k, Mk in enumerate(M):
            L[k], ok[k] = _cholesky(Mk)
        return L, ok


def _factors(prob: MaxdetProblem, x):
    """Factors of G(x) and Q(x) over the leading axes of x, and where they exist.

    Returns ((Lg, Lq, logdet G, logdet Q), ok): the Cholesky factors, twice
    their log-diagonal sums, and whether x lies inside the cone, True when
    every point does or else a bool over the leading axes (the factors of a
    point outside are placeholders).  ``prob.fused_C`` broadcasts against the
    leading axes.  The affine maps are ``np.matmul(x[..., None, :], dA)``
    with the basis flattened to (n, S^2): one BLAS product per point, the
    one ``np.tensordot(x, dA, 1)`` makes.  The 2-D product of a stack of x
    with dA is a single larger product and rounds differently.
    """
    n, S, m = prob.n, prob.fused_C.shape[-1], prob.m
    lead, row = x.shape[:-1], x[..., None, :]
    G = prob.fused_C + np.matmul(row, prob.fused_dA.reshape(n, -1)).reshape(lead + (S, S))
    Q = np.matmul(row, prob.q_dA.reshape(n, -1)).reshape(lead + (m, m))
    (Lg, ok_g), (Lq, ok_q) = _cholesky(G), _cholesky(Q)
    logdets = [2.0 * np.log(L.diagonal(0, -2, -1)).sum(axis=-1) for L in (Lg, Lq)]
    return (Lg, Lq, *logdets), ok_g & ok_q


def _potential(factors, t):
    """Barrier potential psi_t from the factors of a strictly feasible point."""
    return -factors[2] - (1.0 + 0.5 * t) * factors[3]


def _phase1_start(A, B):
    """Phase 1's point of departure for a source: (P, trace P), P the solution of
    the contracted stationarity equation (see :func:`phase1_point`)."""
    rho = max(1.0, float(np.max(np.abs(np.linalg.eigvals(A)))))
    s = 1.0 / (2.0 * rho * rho)
    try:
        Pstar = discrete_lyapunov(np.sqrt(s) * A, s * (B @ B.T))
    except np.linalg.LinAlgError as exc:
        raise InfeasibleModel(f"phase-1 stationarity solve failed: {exc}") from exc
    Pstar = symmetrize(Pstar)
    tr = float(np.trace(Pstar))
    if not np.isfinite(tr) or tr <= 0:
        raise InfeasibleModel("phase-1 produced a degenerate candidate")
    return Pstar, tr


def phase1_point(prob: MaxdetProblem):
    """A strictly feasible x, its factors and the Cholesky attempts: (x, factors, k).

    Pi0 is a scaled solution of the contracted stationarity equation
    P = s A P A^T + s BB^T with s = 1/(2 max(1, rho(A))^2): such P
    satisfies P < Lambda(P) strictly, and every downscaling c P with
    c <= 1 stays strictly inside while meeting trace(c P) < D.  Q0 sits at
    0.99 of its Schur-complement bound T11 - T12 T22^-1 T21 in the top LMI
    T = top(Pi0, 0) + top_C, whose leading m x m block carries -Q.
    """
    (result,) = _lockstep([prob], [_phase1(prob, _phase1_start(prob.A, prob.B))])
    if isinstance(result, BaseException):
        raise result
    return result


def _phase1(prob: MaxdetProblem, start):
    """:func:`phase1_point` of one point from its source's ``_phase1_start``, as a path."""
    Pstar, tr = start
    m = prob.m
    c = min(0.9 * prob.D / tr, 0.95)
    attempts = 0
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
        factors = yield _FACTOR, x
        attempts += 1
        if factors is not None:
            return x, factors, attempts
        c *= 0.5
    raise InfeasibleModel("phase-1 cannot find a strictly feasible point")


def _whitened(L, dA):
    """Rows W_j = vec(L^-1 dA_j L^-T) of the basis whitened by the factors L[..., :, :].

    Each point's blocks are the (S, S) products of its solve alone, in both
    factors' order.
    """
    Li = np.linalg.inv(L)[..., None, :, :]
    return (Li @ dA @ Li.swapaxes(-1, -2)).reshape(L.shape[:-2] + (dA.shape[0], -1))


def _newton_system(prob: MaxdetProblem, factors, t):
    """Gradient, Hessian and whitened diagonals of psi_t at points with factors (Lg, Lq, ...).

    With G = L L^T and W_j = L^-1 F_j L^-T, the barrier -logdet G has
    gradient -tr W_j and Hessian <W_j, W_l>, so H is one Gram product and
    exactly symmetric.  The third value holds the diagonals of the W_j,
    the G block's then the Q block's, one row per variable: dx times it is
    the diagonal of the whitened step, which the line search reads.  For
    points stacked along leading axes, t has those axes and one more of
    length 1.
    """
    Lg, Lq = factors[:2]
    S, m = Lg.shape[-1], prob.m
    w = np.asarray(1.0 + 0.5 * t)
    Wg = _whitened(Lg, prob.fused_dA)
    Wq = _whitened(Lq, prob.q_dA)
    dg, dq = Wg[..., :: S + 1], Wq[..., :: m + 1]
    g = -dg.sum(axis=-1) - w * dq.sum(axis=-1)
    H = Wg @ Wg.swapaxes(-1, -2) + w[..., None] * (Wq @ Wq.swapaxes(-1, -2))
    return g, H, np.concatenate([dg, dq], axis=-1)


def _newton_step(H, g):
    """The Newton steps -H^-1 g over leading axes, by Cholesky.

    A stack whose factorization fails is solved matrix by matrix, and a
    matrix with no factor takes a ridge of 1e-10 times its mean diagonal.
    """
    try:
        L = np.linalg.cholesky(H)
        return -np.linalg.solve(L.swapaxes(-1, -2), np.linalg.solve(L, g[..., None]))[..., 0]
    except np.linalg.LinAlgError:
        if H.ndim > 2:
            return np.stack([_newton_step(Hk, gk) for Hk, gk in zip(H, g)])
        n = len(g)
        ridge = 1e-10 * np.trace(H) / n
        return -np.linalg.solve(H + ridge * np.eye(n), g)


def _line_search(prob: MaxdetProblem, x, dx, dmin, t, base, gdx):
    """Armijo backtracking along dx from step 1, halving the step, as a path.

    ``dmin`` is the least diagonal entry of the whitened step
    sum_j dx_j W_j over both blocks.  A step s with
    1 + s dmin <= -SKIP_MARGIN is skipped unfactored: the whitened
    candidate I + s sum_j dx_j W_j, a congruence of G(x + s dx), then has a
    diagonal entry at or below -SKIP_MARGIN, so the candidate lies outside
    the cone.  A skipped step counts as a halving like a refused one.

    Returns (halvings, factorizations, accepted); ``accepted`` is the
    candidate's (x, factors, potential), or None once the step falls below
    1e-16.
    """
    halvings = factorizations = 0
    step = 1.0
    while step > 1e-16:
        if 1.0 + step * dmin > -SKIP_MARGIN:
            x_cand = x + step * dx
            f_cand = yield _FACTOR, x_cand
            factorizations += 1
            if f_cand is not None:
                cand = _potential(f_cand, t)
                if cand <= base + 0.25 * step * gdx:
                    return halvings, factorizations, (x_cand, f_cand, cand)
        step *= 0.5
        halvings += 1
    return halvings, factorizations, None


def _path(prob: MaxdetProblem, start):
    """The barrier path follower of one point, as a path; returns (Pi, kkt, stats)."""
    x, factors, factorizations = yield from _phase1(prob, start)
    nu = float(prob.nu)
    t = 1.0
    last_lam2 = np.inf
    newton_steps = backtracks = 0
    centres = []  # the last two stages' centres, oldest first
    for stage in range(1, MAX_OUTER + 1):
        final = nu / t <= GAP_TARGET
        tol = INNER_TOL_FINAL if final else INNER_TOL
        if len(centres) == 2:
            # x(t) = a + b/t through the last two centres, evaluated at t
            x_start = x + (x - centres[0]) / T_GROWTH
            if not np.array_equal(x_start, x):  # else the last stage took no step
                f_start = yield _FACTOR, x_start
                factorizations += 1
                if f_start is not None:
                    x, factors = x_start, f_start
        base = _potential(factors, t)
        for _ in range(MAX_INNER):
            g, dx, diag = yield _NEWTON, factors, t
            newton_steps += 1
            gdx = float(g @ dx)
            lam2 = -gdx  # the products and their sum change sign exactly
            if not math.isfinite(lam2) or lam2 < 0.0:
                break
            last_lam2 = lam2
            if 0.5 * lam2 <= tol:
                break
            dmin = float((dx @ diag).min())
            halvings, tried, accepted = yield from _line_search(prob, x, dx, dmin, t, base, gdx)
            backtracks += halvings
            factorizations += tried
            if accepted is None:
                break
            x, factors, cand = accepted
            if base - cand < 1e-13 * (1.0 + abs(base)):
                break
            base = cand  # same factors and t: the next iterate's potential
        centres = [*centres[-1:], x]
        if final:
            kkt = nu / t + np.sqrt(max(last_lam2, 0.0)) * np.sqrt(nu) / t
            if not math.isfinite(kkt):
                raise SolverDivergence(f"barrier path following ended with kkt residual {kkt} nats")
            stats = SolverStats(stage, newton_steps, backtracks, factorizations)
            return unvech(x[: prob.nb_pi], prob.p), kkt, stats
        t *= T_GROWTH
    raise SolverDivergence(
        f"barrier path following exceeded {MAX_OUTER} stages (gap target {GAP_TARGET})"
    )


def _serve(batch: MaxdetProblem, asks, replies):
    """Reply to the requests [(i, request)] of one kind with one call on their stack.

    i indexes the points of ``batch``, whose fused_C has the point axis.
    Points to factor take one ``_factors`` call, Newton systems one
    ``_newton_system`` and one ``_newton_step`` call.  A stack that raises
    one of ``POINT_ERRORS`` is served again as stacks of one request, and
    the error of a stack of one is its point's reply.
    """
    idx = [i for i, _ in asks]
    try:
        if asks[0][1][0] is _FACTOR:
            rows = batch
            if len(idx) < len(batch.D):
                rows = replace(batch, D=batch.D[idx], fused_C=batch.fused_C[idx])
            (Lg, Lq, ld_g, ld_q), ok = _factors(rows, np.array([req[1] for _, req in asks]))
            out = zip(Lg, Lq, ld_g.tolist(), ld_q.tolist())
            if ok is not True:
                out = [f if inside else None for f, inside in zip(out, ok.tolist())]
        else:
            Lg = np.array([req[1][0] for _, req in asks])
            Lq = np.array([req[1][1] for _, req in asks])
            g, H, diag = _newton_system(batch, (Lg, Lq), np.array([[req[2]] for _, req in asks]))
            out = zip(g, _newton_step(H, g), diag)
    except POINT_ERRORS as exc:
        if len(asks) == 1:
            replies[idx[0]] = exc
        else:  # each point alone, where it meets its own error
            for ask in asks:
                _serve(batch, [ask], replies)
        return
    for i, reply in zip(idx, out):
        replies[i] = reply


def _advance(path, reply):
    """The path's next request after ``reply``; an error reply is raised inside the path."""
    if isinstance(reply, BaseException):
        return path.throw(reply)
    return path.send(reply)


def _lockstep(points, paths):
    """Run the paths of ``points`` side by side.

    Returns each path's value, or the error (one of ``POINT_ERRORS``) that
    ended it.  Each round serves the pending requests of all live paths:
    the points to factor in one ``_factors`` call, the Newton systems in
    one ``_newton_system`` and one ``_newton_step`` call, each on a stack
    with a leading point axis, however few points ask.
    """
    batch = replace(
        points[0],
        D=np.array([point.D for point in points]),
        fused_C=np.array([point.fused_C for point in points]),
    )
    results = [None] * len(paths)
    replies = [None] * len(paths)
    live = range(len(paths))
    while live:
        factor, newton = [], []
        for i in live:
            try:
                request = _advance(paths[i], replies[i])
            except StopIteration as stop:
                results[i] = stop.value
            except POINT_ERRORS as exc:
                results[i] = exc
            else:
                (factor if request[0] is _FACTOR else newton).append((i, request))
        live = sorted(i for i, _ in factor + newton)
        for asks in (factor, newton):
            if asks:
                _serve(batch, asks, replies)
    return results


def batch_width(prob: MaxdetProblem):
    """Points solved side by side: as many as BATCH_BYTES of whitened rows hold, at least one."""
    S, m = prob.fused_C.shape[-1], prob.m
    return max(1, BATCH_BYTES // (8 * prob.n * (S * S + m * m)))


def solve_grid(prob: MaxdetProblem):
    """Solve every point of ``prob`` in lockstep batches of :func:`batch_width` points.

    Returns, in grid order, each point's (Pi, kkt_residual_nats, stats) as
    :func:`solve_maxdet` gives it, or the error (one of ``POINT_ERRORS``)
    that its solve alone raises.
    """
    points = prob.points()
    try:
        start = _phase1_start(prob.A, prob.B)
    except InfeasibleModel as exc:
        return [exc] * len(points)
    width = batch_width(prob)
    results = []
    for a in range(0, len(points), width):
        batch = points[a : a + width]
        results += _lockstep(batch, [_path(point, start) for point in batch])
    return results


def solve_maxdet(prob: MaxdetProblem):
    """Run the barrier path follower on one point; returns (Pi, kkt_residual_nats, stats).

    Pi is exactly symmetric (:func:`unvech` writes both triangles).  The
    residual is the duality-gap bound nu/t at the final stage plus the
    centering slack; all LMI blocks of the returned point are strictly
    positive definite.  ``stats`` is the solve's :class:`SolverStats`.
    It is the grid of one: :func:`solve_grid` on a one-point problem.
    """
    (result,) = solve_grid(prob)
    if isinstance(result, BaseException):
        raise result
    return result
