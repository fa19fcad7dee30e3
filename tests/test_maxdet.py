"""Determinant-maximization engine checks against independent oracles."""

import os
import subprocess
import sys
import time
import types

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.optimize import minimize

import zdrd
from zdrd import experiments, maxdet
from zdrd.errors import InfeasibleModel, SolverDivergence
from zdrd.solver import FORM_A, FORM_B, nrdf, nrdf_grid, scalar_ar1_nrdf

from conftest import random_source

# Frozen brute-force oracle for a fixed stable p=2 instance at D = 0.3:
# random search over PSD matrices with trace <= D (1e6 samples) followed by
# Nelder-Mead refinement of the best candidate.  See oracle_rate below.
ORACLE_A = np.array([[0.42, -0.15], [0.23, 0.36]])
ORACLE_B = np.array([[0.9, 0.1], [-0.2, 0.7]])
ORACLE_D = 0.3
ORACLE_RATE_BITS = 2.181293011695152


def rate_of_pi(Pi, A, BBt, D):
    det = Pi[0, 0] * Pi[1, 1] - Pi[0, 1] ** 2
    if Pi[0, 0] <= 0 or det <= 0 or np.trace(Pi) > D:
        return np.inf
    Lam = A @ Pi @ A.T + BBt
    diff = 0.5 * (Lam + Lam.T) - Pi
    if np.linalg.eigvalsh(diff)[0] < 0:
        return np.inf
    return 0.5 * (np.linalg.slogdet(Lam)[1] - np.log(det)) / np.log(2)


def einsum_newton_system(prob, x, t):
    """Reference Newton system from explicit inverses and trace contractions."""
    G = prob.fused_C + np.tensordot(x, prob.fused_dA, axes=1)
    Q = np.tensordot(x, prob.q_dA, axes=1)
    Gi = np.linalg.inv(G)
    Qi = np.linalg.inv(Q)
    w = 1.0 + 0.5 * t
    g = -np.einsum("ab,jba->j", Gi, prob.fused_dA)
    g -= w * np.einsum("ab,jba->j", Qi, prob.q_dA)
    T1 = np.einsum("ab,jbc,cd->jad", Gi, prob.fused_dA, Gi)
    H = np.einsum("jab,lba->jl", T1, prob.fused_dA)
    T2 = np.einsum("ab,jbc,cd->jad", Qi, prob.q_dA, Qi)
    H += w * np.einsum("jab,lba->jl", T2, prob.q_dA)
    return g, 0.5 * (H + H.T)


def oracle_rate(A, B, D, samples, seed):
    """Random search over feasible 2x2 covariances plus local refinement."""
    rng = np.random.default_rng(seed)
    BBt = B @ B.T
    a = rng.uniform(0, D, samples)
    b = rng.uniform(0, D, samples)
    keep = a + b <= D
    a, b = a[keep], b[keep]
    c = rng.uniform(-1, 1, a.size) * np.sqrt(a * b)
    best_val, best_pi = np.inf, None
    for ai, bi, ci in zip(a, b, c):
        v = rate_of_pi(np.array([[ai, ci], [ci, bi]]), A, BBt, D)
        if v < best_val:
            best_val, best_pi = v, np.array([[ai, ci], [ci, bi]])
    res = minimize(
        lambda v: rate_of_pi(np.array([[v[0], v[1]], [v[1], v[2]]]), A, BBt, D),
        np.array([best_pi[0, 0], best_pi[0, 1], best_pi[1, 1]]),
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-13, "maxiter": 20000},
    )
    return min(best_val, res.fun)


class TestScalarOracle:
    def test_hundred_random_instances_match_closed_form(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100):
            alpha = rng.uniform(-1.5, 1.5)
            sigma2 = rng.uniform(0.1, 4.0)
            dmax = sigma2 / (1 - alpha**2) if abs(alpha) < 1 else np.inf
            hi = 2 * max(1.0, dmax if np.isfinite(dmax) else 1.0)
            D = rng.uniform(1e-3, hi)
            src = zdrd.new_source([[alpha]], [[np.sqrt(sigma2)]], [[1.0]])
            sol = nrdf(src, D, form=FORM_B)
            worst = max(worst, abs(sol.rate_bits - scalar_ar1_nrdf(alpha, sigma2, D)))
        assert worst < 1e-8

    def test_scalar_form_b_tracks_closed_form_tightly(self):
        src = zdrd.new_source([[0.5]], [[1.0]], [[1.0]])
        sol = nrdf(src, 0.5, form=FORM_B)
        assert abs(sol.rate_bits - scalar_ar1_nrdf(0.5, 1.0, 0.5)) < 1e-8
        assert sol.kkt_residual <= 1e-6

    def test_zero_rate_regime(self):
        src = zdrd.new_source([[0.3]], [[1.0]], [[1.0]])
        dmax = zdrd.d_max(src)
        sol = nrdf(src, dmax * 1.5, form=FORM_B)
        assert sol.rate_bits == 0.0
        assert np.allclose(sol.pi, sol.lam)
        # the barrier itself also lands at (numerically) zero rate
        prob = maxdet.form_b_problem(src.A, src.B, dmax * 1.5)
        pi, _, _ = maxdet.solve_maxdet(prob)
        lam = src.A @ pi @ src.A.T + src.B @ src.B.T
        rate = 0.5 * (np.linalg.slogdet(lam)[1] - np.linalg.slogdet(pi)[1]) / np.log(2)
        assert 0.0 <= rate < 1e-7


class TestFormAgreement:
    def test_forms_agree_on_random_instances(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for trial in range(10):
            p = 2 if trial < 5 else 3
            while True:
                A = rng.normal(size=(p, p)) * 0.6
                B = rng.normal(size=(p, p))
                if abs(np.linalg.det(A)) > 0.05 and abs(np.linalg.det(B)) > 0.05:
                    break
            src = zdrd.new_source(A, B, np.eye(p))
            D = rng.uniform(0.1, 1.0)
            rb = nrdf(src, D, form=FORM_B).rate_bits
            ra = nrdf(src, D, form=FORM_A).rate_bits
            worst = max(worst, abs(rb - ra))
        assert worst < 1e-6

    def test_singular_b_needs_form_a(self, unstable_ar2):
        sol = nrdf(unstable_ar2, 0.5, form=FORM_A)
        assert sol.rate_bits > 0.611
        with pytest.raises(InfeasibleModel):
            nrdf(unstable_ar2, 0.5, form=FORM_B)

    def test_auto_dispatch(self, unstable_ar2, stable4):
        assert nrdf(unstable_ar2, 0.5).form_used == FORM_A
        assert nrdf(stable4, 1.0).form_used == FORM_B


def direct_lmi(form, A, B, D, Pi, Q):
    """The fused LMI written out from the maxdet module docstring."""
    BBt = B @ B.T
    Lam = A @ Pi @ A.T + BBt
    if form == FORM_B:
        top = np.block([[Pi - Q, Pi @ A.T], [A @ Pi, Lam]])
    else:
        top = np.block([[np.eye(B.shape[1]) - Q, B.T], [B, Lam]])
    return block_diag(top, Lam - Pi, Pi, [[D - np.trace(Pi)]])


class TestAssembly:
    @pytest.mark.parametrize(
        "form, p, q",
        [(FORM_B, p, p) for p in (1, 2, 3)]
        + [(FORM_A, 1, 1), (FORM_A, 1, 2), (FORM_A, 2, 1), (FORM_A, 2, 3), (FORM_A, 3, 3)],
    )
    def test_tensors_match_direct_lmi(self, form, p, q):
        rng = np.random.default_rng(100 * p + q)
        A, B, D = rng.normal(size=(p, p)), rng.normal(size=(p, q)), rng.uniform(0.5, 2.0)
        build = maxdet.form_b_problem if form == FORM_B else maxdet.form_a_problem
        prob = build(A, B, D)
        m = q if form == FORM_A else p
        nb_pi, nb_q = p * (p + 1) // 2, m * (m + 1) // 2
        assert (prob.p, prob.m, prob.nb_pi, prob.n) == (p, m, nb_pi, nb_pi + nb_q)
        for _ in range(3):
            x = rng.normal(size=prob.n)
            Pi, Q = maxdet.unvech(x[: prob.nb_pi], p), maxdet.unvech(x[prob.nb_pi :], m)
            G = prob.fused_C + np.tensordot(x, prob.fused_dA, axes=1)
            ref = direct_lmi(form, A, B, D, Pi, Q)
            np.testing.assert_allclose(G, ref, rtol=1e-13, atol=1e-13)
            assert np.array_equal(np.tensordot(x, prob.q_dA, axes=1), Q)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_vech_round_trip(self, p):
        order = [(i, j) for i in range(p) for j in range(i, p)]
        M = np.random.default_rng(p).normal(size=(p, p))
        M = M + M.T
        assert np.array_equal(maxdet.vech(M), [M[i, j] for i, j in order])
        assert np.array_equal(maxdet.unvech(maxdet.vech(M), p), M)
        E = maxdet.sym_basis(p)
        assert E.shape == (len(order), p, p)
        for Ek, (i, j) in zip(E, order):
            expect = np.zeros((p, p))
            expect[i, j] = expect[j, i] = 1.0
            assert np.array_equal(Ek, expect)
        assert np.array_equal(np.tensordot(maxdet.vech(M), E, axes=1), M)


class TestNewtonSystem:
    @pytest.mark.parametrize("build", [maxdet.form_a_problem, maxdet.form_b_problem])
    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_einsum_reference(self, build, p):
        src = random_source(p, seed=10 + p)
        prob = build(src.A, src.B, 0.3 * zdrd.d_max(src))
        x, factors, _ = maxdet.phase1_point(prob)
        S = factors[0].shape[0]
        for t in (1.0, 25.0, 3125.0, 1e8):
            g, H, diag = maxdet._newton_system(prob, factors, t)
            g_ref, H_ref = einsum_newton_system(prob, x, t)
            # small entries come from cancelling sums, so the tolerance is
            # also taken relative to the largest entry
            for got, ref in ((g, g_ref), (H, H_ref)):
                np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())
            assert np.array_equal(H, H.T)
            # the whitened diagonals' traces are the gradient's terms
            assert diag.shape == (prob.n, S + prob.m)
            w = 1.0 + 0.5 * t
            assert np.array_equal(g, -diag[:, :S].sum(axis=1) - w * diag[:, S:].sum(axis=1))


class TestFactorOnce:
    # repr(rate_bits), repr(kkt_residual) recorded with the long-step schedule
    # (T_GROWTH = 100) and extrapolated stage starts; refactors of the Newton
    # loop must keep them bit-identical
    PINNED = {
        "example1": ("np.float64(4.008097225683299)", "2.274833271458085e-11"),
        "example4": ("np.float64(1.1995005938112435)", "1.1365192169273197e-11"),
        "random6": ("np.float64(6.139276284214853)", "3.102303344065739e-11"),
    }
    # rate_bits of the same solves when every stage started from the last
    # centre: a change of stage start may move a rate only within the gap
    LAST_CENTRE_START_RATES = {
        "example1": 4.008097225683425,
        "example4": 1.1995005938112158,
        "random6": 6.139276284214832,
    }
    # rate_bits of the same solves under the earlier short-step schedule
    # (T_GROWTH = 5): a schedule change may move a rate only within the gap
    SHORT_STEP_RATES = {
        "example1": 4.008097225683857,
        "example4": 1.199500593827277,
        "random6": 6.1392762842152635,
    }

    def test_solutions_pinned(self, stable4, unstable_ar2):
        # stable4 and unstable_ar2 are the example1 and example4 sources
        src6 = random_source(6, seed=16)
        sols = {
            "example1": nrdf(stable4, 1.0, form=FORM_B),
            "example4": nrdf(unstable_ar2, 0.5, form=FORM_A),
            "random6": nrdf(src6, 0.1 * zdrd.d_max(src6), form=FORM_B),
        }
        got = {k: (repr(s.rate_bits), repr(s.kkt_residual)) for k, s in sols.items()}
        assert got == self.PINNED
        for old in (self.LAST_CENTRE_START_RATES, self.SHORT_STEP_RATES):
            for k, rate in old.items():
                assert abs(sols[k].rate_bits - rate) < 1e-9

    @pytest.mark.parametrize("build", [maxdet.form_a_problem, maxdet.form_b_problem])
    def test_each_point_factored_once(self, build, stable4, monkeypatch):
        seen = []
        factors = maxdet._factors

        def recording(prob, x):
            seen.append(x.tobytes())
            return factors(prob, x)

        monkeypatch.setattr(maxdet, "_factors", recording)
        stats = maxdet.solve_maxdet(build(stable4.A, stable4.B, 1.0))[2]
        assert len(seen) > 20
        assert len(set(seen)) == len(seen)
        assert stats.factorizations == len(seen)

    @pytest.mark.parametrize("form", [FORM_A, FORM_B])
    def test_each_grid_point_factored_once(self, form, stable4, monkeypatch):
        # in lockstep, each point's visited x is factored once across rounds;
        # a row's point is read from the D entry of its constant
        seen, rows = {}, []
        factors = maxdet._factors

        def recording(prob, x):
            D = np.broadcast_to(prob.fused_C[..., -1, -1], x.shape[:-1])
            for d, row in zip(D.reshape(-1), x.reshape(-1, x.shape[-1])):
                seen.setdefault(float(d), []).append(row.tobytes())
            rows.append(x.reshape(-1, x.shape[-1]).shape[0])
            return factors(prob, x)

        monkeypatch.setattr(maxdet, "_factors", recording)
        grid = experiments.default_grid(stable4, 6)
        sols = nrdf_grid(stable4, grid, form)
        barrier = [sol for sol in sols if sol.stats.factorizations]
        assert len(barrier) == 5 and max(rows) == 5
        assert sorted(seen) == sorted(sol.distortion_target for sol in barrier)
        for sol in barrier:
            xs = seen[sol.distortion_target]
            assert len(xs) > 20
            assert len(set(xs)) == len(xs)
            assert sol.stats.factorizations == len(xs)

    def test_scipy_stays_out_of_the_newton_loop(self):
        # scipy is a test dependency only: the library binds none of its names,
        # and importing zdrd loads none of it (half the import time it cost)
        def origin(obj):
            if isinstance(obj, types.ModuleType):
                return obj.__name__
            return getattr(obj, "__module__", None) or ""

        from_scipy = [k for k, v in vars(maxdet).items() if origin(v).split(".")[0] == "scipy"]
        assert from_scipy == []
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(zdrd.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
        probe = "import sys, zdrd; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


class TestSolverStats:
    def test_newton_step_budget(self, stable4, monkeypatch):
        # the long-step schedule with extrapolated stage starts solves this
        # point in 35 Newton steps (47 when each stage started from the last
        # centre); T_GROWTH = 5 takes 46 (pinned below), so the budget fails it
        systems, factored = [], []
        newton_system, factors = maxdet._newton_system, maxdet._factors

        def counting(*args):
            systems.append(args)
            return newton_system(*args)

        def counting_factors(*args):
            factored.append(args)
            return factors(*args)

        monkeypatch.setattr(maxdet, "_newton_system", counting)
        monkeypatch.setattr(maxdet, "_factors", counting_factors)
        stats = nrdf(stable4, 1.0, form=FORM_B).stats
        assert stats.newton_steps == len(systems)
        assert stats.factorizations == len(factored)
        assert stats.newton_steps <= 45
        assert stats == maxdet.SolverStats(
            stages=7, newton_steps=35, backtracks=15, factorizations=36
        )
        monkeypatch.setattr(maxdet, "T_GROWTH", 5.0)
        short = nrdf(stable4, 1.0, form=FORM_B).stats
        assert short == maxdet.SolverStats(
            stages=18, newton_steps=46, backtracks=12, factorizations=56
        )

    def test_grid_newton_steps_are_the_systems_formed(self, unstable_ar2, monkeypatch):
        # in lockstep, each point's newton_steps counts the rows of the Newton
        # systems formed for it; a row's point is that of the factorization
        # whose factor it carries
        point_of, systems = {}, {}
        factors, newton_system = maxdet._factors, maxdet._newton_system

        def recording_factors(prob, x):
            f, ok = factors(prob, x)
            D = np.broadcast_to(prob.fused_C[..., -1, -1], x.shape[:-1]).reshape(-1)
            S = f[0].shape[-1]
            for d, Lg in zip(D, f[0].reshape(-1, S, S)):
                point_of[Lg.tobytes()] = float(d)
            return f, ok

        def recording_system(prob, f, t):
            S = f[0].shape[-1]
            for Lg in f[0].reshape(-1, S, S):
                D = point_of[Lg.tobytes()]
                systems[D] = systems.get(D, 0) + 1
            return newton_system(prob, f, t)

        monkeypatch.setattr(maxdet, "_factors", recording_factors)
        monkeypatch.setattr(maxdet, "_newton_system", recording_system)
        sols = nrdf_grid(unstable_ar2, experiments.default_grid(unstable_ar2, 6))
        assert systems == {sol.distortion_target: sol.stats.newton_steps for sol in sols}
        assert all(sol.stats.newton_steps > 20 for sol in sols)

    def test_closed_form_and_zero_rate_report_zeros(self, scalar_half, stable4):
        for sol in (nrdf(scalar_half, 0.5), nrdf(stable4, zdrd.d_max(stable4))):
            assert sol.stats == maxdet.SolverStats(0, 0, 0, 0)
            assert sol.to_dict()["stats"] == {
                "stages": 0,
                "newton_steps": 0,
                "backtracks": 0,
                "factorizations": 0,
            }


def same_solution(a, b):
    """Whether two solutions have the same bits: Pi and Lambda as int64, rate, residual, stats."""
    return (
        np.array_equal(a.pi.view(np.int64), b.pi.view(np.int64))
        and np.array_equal(a.lam.view(np.int64), b.lam.view(np.int64))
        and repr(a.rate_bits) == repr(b.rate_bits)
        and repr(a.kkt_residual) == repr(b.kkt_residual)
        and (a.stats, a.form_used, a.distortion_target) == (b.stats, b.form_used, b.distortion_target)
    )


@pytest.fixture(scope="module")
def grid_solves():
    """Every default-grid point of the four presets and of random_source(p,
    seed=3), p in (6, 8), solved alone and in its grid, while each
    line-search step that the certificate skips is factored after all; and
    forced form_a grids of example1 and example3, solved alone and in their
    grid without that check (three steps it skips on example1 lie inside
    the cone).  Each grid runs as one batch, p = 6 and 8 included, whose
    grids run one point at a time under the default BATCH_BYTES.

    Returns (solutions alone by grid, solutions in the grid by grid,
    skipped steps, skipped steps that factored).
    """
    skipped, factored = [], []
    line_search = maxdet._line_search

    def checking(prob, x, dx, dmin, t, base, gdx):
        step = 1.0
        while step > 1e-16 and 1.0 + step * dmin <= -maxdet.SKIP_MARGIN:
            skipped.append(step)
            if maxdet._factors(prob, x + step * dx)[1]:
                factored.append((t, step, dmin))
            step *= 0.5
        return line_search(prob, x, dx, dmin, t, base, gdx)

    grids = {
        name: (experiments.preset_config(name).source, None) for name in experiments.list_presets()
    }
    grids.update({f"random{p}": (random_source(p, seed=3), None) for p in (6, 8)})
    forced = {f"{name}.form_a": (grids[name][0], FORM_A) for name in ("example1", "example3")}
    alone, together = {}, {}

    def solve(grids):
        for name, (src, form) in grids.items():
            grid = experiments.default_grid(src)
            alone[name] = [nrdf(src, D, form) for D in grid]
            together[name] = nrdf_grid(src, grid, form)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maxdet, "BATCH_BYTES", 64 << 20)
        with pytest.MonkeyPatch.context() as checked:
            checked.setattr(maxdet, "_line_search", checking)
            solve(grids)
        solve(forced)
    return alone, together, skipped, factored


class TestGridSolves:
    def test_skipped_steps_lie_outside_the_cone(self, grid_solves):
        # a false skip would silently discard a feasible step; the steps
        # skipped in lockstep grids are checked as well as those alone
        _, _, skipped, factored = grid_solves
        assert len(skipped) > 1000
        assert factored == []

    def test_preset_points_are_centred(self, grid_solves):
        sols, _, _, _ = grid_solves
        for name in experiments.list_presets():
            assert len(sols[name]) == experiments.GRID_POINTS
            for sol in sols[name]:
                assert sol.kkt_residual <= maxdet.GAP_TARGET, (name, sol.distortion_target)

    def test_grid_points_equal_solves_alone(self, grid_solves):
        # lockstep batches change no bit of any point: Pi, Lambda, rate,
        # residual and SolverStats; nrdf is itself the grid of one
        alone, together, _, _ = grid_solves
        differ = [
            (name, a.distortion_target)
            for name in alone
            for a, b in zip(alone[name], together[name], strict=True)
            if not same_solution(a, b)
        ]
        assert differ == []
        barrier = sum(sol.stats.newton_steps > 0 for sols in together.values() for sol in sols)
        assert barrier >= 150


class TestLockstep:
    def test_batch_width_bounds_the_whitened_rows(self):
        widths = {}
        for p in (2, 4, 6, 8, 12, 16):
            src = random_source(p, seed=3)
            prob = maxdet.form_b_problem(src.A, src.B, np.array([0.5, 1.0]))
            S, m = prob.fused_C.shape[-1], prob.m
            widths[p] = maxdet.batch_width(prob)
            row = 8 * prob.n * (S * S + m * m)
            assert widths[p] * row <= max(maxdet.BATCH_BYTES, row)
            assert (widths[p] + 1) * row > maxdet.BATCH_BYTES
        assert widths[2] > widths[4] == 5 and widths[6] == widths[16] == 1

    def test_p16_grid_runs_one_point_at_a_time(self, monkeypatch):
        # two barrier points whose whitened rows (9.8 MB each) exceed the
        # batch bound: every factorization and Newton system is one point's,
        # served as a stack of one
        shapes = []
        factors, newton_system = maxdet._factors, maxdet._newton_system

        def recording_factors(prob, x):
            shapes.append(x.shape)
            return factors(prob, x)

        def recording_system(prob, f, t):
            shapes.append(f[0].shape)
            return newton_system(prob, f, t)

        monkeypatch.setattr(maxdet, "_factors", recording_factors)
        monkeypatch.setattr(maxdet, "_newton_system", recording_system)
        src = random_source(16, seed=3)
        sols = nrdf_grid(src, experiments.default_grid(src, 3)[:2])
        assert [sol.stats.stages for sol in sols] == [7, 7]
        n, S = 16 * 17, 4 * 16 + 1
        assert set(shapes) == {(1, n), (1, S, S)}

    def test_error_in_a_batched_call_reaches_only_its_point(self, stable4, monkeypatch):
        # a stacked call that raises is served again point by point, so only
        # the point whose own call raises fails, and the others keep their
        # bits; a lone point is a stack of one, whose error is not served again
        grid = experiments.default_grid(stable4, 6)[:5]
        bad = grid[3]
        calls, raised = [], []
        factors = maxdet._factors

        def failing_on(stacks):
            def failing(prob, x):
                calls.append(len(x))
                if len(x) in stacks and np.any(prob.fused_C[..., -1, -1] == bad):
                    raised.append(len(x))
                    raise FloatingPointError("injected")
                return factors(prob, x)

            return failing

        alone = [nrdf(stable4, D) for D in grid]
        # first in the opening round of all five points, then in a later
        # stack of a strict subset of them, points 3 and 4
        for stacks, first in ((range(1, 6), 5), (range(1, 5), 2)):
            calls.clear()
            raised.clear()
            monkeypatch.setattr(maxdet, "_factors", failing_on(stacks))
            sols = nrdf_grid(stable4, grid)
            assert isinstance(sols[3], FloatingPointError) and str(sols[3]) == "injected"
            assert all(same_solution(a, b) for k, (a, b) in enumerate(zip(alone, sols)) if k != 3)
            assert max(calls) == 5  # the other points ran in lockstep
            assert raised == [first, 1]
        calls.clear()
        (sol,) = nrdf_grid(stable4, [bad])
        assert isinstance(sol, FloatingPointError) and str(sol) == "injected"
        with pytest.raises(FloatingPointError, match="injected"):
            nrdf(stable4, bad)
        assert calls == [1, 1]  # one stack of one per solve


class TestBruteForceOracle:
    def test_frozen_oracle_value_reproduces(self):
        # reduced re-run of the frozen oracle (1e5 samples): should land close
        val = oracle_rate(ORACLE_A, ORACLE_B, ORACLE_D, samples=100_000, seed=42)
        assert abs(val - ORACLE_RATE_BITS) < 2e-3

    def test_solver_matches_oracle(self):
        src = zdrd.new_source(ORACLE_A, ORACLE_B, np.eye(2))
        sol = nrdf(src, ORACLE_D)
        assert abs(sol.rate_bits - ORACLE_RATE_BITS) < 1e-3


class TestPhase1AndErrors:
    def test_noiseless_rotation_is_infeasible(self):
        c, s = np.cos(0.7), np.sin(0.7)
        src = zdrd.new_source([[c, -s], [s, c]], np.zeros((2, 2)), np.eye(2))
        with pytest.raises(InfeasibleModel):
            nrdf(src, 0.5)

    def test_phase1_point_is_strictly_feasible(self, unstable4):
        for D in (0.05, 1.0, 2.9):
            prob = maxdet.form_b_problem(unstable4.A, unstable4.B, D)
            x, _, _ = maxdet.phase1_point(prob)
            G = prob.fused_C + np.tensordot(x, prob.fused_dA, axes=1)
            Q = np.tensordot(x, prob.q_dA, axes=1)
            assert np.linalg.eigvalsh(G)[0] > 0
            assert np.linalg.eigvalsh(Q)[0] > 0

    def test_non_finite_residual_is_a_divergence(self, stable4):
        # at these targets every stage ends on a NaN Newton system, so the
        # residual is inf; a sweep fails the row in the solver
        src8 = random_source(8, seed=3)
        for src, D in ((stable4, 1e-320), (src8, 1e-300 * zdrd.d_max(src8))):
            with np.errstate(all="ignore"), pytest.raises(SolverDivergence, match="residual inf"):
                nrdf(src, D)
        config = experiments.ExperimentConfig(stable4, [1e-320, 1.0], quantizer=None)
        rows = experiments.run_experiment(config).rows
        assert rows[0].status.startswith("failed:SolverDivergence: ")
        assert "kkt residual inf" in rows[0].status and rows[1].status == "ok"

    def test_runtime_budget_scalar_batch(self):
        rng = np.random.default_rng(1)
        t0 = time.time()
        for _ in range(25):
            alpha = rng.uniform(-1.2, 1.2)
            src = zdrd.new_source([[alpha]], [[1.0]], [[1.0]])
            nrdf(src, rng.uniform(0.05, 2.0), form=FORM_B)
        assert time.time() - t0 < 5.0

    def test_runtime_budget_p8_point(self):
        src = random_source(8, seed=3)
        t0 = time.time()
        sol = nrdf(src, 0.02 * zdrd.d_max(src), form=FORM_B)
        assert time.time() - t0 < 10.0
        assert sol.rate_bits > 0.0
