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
from zdrd import maxdet
from zdrd.errors import InfeasibleModel
from zdrd.solver import FORM_A, FORM_B, nrdf, scalar_ar1_nrdf

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
        pi, _, _, _ = maxdet.solve_maxdet(prob)
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
        x, factors = maxdet.phase1_point(prob)
        for t in (1.0, 25.0, 3125.0, 1e8):
            g, H = maxdet._newton_system(prob, factors, t)
            g_ref, H_ref = einsum_newton_system(prob, x, t)
            # small entries come from cancelling sums, so the tolerance is
            # also taken relative to the largest entry
            for got, ref in ((g, g_ref), (H, H_ref)):
                np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())
            assert np.array_equal(H, H.T)


class TestFactorOnce:
    # repr(rate_bits), repr(kkt_residual) recorded with the long-step schedule
    # (T_GROWTH = 100); refactors of the Newton loop must keep them bit-identical
    PINNED = {
        "example1": ("np.float64(4.008097225683425)", "2.2273634342367272e-11"),
        "example4": ("np.float64(1.1995005938112158)", "1.1826164617638543e-11"),
        "random6": ("np.float64(6.139276284214832)", "3.283074420946421e-11"),
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
        for k, rate in self.SHORT_STEP_RATES.items():
            assert abs(sols[k].rate_bits - rate) < 1e-9

    @pytest.mark.parametrize("build", [maxdet.form_a_problem, maxdet.form_b_problem])
    def test_each_point_factored_once(self, build, stable4, monkeypatch):
        seen = []
        factors = maxdet._factors

        def recording(prob, x):
            seen.append(x.tobytes())
            return factors(prob, x)

        monkeypatch.setattr(maxdet, "_factors", recording)
        maxdet.solve_maxdet(build(stable4.A, stable4.B, 1.0))
        assert len(seen) > 20
        assert len(set(seen)) == len(seen)

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
        # the long-step schedule solves this point in 47 Newton steps; the
        # earlier T_GROWTH = 5 took 104 (pinned below), so the budget fails it
        systems = []
        newton_system = maxdet._newton_system

        def counting(*args):
            systems.append(args)
            return newton_system(*args)

        monkeypatch.setattr(maxdet, "_newton_system", counting)
        stats = nrdf(stable4, 1.0, form=FORM_B).stats
        assert stats.newton_steps == len(systems)
        assert stats.newton_steps <= 60
        assert stats == maxdet.SolverStats(stages=7, newton_steps=47, backtracks=79)
        monkeypatch.setattr(maxdet, "T_GROWTH", 5.0)
        short = nrdf(stable4, 1.0, form=FORM_B).stats
        assert short == maxdet.SolverStats(stages=18, newton_steps=104, backtracks=56)

    def test_closed_form_and_zero_rate_report_zeros(self, scalar_half, stable4):
        for sol in (nrdf(scalar_half, 0.5), nrdf(stable4, zdrd.d_max(stable4))):
            assert sol.stats == maxdet.SolverStats(0, 0, 0)
            assert sol.to_dict()["stats"] == {"stages": 0, "newton_steps": 0, "backtracks": 0}


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
            x, _ = maxdet.phase1_point(prob)
            G = prob.fused_C + np.tensordot(x, prob.fused_dA, axes=1)
            Q = np.tensordot(x, prob.q_dA, axes=1)
            assert np.linalg.eigvalsh(G)[0] > 0
            assert np.linalg.eigvalsh(Q)[0] > 0

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
