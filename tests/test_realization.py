import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zdrd
from zdrd.errors import DimensionMismatch, NotPD, OrderViolation
from zdrd.realization import (
    build_realization,
    channel_matrices,
    joint_diagonalize,
    run_awgn_channel,
    steady_state_update,
    waterfill_factors,
)
from zdrd.solver import nrdf


def random_pd(rng, p, scale=1.0):
    M = rng.normal(size=(p, p))
    return scale * (M @ M.T + 0.3 * np.eye(p))


class TestJointDiagonalize:
    def test_already_diagonal(self):
        E, pt, lt = joint_diagonalize(np.eye(2), np.diag([4.0, 1.0]))
        assert np.allclose(np.abs(E), np.eye(2), atol=1e-12)
        assert np.allclose(pt, [1.0, 1.0])
        assert np.allclose(lt, [4.0, 1.0])

    def test_equal_pair_gives_equal_profiles(self):
        rng = np.random.default_rng(1)
        P = random_pd(rng, 3)
        E, pt, lt = joint_diagonalize(P, P.copy())
        assert np.allclose(pt, lt, rtol=1e-10)

    def test_roundtrip_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            P = random_pd(rng, 3)
            L = P + random_pd(rng, 3, 0.5)
            E, pt, lt = joint_diagonalize(P, L)
            Einv = np.linalg.inv(E)
            assert np.linalg.norm(Einv @ np.diag(pt) @ Einv.T - P) < 1e-9
            assert np.linalg.norm(Einv @ np.diag(lt) @ Einv.T - L) < 1e-9
            # profiles descending
            assert np.all(np.diff(pt) <= 1e-12)
            assert np.all(np.diff(lt) <= 1e-12)

    def test_diagonalization_residuals(self):
        rng = np.random.default_rng(3)
        P = random_pd(rng, 4)
        L = P + random_pd(rng, 4, 0.2)
        E, pt, lt = joint_diagonalize(P, L)
        off_p = E @ P @ E.T - np.diag(pt)
        off_l = E @ L @ E.T - np.diag(lt)
        assert np.linalg.norm(off_p) < 1e-8
        assert np.linalg.norm(off_l) < 1e-8

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        P = random_pd(rng, 3)
        L = P + random_pd(rng, 3, 0.5)
        E1, _, _ = joint_diagonalize(P, L)
        E2, _, _ = joint_diagonalize(P.copy(), L.copy())
        assert np.array_equal(E1, E2)

    def test_rejects_non_pd(self):
        with pytest.raises(NotPD, match="pi must be positive definite"):
            joint_diagonalize(np.diag([1.0, -0.1]), np.eye(2))
        with pytest.raises(NotPD, match="lam must be positive definite"):
            joint_diagonalize(np.eye(2), np.diag([1.0, -0.1]))


class TestWaterfillFactors:
    def test_boundary_coordinate_inactive(self):
        h, theta, phi, active, r = waterfill_factors([1.0, 2.0], [4.0, 2.0])
        assert np.allclose(h, [0.75, 0.0])
        assert r == 1
        assert list(active) == [True, False]
        assert theta[1] == 0.0 and phi[1] == 0.0

    def test_scalar_hand_values(self):
        h, theta, phi, active, r = waterfill_factors([0.5], [1.125])
        assert h[0] == pytest.approx(5.0 / 9.0, abs=1e-15)
        assert theta[0] == pytest.approx(np.sqrt(5.0 / 18.0), abs=1e-15)
        assert phi[0] == pytest.approx(np.sqrt(10.0 / 9.0), abs=1e-15)
        assert r == 1

    def test_factorization_identity(self):
        rng = np.random.default_rng(5)
        pt = np.sort(rng.uniform(0.1, 2.0, 6))[::-1]
        lt = pt * rng.uniform(1.0, 3.0, 6)
        h, theta, phi, active, r = waterfill_factors(pt, np.maximum(lt, pt))
        assert np.all(np.abs(h - theta * phi) <= 1e-10)

    def test_order_violation(self):
        for pi_t, lam_t, error, message in (
            ([2.0, 1.0], [1.5, 1.0], OrderViolation, "pi_tilde exceeds lambda_tilde"),
            ([2.0, 1.0], [3.0, 2.0, 1.0], DimensionMismatch, "profile lengths differ"),
            ([1.0, 0.0], [2.0, 1.0], NotPD, "profiles must be strictly positive"),
            ([1.0, -1.0], [2.0, -0.5], NotPD, "profiles must be strictly positive"),
        ):
            with pytest.raises(error, match=message):
                waterfill_factors(pi_t, lam_t)


class TestBuildRealization:
    def test_zero_rate_scheme(self):
        src = zdrd.new_source([[0.3]], [[1.0]], [[1.0]])
        sol = nrdf(src, zdrd.d_max(src) * 2)
        scheme = build_realization(src, sol)
        assert scheme.r == 0
        assert np.allclose(scheme.H, 0.0)
        assert np.allclose(scheme.sigma_v, 0.0)

    def test_scalar_gain(self, scalar_half):
        scheme = build_realization(scalar_half, nrdf(scalar_half, 0.5))
        assert scheme.H[0, 0] == pytest.approx(5.0 / 9.0, abs=1e-12)

    def test_stable4_all_active_below_threshold(self, stable4):
        scheme = build_realization(stable4, nrdf(stable4, 1.0))
        assert scheme.r == 4

    def test_ar2_single_active_dimension(self, stable_ar2):
        for d in (0.3, 1.0, 3.0):
            scheme = build_realization(stable_ar2, nrdf(stable_ar2, d))
            assert scheme.r == 1

    def test_scheme_invariants(self, unstable4):
        sol = nrdf(unstable4, 1.0)
        s = build_realization(unstable4, sol)
        assert np.linalg.norm(s.E @ s.E_inv - np.eye(4)) < 1e-10
        H_direct = np.eye(4) - sol.pi @ np.linalg.inv(sol.lam)
        assert np.linalg.norm(s.H - H_direct) < 1e-8
        assert np.all(np.abs(s.h_tilde - s.theta * s.phi) <= 1e-10)
        assert np.linalg.norm(s.sigma_v - sol.pi @ s.H.T) < 1e-12

    def test_rate_decomposes_over_active_dimensions(self, unstable_ar2):
        sol = nrdf(unstable_ar2, 0.8)
        s = build_realization(unstable_ar2, sol)
        total = 0.5 * (np.linalg.slogdet(sol.lam)[1] - np.linalg.slogdet(sol.pi)[1]) / np.log(2)
        per_dim = 0.5 * np.log2(s.lambda_tilde[s.active] / s.pi_tilde[s.active]).sum()
        assert abs(total - per_dim) < 1e-8

    def test_riccati_fixed_point(self, stable4, unstable_ar2, unstable4):
        for src, d in [(stable4, 1.0), (unstable_ar2, 0.7), (unstable4, 1.2)]:
            sol = nrdf(src, d)
            s = build_realization(src, sol)
            BBt = src.B @ src.B.T
            sigma = sol.lam.copy()
            for _ in range(25):
                sigma = steady_state_update(sigma, s.H, s.sigma_v, src.A, BBt)
                assert np.linalg.norm(sigma - sol.lam) < 1e-6

    def test_scheme_json_roundtrip(self, tmp_path, stable4):
        s = build_realization(stable4, nrdf(stable4, 1.0))
        path = tmp_path / "scheme.json"
        s.to_json(path)
        import json

        doc = json.loads(path.read_text())
        assert doc["r"] == s.r
        assert np.allclose(doc["E"], s.E)
        assert doc["active"] == [True] * 4
        # every field by name, in field order, with exact values
        assert list(doc) == [f.name for f in dataclasses.fields(s)]
        for name, value in doc.items():
            assert np.array_equal(value, getattr(s, name)), name


class TestAwgnChannel:
    def test_scalar_mse_tracks_target(self, scalar_half):
        sol = nrdf(scalar_half, 0.5)
        scheme = build_realization(scalar_half, sol)
        traj = zdrd.simulate(scalar_half, 100_000, seed=1)
        run = run_awgn_channel(scheme, traj, seed=2)
        assert abs(run.empirical_mse - 0.5) / 0.5 < 0.02

    def test_zero_rate_mse_reaches_dmax(self):
        src = zdrd.new_source([[0.3]], [[1.0]], [[1.0]])
        dmax = zdrd.d_max(src)
        scheme = build_realization(src, nrdf(src, 2 * dmax))
        traj = zdrd.simulate(src, 100_000, seed=3)
        run = run_awgn_channel(scheme, traj, seed=4)
        assert abs(run.empirical_mse - dmax) / dmax < 0.03

    def test_determinism(self, scalar_half):
        scheme = build_realization(scalar_half, nrdf(scalar_half, 0.5))
        traj = zdrd.simulate(scalar_half, 2000, seed=5)
        a = run_awgn_channel(scheme, traj, seed=6)
        b = run_awgn_channel(scheme, traj, seed=6)
        assert a.empirical_mse == b.empirical_mse
        assert np.array_equal(a.y, b.y)

    def test_dimension_mismatch(self, scalar_half, stable4):
        scheme = build_realization(stable4, nrdf(stable4, 1.0))
        traj = zdrd.simulate(scalar_half, 100, seed=1)
        with pytest.raises(DimensionMismatch):
            run_awgn_channel(scheme, traj, seed=1)

    def test_reproduction_recursion_holds(self, stable4):
        # y_t = A y_{t-1} + G beta_t, the decoder side of the realization
        sol = nrdf(stable4, 1.0)
        scheme = build_realization(stable4, sol)
        traj = zdrd.simulate(stable4, 300, seed=8)
        run = run_awgn_channel(scheme, traj, seed=9)
        _, G = channel_matrices(scheme)
        yprev = np.zeros(4)
        for t in range(301):
            expected = stable4.A @ yprev + G @ run.beta[t]
            assert np.allclose(run.y[t], expected, atol=1e-9)
            yprev = run.y[t]

    def test_innovations_match_definition(self, stable4):
        scheme = build_realization(stable4, nrdf(stable4, 1.0))
        traj = zdrd.simulate(stable4, 300, seed=10)
        run = run_awgn_channel(scheme, traj, seed=11)
        for t in range(1, 301):
            k_def = traj.samples[t] - stable4.A @ run.y[t - 1]
            assert np.allclose(run.k[t], k_def, atol=1e-9)

    def test_error_uncorrelated_with_reproduction(self, stable4):
        scheme = build_realization(stable4, nrdf(stable4, 1.0))
        traj = zdrd.simulate(stable4, 100_000, seed=12)
        run = run_awgn_channel(scheme, traj, seed=13)
        err = run.x - run.y
        c = (err[500:].T @ run.y[500:]) / (run.x.shape[0] - 500)
        assert np.max(np.abs(c)) <= 0.02

    def test_unstable_source_long_horizon(self, unstable4):
        sol = nrdf(unstable4, 1.0)
        scheme = build_realization(unstable4, sol)
        traj = zdrd.simulate(unstable4, 100_000, seed=14)
        run = run_awgn_channel(scheme, traj, seed=15)
        assert np.isfinite(run.empirical_mse)
        assert abs(run.empirical_mse - 1.0) < 0.02
        # raw states overflowed, the bounded statistics did not
        assert not np.all(np.isfinite(traj.samples))
        assert np.all(np.isfinite(run.k))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_joint_diagonalize_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    P = random_pd(rng, 2)
    L = P + random_pd(rng, 2, 0.4)
    E, pt, lt = joint_diagonalize(P, L)
    Einv = np.linalg.inv(E)
    assert np.linalg.norm(Einv @ np.diag(pt) @ Einv.T - P) < 1e-9 * max(1, np.linalg.norm(P))
    assert np.linalg.norm(Einv @ np.diag(lt) @ Einv.T - L) < 1e-9 * max(1, np.linalg.norm(L))
