import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgWarning, solve_discrete_lyapunov

import zdrd
from zdrd.errors import ConfigParse, DimensionMismatch, NotPSD
from zdrd.linalg import as_matrix, check_psd, discrete_lyapunov

from conftest import STABLE_4D_A, UNSTABLE_4D_A, random_source


class TestNewSource:
    def test_stable_4d(self, stable4):
        assert stable4.p == 4 and stable4.q == 4

    def test_scalar_identity(self):
        src = zdrd.new_source([[1.0]], [[1.0]], [[1.0]])
        assert src.p == src.q == 1

    def test_shape_violation(self):
        for A, B, sigma, message in (
            (np.zeros((2, 2)), np.zeros((3, 1)), np.eye(2), r"B must have 2 rows, got \(3, 1\)"),
            (np.zeros((2, 3)), np.zeros((2, 1)), np.eye(2), r"A must be square, got \(2, 3\)"),
            (np.zeros((2, 2)), np.eye(2), np.eye(3), r"sigma_x0 must be 2x2 to match A, got \(3,"),
        ):
            with pytest.raises(DimensionMismatch, match=message):
                zdrd.new_source(A, B, sigma)

    def test_sigma_not_symmetric(self):
        with pytest.raises(NotPSD):
            zdrd.new_source(np.eye(2), np.eye(2), [[1.0, 0.5], [0.0, 1.0]])

    def test_sigma_negative_eigenvalue(self):
        with pytest.raises(NotPSD):
            zdrd.new_source(np.eye(2), np.eye(2), [[1.0, 0.0], [0.0, -1e-6]])

    def test_rectangular_b_ok(self):
        src = zdrd.new_source(np.eye(2) * 0.5, [[1.0], [0.0]], np.eye(2))
        assert src.q == 1

    def test_immutability(self, stable4):
        with pytest.raises(ValueError):
            stable4.A[0, 0] = 9.0


class TestStabilityReport:
    def test_stable_4d_eigenvalues(self, stable4):
        rep = zdrd.stability_report(stable4)
        mags = np.abs(rep.eigenvalues)
        assert np.all(np.diff(mags) <= 1e-12)
        expected = [0.1953, 0.0542, -0.0383, -0.0045]
        assert np.allclose(rep.eigenvalues.real, expected, atol=1e-3)
        assert rep.is_stable
        assert rep.rate_floor_bits == 0.0

    def test_unstable_4d_floor(self, unstable4):
        rep = zdrd.stability_report(unstable4)
        assert abs(abs(rep.eigenvalues[0]) - 2.4022) < 1e-3
        assert not rep.is_stable
        assert abs(rep.rate_floor_bits / 4 - 0.3161) < 1e-4

    def test_unstable_ar2_floor(self, unstable_ar2):
        rep = zdrd.stability_report(unstable_ar2)
        assert np.allclose(sorted(rep.eigenvalues.real), [-0.3274, 1.5274], atol=1e-3)
        assert abs(rep.rate_floor_bits - 0.611) < 1e-3

    def test_eigenvalue_product_matches_determinant(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            A = rng.normal(size=(4, 4))
            rep = zdrd.stability_report(zdrd.new_source(A, np.eye(4), np.eye(4)))
            prod = np.prod(np.abs(rep.eigenvalues))
            det = abs(np.linalg.det(A))
            assert abs(prod - det) <= 1e-8 * max(det, 1.0)


class TestAugmentAr:
    def test_stable_ar2_blocks(self, stable_ar2):
        assert np.allclose(stable_ar2.A, [[0.3, 0.5], [1.0, 0.0]])
        assert np.allclose(stable_ar2.B, [[1.0, 0.0], [0.0, 0.0]])

    def test_unstable_ar2_blocks(self, unstable_ar2):
        assert np.allclose(unstable_ar2.A, [[1.2, 0.5], [1.0, 0.0]])

    def test_order_one_passthrough(self):
        src = zdrd.augment_ar([[[0.7]]], [[2.0]])
        assert np.allclose(src.A, [[0.7]])
        assert np.allclose(src.B, [[2.0]])

    def test_vector_ar2_shape(self):
        A1 = 0.1 * np.eye(2)
        A2 = 0.2 * np.eye(2)
        src = zdrd.augment_ar([A1, A2], np.eye(2))
        assert src.p == 4 and src.q == 4
        assert np.allclose(src.A[2:, :2], np.eye(2))
        assert np.allclose(src.B[:2, :2], np.eye(2))
        assert np.allclose(src.B[2:], 0.0)

    def test_mismatched_coefficients(self):
        for coefficients, B, message in (
            ([np.eye(2), np.eye(3)], np.eye(2), r"A_2 must be 2x2, got \(3, 3\)"),
            ([], np.eye(2), "need at least one coefficient matrix"),
            ([np.eye(2), np.eye(2)], np.eye(3, 2), r"B must have 2 rows, got \(3, 2\)"),
        ):
            with pytest.raises(DimensionMismatch, match=message):
                zdrd.augment_ar(coefficients, B)

    def test_augmentation_preserves_dynamics(self):
        a1, a2 = 0.3, 0.5
        src = zdrd.augment_ar([[[a1]], [[a2]]], [[1.0]])
        traj = zdrd.simulate(src, 500, seed=11)
        x, xp = traj.x0[0], traj.x0[1]
        direct = [x]
        for t in range(500):
            acc = traj.noise[t, 0]
            acc += a1 * x
            acc += a2 * xp
            xp, x = x, acc
            direct.append(acc)
        assert np.allclose(traj.samples[:, 0], direct, rtol=0, atol=1e-12)

    def test_augmented_floor_matches_companion(self, unstable_ar2):
        rep = zdrd.stability_report(unstable_ar2)
        mu = np.abs(np.linalg.eigvals(np.array([[1.2, 0.5], [1.0, 0.0]])))
        expected = np.sum(np.log2(mu[mu > 1]))
        assert abs(rep.rate_floor_bits - expected) < 1e-12


class TestDmax:
    def test_scalar_formula(self):
        src = zdrd.new_source([[0.3]], [[1.0]], [[1.0]])
        assert abs(zdrd.d_max(src) - 1.0 / (1 - 0.09)) < 1e-12

    def test_memoryless(self):
        src = zdrd.new_source([[0.0]], [[1.0]], [[1.0]])
        assert zdrd.d_max(src) == pytest.approx(1.0)

    def test_unstable_infinite(self, unstable4):
        assert zdrd.d_max(unstable4) == np.inf

    def test_matches_lyapunov_series(self, stable4):
        # independent series evaluation of the stationarity equation
        A = stable4.A
        S = np.zeros((4, 4))
        term = np.eye(4)
        for _ in range(200):
            S += term
            term = A @ term @ A.T
        assert abs(zdrd.d_max(stable4) - np.trace(S)) < 1e-10

    def test_rotation_has_no_stationary_covariance(self):
        # eig reads |mu| = 1 - 1e-16 here; the Lyapunov system is singular
        from zdrd.experiments import default_grid
        from zdrd.source_model import stationary_covariance

        c, s = np.cos(0.3), np.sin(0.3)
        src = zdrd.new_source([[c, -s], [s, c]], np.eye(2), np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", LinAlgWarning)
            assert not zdrd.stability_report(src).is_stable
            assert zdrd.d_max(src) == np.inf
            grid = default_grid(src, 5)
            with pytest.raises(NotPSD):
                stationary_covariance(src)
        assert grid == tuple(np.geomspace(0.06, 3.0, 5))

    def test_one_lyapunov_solve_per_source_per_sweep(self, monkeypatch):
        from zdrd import experiments, source_model

        calls = []
        solve = source_model.discrete_lyapunov

        def counting(A, Q):
            calls.append(A)
            return solve(A, Q)

        monkeypatch.setattr(source_model, "discrete_lyapunov", counting)
        # stable example1: the grid, every point's d_max and the zero-rate top point
        config = experiments.preset_config("example1", "none", points=6)
        report = experiments.run_experiment(config)
        assert report.rows[-1].rate_lower_bits == 0.0
        assert len(calls) == 1
        # unstable example4: no solve, and every call still sees no covariance
        config = experiments.preset_config("example4", "none", points=2)
        experiments.run_experiment(config)
        for _ in range(2):
            assert zdrd.d_max(config.source) == np.inf
            with pytest.raises(NotPSD):
                source_model.stationary_covariance(config.source)
        assert len(calls) == 1

    def test_stationary_covariance_shared_read_only(self, stable4):
        from zdrd.source_model import stationary_covariance

        S = stationary_covariance(stable4)
        assert stationary_covariance(stable4) is S
        assert not S.flags.writeable

    @given(c=st.floats(min_value=1.0, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_noise_scaling(self, c):
        base = zdrd.new_source([[0.4]], [[1.0]], [[1.0]])
        scaled = zdrd.new_source([[0.4]], [[c]], [[1.0]])
        assert zdrd.d_max(scaled) == pytest.approx(c * c * zdrd.d_max(base), rel=1e-12)


class TestDiscreteLyapunov:
    @pytest.mark.parametrize("rho", [0.5, 0.9, 0.999, 1 - 1e-6])
    def test_random_sources_against_scipy(self, rho):
        eps = np.finfo(float).eps
        for p in range(1, 33):
            src = random_source(p, seed=p, rho=rho)
            A, Q = src.A, src.B @ src.B.T
            X = discrete_lyapunov(A, Q)
            scale = np.linalg.norm(X)
            assert np.linalg.norm(A @ X @ A.T - X + Q) <= 1e-13 * scale
            # scipy runs the same direct solve at p < 10 and its bilinear
            # method above; at rho = 1 - 1e-6 (||X|| / ||Q|| ~ 5e5) the two
            # differ by the conditioning, so the bound grows with it there
            kappa = scale / np.linalg.norm(Q)
            tol = max(1e-9, 1e3 * eps * kappa)
            assert np.linalg.norm(X - solve_discrete_lyapunov(A, Q)) <= tol * scale

    def test_singular_system_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            discrete_lyapunov(np.eye(2), np.eye(2))


class TestMatrixChecks:
    @pytest.mark.parametrize(
        "check, M, error, message",
        [
            (as_matrix, np.ones(3), DimensionMismatch, "M must be a 2-d array, got ndim=1"),
            (as_matrix, [[1.0, np.nan]], DimensionMismatch, "M contains non-finite entries"),
            (as_matrix, [[np.inf]], DimensionMismatch, "M contains non-finite entries"),
            (check_psd, np.zeros((2, 3)), NotPSD, r"M must be square, got \(2, 3\)"),
        ],
    )
    def test_rejects(self, check, M, error, message):
        with pytest.raises(error, match=message):
            check(M, "M")


class TestSimulate:
    def test_zero_steps(self, scalar_half):
        traj = zdrd.simulate(scalar_half, 0, seed=1)
        assert traj.samples.shape == (1, 1)
        with pytest.raises(DimensionMismatch, match="n must be >= 0, got -1"):
            zdrd.simulate(scalar_half, -1, 0)

    def test_determinism(self, stable4):
        a = zdrd.simulate(stable4, 200, seed=5)
        b = zdrd.simulate(stable4, 200, seed=5)
        assert np.array_equal(a.samples, b.samples)

    def test_seed_changes_run(self, stable4):
        a = zdrd.simulate(stable4, 200, seed=5)
        b = zdrd.simulate(stable4, 200, seed=6)
        assert not np.array_equal(a.samples, b.samples)

    def test_stationary_variance(self, scalar_half):
        traj = zdrd.simulate(scalar_half, 100_000, seed=9)
        var = np.var(traj.samples[1000:, 0])
        assert abs(var - 4.0 / 3.0) / (4.0 / 3.0) < 0.03

    def test_sample_covariance_matches_lyapunov(self, stable4):
        traj = zdrd.simulate(stable4, 50_000, seed=10)
        emp = np.cov(traj.samples[100:].T)
        S = solve_discrete_lyapunov(stable4.A, np.eye(4))
        assert np.linalg.norm(emp - S) / np.linalg.norm(S) < 0.05


class TestSourceFromDict:
    def test_state_space_form(self):
        src = zdrd.source_from_dict(
            {"A": [[0.5]], "B": [[1.0]], "sigma_x0": [[2.0]]}
        )
        assert src.sigma_x0[0, 0] == 2.0

    def test_sigma_defaults_to_identity(self):
        src = zdrd.source_from_dict({"A": STABLE_4D_A.tolist(), "B": np.eye(4).tolist()})
        assert np.allclose(src.sigma_x0, np.eye(4))

    def test_ar_form(self):
        src = zdrd.source_from_dict(
            {"ar_coefficients": [[[1.2]], [[0.5]]], "B": [[1.0]]}
        )
        assert np.allclose(src.A, [[1.2, 0.5], [1.0, 0.0]])

    def test_missing_key(self):
        with pytest.raises(ConfigParse):
            zdrd.source_from_dict({"A": [[1.0]]})

    def test_unknown_keys_are_rejected(self):
        doc = {"A": [[0.5]], "B": [[1.0]], "sigma_xo": [[9.0]]}
        with pytest.raises(ConfigParse, match=r"unknown source keys \['sigma_xo'\]"):
            zdrd.source_from_dict(doc)
        with pytest.raises(ConfigParse, match="unknown source keys"):
            zdrd.source_from_dict({"ar_coefficients": [[[0.5]]], "B": [[1.0]], "a": 1})

    def test_ragged_matrix(self):
        with pytest.raises(ConfigParse):
            zdrd.source_from_dict({"A": [[1.0, 2.0], [3.0]], "B": [[1.0]]})

    def test_unstable_roundtrip_floor(self):
        src = zdrd.source_from_dict({"A": UNSTABLE_4D_A.tolist(), "B": np.eye(4).tolist()})
        assert abs(zdrd.stability_report(src).rate_floor_bits / 4 - 0.3161) < 1e-4
