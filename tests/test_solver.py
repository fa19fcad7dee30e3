import math

import numpy as np
import pytest

import zdrd
from zdrd.coding import theoretical_upper_bound
from zdrd.errors import BadDistortion, ConfigParse, InfeasibleModel
from zdrd.experiments import (
    ExperimentConfig,
    _preset_sources,
    default_grid,
    preset_config,
    run_experiment,
)
from zdrd.solver import FORM_A, FORM_B, dispatch_form, nrdf, scalar_ar1_nrdf
from zdrd.source_model import stationary_covariance

from conftest import random_source


FEAS_TOL = 1e-9  # relative slack of the primal feasibility checks


def assert_solution_invariants(src, sol):
    """Primal feasibility and the rate identity, checked from (A, B, Pi) alone."""
    lam_expected = src.A @ sol.pi @ src.A.T + src.B @ src.B.T
    rel = np.linalg.norm(sol.lam - lam_expected) / max(np.linalg.norm(lam_expected), 1e-30)
    assert rel < 1e-8
    assert np.linalg.eigvalsh(sol.pi)[0] > 0
    lam_scale = np.linalg.norm(lam_expected, 2)
    assert np.linalg.eigvalsh(lam_expected - sol.pi)[0] >= -FEAS_TOL * lam_scale
    assert np.trace(sol.pi) <= sol.distortion_target * (1 + FEAS_TOL)
    ld = 0.5 * (np.linalg.slogdet(lam_expected)[1] - np.linalg.slogdet(sol.pi)[1]) / math.log(2)
    assert abs(sol.rate_bits - ld) < FEAS_TOL


def solvable_forms(src):
    """The forced forms whose existence condition the source meets."""
    forms = []
    for form in (FORM_A, FORM_B):
        try:
            forms.append(dispatch_form(src, form))
        except InfeasibleModel:
            pass
    return forms


class TestScalarClosedForm:
    def test_reference_value(self):
        assert scalar_ar1_nrdf(0.5, 1.0, 0.5) == pytest.approx(
            0.5 * math.log2(2.25), abs=1e-12
        )

    def test_white_source_at_full_distortion(self):
        assert scalar_ar1_nrdf(0.0, 1.0, 1.0) == 0.0

    def test_unstable_floor_limit(self):
        assert scalar_ar1_nrdf(1.2, 1.0, 1e12) == pytest.approx(
            0.5 * math.log2(1.44), abs=1e-9
        )

    def test_bad_distortion(self):
        with pytest.raises(BadDistortion):
            scalar_ar1_nrdf(0.5, 1.0, 0.0)
        with pytest.raises(BadDistortion):
            scalar_ar1_nrdf(0.5, 1.0, -1.0)
        for sigma2 in (0.0, -1.0):
            message = f"^sigma2 must be a positive real, got {sigma2}$"
            with pytest.raises(BadDistortion, match=message):
                scalar_ar1_nrdf(0.5, sigma2, 1.0)


class TestNrdf:
    def test_scalar_dispatch(self, scalar_half):
        sol = nrdf(scalar_half, 0.5)
        assert sol.form_used == "scalar_closed_form"
        assert sol.rate_bits == pytest.approx(0.585, abs=1e-4)
        assert_solution_invariants(scalar_half, sol)

    def test_scalar_at_d_max_boundary(self):
        src = zdrd.new_source([[0.3]], [[1.0]], [[1.0]])
        sol = nrdf(src, 1.0 / 0.91)
        assert sol.rate_bits == 0.0
        assert np.allclose(sol.pi, sol.lam)

    def test_bad_distortion(self, scalar_half):
        for bad in (0.0, -0.5, float("nan"), float("inf"), "x"):
            with pytest.raises(BadDistortion):
                nrdf(scalar_half, bad)

    def test_scalar_zero_rate_is_the_stationary_covariance(self):
        # one zero-rate rule at every p: d_max and the stationary covariance
        rng = np.random.default_rng(15)
        for _ in range(200):
            a = rng.uniform(-0.999, 0.999)
            src = zdrd.new_source([[a]], rng.normal(size=(1, rng.integers(1, 3))), [[1.0]])
            sol = nrdf(src, zdrd.d_max(src))
            assert (sol.rate_bits, sol.form_used) == (0.0, "scalar_closed_form")
            assert np.array_equal(sol.pi, stationary_covariance(src))
            assert np.array_equal(sol.lam, sol.pi)

    def test_nearly_marginal_scalar_has_no_zero_rate_exit(self):
        # |a| = 1 - 1e-10 is not stable to source_model: d_max is inf, so
        # even a huge D gets the closed-form pair, not a "stationary" one
        src = zdrd.new_source([[1 - 1e-10]], [[1.0]], [[1.0]])
        assert zdrd.d_max(src) == np.inf
        sol = nrdf(src, 1e12)
        assert sol.form_used == "scalar_closed_form"
        assert np.array_equal(sol.pi, [[1e12]])
        assert sol.rate_bits == 0.0

    @pytest.mark.parametrize(
        "A, B, grid",
        [
            ([[0.5]], [[0.0]], (1e-3, 1.0)),  # d_max = 0
            ([[-0.9]], [[0.0, 0.0]], (1e-3, 1.0)),
            (np.diag([0.5, 0.4]), [[1.0], [0.0]], (4 / 3, 2.0)),  # form_a, d_max = 4/3
        ],
    )
    def test_singular_stationary_covariance_at_d_max(self, A, B, grid):
        # no Pi > 0 can be feasible there: a mode that the noise never reaches
        # decays, and the zero-rate exit says so for every p
        src = zdrd.new_source(A, B, np.eye(len(A)))
        assert zdrd.d_max(src) <= grid[0]
        for d in grid:
            with pytest.raises(InfeasibleModel, match="^stationary covariance is singular$"):
                nrdf(src, d)

    @pytest.mark.parametrize("eps", [1e-14, 1e-10, 1e-6])
    def test_weakly_controllable_keeps_its_rates(self, eps):
        src = zdrd.new_source(np.diag([0.5, 0.4]), [[1.0], [eps]], np.eye(2))
        assert nrdf(src, zdrd.d_max(src)).rate_bits == 0.0
        assert nrdf(src, 1.0).rate_bits == pytest.approx(0.16096404744, abs=1e-9)

    def test_neither_rank_condition(self):
        A = np.array([[0.0, 0.0], [1.0, 0.0]])  # singular
        B = np.array([[1.0, 0.0], [0.0, 0.0]])  # singular
        with pytest.raises(InfeasibleModel):
            nrdf(zdrd.new_source(A, B, np.eye(2)), 0.5)
        with pytest.raises(ValueError, match="unknown form 'form_c'"):
            dispatch_form(zdrd.new_source(np.eye(2), np.eye(2), np.eye(2)), "form_c")

    def test_forced_form_checked_at_every_d(self):
        # example2 has singular BB^T: form_b is refused on its whole default
        # grid, including d_max where the exact zero-rate solution applies
        config = preset_config("example2", quantizer="none")
        src, grid = config.source, config.d_grid
        assert grid[-1] == zdrd.d_max(src)
        for d in grid:
            with pytest.raises(InfeasibleModel) as err:
                nrdf(src, d, form="form_b")
            assert str(err.value) == "form_b requires BB^T to be nonsingular"
        sol = nrdf(src, grid[-1], form="form_a")
        assert (sol.rate_bits, sol.form_used) == (0.0, "form_a")

    def test_invariants_on_presets(self, stable4, unstable4, stable_ar2, unstable_ar2):
        for src, grid in [
            (stable4, [0.2, 1.0, 3.0]),
            (unstable4, [0.3, 1.0, 3.0]),
            (stable_ar2, [0.2, 1.5, 4.0]),
            (unstable_ar2, [0.2, 1.5, 3.0]),
        ]:
            for d in grid:
                assert_solution_invariants(src, nrdf(src, d))
        # every preset's 6-point grid in each form its source admits
        for src in _preset_sources().values():
            for d in default_grid(src, 6):
                for form in solvable_forms(src):
                    assert_solution_invariants(src, nrdf(src, d, form=form))

    def test_invariants_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            p = rng.integers(2, 4)
            A = rng.normal(size=(p, p)) * 0.5
            B = rng.normal(size=(p, p))
            src = zdrd.new_source(A, B, np.eye(p))
            sol = nrdf(src, float(rng.uniform(0.1, 1.5)))
            assert_solution_invariants(src, sol)
        # seeded p = 2..8 sources, stable and unstable, in both forms
        for p in range(2, 9):
            for rho in (0.9, 1.1):
                src = random_source(p, seed=100 * p + int(10 * rho), rho=rho)
                dm = zdrd.d_max(src)
                grid = (0.02 * dm, 0.3 * dm) if math.isfinite(dm) else (0.1 * p, 2.0 * p)
                for d in grid:
                    for form in (FORM_A, FORM_B):
                        assert_solution_invariants(src, nrdf(src, d, form=form))

    def test_unstable_floor_everywhere(self, unstable4, unstable_ar2):
        for src in (unstable4, unstable_ar2):
            floor = zdrd.stability_report(src).rate_floor_bits
            for d in np.geomspace(0.1, 3.0, 6):
                assert nrdf(src, float(d)).rate_bits >= floor - 1e-6

    def test_zero_rate_boundary_recovers_lyapunov(self, stable4, stable_ar2):
        from zdrd.source_model import stationary_covariance

        for src in (stable4, stable_ar2):
            dm = zdrd.d_max(src)
            sol = nrdf(src, dm)
            assert sol.rate_bits <= 1e-6
            assert np.linalg.norm(sol.pi - stationary_covariance(src)) < 1e-6

    def test_convexity_along_grid(self, stable4, unstable_ar2):
        for src, (d1, d2, d3) in [
            (stable4, (0.5, 1.5, 3.2)),
            (unstable_ar2, (0.3, 1.0, 2.8)),
        ]:
            r1, r2, r3 = (nrdf(src, d).rate_bits for d in (d1, d2, d3))
            lam = (d2 - d1) / (d3 - d1)
            assert r2 <= (1 - lam) * r1 + lam * r3 + 1e-6

    def test_kalman_fixed_point_identities(self, stable4, unstable_ar2, unstable4):
        for src, d in [(stable4, 1.0), (unstable_ar2, 0.7), (unstable4, 1.5)]:
            sol = nrdf(src, d)
            H = np.eye(src.p) - sol.pi @ np.linalg.inv(sol.lam)
            sigma_v = sol.pi @ H.T
            S = H @ sol.lam @ H.T + sigma_v
            gain = sol.lam @ H.T @ np.linalg.pinv(0.5 * (S + S.T), rcond=1e-9)
            updated = sol.lam - gain @ H @ sol.lam
            assert np.linalg.norm(updated - sol.pi) < 1e-6


def waterfilling_rate(a, D):
    """Exact NRDF of A = U diag(a) U^T, B = I (U orthogonal) at distortion D.

    The program splits into scalar AR(1) problems, one per mode, that share
    the budget: reverse-waterfilling gives mode i the distortion D_i solving
    D_i (a_i^2 D_i + 1) = c, clipped at its zero-rate distortion
    1 / (1 - a_i^2) when |a_i| < 1, with c bisected until the D_i sum to D.
    Returns the rate, the sum of the scalar closed forms, and the D_i.  D must
    lie below d_max, the sum of the caps.
    """
    a2 = np.asarray(a, float) ** 2
    cap = np.full(a2.shape, np.inf)
    stable = a2 < 1.0
    cap[stable] = 1.0 / (1.0 - a2[stable])

    def spread(c):  # the positive root of a^2 x^2 + x = c, in a form exact at a = 0
        return np.minimum(2.0 * c / (1.0 + np.sqrt(1.0 + 4.0 * a2 * c)), cap)

    lo, hi = 0.0, 1.0
    while spread(hi).sum() < D:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if spread(mid).sum() < D else (lo, mid)
    dist = spread(hi)
    return sum(scalar_ar1_nrdf(ai, 1.0, di) for ai, di in zip(a, dist)), dist


def normal_source(a, seed):
    """A = U diag(a) U^T for a random orthogonal U, with B = I."""
    p = len(a)
    U = np.linalg.qr(np.random.default_rng(seed).normal(size=(p, p)))[0]
    return zdrd.new_source(U @ np.diag(a) @ U.T, np.eye(p), np.eye(p))


class TestWaterfillingOracle:
    """``nrdf`` against the exact decoupled reverse-waterfilling at p > 1."""

    TOL = 1e-9  # bits
    FRACTIONS = (0.02, 0.3, 0.8)  # of d_max

    def test_one_mode_is_the_scalar_closed_form(self):
        for a, D in ((0.5, 0.7), (-0.9, 3.0), (1.2, 0.4)):
            assert waterfilling_rate([a], D)[0] == scalar_ar1_nrdf(a, 1.0, D)

    @pytest.mark.parametrize("p", [2, 4, 8, 16])
    def test_stable_modes(self, p):
        a = np.random.default_rng(100 + p).uniform(-0.95, 0.95, p)
        src = normal_source(a, p)
        dm = zdrd.d_max(src)
        assert dm == pytest.approx(np.sum(1.0 / (1.0 - a**2)), rel=1e-12)
        clipped = 0
        for f in self.FRACTIONS:
            rate, dist = waterfilling_rate(a, f * dm)
            sol = nrdf(src, f * dm)
            assert sol.form_used == FORM_B
            assert abs(sol.rate_bits - rate) < self.TOL
            clipped += int(np.sum(dist >= 1.0 / (1.0 - a**2)))
        assert clipped > 0  # some mode reached its zero-rate distortion

    def test_form_a(self):
        a = np.random.default_rng(104).uniform(-0.95, 0.95, 4)
        src = normal_source(a, 4)
        dm = zdrd.d_max(src)
        for f in self.FRACTIONS:
            sol = nrdf(src, f * dm, form=FORM_A)
            assert sol.form_used == FORM_A
            assert abs(sol.rate_bits - waterfilling_rate(a, f * dm)[0]) < self.TOL

    def test_unstable_mode_is_never_clipped(self):
        a = np.array([1.25, 0.6, -0.3, 0.85])
        src = normal_source(a, 7)
        assert zdrd.d_max(src) == np.inf
        for D in (0.3, 2.0, 8.0):
            rate, dist = waterfilling_rate(a, D)
            assert abs(nrdf(src, D).rate_bits - rate) < self.TOL
        # at D = 8 the stable modes 0.6 and -0.3 sit at their zero-rate
        # distortions and the unstable mode takes more than its share
        assert np.array_equal(dist[1:3], 1.0 / (1.0 - a[1:3] ** 2)) and dist[0] > 2.0


class TestRdCurve:
    """The rate-distortion curve of a bounds-only ``run_experiment`` sweep."""

    @staticmethod
    def sweep(src, grid):
        return run_experiment(ExperimentConfig(src, grid, quantizer=None)).rows

    def test_scalar_curve_shape(self, scalar_half):
        grid = list(np.round(np.arange(0.1, 1.31, 0.1), 10))
        rows = self.sweep(scalar_half, grid)
        lows = [row.rate_lower_bits for row in rows]
        assert all(b <= a + 1e-12 for a, b in zip(lows, lows[1:]))
        assert all(row.status == "ok" for row in rows)
        # closed form hits zero at D >= 4/3
        rows2 = self.sweep(scalar_half, [4.0 / 3.0 + 1e-9, 2.0])
        assert all(row.rate_lower_bits == 0.0 for row in rows2)

    def test_upper_bounds_dominate(self, unstable4):
        for row in self.sweep(unstable4, [0.3, 1.0, 3.0]):
            d4 = theoretical_upper_bound(row.rate_lower_bits, row.r_active, "d4")
            assert row.rate_upper_bits >= row.rate_lower_bits
            assert d4 >= row.rate_lower_bits
            assert row.r_active == 4

    def test_unstable_curve_respects_floor(self, unstable4):
        floor = zdrd.stability_report(unstable4).rate_floor_bits
        rows = self.sweep(unstable4, list(np.geomspace(0.06, 3.0, 8)))
        assert all(row.rate_lower_bits >= floor - 1e-6 for row in rows)

    def test_single_point(self, scalar_half):
        rows = self.sweep(scalar_half, [0.5])
        assert len(rows) == 1
        assert rows[0].rate_lower_bits == pytest.approx(0.585, abs=1e-3)

    def test_failed_points_flagged_not_fatal(self):
        c, s = np.cos(0.3), np.sin(0.3)
        src = zdrd.new_source([[c, -s], [s, c]], np.zeros((2, 2)), np.eye(2))
        rows = self.sweep(src, [0.5, 1.0])
        assert len(rows) == 2
        assert all(row.status.startswith("failed:InfeasibleModel: ") for row in rows)
        assert all("degenerate candidate" in row.status for row in rows)
        assert all(row.rate_lower_bits is None and row.rate_upper_bits is None for row in rows)
        assert all(row.r_active is None for row in rows)

    def test_grid_validation(self, scalar_half):
        for grid in ([], [0.5, 0.4], [-0.1, 0.5]):
            with pytest.raises(ConfigParse):
                self.sweep(scalar_half, grid)
