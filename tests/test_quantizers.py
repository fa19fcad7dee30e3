import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdrd import kernels
from zdrd.errors import DimensionMismatch
from zdrd.quantizers import (
    D4_UNIT_SCALE,
    G4,
    SQRT12,
    d4_config,
    d4_nearest,
    d4_quantize,
    sdusq_config,
    sdusq_decode,
    sdusq_encode,
)


class TestSdusq:
    def test_origin(self):
        idx = sdusq_encode([0.0], [0.0], [SQRT12])
        assert idx[0] == 0

    def test_second_cell(self):
        idx = sdusq_encode([0.6 * SQRT12], [0.0], [SQRT12])
        assert idx[0] == 1

    def test_tie_rounds_half_away_from_zero(self):
        assert sdusq_encode([0.5 * SQRT12], [0.0], [SQRT12])[0] == 1
        assert sdusq_encode([-0.5 * SQRT12], [0.0], [SQRT12])[0] == -1

    def test_decode_roundtrip_at_origin(self):
        beta = sdusq_decode(sdusq_encode([0.0], [0.0], [SQRT12]), [0.0], [SQRT12])
        assert beta[0] == 0.0

    @given(
        alpha=st.floats(-100, 100),
        u=st.floats(-0.5, 0.5),
        delta=st.floats(0.1, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_error_bounded_by_half_cell(self, alpha, u, delta):
        q = np.array([u * delta])
        beta = sdusq_decode(sdusq_encode([alpha], q, [delta]), q, [delta])
        assert abs(beta[0] - alpha) <= delta / 2 + 1e-9

    def test_error_moments_and_independence(self):
        rng = np.random.default_rng(0)
        n = 1_000_000
        delta = SQRT12
        alpha = rng.normal(0, 3.0, n)
        q = (rng.random(n) - 0.5) * delta
        beta = sdusq_decode(sdusq_encode(alpha, q, np.full(n, delta)), q, np.full(n, delta))
        err = beta - alpha
        assert abs(np.var(err) - delta**2 / 12) / (delta**2 / 12) < 0.01
        corr = np.corrcoef(err, alpha)[0, 1]
        assert abs(corr) <= 0.01

    def test_config_steps_match_unit_noise(self):
        cfg = sdusq_config(3, seed_dither=1)
        assert np.all(np.abs(cfg.deltas**2 / 12 - 1.0) <= 1e-12)


class TestD4:
    def test_origin(self):
        assert np.array_equal(d4_quantize([0.0, 0.0, 0.0, 0.0]), np.zeros(4))

    def test_deep_hole_tie_break_lexicographic(self):
        # (1,0,0,0) is equidistant from several lattice points; the smallest wins
        z = d4_quantize([1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(z, np.zeros(4))

    def test_nearest_among_neighbors(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = rng.uniform(-3, 3, 4)
            z = d4_quantize(x)
            assert int(z.sum()) % 2 == 0
            assert np.allclose(z, np.round(z))
            # exhaustive check over all lattice points in a surrounding box
            base = np.floor(x)
            best = np.inf
            for off in np.ndindex(4, 4, 4, 4):
                cand = base + np.array(off) - 1.0
                if int(cand.sum()) % 2 != 0:
                    continue
                best = min(best, float(np.sum((x - cand) ** 2)))
            assert np.sum((x - z) ** 2) <= best + 1e-12

    def test_scaled_lattice(self):
        z = d4_quantize([3.1, 3.1, 0.0, 0.1], scale=3.0)
        assert np.allclose(z, [3.0, 3.0, 0.0, 0.0])

    def test_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            d4_quantize([1.0, 2.0, 3.0])

    def test_kernel_agrees_with_exact_rule(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-4, 4, (500, 4))
        roots = kernels.d4_roots()
        assert roots.shape == (24, 4)
        for x in pts:
            exact = d4_quantize(x)
            # in-cell test consistent with the nearest-point map
            shifted = x - exact
            assert np.all(np.abs(shifted @ roots.T) <= 1.0 + 1e-9)

    def test_nearest_matches_exact_rule_on_generic_points(self):
        pts = np.random.default_rng(5).uniform(-4, 4, (2000, 4))
        fast = d4_nearest(pts)
        for x, z in zip(pts, fast):
            assert np.array_equal(z, d4_quantize(x))

    def test_nearest_at_ties_is_a_nearest_point(self):
        # half-integer inputs are where the two tie rules part ways
        pts = np.random.default_rng(6).integers(-6, 7, (2000, 4)) / 2.0
        fast = d4_nearest(pts)
        exact = np.array([d4_quantize(x) for x in pts])
        assert np.any(fast != exact)
        assert np.all(np.remainder(fast.sum(axis=1), 2.0) == 0.0)
        d_fast, d_exact = (np.sum((pts - z) ** 2, axis=1) for z in (fast, exact))
        assert np.array_equal(d_fast, d_exact)

    def test_nearest_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            d4_nearest(np.zeros((5, 3)))

    def test_loop_uses_the_nearest_rule(self):
        # with fe = 0 the loop quantizes exactly dither/scale (alpha = 0);
        # scale 2 keeps the half-integer rows exact ties
        rng = np.random.default_rng(7)
        scale = 2.0
        generic = rng.uniform(-4, 4, (1000, 4))
        ties = rng.integers(-6, 7, (1000, 4)) / 2.0
        dith = np.vstack([generic, ties]) * scale
        n = dith.shape[0] - 1
        A = rng.normal(size=(4, 4)) * 0.4
        bw = rng.normal(size=(n, 4))
        g = rng.normal(size=(4, 4))
        x0 = rng.normal(size=4)
        idx, _, alpha, _, _ = kernels.d4_loop(A, bw, x0, np.zeros((4, 4)), g, dith, scale)
        assert np.all(alpha == 0.0)
        assert np.array_equal(idx, d4_nearest(dith / scale))

    def test_config_requires_multiple_of_four(self):
        with pytest.raises(DimensionMismatch):
            d4_config(3, seed_dither=1)
        cfg = d4_config(8, seed_dither=1)
        assert cfg.g_r == G4

    def test_dither_samples_live_in_voronoi_cell(self):
        rng = np.random.default_rng(3)
        s = kernels.d4_dither(rng, D4_UNIT_SCALE, 2000)
        for row in s:
            assert np.array_equal(d4_quantize(row, scale=D4_UNIT_SCALE), np.zeros(4))

    def test_dither_normalized_second_moment(self):
        rng = np.random.default_rng(4)
        n = 1_000_000
        s = kernels.d4_dither(rng, 1.0, n)
        m2 = float(np.mean(np.sum(s * s, axis=1)))
        g_emp = m2 / 4.0 / 2.0 ** (2.0 / 4.0)
        assert abs(g_emp - G4) / G4 < 0.02
        # per-coordinate variance at the unit-noise scale is one
        s2 = kernels.d4_dither(rng, D4_UNIT_SCALE, 200_000)
        assert abs(np.var(s2, axis=0).mean() - 1.0) < 0.02

    def test_dither_fills_every_orthant_equally(self):
        # the cell is symmetric under coordinate sign flips, so uniform dither
        # puts 1/16 in each orthant; u on [0,1)^4 instead of the fundamental
        # box still lands in the cell but misses half of it
        s = kernels.d4_dither(np.random.default_rng(8), D4_UNIT_SCALE, 100_000)
        counts = np.bincount((s > 0) @ np.array([1, 2, 4, 8]), minlength=16)
        expected = s.shape[0] / 16
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < 37.7  # 99.9% point of chi-square with 15 dof

    def test_dither_determinism(self):
        a = kernels.d4_dither(np.random.default_rng(9), 2.0, 500)
        b = kernels.d4_dither(np.random.default_rng(9), 2.0, 500)
        assert np.array_equal(a, b)
