import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zdrd
from zdrd import kernels
from zdrd.coding import KINDS, SeedBundle, run_coding_experiment
from zdrd.errors import DimensionMismatch
from zdrd.quantizers import (
    D4_UNIT_SCALE,
    G4,
    SQRT12,
    d4_nearest,
    d4_nearest_columns,
    dithered_decode,
    dithered_encode,
    z_nearest,
)
from zdrd.realization import build_realization
from zdrd.solver import nrdf

from conftest import d4_quantize, d4_rule, half_away, sign_floor


def d4_roots():
    """The 24 minimal vectors of D4: all permutations of (+-1, +-1, 0, 0)."""
    roots = []
    for a in range(4):
        for b in range(a + 1, 4):
            for sa in (1.0, -1.0):
                for sb in (1.0, -1.0):
                    v = np.zeros(4)
                    v[a] = sa
                    v[b] = sb
                    roots.append(v)
    return np.array(roots)


def sign_floor_encode(alpha, dither, deltas):
    """Cell indices of alpha + dither by sign(z) * floor(|z| + 1/2): the reference rule."""
    z = (np.asarray(alpha, float) + np.asarray(dither, float)) / np.asarray(deltas, float)
    return sign_floor(z).astype(np.int64)


def hard_floats(rng):
    """Floats at every magnitude, half-integers and their neighbours, values near 2^52 and 2^53."""
    mags = np.ldexp(rng.random(4000) + 0.5, rng.integers(-60, 60, 4000))
    halves = np.concatenate([np.arange(-40, 40) + 0.5, rng.integers(-2**51, 2**51, 500) + 0.5])
    big = np.concatenate([2.0**52 + np.arange(-40, 40), 2.0**53 + np.arange(-40, 40, 2)])
    base = np.concatenate([mags, halves, big, [0.5, 1.5, 2.0**51 + 0.5]])
    near = [np.nextafter(base, np.inf), np.nextafter(base, -np.inf)]
    x = np.concatenate([base, *near])
    return np.concatenate([x, -x])


class TestZNearest:
    @staticmethod
    def assert_matches_reference(x):
        z = z_nearest(x)
        ref = sign_floor(x)
        assert np.array_equal(z, ref)
        # bit for bit as well, zeros included; only -0.0 keeps its sign
        assert np.array_equal(np.signbit(z), np.signbit(ref) | np.signbit(x) & (x == 0.0))
        assert np.array_equal(z.astype(np.int64), sign_floor_encode(x, 0.0, 1.0))

    def test_generic_floats(self):
        rng = np.random.default_rng(10)
        x = np.concatenate([rng.normal(0, 3, 5000), rng.uniform(-1e6, 1e6, 5000)])
        self.assert_matches_reference(x)

    def test_half_integers_round_away_from_zero(self):
        x = np.arange(-20, 21) + 0.5
        self.assert_matches_reference(x)
        assert np.array_equal(z_nearest(x), np.where(x > 0, x + 0.5, x - 0.5))

    def test_signed_zeros(self):
        x = np.array([0.0, -0.0, 0.25, -0.25, 0.4, -0.4])
        self.assert_matches_reference(x)
        assert np.all(z_nearest(x) == 0.0)
        assert np.array_equal(np.signbit(z_nearest(x)), np.signbit(x))

    def test_exact_at_every_magnitude(self):
        x = hard_floats(np.random.default_rng(14))
        z = z_nearest(x)
        want = np.array([half_away(v) for v in x])
        assert np.array_equal(z, want)
        assert np.array_equal(np.signbit(z), np.signbit(want))
        self.assert_matches_reference(x)

    def test_sums_that_round_across_a_half(self):
        # x + 1/2 rounds up to the next integer for these, though the
        # fraction of |x| is below one half
        x = np.array([np.nextafter(0.5, 0.0), 2.0**52 + 1, 2.0**53 - 1])
        assert np.array_equal(x + 0.5, [1.0, 2.0**52 + 2, 2.0**53])
        assert np.array_equal(z_nearest(x), [0.0, 2.0**52 + 1, 2.0**53 - 1])
        assert np.array_equal(z_nearest(-x), -z_nearest(x))

    def test_in_place(self):
        x = hard_floats(np.random.default_rng(15))
        z = z_nearest(x)
        assert z_nearest(x, out=x) is x
        assert np.array_equal(x, z) and np.array_equal(np.signbit(x), np.signbit(z))


class TestSdusq:
    def test_origin(self):
        z = dithered_encode([0.0], [0.0], SQRT12)
        assert z[0] == 0

    def test_second_cell(self):
        z = dithered_encode([0.6 * SQRT12], [0.0], SQRT12)
        assert z[0] == 1

    def test_tie_rounds_half_away_from_zero(self):
        assert dithered_encode([0.5 * SQRT12], [0.0], SQRT12)[0] == 1
        assert dithered_encode([-0.5 * SQRT12], [0.0], SQRT12)[0] == -1

    def test_decode_roundtrip_at_origin(self):
        beta = dithered_decode(dithered_encode([0.0], [0.0], SQRT12), [0.0], SQRT12)
        assert beta[0] == 0.0

    @given(
        alpha=st.floats(-100, 100),
        u=st.floats(-0.5, 0.5),
        delta=st.floats(0.1, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_error_bounded_by_half_cell(self, alpha, u, delta):
        q = np.array([u * delta])
        z = dithered_encode([alpha], q, [delta])
        assert np.array_equal(z, sign_floor_encode([alpha], q, [delta]))
        beta = dithered_decode(z, q, [delta])
        assert abs(beta[0] - alpha) <= delta / 2 + 1e-9

    def test_error_moments_and_independence(self):
        rng = np.random.default_rng(0)
        n = 1_000_000
        delta = SQRT12
        alpha = rng.normal(0, 3.0, n)
        q = (rng.random(n) - 0.5) * delta
        z = dithered_encode(alpha, q, delta)
        assert np.array_equal(z, sign_floor_encode(alpha, q, delta))
        err = dithered_decode(z, q, delta) - alpha
        assert abs(np.var(err) - delta**2 / 12) / (delta**2 / 12) < 0.01
        corr = np.corrcoef(err, alpha)[0, 1]
        assert abs(corr) <= 0.01

    def test_config_steps_match_unit_noise(self):
        kind = KINDS["sdusq"]
        assert (kind.block, kind.scale) == (1, SQRT12)
        assert abs(SQRT12**2 / 12 - 1.0) <= 1e-12
        # the loss of a cube cell, G = 1/12
        assert kind.loss_bits == pytest.approx(0.5 * math.log2(2 * math.pi * math.e / 12))


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
        roots = d4_roots()
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

    def test_columns_apply_the_rule_per_block(self):
        # the loop's (r, G) layout: column j holds r/4 blocks of loop j, which
        # lie along axis 1 of the (r // 4, 4, G) view
        rng = np.random.default_rng(11)
        x = np.vstack([rng.uniform(-4, 4, (8, 6)), rng.integers(-6, 7, (8, 6)) / 2.0])
        x[0, :3] = [0.0, -0.0, -0.25]  # zeros of both signs, and a value that rounds to -0.0
        x[1:4, :3] = 0.0
        blocks = x.reshape(-1, 4, x.shape[1])
        on_axis = d4_nearest(blocks, axis=1)
        z = d4_nearest_columns(x)
        assert on_axis.shape == blocks.shape and z.shape == x.shape
        for col in range(x.shape[1]):
            rows = d4_nearest(x[:, col].reshape(-1, 4))
            for got in (on_axis[..., col], z[:, col].reshape(-1, 4)):
                assert np.array_equal(got, rows)
                assert np.array_equal(np.signbit(got), np.signbit(rows))
        # in place, as the loop rounds its buffer
        inplace = x.copy()
        assert d4_nearest_columns(inplace, out=inplace) is inplace
        assert np.array_equal(inplace, z) and np.array_equal(np.signbit(inplace), np.signbit(z))

    def test_nearest_equals_the_previous_rule(self):
        # generic points, half-integer ties, integral points (where x equals
        # its rounding) and signed zeros, among them values rounding to -0.0
        rng = np.random.default_rng(12)
        generic = rng.uniform(-4, 4, (3000, 4))
        ties = rng.integers(-6, 7, (3000, 4)) / 2.0
        integral = rng.integers(-3, 4, (1000, 4)).astype(float)
        zeros = rng.choice([0.0, -0.0, -0.25, 0.25, -0.5, 0.5, -1.0, 1.0], (3000, 4))
        x = np.vstack([generic, ties, integral, zeros])
        x = x[rng.permutation(len(x))]
        assert np.any(np.signbit(x) & (x == 0.0))

        def assert_same(got, want):
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

        assert_same(d4_nearest(x), d4_rule(x))
        # the loop's (r // 4, 4, G) column layout, by view and in place
        cols = x.reshape(20, -1)  # r = 20: five blocks per column
        blocks = cols.reshape(5, 4, -1)
        want = d4_rule(blocks, axis=1)
        assert_same(d4_nearest(blocks, axis=1), want)
        assert_same(d4_nearest_columns(cols), want.reshape(cols.shape))
        inplace = cols.copy()
        d4_nearest_columns(inplace, out=inplace)
        assert_same(inplace, want.reshape(cols.shape))

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
        kind = KINDS["d4"]
        assert (kind.block, kind.scale) == (4, D4_UNIT_SCALE)
        # per-coordinate noise variance of the scaled cell, c^2 G4 vol^(1/2), is one
        assert abs(D4_UNIT_SCALE**2 * G4 * np.sqrt(2.0) - 1.0) <= 1e-12
        assert kind.loss_bits == pytest.approx(0.5 * math.log2(2 * math.pi * math.e * G4))
        src = zdrd.new_source(0.5 * np.eye(3), np.eye(3), np.eye(3))
        scheme = build_realization(src, nrdf(src, 0.3))
        assert scheme.r == 3
        with pytest.raises(DimensionMismatch, match="divisible by 4, got r=3"):
            run_coding_experiment(scheme, src, 100, SeedBundle(1, 2), "d4")

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
