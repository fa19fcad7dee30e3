import csv
import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

import zdrd
from zdrd import coding, entropy_code, kernels
from zdrd.coding import (
    HALF_LOG2_PIE6,
    KINDS,
    SeedBundle,
    run_coding_batch,
    run_coding_experiment,
    theoretical_upper_bound,
)
from zdrd.errors import AlphabetOverflow, ConfigParse, DimensionMismatch
from zdrd.experiments import ExperimentConfig, preset_config, run_experiment
from zdrd.quantizers import D4_UNIT_SCALE, G4, SQRT12
from zdrd.realization import build_realization, channel_matrices
from zdrd.solver import nrdf


def reference_huffman_lengths(counts):
    """Heap Huffman construction the two-queue code must reproduce exactly:
    ties broken by insertion order over symbols pre-sorted ascending."""
    if not counts:
        return {}
    if len(counts) == 1:
        (sym,) = counts
        return {sym: 1}
    heap = []
    for order, (sym, c) in enumerate(sorted(counts.items())):
        heap.append((c, order, (sym,)))
    heapq.heapify(heap)
    lengths = dict.fromkeys(counts, 0)
    nxt = len(heap)
    while len(heap) > 1:
        c1, _, g1 = heapq.heappop(heap)
        c2, _, g2 = heapq.heappop(heap)
        for sym in g1:
            lengths[sym] += 1
        for sym in g2:
            lengths[sym] += 1
        heapq.heappush(heap, (c1 + c2, nxt, g1 + g2))
        nxt += 1
    return lengths


def reference_histogram_of_rows(idx):
    """Row histogram through np.unique(axis=0), keys in its order."""
    if idx.shape[0] == 0:
        return {}
    uniq, counts = np.unique(idx, axis=0, return_counts=True)
    return {tuple(int(v) for v in row): int(c) for row, c in zip(uniq, counts)}


class TestEntropyCodeReference:
    @pytest.mark.parametrize("name", ["example1", "example3"])
    def test_coded_runs_match_reference(self, name, monkeypatch):
        seen = []
        histogram = entropy_code.histogram_of_rows

        def recording(idx):
            seen.append(idx.copy())
            return histogram(idx)

        monkeypatch.setattr(entropy_code, "histogram_of_rows", recording)
        run_experiment(preset_config(name, n_steps=2000, points=3))
        assert len(seen) >= 2
        for idx in seen:
            counts = histogram(idx)
            # key order matters: the entropy sums the counts in dict order
            assert list(counts.items()) == list(reference_histogram_of_rows(idx).items())
            assert entropy_code.huffman_lengths(counts) == reference_huffman_lengths(counts)

    def test_tie_heavy_histograms(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            r = int(rng.integers(1, 4))
            idx = rng.integers(-2, 3, size=(int(rng.integers(1, 400)), r))
            counts = entropy_code.histogram_of_rows(idx)
            assert list(counts.items()) == list(reference_histogram_of_rows(idx).items())
            # few distinct counts, so most merges are ties
            ties = {k: int(c) for k, c in zip(counts, rng.integers(1, 4, len(counts)))}
            for h in (counts, ties):
                assert entropy_code.huffman_lengths(h) == reference_huffman_lengths(h)

    def test_empty_and_zero_width_rows(self):
        for idx in (np.zeros((0, 2), dtype=np.int64), np.zeros((5, 0), dtype=np.int64)):
            assert entropy_code.histogram_of_rows(idx) == reference_histogram_of_rows(idx)


class TestHuffman:
    def test_single_symbol(self):
        assert entropy_code.huffman_lengths({(0,): 10}) == {(0,): 1}

    def test_deterministic(self):
        counts = {(i,): c for i, c in enumerate([5, 5, 3, 3, 2, 2])}
        a = entropy_code.huffman_lengths(counts)
        b = entropy_code.huffman_lengths(dict(reversed(list(counts.items()))))
        assert a == b

    @given(
        st.dictionaries(
            st.integers(min_value=-50, max_value=50),
            st.integers(min_value=1, max_value=1000),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_kraft_and_sandwich(self, raw):
        counts = {(k,): v for k, v in raw.items()}
        lengths = entropy_code.huffman_lengths(counts)
        assert sum(2.0 ** -l for l in lengths.values()) <= 1.0 + 1e-12
        rate = entropy_code.average_code_length(counts, lengths)
        ent = entropy_code.empirical_entropy_bits(counts)
        assert ent - 1e-12 <= rate <= ent + 1.0 + 1e-12


class TestUpperBound:
    def test_scalar_constant(self):
        assert abs(HALF_LOG2_PIE6 - 0.2546) < 1e-4
        assert theoretical_upper_bound(2.0, 1, "sdusq") == pytest.approx(
            2.0 + HALF_LOG2_PIE6 + 1.0
        )

    def test_d4_constant(self):
        up = theoretical_upper_bound(0.0, 4, "d4")
        assert up == pytest.approx(2 * math.log2(2 * math.pi * math.e * G4) + 1.0)
        assert abs(up / 4 - 0.4439) < 1e-4

    def test_zero_active_dimensions(self):
        assert theoretical_upper_bound(1.7, 0, "sdusq") == 1.7
        assert theoretical_upper_bound(1.7, 0, "d4") == 1.7
        with pytest.raises(DimensionMismatch, match="r must be nonnegative, got -1"):
            theoretical_upper_bound(1.7, -1, "sdusq")


class TestCodingRuns:
    def test_scalar_run_rate_and_mse(self, scalar_half):
        sol = nrdf(scalar_half, 0.5)
        scheme = build_realization(scalar_half, sol)
        res = run_coding_experiment(
            scheme, scalar_half, 100_000, SeedBundle(21, 22), "sdusq"
        )
        assert abs(res.empirical_mse - 0.5) / 0.5 < 0.05
        assert res.empirical_rate_bits_per_vector <= theoretical_upper_bound(
            sol.rate_bits, 1, "sdusq"
        )
        assert res.empirical_rate_bits_per_vector >= sol.rate_bits

    def test_huffman_sandwich_on_runs(self, scalar_half, stable4):
        for src, d in [(scalar_half, 0.5), (stable4, 1.0)]:
            scheme = build_realization(src, nrdf(src, d))
            res = run_coding_experiment(
                scheme, src, 20_000, SeedBundle(31, 32), "sdusq"
            )
            assert (
                res.empirical_entropy_bits - 1e-9
                <= res.empirical_rate_bits_per_vector
                <= res.empirical_entropy_bits + 1.0 + 1e-9
            )

    def test_zero_rate_transmits_nothing(self):
        src = zdrd.new_source([[0.3]], [[1.0]], [[1.0]])
        dmax = zdrd.d_max(src)
        scheme = build_realization(src, nrdf(src, 2 * dmax))
        res = run_coding_experiment(
            scheme, src, 100_000, SeedBundle(41, 42), "sdusq"
        )
        assert res.empirical_rate_bits_per_vector == 0.0
        assert res.alphabet_size_observed == 0
        assert abs(res.empirical_mse - dmax) / dmax < 0.05

    def test_determinism(self, stable4):
        scheme = build_realization(stable4, nrdf(stable4, 1.0))
        a = run_coding_experiment(scheme, stable4, 5000, SeedBundle(1, 2), "sdusq")
        b = run_coding_experiment(scheme, stable4, 5000, SeedBundle(1, 2), "sdusq")
        assert a == b

    def test_alphabet_overflow_guard(self, stable4, monkeypatch):
        scheme = build_realization(stable4, nrdf(stable4, 0.1))
        monkeypatch.setattr(coding, "ALPHABET_CAP", 8)
        with pytest.raises(AlphabetOverflow):
            run_coding_experiment(scheme, stable4, 5000, SeedBundle(1, 2), "sdusq")

    def test_batch_rows_equal_single_runs(self, stable4, stable_ar2, monkeypatch):
        # r = 4, 2 and 0 in one batch, plus a point that fails alone: its
        # scheme belongs to a source of another dimension
        schemes = [build_realization(stable4, nrdf(stable4, d)) for d in (0.2, 3.98, 10.0)]
        assert [s.r for s in schemes] == [4, 2, 0]
        points = [(sch, SeedBundle(10 + i, 20 + i)) for i, sch in enumerate(schemes)]
        foreign = build_realization(stable_ar2, nrdf(stable_ar2, 0.5))
        points.insert(1, (foreign, SeedBundle(5, 6)))
        got = run_coding_batch(stable4, 3000, "sdusq", points)
        assert isinstance(got[1], DimensionMismatch)
        for res, (sch, seeds) in zip(got[:1] + got[2:], points[:1] + points[2:]):
            assert res == run_coding_experiment(sch, stable4, 3000, seeds, "sdusq")
        monkeypatch.setattr(coding, "ALPHABET_CAP", 8)
        capped = run_coding_batch(stable4, 3000, "sdusq", points)
        assert isinstance(capped[0], AlphabetOverflow)
        assert capped[2:] == got[2:]

    def test_d4_needs_four_active_dims(self, stable_ar2):
        scheme = build_realization(stable_ar2, nrdf(stable_ar2, 0.5))  # r = 1
        with pytest.raises(DimensionMismatch):
            run_coding_experiment(
                scheme, stable_ar2, 1000, SeedBundle(1, 2), "d4"
            )

    def test_d4_run_meets_vector_bound(self, unstable4):
        sol = nrdf(unstable4, 1.0)
        scheme = build_realization(unstable4, sol)
        res = run_coding_experiment(
            scheme, unstable4, 50_000, SeedBundle(51, 52), "d4"
        )
        assert abs(res.empirical_mse - 1.0) < 0.05
        sol_emp = nrdf(unstable4, res.empirical_mse)
        up = theoretical_upper_bound(sol_emp.rate_bits, 4, "d4")
        assert sol_emp.rate_bits <= res.empirical_rate_bits_per_vector <= up + 0.05
        # normalized per dimension the lattice bound adds ~0.4439 bits
        assert res.empirical_rate_bits_per_vector / 4 <= sol_emp.rate_bits / 4 + 0.4439 + 0.02

    def test_dither_error_uniformity_ks(self, scalar_half):
        # quantization errors in the closed loop pass a uniformity test
        scheme = build_realization(scalar_half, nrdf(scalar_half, 0.5))
        fe, g = channel_matrices(scheme)
        rng_src = np.random.default_rng(61)
        x0 = rng_src.standard_normal(1)
        w = rng_src.standard_normal((100_000, 1))
        bw = w @ scalar_half.B.T
        deltas = np.full(1, SQRT12)
        dith = (np.random.default_rng(62).random((100_001, 1)) - 0.5) * deltas
        idx, k, alpha, beta, e = kernels.sdusq_loop(
            scalar_half.A, bw, x0, fe, g, dith, deltas
        )
        err = (beta - alpha)[:, 0]
        stat = kstest(err, "uniform", args=(-SQRT12 / 2, SQRT12)).statistic
        assert stat < 1.63 / math.sqrt(err.size)  # 1% critical value

    def test_trace_csv(self, tmp_path, scalar_half):
        scheme = build_realization(scalar_half, nrdf(scalar_half, 0.5))
        path = tmp_path / "trace.csv"
        res = run_coding_experiment(
            scheme, scalar_half, 500, SeedBundle(71, 72), "sdusq",
            trace_path=path,
        )
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "index_0", "codeword_length_bits", "sq_error"]
        assert len(rows) == 502
        total_bits = sum(int(r[2]) for r in rows[1:])
        assert total_bits / 501 == pytest.approx(res.empirical_rate_bits_per_vector)

    def test_result_json(self, tmp_path, scalar_half):
        scheme = build_realization(scalar_half, nrdf(scalar_half, 0.5))
        res = run_coding_experiment(
            scheme, scalar_half, 500, SeedBundle(81, 82), "sdusq"
        )
        path = tmp_path / "res.json"
        res.to_json(path)
        import json

        doc = json.loads(path.read_text())
        assert doc["n_steps"] == 500
        assert doc["empirical_rate_bits_per_vector"] == res.empirical_rate_bits_per_vector


class TestKinds:
    def test_unknown_kind_is_rejected(self, stable4):
        scheme = build_realization(stable4, nrdf(stable4, 1.0))
        with pytest.raises(ValueError, match="unknown quantizer kind 'e8'"):
            run_coding_batch(stable4, 100, "e8", [(scheme, SeedBundle(1, 2))])
        for r in (0, 4):
            with pytest.raises(ValueError, match="unknown quantizer kind 'e8'"):
                theoretical_upper_bound(1.0, r, "e8")
        with pytest.raises(ConfigParse):
            ExperimentConfig(stable4, (1.0,), quantizer="e8")

    # each kind's dither as run_coding_batch drew it before the kinds carried
    # their own draw; a new kind adds its reference draw here
    DIRECT_DRAWS = {
        "sdusq": lambda rng, rows, r: (rng.random((rows, r)) - 0.5) * np.full(r, SQRT12),
        "d4": lambda rng, rows, r: kernels.d4_dither(
            rng, D4_UNIT_SCALE, rows * (r // 4)
        ).reshape(rows, r),
    }
    # lattice membership of one block of coordinates
    MEMBERS = {
        "sdusq": lambda blocks: np.ones(blocks.shape[:-1], bool),
        "d4": lambda blocks: np.remainder(blocks.sum(axis=-1), 2.0) == 0.0,
    }

    def test_every_kind_has_its_references(self):
        assert set(self.DIRECT_DRAWS) == set(self.MEMBERS) == set(KINDS)

    @pytest.mark.parametrize("name", sorted(KINDS))
    def test_nearest_returns_lattice_points(self, name):
        kind = KINDS[name]
        rng = np.random.default_rng(12)
        r, G = 2 * kind.block, 5
        generic = rng.uniform(-4, 4, (r, G))
        ties = rng.integers(-6, 7, (r, G)) / 2.0
        for x in (generic, ties):
            z = kind.nearest(x)
            assert z.shape == (r, G)
            assert np.array_equal(z, np.round(z))
            assert np.all(self.MEMBERS[name](z.T.reshape(G, r // kind.block, kind.block)))
            # a column is one loop: it is quantized on its own
            for col in range(G):
                assert np.array_equal(z[:, col], kind.nearest(x[:, col : col + 1])[:, 0])
            # in place, as the loop rounds its buffer
            inplace = x.copy()
            assert kind.nearest(inplace, out=inplace) is inplace
            assert np.array_equal(inplace, z)
            assert np.array_equal(np.signbit(inplace), np.signbit(z))

    @pytest.mark.parametrize("name", sorted(KINDS))
    def test_dither_is_the_direct_draw(self, name):
        kind = KINDS[name]
        for r in (kind.block, 2 * kind.block):
            got = kind.dither(np.random.default_rng(13), 301, r)
            want = self.DIRECT_DRAWS[name](np.random.default_rng(13), 301, r)
            assert got.shape == (301, r) and np.array_equal(got, want)

    def test_every_public_name_resolves(self):
        assert [name for name in zdrd.__all__ if not hasattr(zdrd, name)] == []


class TestStreamChunks:
    # bounding a sweep's memory means drawing each row's source and dither
    # streams in horizon chunks; that keeps every run unchanged only if
    # PCG64 draws split along the horizon equal one draw
    @pytest.mark.parametrize("width", [1, 3, 4])
    @pytest.mark.parametrize("draw, head", [("standard_normal", 4), ("random", 0)])
    def test_chunked_draws_equal_one_draw(self, draw, head, width):
        n, cuts = 1001, [0, 1, 1, 250, 777, 1001]
        one = np.random.default_rng(2024)
        x0 = one.standard_normal(head)  # the source stream draws x0 first
        whole = getattr(one, draw)((n, width))
        rng = np.random.default_rng(2024)
        assert np.array_equal(rng.standard_normal(head), x0)
        parts = [getattr(rng, draw)((b - a, width)) for a, b in zip(cuts, cuts[1:])]
        assert np.array_equal(np.concatenate(parts), whole)
