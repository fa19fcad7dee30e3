import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

import zdrd
from zdrd import entropy_code, kernels
from zdrd.coding import (
    HALF_LOG2_PIE6,
    SeedBundle,
    run_coding_batch,
    run_coding_experiment,
    theoretical_upper_bound,
)
from zdrd.errors import AlphabetOverflow, DimensionMismatch
from zdrd.quantizers import G4, SQRT12, d4_config, sdusq_config
from zdrd.realization import build_realization, channel_matrices
from zdrd.solver import nrdf


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


class TestCodingRuns:
    def test_scalar_run_rate_and_mse(self, scalar_half):
        sol = nrdf(scalar_half, 0.5)
        scheme = build_realization(scalar_half, sol)
        res = run_coding_experiment(
            scheme, scalar_half, 100_000, SeedBundle(21, 22), sdusq_config(1, 22)
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
                scheme, src, 20_000, SeedBundle(31, 32), sdusq_config(scheme.r, 32)
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
            scheme, src, 100_000, SeedBundle(41, 42), sdusq_config(0, 42)
        )
        assert res.empirical_rate_bits_per_vector == 0.0
        assert res.alphabet_size_observed == 0
        assert abs(res.empirical_mse - dmax) / dmax < 0.05

    def test_determinism(self, stable4):
        scheme = build_realization(stable4, nrdf(stable4, 1.0))
        a = run_coding_experiment(scheme, stable4, 5000, SeedBundle(1, 2), sdusq_config(4, 2))
        b = run_coding_experiment(scheme, stable4, 5000, SeedBundle(1, 2), sdusq_config(4, 2))
        assert a == b

    def test_alphabet_overflow_guard(self, stable4):
        scheme = build_realization(stable4, nrdf(stable4, 0.1))
        with pytest.raises(AlphabetOverflow):
            run_coding_experiment(
                scheme, stable4, 5000, SeedBundle(1, 2), sdusq_config(4, 2), alphabet_cap=8
            )

    def test_batch_rows_equal_single_runs(self, stable4):
        # r = 4, 2 and 0 in one batch, plus a point that fails alone
        schemes = [build_realization(stable4, nrdf(stable4, d)) for d in (0.2, 3.98, 10.0)]
        assert [s.r for s in schemes] == [4, 2, 0]
        points = [
            (sch, SeedBundle(10 + i, 20 + i), sdusq_config(sch.r, 20 + i))
            for i, sch in enumerate(schemes)
        ]
        points.insert(1, (schemes[0], SeedBundle(5, 6), sdusq_config(3, 6)))
        got = run_coding_batch(stable4, 3000, points)
        assert isinstance(got[1], DimensionMismatch)
        for res, (sch, seeds, qcfg) in zip(got[:1] + got[2:], points[:1] + points[2:]):
            assert res == run_coding_experiment(sch, stable4, 3000, seeds, qcfg)
        capped = run_coding_batch(stable4, 3000, points, alphabet_cap=8)
        assert isinstance(capped[0], AlphabetOverflow)
        assert capped[2:] == got[2:]

    def test_d4_needs_four_active_dims(self, stable_ar2):
        scheme = build_realization(stable_ar2, nrdf(stable_ar2, 0.5))  # r = 1
        with pytest.raises(DimensionMismatch):
            run_coding_experiment(
                scheme, stable_ar2, 1000, SeedBundle(1, 2), d4_config(4, 2)
            )

    def test_d4_run_meets_vector_bound(self, unstable4):
        sol = nrdf(unstable4, 1.0)
        scheme = build_realization(unstable4, sol)
        res = run_coding_experiment(
            scheme, unstable4, 50_000, SeedBundle(51, 52), d4_config(4, 52)
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
            scheme, scalar_half, 500, SeedBundle(71, 72), sdusq_config(1, 72),
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
            scheme, scalar_half, 500, SeedBundle(81, 82), sdusq_config(1, 82)
        )
        path = tmp_path / "res.json"
        res.to_json(path)
        import json

        doc = json.loads(path.read_text())
        assert doc["n_steps"] == 500
        assert doc["empirical_rate_bits_per_vector"] == res.empirical_rate_bits_per_vector
