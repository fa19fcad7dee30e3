import json

import numpy as np
import pytest

import zdrd
from zdrd import cli, experiments
from zdrd.errors import ConfigParse, InfeasibleModel, failure_status

from conftest import STABLE_4D_A, UNSTABLE_4D_A


def small_config(name="example4", quantizer="sdusq", n_steps=2000, points=4, csv=None):
    cfg = experiments.preset_config(name, quantizer=quantizer, n_steps=n_steps,
                                    csv_path=csv, points=points)
    return cfg


class TestPresets:
    def test_list(self):
        assert experiments.list_presets() == [
            "example1",
            "example2",
            "example3",
            "example4",
        ]

    def test_matrices_match_reference(self):
        sources = experiments._preset_sources()
        assert np.array_equal(sources["example1"].A, STABLE_4D_A)
        assert np.array_equal(sources["example3"].A, UNSTABLE_4D_A)
        assert np.allclose(sources["example2"].A, [[0.3, 0.5], [1.0, 0.0]])
        assert np.allclose(sources["example2"].B, [[1.0, 0.0], [0.0, 0.0]])
        assert np.allclose(sources["example4"].A, [[1.2, 0.5], [1.0, 0.0]])
        for name in ("example1", "example3"):
            assert np.array_equal(sources[name].B, np.eye(4))
            assert np.array_equal(sources[name].sigma_x0, np.eye(4))

    def test_unknown_preset(self):
        with pytest.raises(ConfigParse):
            experiments.preset_config("example9")

    def test_default_grids(self):
        g1 = experiments.preset_config("example1", quantizer="none").d_grid
        assert len(g1) == 20
        dm = zdrd.d_max(experiments._preset_sources()["example1"])
        assert g1[0] == pytest.approx(0.02 * dm)
        assert g1[-1] == pytest.approx(dm)
        g3 = experiments.preset_config("example3", quantizer="none").d_grid
        assert g3[-1] == pytest.approx(3.0)


class TestRunExperiment:
    def test_bounds_only_mode(self):
        report = experiments.run_experiment(small_config(quantizer="none"))
        assert not report.failed
        for row in report.rows:
            assert row.rate_op_bits is None
            assert row.d_empirical is None
            assert row.rate_lower_bits <= row.rate_upper_bits

    def test_monotone_lower_bound_all_presets(self):
        for name in experiments.list_presets():
            cfg = experiments.preset_config(name, quantizer="none", points=6)
            report = experiments.run_experiment(cfg)
            lows = [row.rate_lower_bits for row in report.rows]
            assert all(b <= a + 1e-9 for a, b in zip(lows, lows[1:])), name
            if name == "example4":
                assert all(lo >= 0.611 - 1e-4 for lo in lows)

    def test_example1_dimension_drop(self):
        src = experiments._preset_sources()["example1"]
        cfg = experiments.ExperimentConfig(
            source=src, d_grid=(3.9, 4.0), quantizer=None, name="example1-drop"
        )
        rows = experiments.run_experiment(cfg).rows
        assert rows[0].r_active == 4
        assert rows[1].r_active < 4

    def test_operational_between_bounds(self):
        report = experiments.run_experiment(small_config(n_steps=20_000))
        for row in report.rows:
            assert row.status == "ok"
            assert row.rate_op_bits >= row.rate_lower_bits

    def test_csv_roundtrip_exact(self, tmp_path):
        path = tmp_path / "rows.csv"
        cfg = small_config(csv=str(path))
        report = experiments.run_experiment(cfg)
        rows = experiments.read_csv(path)
        assert rows == list(report.rows)

    def test_determinism_bit_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        experiments.run_experiment(small_config(csv=str(p1)))
        experiments.run_experiment(small_config(csv=str(p2)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_per_dim_normalization(self):
        cfg = small_config(quantizer="none")
        full = experiments.run_experiment(cfg)
        per = experiments.run_experiment(cfg, per_dim=True)
        p = cfg.source.p
        for a, b in zip(full.rows, per.rows):
            assert b.rate_lower_bits == pytest.approx(a.rate_lower_bits / p)
            assert b.d_target == a.d_target

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg = small_config()
        base = experiments.run_experiment(cfg)
        monkeypatch.setenv("ZDRD_SEED", "777")
        alt = experiments.run_experiment(cfg)
        again = experiments.run_experiment(cfg)
        assert alt.rows == again.rows
        assert any(
            a.rate_op_bits != b.rate_op_bits for a, b in zip(base.rows, alt.rows)
        )
        monkeypatch.setenv("ZDRD_SEED", "not-an-int")
        with pytest.raises(ConfigParse):
            experiments.run_experiment(cfg)

    def test_failed_rows_flagged(self, tmp_path):
        c, s = np.cos(0.3), np.sin(0.3)
        src = zdrd.new_source([[c, -s], [s, c]], np.zeros((2, 2)), np.eye(2))
        path = tmp_path / "degenerate.csv"
        cfg = experiments.ExperimentConfig(
            source=src, d_grid=(0.5, 1.0), quantizer=None, csv_path=str(path), name="degenerate"
        )
        report = experiments.run_experiment(cfg)
        assert report.failed
        assert all(r.status.startswith("failed:InfeasibleModel: ") for r in report.rows)
        assert all("degenerate candidate" in r.status for r in report.rows)
        assert experiments.read_csv(path) == list(report.rows)

    @pytest.mark.parametrize(
        "name, expected",
        [
            (
                "example1",  # sdusq; the top point is d_max, r = 0
                [
                    ("10.39080459770115", "0.08106578852382115"),
                    ("6.920539730134933", "0.5717712521367103"),
                    ("0.0", "4.049072449711452"),
                ],
            ),
            (
                "example3",  # D4
                [
                    ("10.577211394302848", "0.060024946387569424"),
                    ("7.710644677661169", "0.4280255753178093"),
                    ("4.303848075962019", "2.951694713322956"),
                ],
            ),
        ],
    )
    def test_operational_rates_pinned(self, name, expected, monkeypatch):
        # exact values of the per-point scalar loops the lockstep kernel
        # replaced; any change to the loop's arithmetic order shows here
        monkeypatch.delenv("ZDRD_SEED", raising=False)
        report = experiments.run_experiment(
            experiments.preset_config(name, n_steps=2000, points=3)
        )
        got = [(repr(r.rate_op_bits), repr(r.d_empirical)) for r in report.rows]
        assert got == expected

    def test_failure_status_is_one_line(self):
        exc = InfeasibleModel("first line\nsecond,  line\n")
        assert failure_status(exc) == "failed:InfeasibleModel: first line second, line"
        assert failure_status(ArithmeticError()) == "failed:ArithmeticError"


class TestConfigParsing:
    def test_config_roundtrip(self, tmp_path):
        doc = {
            "source": {"A": [[0.5]], "B": [[1.0]]},
            "d_grid": [0.2, 0.5, 1.0],
            "n_steps": 1500,
            "seeds": {"source": 5, "dither": 6, "channel": 7},
            "quantizer": {"kind": "sdusq"},
            "name": "scalar-demo",
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = experiments.config_from_json(path)
        assert cfg.name == "scalar-demo"
        assert cfg.n_steps == 1500
        assert cfg.seeds.source == 5
        report = experiments.run_experiment(cfg)
        assert not report.failed

    def test_quantizer_none_forms(self):
        base = {"source": {"A": [[0.5]], "B": [[1.0]]}, "d_grid": [0.5]}
        for quant in (None, {}, "none"):
            doc = dict(base)
            if quant is not None:
                doc["quantizer"] = quant
            assert experiments.config_from_dict(doc).quantizer is None

    def test_bad_grid(self):
        with pytest.raises(ConfigParse):
            experiments.config_from_dict(
                {"source": {"A": [[0.5]], "B": [[1.0]]}, "d_grid": [1.0, 0.5]}
            )
        with pytest.raises(ConfigParse):
            experiments.config_from_dict(
                {"source": {"A": [[0.5]], "B": [[1.0]]}, "d_grid": []}
            )

    def test_missing_source(self):
        with pytest.raises(ConfigParse):
            experiments.config_from_dict({"d_grid": [0.5]})

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigParse):
            experiments.config_from_json(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigParse):
            experiments.config_from_json(bad)


class TestCli:
    def test_list_presets(self, capsys):
        assert cli.main(["list-presets"]) == 0
        out = capsys.readouterr().out.split()
        assert out == ["example1", "example2", "example3", "example4"]

    def test_unknown_preset_exit_code(self, capsys):
        assert cli.main(["preset", "nosuch"]) == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_preset_run_with_output(self, tmp_path, capsys):
        out = tmp_path / "ex4.csv"
        code = cli.main(
            ["preset", "example4", "--quantizer", "none", "--grid-points", "3",
             "--out", str(out), "--per-dim"]
        )
        assert code == 0
        assert out.exists()
        rows = experiments.read_csv(out)
        assert len(rows) == 3
        text = capsys.readouterr().out
        assert "example4" in text and "bits/dim" in text

    def test_solve_config(self, tmp_path, capsys):
        doc = {
            "source": {"ar_coefficients": [[[1.2]], [[0.5]]], "B": [[1.0]]},
            "d_grid": [0.3, 1.0],
            "n_steps": 1000,
            "quantizer": "sdusq",
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out.csv"
        assert cli.main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert len(experiments.read_csv(out)) == 2

    def test_solve_missing_config(self, tmp_path, capsys):
        assert cli.main(["solve", "--config", str(tmp_path / "nope.json")]) == 2

    def test_failed_rows_exit_one(self, tmp_path):
        doc = {
            "source": {
                "A": [[0.0, 0.0], [1.0, 0.0]],
                "B": [[1.0, 0.0], [0.0, 0.0]],
            },
            "d_grid": [0.5],
            "quantizer": "none",
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli.main(["solve", "--config", str(cfg_path)]) == 1
