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

    def test_library_ignores_env_seed(self, monkeypatch):
        # only the CLI reads ZDRD_SEED; a library run depends on its config alone
        cfg = small_config()
        monkeypatch.delenv("ZDRD_SEED", raising=False)
        base = experiments.run_experiment(cfg)
        monkeypatch.setenv("ZDRD_SEED", "777")
        assert experiments.run_experiment(cfg).rows == base.rows
        monkeypatch.setenv("ZDRD_SEED", "not-an-int")
        assert experiments.run_experiment(cfg).rows == base.rows

    def test_failed_coded_row(self, tmp_path, capsys):
        # the D4 quantizer needs r divisible by 4: near d_max example1 keeps r = 1
        src = experiments._preset_sources()["example1"]
        grid = (0.5, 0.999 * zdrd.d_max(src))
        path = tmp_path / "d4.csv"
        cfg = experiments.ExperimentConfig(
            source=src, d_grid=grid, n_steps=2000, quantizer="d4", csv_path=str(path)
        )
        report = experiments.run_experiment(cfg)
        assert [row.r_active for row in report.rows] == [4, None]
        assert report.rows[0].status == "ok" and report.rows[0].rate_op_bits is not None
        assert report.rows[1].status == (
            "failed:DimensionMismatch: the D4 quantizer needs r divisible by 4, got r=1"
        )
        assert experiments.read_csv(path) == list(report.rows)
        doc = {
            "source": {"A": src.A.tolist(), "B": src.B.tolist()},  # sigma_x0 = I
            "d_grid": list(grid),
            "n_steps": 2000,
            "quantizer": "d4",
        }
        cfg_path = tmp_path / "d4.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli.main(["solve", "--config", str(cfg_path)]) == 1
        assert "failed:DimensionMismatch" in capsys.readouterr().out

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
                    ("10.39080459770115", "0.08106578852421714"),
                    ("6.920539730134933", "0.5717712521366963"),
                    ("0.0", "4.049072449711452"),
                ],
            ),
            (
                "example3",  # D4
                [
                    ("10.586206896551724", "0.060065998327189264"),
                    ("7.690654672663668", "0.4265477034432415"),
                    ("4.204897551224388", "3.0231101877472617"),
                ],
            ),
        ],
    )
    def test_operational_rates_pinned(self, name, expected):
        # exact values, recorded with the long-step barrier schedule; any change
        # to the loop's arithmetic order shows here.  So does a last-bit move
        # of Pi: on the unstable example3 sub-quantum differences in e grow
        # like A between index flips, and the first flip re-draws the run
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
            "seeds": {"source": 5, "dither": 6},
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

    @pytest.mark.parametrize(
        "extra, named",
        [
            ({"quantiser": "d4"}, ["'quantiser'"]),
            ({"seed": {"source": 5}}, ["'seed'"]),
            ({"seed": 1, "quantiser": "d4"}, ["'seed'", "'quantiser'"]),
            ({"seeds": {"source": 5, "channel": 7}}, ["seeds", "'channel'"]),
            ({"quantizer": {"kind": "d4", "deltas": [3.0]}}, ["quantizer", "'deltas'"]),
            ({"outputs": {"cvs": "out.csv"}}, ["outputs", "'cvs'"]),
        ],
    )
    def test_unknown_keys_are_rejected(self, extra, named):
        doc = {"source": {"A": [[0.5]], "B": [[1.0]]}, "d_grid": [0.5], **extra}
        with pytest.raises(ConfigParse, match="unknown") as info:
            experiments.config_from_dict(doc)
        assert all(name in str(info.value) for name in named)

    def test_integral_values_are_accepted(self):
        doc = {
            "source": {"A": [[0.5]], "B": [[1.0]]},
            "d_grid": [1, 2.5],
            "n_steps": 1e3,
            "seeds": {"source": 5.0},
        }
        cfg = experiments.config_from_dict(doc)
        assert cfg.d_grid == (1.0, 2.5) and cfg.n_steps == 1000 and cfg.seeds.source == 5
        assert type(cfg.n_steps) is int and type(cfg.seeds.source) is int

    def test_preset_n_steps_is_checked_once(self):
        # preset_config hands n_steps to ExperimentConfig unconverted
        for bad in (2.5, "7"):
            with pytest.raises(ConfigParse, match="n_steps must be an integer"):
                experiments.preset_config("example1", n_steps=bad)
        cfg = experiments.preset_config("example1", n_steps=1e5)
        assert cfg.n_steps == 100_000 and type(cfg.n_steps) is int

    def test_missing_source(self):
        with pytest.raises(ConfigParse):
            experiments.config_from_dict({"d_grid": [0.5]})

    def test_n_steps_at_least_one(self):
        src = experiments._preset_sources()["example4"]
        with pytest.raises(ConfigParse, match="^n_steps must be >= 1$"):
            experiments.ExperimentConfig(source=src, d_grid=(0.5,), n_steps=0)

    def test_read_csv_rejects_another_header(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("D,rate\n0.5,1.0\n")
        with pytest.raises(ConfigParse, match=r"unexpected CSV header \['D', 'rate'\]"):
            experiments.read_csv(path)

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

    @pytest.mark.parametrize(
        "field",
        [
            {"n_steps": "many"},
            {"n_steps": 2.5},
            {"d_grid": ["a", 1.0]},
            {"d_grid": 0.5},
            {"d_grid": "0.5"},
            {"seeds": {"source": "x"}},
            {"seeds": {"dither": 1.5}},
            {"seeds": [1, 2]},
            {"outputs": {"csv": 5}},
            {"source": {"A": [[0.5]], "B": [[1.0]], "sigma_xo": [[9.0]]}},
            {"source": {"A": [[0.5, 0.0], [0.0, 0.5]], "B": [[1.0], [0.0], [0.0]]}},
            {"source": {"A": [[0.5]], "B": [[1.0]], "sigma_x0": [[-1.0]]}},
        ],
    )
    def test_malformed_values_exit_two(self, tmp_path, capsys, field):
        doc = {"source": {"A": [[0.5]], "B": [[1.0]]}, "d_grid": [0.5], **field}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli.main(["solve", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_solve_missing_config(self, tmp_path, capsys):
        assert cli.main(["solve", "--config", str(tmp_path / "nope.json")]) == 2

    def test_preset_bad_n_steps_exit_two(self, capsys):
        assert cli.main(["preset", "example4", "--n-steps", "0"]) == 2
        assert capsys.readouterr().err == "error: n_steps must be >= 1\n"

    def test_quantizer_default_is_the_preset_quantizer(self, tmp_path, capsys):
        args = ["preset", "example4", "--n-steps", "500", "--grid-points", "3", "--out"]
        assert cli.main([*args, str(tmp_path / "implicit.csv")]) == 0
        assert cli.main([*args, str(tmp_path / "explicit.csv"), "--quantizer", "default"]) == 0
        implicit = (tmp_path / "implicit.csv").read_bytes()
        assert implicit == (tmp_path / "explicit.csv").read_bytes()
        assert experiments.read_csv(tmp_path / "implicit.csv")[0].rate_op_bits is not None

    def test_env_seed_override(self, tmp_path, monkeypatch, capsys):
        args = ["preset", "example4", "--n-steps", "2000", "--grid-points", "4", "--out"]
        monkeypatch.delenv("ZDRD_SEED", raising=False)
        assert cli.main([*args, str(tmp_path / "base.csv")]) == 0
        monkeypatch.setenv("ZDRD_SEED", "777")
        for name in ("alt.csv", "again.csv"):
            assert cli.main([*args, str(tmp_path / name)]) == 0
        assert (tmp_path / "alt.csv").read_bytes() == (tmp_path / "again.csv").read_bytes()
        base, alt = (experiments.read_csv(tmp_path / n) for n in ("base.csv", "alt.csv"))
        assert any(a.rate_op_bits != b.rate_op_bits for a, b in zip(base, alt))
        monkeypatch.setenv("ZDRD_SEED", "not-an-int")
        assert cli.main([*args, str(tmp_path / "bad.csv")]) == 2
        assert "ZDRD_SEED must be an integer" in capsys.readouterr().err

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
