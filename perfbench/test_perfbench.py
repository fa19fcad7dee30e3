"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import copy
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import gate
import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Run ``run.main`` in-process at self-test sizes, writing under tmp_path."""
    monkeypatch.setattr(workloads, "FULL", workloads.TINY)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(tiny, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        printed = [line.split() for line in lines[:-1] if line.split()[:1] == [m["name"]]]
        assert printed and printed[0][2] == m["unit"], m["name"]


def test_gate_trips_on_corrupted_reference(tmp_path):
    zdrd = workloads.load_zdrd()
    seed = workloads.REFERENCE_SEED
    configs = workloads.build_configs("coded_sdusq", seed, workloads.TINY, tmp_path)
    sweeps = run.Sweeps(zdrd, configs)
    sweeps.repeat_each()
    ref = gate.load_reference()
    assert gate.check(zdrd, "coded_sdusq", seed, sweeps.gate_runs(), ref, seed) == []
    bad = copy.deepcopy(ref)
    bad["coded_sdusq"]["example1"][0][1] += 1e-3
    fails = gate.check(zdrd, "coded_sdusq", seed, sweeps.gate_runs(), bad, seed)
    assert len(fails) == 1 and "!= reference" in fails[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "bounds", "--seconds", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_wrap_point_reads_absent():
    package = types.SimpleNamespace(
        experiments=types.SimpleNamespace(),
        maxdet=types.SimpleNamespace(),
        kernels=types.SimpleNamespace(d4_loop=lambda *a: None),
        entropy_code=types.SimpleNamespace(),
    )
    tracer = spans.Tracer()
    with tracer.installed(package):
        assert package.kernels.d4_loop is not None
    assert "kernels.d4_dither" in tracer.missing
    assert "kernels.d4_loop" not in tracer.missing
    metrics = spans.layer_metrics([], tracer.missing, 1)
    assert "kernels.d4_dither.blocks_per_s" not in metrics
    assert "kernels.d4_loop.steps_per_s" in metrics


def test_compare_refuses_mixed_backends(tmp_path):
    for backend in ("numpy", "numba"):
        d = tmp_path / backend
        d.mkdir()
        record = {
            "workload": "bounds",
            "env": {"backend": backend},
            "result": {"metrics": {"sweep_s": {"value": 1.0, "unit": "s"}}},
        }
        (d / "r.json").write_text(json.dumps(record))
    cmd = [sys.executable, str(HERE / "compare.py"), str(tmp_path / "numpy"), str(tmp_path / "numba")]
    assert subprocess.run(cmd, capture_output=True, timeout=60).returncode == 2
