"""What the benchmark harness in ``perfbench/`` reads from the package.

The harness traces a sweep by wrapping the functions listed in
``perfbench/spans.py`` at their module attributes, and it builds its seed
bundle from three positional seeds.  A wrap point removed from zdrd does
not fail the harness: its per-layer metrics just read absent.  These tests
fail instead.  The harness also finds its reference rates by ``repr(D)``,
so a last-bit change in a stable grid fails its gate; a test here pins
that grid first.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

import zdrd
from zdrd import entropy_code, kernels, maxdet
from zdrd.experiments import default_grid, preset_config
from zdrd.solver import nrdf

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def load_spans(monkeypatch):
    monkeypatch.setattr("sys.dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_is_callable(monkeypatch):
    spans = load_spans(monkeypatch)
    assert spans.WRAP_POINTS
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in spans.WRAP_POINTS
        if not callable(getattr(getattr(zdrd, module, None), attr, None))
    ]
    assert missing == []


def test_seed_bundle_takes_three_positional_seeds():
    bundle = zdrd.SeedBundle(1, 2, 3)
    assert (bundle.source, bundle.dither, bundle.channel) == (1, 2, 3)


def test_span_attributes_read_real_results(monkeypatch):
    # a renamed field would zero a per-layer metric without any error
    spans = load_spans(monkeypatch)
    attrs = {(module, attr): fn for module, attr, _, fn in spans.WRAP_POINTS}
    for name, build, D, form in (
        ("example1", maxdet.form_b_problem, 1.0, "form_b"),
        ("example4", maxdet.form_a_problem, 0.5, "form_a"),
    ):
        src = preset_config(name).source
        prob = build(src.A, src.B, D)
        got = attrs[("maxdet", build.__name__)]((src.A, src.B, D), prob)
        assert got["p"] == src.p and got["bytes"] > 0
        solved = maxdet.solve_maxdet(prob)
        assert attrs[("maxdet", "solve_maxdet")]((prob,), solved) == {"p": src.p}
        sol = nrdf(src, D)
        assert attrs[("experiments", "nrdf")]((src, D), sol) == {"p": src.p, "form": form}
    rng = np.random.default_rng(0)
    n, p, r = 50, 3, 2
    deltas = np.full(r, np.sqrt(12.0))
    args = (
        0.4 * np.eye(p),
        rng.standard_normal((n, p)),
        np.zeros(p),
        rng.standard_normal((r, p)),
        rng.standard_normal((p, r)),
        (rng.random((n + 1, r)) - 0.5) * deltas,
        deltas,
    )
    looped = kernels.sdusq_loop(*args)
    assert attrs[("kernels", "sdusq_loop")](args, looped) == {"steps": n + 1}
    args = (rng, 2.0, 8)
    assert attrs[("kernels", "d4_dither")](args, kernels.d4_dither(*args)) == {"blocks": 8}
    idx = np.array([[0, 1], [2, 3], [0, 1], [-1, 0], [2, 3]])
    counts = entropy_code.histogram_of_rows(idx)
    assert attrs[("entropy_code", "histogram_of_rows")]((idx,), counts) == {"symbols": 3}


def test_example1_grid_is_the_reference_keys():
    # d_max sets the grid, so this pins the Lyapunov solve to its last bit
    ref = json.loads((PERFBENCH / "reference.json").read_text())
    keys = [repr(float(d)) for d, _ in ref["bounds"]["example1"]]
    grid = default_grid(preset_config("example1").source, len(keys))
    assert [repr(float(d)) for d in grid] == keys
