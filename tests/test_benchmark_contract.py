"""What the benchmark harness in ``perfbench/`` reads from the package.

The harness traces a sweep by wrapping the functions listed in
``perfbench/spans.py`` at their module attributes, and it builds its seed
bundle from three positional seeds.  A wrap point removed from zdrd does
not fail the harness: its per-layer metrics just read absent.  These tests
fail instead.
"""

import importlib.util
from pathlib import Path

import zdrd

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
