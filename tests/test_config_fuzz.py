"""Fuzz the config surface: JSON-like documents around the config keys.

``config_from_dict`` must return a config or raise a ``ZdrdError``, and a
small document run through ``zdrd solve`` must exit 0, 1 or 2 without a
traceback, with every ``ok`` row finite.  The draws are derandomized, so a
run is the same every time; each failure the fuzzer found is kept below as
a named regression test.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zdrd import cli, experiments
from zdrd.errors import DimensionMismatch, ZdrdError

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
EDGE_NUMBERS = [0.5, 1, 2, 0, -1, 1e-300, 1e15, 1e308, math.inf, -math.inf, math.nan]

numbers = st.floats(-2, 2) | st.integers(-1, 3) | st.sampled_from(EDGE_NUMBERS)
scalars = st.none() | st.booleans() | numbers | st.text(max_size=4)
json_like = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def matrices(size):
    return st.lists(st.lists(numbers, min_size=size, max_size=size), min_size=size, max_size=size)


@st.composite
def sources(draw, p, junk=st.nothing()):
    """Source documents of p x p matrices, by A or by AR coefficients, with
    or without sigma_x0; ``junk`` may replace any value."""
    size = draw(p)
    matrix = matrices(size) | junk
    doc = {"B": draw(matrix)}
    if draw(st.booleans()):
        doc["A"] = draw(matrix)
    else:
        doc["ar_coefficients"] = draw(st.lists(matrices(size), min_size=1, max_size=2) | junk)
    if draw(st.booleans()):
        doc["sigma_x0"] = draw(matrix)
    return doc


def configs(source, grid, n_steps, junk=st.nothing()):
    """Documents with the config keys, each value drawn from its strategy or
    from ``junk``, which also fills an unknown key."""
    optional = {
        "n_steps": n_steps,
        "seeds": st.fixed_dictionaries({}, optional={"source": numbers, "dither": numbers}),
        "quantizer": st.sampled_from(["sdusq", "d4", "none", {"kind": "d4"}, "e8"]),
        "name": st.text(max_size=4),
    }
    optional = {key: value | junk for key, value in optional.items()} | {"unknown": junk}
    return st.fixed_dictionaries({"source": source | junk, "d_grid": grid | junk}, optional=optional)


any_configs = configs(
    sources(st.integers(1, 3), json_like), st.lists(numbers, max_size=4), numbers, json_like
) | json_like
small_grids = st.lists(st.floats(1e-3, 10) | st.sampled_from(EDGE_NUMBERS), min_size=1, max_size=3)
small_configs = configs(sources(st.integers(1, 2)), small_grids.map(sorted), st.integers(1, 200))


@given(any_configs)
@settings(FUZZ, max_examples=500)
def test_config_from_dict_returns_a_config_or_a_zdrd_error(doc):
    try:
        config = experiments.config_from_dict(doc)
    except ZdrdError:
        return
    assert isinstance(config, experiments.ExperimentConfig)


@given(small_configs)
@settings(FUZZ, max_examples=300)
def test_small_configs_run_cleanly(doc):
    # an exception that escapes cli.main fails the test with its traceback
    with tempfile.TemporaryDirectory() as folder:
        cfg, out = Path(folder) / "cfg.json", Path(folder) / "out.csv"
        cfg.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = cli.main(["solve", "--config", str(cfg), "--out", str(out)])
        rows = experiments.read_csv(out) if out.exists() else []
    assert status in (0, 1, 2), status
    assert "Traceback" not in err.getvalue()
    for row in rows:
        values = [row.rate_lower_bits, row.rate_upper_bits, row.rate_op_bits, row.d_empirical]
        assert row.status != "ok" or all(v is None or math.isfinite(v) for v in values), row


def test_null_A_is_a_config_error():
    # np.asarray(None, float) is a 0-d nan, whose shape[0] raised IndexError
    doc = {"source": {"B": [[0.0]], "A": None}, "d_grid": []}
    with pytest.raises(DimensionMismatch, match="A must be a 2-d array, got ndim=0"):
        experiments.config_from_dict(doc)
