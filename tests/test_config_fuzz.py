"""Fuzz the config surface: JSON-like documents around the config keys.

``config_from_dict`` must return a config or raise a ``ZdrdError``, and a
small document run through ``zdrd solve`` must exit 0, 1 or 2 without a
traceback, with every ``ok`` row finite.  ``ExperimentConfig`` built in code
and ``read_csv`` of a report with generated rows must return or raise
``ConfigParse``.  The draws are derandomized, so a run is the same every
time; each failure the fuzzer found is kept below as a named regression test.
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
from zdrd.coding import KINDS
from zdrd.errors import ConfigParse, DimensionMismatch, ZdrdError
from zdrd.source_model import new_source

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


report_cells = st.text(max_size=6) | st.sampled_from(["", "0.5", "1", "-0.0", "nan", "ok", "1e999"])
report_rows = st.lists(st.lists(report_cells, min_size=5, max_size=9), max_size=4)


def read_report(rows):
    """read_csv of a report file: the header, then ``rows`` of cells joined
    by commas and newlines, unquoted, so a cell may split or join lines."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "report.csv"
        lines = [experiments.CSV_HEADER, *rows]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(",".join(cells) + "\n" for cells in lines))
        return experiments.read_csv(path)


@given(report_rows)
@settings(FUZZ, max_examples=300)
def test_read_csv_returns_rows_or_a_config_error(rows):
    try:
        parsed = read_report(rows)
    except ConfigParse:
        return
    assert all(isinstance(row, experiments.ExperimentRow) for row in parsed)


@given(
    name=st.text(max_size=4) | json_like,
    csv_path=st.none() | st.text(max_size=4) | json_like,
    quantizer=st.sampled_from([None, *KINDS]) | json_like,
    n_steps=st.integers(1, 100) | json_like,
)
@settings(FUZZ, max_examples=300)
def test_experiment_config_checks_its_fields(name, csv_path, quantizer, n_steps):
    src = new_source([[0.5]], [[1.0]], [[1.0]])
    try:
        config = experiments.ExperimentConfig(
            src, (0.5,), n_steps=n_steps, quantizer=quantizer, csv_path=csv_path, name=name
        )
    except ConfigParse:
        return
    assert isinstance(config.name, str)
    assert config.csv_path is None or isinstance(config.csv_path, str)


def test_null_A_is_a_config_error():
    # np.asarray(None, float) is a 0-d nan, whose shape[0] raised IndexError
    doc = {"source": {"B": [[0.0]], "A": None}, "d_grid": []}
    with pytest.raises(DimensionMismatch, match="A must be a 2-d array, got ndim=0"):
        experiments.config_from_dict(doc)


@pytest.mark.parametrize("column", range(6))
def test_report_cell_that_is_not_a_number_is_a_config_error(column):
    # float(':') and int(':') raised a bare ValueError
    cells = ["0.5", "", "", "", "", "", ""]
    cells[column] = ":"
    with pytest.raises(ConfigParse, match="line 2: .*':'$"):
        read_report([cells])


@pytest.mark.parametrize(
    "cells, why", [([""] * 7, "to float: ''"), ([""] * 5, "5 cells, expected 7")], ids=["7", "5"]
)
def test_report_row_of_empty_cells_is_a_config_error(cells, why):
    # float('') and unpacking five cells into seven raised a bare ValueError
    with pytest.raises(ConfigParse, match=f"line 2: .*{why}$"):
        read_report([cells])


@pytest.mark.parametrize("field", [{"csv_path": []}, {"name": None}], ids=["csv_path", "name"])
def test_config_field_of_another_type_is_a_config_error(field):
    # ExperimentConfig kept both; config_from_dict alone refused them
    src = new_source([[0.5]], [[1.0]], [[1.0]])
    with pytest.raises(ConfigParse, match="must be a"):
        experiments.ExperimentConfig(src, (0.5,), quantizer=None, **field)
