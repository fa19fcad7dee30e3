"""Experiment runner: distortion sweeps producing bound curves and CSV reports.

Four presets reproduce the benchmark sources studied with this pipeline:
two stable (a 4-d state-space source and an augmented scalar AR(2)) and two
unstable counterparts.  Each grid point solves the rate program, builds the
realization, and optionally measures an operational rate with the
configured quantizer.  The coded points run their feedback loops in
lockstep, each on its own random streams, and rows are reported in grid
order, so a fixed seed bundle yields byte-identical CSVs.
"""

import csv
import json
import math
import time
from dataclasses import astuple, dataclass, replace

import numpy as np

from .coding import KINDS, SeedBundle, run_coding_batch, theoretical_upper_bound
from .coding import run_coding_experiment  # noqa: F401  (looked up here by perfbench/spans.py)
from .errors import POINT_ERRORS, ConfigParse, config_mapping, failure_status
from .realization import build_realization
from .solver import nrdf  # noqa: F401  (looked up here by perfbench/spans.py)
from .solver import nrdf_grid
from .source_model import GaussMarkovSource, augment_ar, d_max, new_source, source_from_dict

# the report CSV's columns in ExperimentRow field order: (header, parse of a
# cell, required); an empty cell of a column not required reads as None
_COLUMNS = (
    ("D_target", float, True),
    ("rate_lower_bits", float, False),
    ("rate_upper_bits", float, False),
    ("rate_op_bits", float, False),
    ("D_empirical", float, False),
    ("r_active", int, False),
    ("status", str, True),
)
CSV_HEADER = [header for header, _, _ in _COLUMNS]

DEFAULT_SEEDS = SeedBundle(source=20240, dither=20241)
DEFAULT_N_STEPS = 100_000
GRID_POINTS = 20
UNSTABLE_GRID_LO = 0.06  # analogue of 0.02*d_max for the (0, 3] sweeps
UNSTABLE_GRID_HI = 3.0

_STABLE_4D_A = [
    [0.0551, 0.0893, 0.0051, 0.0649],
    [0.0708, 0.0896, 0.0441, 0.0278],
    [0.0291, 0.0126, 0.0030, 0.0676],
    [0.0511, 0.0207, 0.0457, 0.0591],
]
_UNSTABLE_4D_A = [
    [0.8147, 0.6324, 0.9575, 0.9572],
    [0.9058, 0.0975, 0.9649, 0.4854],
    [0.1270, 0.2785, 0.1576, 0.8003],
    [0.9134, 0.5469, 0.9706, 0.1419],
]


# name -> (source builder, default quantizer)
_PRESETS = {
    "example1": (lambda: new_source(_STABLE_4D_A, np.eye(4), np.eye(4)), "sdusq"),
    "example2": (lambda: augment_ar([[[0.3]], [[0.5]]], [[1.0]]), "sdusq"),
    "example3": (lambda: new_source(_UNSTABLE_4D_A, np.eye(4), np.eye(4)), "d4"),
    "example4": (lambda: augment_ar([[[1.2]], [[0.5]]], [[1.0]]), "sdusq"),
}


def list_presets():
    return sorted(_PRESETS)


@dataclass(frozen=True)
class ExperimentConfig:
    source: GaussMarkovSource
    d_grid: tuple
    n_steps: int = DEFAULT_N_STEPS
    seeds: SeedBundle = DEFAULT_SEEDS
    quantizer: str | None = "sdusq"  # a key of coding.KINDS; None: bounds only
    csv_path: str | None = None
    name: str = "custom"

    def __post_init__(self):
        if self.csv_path is not None and not isinstance(self.csv_path, str):
            raise ConfigParse(f"outputs.csv must be a path string, got {self.csv_path!r}")
        if not isinstance(self.name, str):
            raise ConfigParse(f"name must be a string, got {self.name!r}")
        try:
            if isinstance(self.d_grid, str) or any(isinstance(d, bool) for d in self.d_grid):
                raise TypeError(f"got {self.d_grid!r}")
            grid = tuple(float(d) for d in self.d_grid)
        except (TypeError, ValueError) as exc:
            raise ConfigParse(f"distortion grid must be a list of numbers: {exc}") from exc
        if not grid:
            raise ConfigParse("distortion grid must be nonempty")
        if any(not (math.isfinite(d) and d > 0) for d in grid):
            raise ConfigParse("distortion grid entries must be positive")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigParse("distortion grid must be strictly increasing")
        n_steps = _integer(self.n_steps, "n_steps")
        if n_steps < 1:
            raise ConfigParse("n_steps must be >= 1")
        if self.quantizer not in (None, *KINDS):
            raise ConfigParse(f"unknown quantizer {self.quantizer!r}")
        if self.quantizer is not None:
            try:  # a coded point records its squared error of every step
                np.empty((len(grid), n_steps + 1))
            except (MemoryError, ValueError) as exc:
                raise ConfigParse(f"n_steps {n_steps} is too long to record: {exc}") from exc
        seeds = {k: _integer(getattr(self.seeds, k), f"seeds.{k}") for k in ("source", "dither")}
        if min(seeds.values()) < 0:
            raise ConfigParse(f"seeds must be >= 0, got {seeds}")
        object.__setattr__(self, "d_grid", grid)
        object.__setattr__(self, "n_steps", n_steps)
        object.__setattr__(self, "seeds", replace(self.seeds, **seeds))


def _integer(value, what):
    """value as an int; ConfigParse unless it is integral (1e5 is, 2.5, "7" and true are not)."""
    try:
        if not isinstance(value, bool) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigParse(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ExperimentRow:
    d_target: float
    rate_lower_bits: float | None
    rate_upper_bits: float | None
    rate_op_bits: float | None
    d_empirical: float | None
    r_active: int | None
    status: str


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    rows: tuple
    per_dim: bool
    wall_seconds: float

    @property
    def failed(self):
        return any(row.status != "ok" for row in self.rows)


def default_grid(src: GaussMarkovSource, points: int = GRID_POINTS):
    """Log-spaced sweep: (0.02 d_max, d_max] when stable, else (0.06, 3]."""
    dm = d_max(src)
    if math.isfinite(dm):
        return tuple(np.geomspace(0.02 * dm, dm, points))
    return tuple(np.geomspace(UNSTABLE_GRID_LO, UNSTABLE_GRID_HI, points))


def preset_config(name, quantizer="default", n_steps=None, csv_path=None, points=GRID_POINTS):
    if name not in _PRESETS:
        raise ConfigParse(f"unknown preset {name!r}; choose from {list_presets()}")
    build, default_quantizer = _PRESETS[name]
    if _integer(points, "grid points") < 1:
        raise ConfigParse(f"grid points must be >= 1, got {points!r}")
    src = build()
    if quantizer == "default":
        quantizer = default_quantizer
    elif quantizer == "none":
        quantizer = None
    return ExperimentConfig(
        source=src,
        d_grid=default_grid(src, points),
        n_steps=DEFAULT_N_STEPS if n_steps is None else n_steps,
        quantizer=quantizer,
        csv_path=csv_path,
        name=name,
    )


def config_from_dict(doc) -> ExperimentConfig:
    """An experiment config from a JSON-style mapping; unknown keys raise ConfigParse."""
    keys = ("source", "d_grid", "n_steps", "seeds", "quantizer", "outputs", "name")
    config_mapping(doc, "config", keys)
    try:
        src = source_from_dict(doc["source"])
        grid = doc["d_grid"]
    except KeyError as exc:
        raise ConfigParse(f"config missing key {exc}") from exc
    seeds_doc = config_mapping(doc.get("seeds", {}), "seeds", ("source", "dither"))
    seeds = replace(DEFAULT_SEEDS, **seeds_doc)  # ExperimentConfig checks them
    quantizer = doc.get("quantizer")
    if isinstance(quantizer, dict):
        quantizer = config_mapping(quantizer, "quantizer", ("kind",)).get("kind")
    return ExperimentConfig(
        source=src,
        d_grid=grid,
        n_steps=doc.get("n_steps", DEFAULT_N_STEPS),
        seeds=seeds,
        quantizer=None if quantizer == "none" else quantizer,
        csv_path=config_mapping(doc.get("outputs", {}), "outputs", ("csv",)).get("csv"),
        name=doc.get("name", "custom"),
    )


def config_from_json(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigParse(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(doc)


@np.errstate(all="ignore")  # a bound that overflows fails its row in _finite_row
def _realize_point(src, d, sol, quantizer, seeds, row_index):
    """Bounds of one grid point from its solution (or its solve's error), and
    its coding job (scheme, seeds) or None."""
    if isinstance(sol, BaseException):
        return _failed_row(d, sol), None
    try:
        scheme = build_realization(src, sol)
        r = scheme.r
        upper = theoretical_upper_bound(sol.rate_bits, r, quantizer or "sdusq")
        row = ExperimentRow(float(d), float(sol.rate_bits), float(upper), None, None, r, "ok")
        row = _finite_row(row)
        if quantizer is None or row.status != "ok":
            return row, None
        row_seeds = SeedBundle(
            source=seeds.source + 1000 * row_index,
            dither=seeds.dither + 1000 * row_index,
        )
        return row, (scheme, row_seeds)
    except POINT_ERRORS as exc:  # sweeps survive isolated failures
        return _failed_row(d, exc), None


def _failed_row(d, exc):
    return ExperimentRow(float(d), None, None, None, None, None, failure_status(exc))


def _finite_row(row):
    """``row``, or the row failed by a FloatingPointError that names its first
    number that is not finite: a row reads ok only when its numbers are finite."""
    for name, value in zip(CSV_HEADER[1:5], astuple(row)[1:5]):
        if value is not None and not math.isfinite(value):
            return _failed_row(row.d_target, FloatingPointError(f"{name} is {value}"))
    return row


def run_experiment(config: ExperimentConfig, per_dim=False) -> ExperimentReport:
    """Evaluate every grid point; writes the CSV when the config names one.

    The grid is solved with one :func:`solver.nrdf_grid` call, its barrier
    points in lockstep, each bit for bit as it would be alone; a point that
    fails fails only its row.  Each point is then realized, and the coded
    ones run their loops together in one :func:`coding.run_coding_batch`
    with the config's quantizer.  The rows depend on the config alone, and
    come in grid order.
    """
    t0 = time.perf_counter()
    src = config.source
    with np.errstate(all="ignore"):  # as in _realize_point
        sols = nrdf_grid(src, config.d_grid)
    rows = []
    jobs = {}
    for i, (d, sol) in enumerate(zip(config.d_grid, sols)):
        row, job = _realize_point(src, d, sol, config.quantizer, config.seeds, i)
        rows.append(row)
        if job is not None:
            jobs[i] = job
    if jobs:
        results = run_coding_batch(src, config.n_steps, config.quantizer, list(jobs.values()))
        for i, res in zip(jobs, results):
            if isinstance(res, Exception):
                rows[i] = _failed_row(rows[i].d_target, res)
            else:
                op, mse = float(res.empirical_rate_bits_per_vector), float(res.empirical_mse)
                rows[i] = _finite_row(replace(rows[i], rate_op_bits=op, d_empirical=mse))
    if per_dim:
        rows = [_normalize_row(row, src.p) for row in rows]
    report = ExperimentReport(
        name=config.name,
        rows=tuple(rows),
        per_dim=per_dim,
        wall_seconds=time.perf_counter() - t0,
    )
    if config.csv_path:
        write_csv(report, config.csv_path)
    return report


def _normalize_row(row: ExperimentRow, p: int) -> ExperimentRow:
    scale = lambda v: None if v is None else v / p  # noqa: E731
    return replace(
        row,
        rate_lower_bits=scale(row.rate_lower_bits),
        rate_upper_bits=scale(row.rate_upper_bits),
        rate_op_bits=scale(row.rate_op_bits),
    )


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # shortest exact-roundtrip decimal
    return str(value)


def write_csv(report: ExperimentReport, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in report.rows:  # the row's fields are the CSV's columns, in order
            writer.writerow([_cell(value) for value in astuple(row)])


def read_csv(path):
    """Parse a report CSV back into rows (exact float round trip); a file
    that is not a report raises ConfigParse naming the file and the line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            if header == CSV_HEADER:
                return [_report_row(cells) for cells in reader]
        except (StopIteration, ValueError, csv.Error) as exc:
            where = f"{path}, line {reader.line_num or 1}"  # line 1 of an empty file too
            raise ConfigParse(f"malformed report {where}: {str(exc) or 'no header'}") from exc
    raise ConfigParse(f"unexpected CSV header {header}")


def _report_row(cells):
    if len(cells) != len(_COLUMNS):
        raise ValueError(f"{len(cells)} cells, expected {len(_COLUMNS)}")
    cols = zip(_COLUMNS, cells)
    return ExperimentRow(*(parse(c) if c or required else None for (_, parse, required), c in cols))


def format_report(report: ExperimentReport):
    unit = "bits/dim" if report.per_dim else "bits/vector"
    lines = [
        f"# {report.name}: {len(report.rows)} grid points, {report.wall_seconds:.2f}s ({unit})",
        f"{'D_target':>10} {'lower':>10} {'upper':>10} {'operational':>12} {'D_emp':>10} {'r':>3} status",
    ]
    for row in report.rows:
        fmt = lambda v, w: (" " * (w - 1) + "-") if v is None else f"{v:>{w}.4f}"  # noqa: E731
        lines.append(
            f"{row.d_target:>10.4f} {fmt(row.rate_lower_bits, 10)} {fmt(row.rate_upper_bits, 10)}"
            f" {fmt(row.rate_op_bits, 12)} {fmt(row.d_empirical, 10)}"
            f" {row.r_active if row.r_active is not None else '-':>3} {row.status}"
        )
    return "\n".join(lines)
