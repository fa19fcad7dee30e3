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
import os
import time
from dataclasses import astuple, dataclass, replace

import numpy as np

from .coding import KINDS, SeedBundle, run_coding_batch, theoretical_upper_bound
from .coding import run_coding_experiment  # noqa: F401  (looked up here by perfbench/spans.py)
from .errors import POINT_ERRORS, ConfigParse, config_mapping, failure_status
from .realization import build_realization
from .solver import nrdf
from .source_model import GaussMarkovSource, augment_ar, d_max, new_source, source_from_dict

CSV_HEADER = [
    "D_target",
    "rate_lower_bits",
    "rate_upper_bits",
    "rate_op_bits",
    "D_empirical",
    "r_active",
    "status",
]

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


def _preset_sources():
    eye4 = np.eye(4)
    return {
        "example1": new_source(_STABLE_4D_A, eye4, eye4),
        "example2": augment_ar([[[0.3]], [[0.5]]], [[1.0]]),
        "example3": new_source(_UNSTABLE_4D_A, eye4, eye4),
        "example4": augment_ar([[[1.2]], [[0.5]]], [[1.0]]),
    }


_PRESET_QUANTIZER = {
    "example1": "sdusq",
    "example2": "sdusq",
    "example3": "d4",
    "example4": "sdusq",
}


def list_presets():
    return sorted(_preset_sources())


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
        try:
            if isinstance(self.d_grid, str):
                raise TypeError("a string is not a list")
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
        object.__setattr__(self, "d_grid", grid)
        object.__setattr__(self, "n_steps", n_steps)


def _integer(value, what):
    """value as an int; ConfigParse unless it is integral (1e5 is, 2.5 and "7" are not)."""
    try:
        if int(value) == value:
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
    sources = _preset_sources()
    if name not in sources:
        raise ConfigParse(f"unknown preset {name!r}; choose from {list_presets()}")
    src = sources[name]
    if quantizer == "default":
        quantizer = _PRESET_QUANTIZER[name]
    elif quantizer == "none":
        quantizer = None
    return ExperimentConfig(
        source=src,
        d_grid=default_grid(src, points),
        n_steps=DEFAULT_N_STEPS if n_steps is None else int(n_steps),
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
    seeds = SeedBundle(
        source=_integer(seeds_doc.get("source", DEFAULT_SEEDS.source), "seeds.source"),
        dither=_integer(seeds_doc.get("dither", DEFAULT_SEEDS.dither), "seeds.dither"),
    )
    quantizer = doc.get("quantizer")
    if isinstance(quantizer, dict):
        quantizer = config_mapping(quantizer, "quantizer", ("kind",)).get("kind")
    csv_path = config_mapping(doc.get("outputs", {}), "outputs", ("csv",)).get("csv")
    if csv_path is not None and not isinstance(csv_path, str):
        raise ConfigParse(f"outputs.csv must be a path string, got {csv_path!r}")
    return ExperimentConfig(
        source=src,
        d_grid=grid,
        n_steps=doc.get("n_steps", DEFAULT_N_STEPS),
        seeds=seeds,
        quantizer=None if quantizer == "none" else quantizer,
        csv_path=csv_path,
        name=str(doc.get("name", "custom")),
    )


def config_from_json(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigParse(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(doc)


def _env_seed_override(seeds: SeedBundle) -> SeedBundle:
    raw = os.environ.get("ZDRD_SEED")
    if raw is None or raw.strip() == "":
        return seeds
    try:
        base = int(raw)
    except ValueError as exc:
        raise ConfigParse(f"ZDRD_SEED must be an integer, got {raw!r}") from exc
    return SeedBundle(source=base, dither=base + 1)


def _solve_point(src, d, quantizer, seeds, row_index):
    """Bounds of one grid point, and its coding job (scheme, seeds, kind) or None."""
    try:
        sol = nrdf(src, d)
        scheme = build_realization(src, sol)
        r = scheme.r
        upper = theoretical_upper_bound(sol.rate_bits, r, quantizer or "sdusq")
        job = None
        if quantizer is not None:
            row_seeds = SeedBundle(
                source=seeds.source + 1000 * row_index,
                dither=seeds.dither + 1000 * row_index,
            )
            job = (scheme, row_seeds, quantizer)
        row = ExperimentRow(float(d), float(sol.rate_bits), float(upper), None, None, r, "ok")
        return row, job
    except POINT_ERRORS as exc:  # sweeps survive isolated failures
        return _failed_row(d, exc), None


def _failed_row(d, exc):
    return ExperimentRow(float(d), None, None, None, None, None, failure_status(exc))


def run_experiment(config: ExperimentConfig, per_dim=False) -> ExperimentReport:
    """Evaluate every grid point; writes the CSV when the config names one.

    The points are solved one after another; the coded ones then run their
    loops together in one :func:`coding.run_coding_batch`.  Deterministic
    for a fixed config and ZDRD_SEED environment, rows in grid order.
    """
    t0 = time.perf_counter()
    seeds = _env_seed_override(config.seeds)
    src = config.source
    rows = []
    jobs = {}
    for i, d in enumerate(config.d_grid):
        row, job = _solve_point(src, d, config.quantizer, seeds, i)
        rows.append(row)
        if job is not None:
            jobs[i] = job
    if jobs:
        results = run_coding_batch(src, config.n_steps, list(jobs.values()))
        for i, res in zip(jobs, results):
            if isinstance(res, Exception):
                rows[i] = _failed_row(rows[i].d_target, res)
            else:
                rows[i] = replace(
                    rows[i],
                    rate_op_bits=float(res.empirical_rate_bits_per_vector),
                    d_empirical=float(res.empirical_mse),
                )
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
    """Parse a report CSV back into rows (exact float round trip)."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER:
            raise ConfigParse(f"unexpected CSV header {header}")
        for rec in reader:
            d, lo, up, op, demp, r, status = rec
            rows.append(
                ExperimentRow(
                    d_target=float(d),
                    rate_lower_bits=float(lo) if lo else None,
                    rate_upper_bits=float(up) if up else None,
                    rate_op_bits=float(op) if op else None,
                    d_empirical=float(demp) if demp else None,
                    r_active=int(r) if r else None,
                    status=status,
                )
            )
    return rows


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
