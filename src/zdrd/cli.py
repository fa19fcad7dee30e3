"""Command-line front end.

    zdrd list-presets
    zdrd preset NAME [--per-dim] [--quantizer default|sdusq|d4|none] [--out FILE]
                     [--n-steps N] [--grid-points K]
    zdrd solve --config FILE [--per-dim] [--out FILE]

Exit status: 0 on success, 1 when any grid point failed, 2 on bad input: a
config, source or option that does not parse or validate, or an output path
that is a directory or whose directory is missing or not writable, before any
point runs; and 2 when the CSV cannot be written after all.
ZDRD_SEED=<int> overrides the configured seeds (source <int>, dither
<int> + 1).  Only this command reads it; the library runs the config it gets.
"""

import argparse
import errno
import os
import sys
from dataclasses import replace

from . import coding, experiments
from .errors import ConfigParse, ZdrdError


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zdrd",
        description="Rate-distortion bounds and dithered predictive coding "
        "for vector Gauss-Markov sources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-presets", help="list available experiment presets")

    pp = sub.add_parser("preset", help="run a named preset sweep")
    pp.add_argument("name", help="preset name (see list-presets)")
    pp.add_argument("--per-dim", action="store_true", help="normalize rates per dimension")
    pp.add_argument("--quantizer", choices=["default", *coding.KINDS, "none"], default="default")
    pp.add_argument("--out", help="CSV output path")
    pp.add_argument("--n-steps", type=int, default=None, help="coding run length")
    pp.add_argument("--grid-points", type=int, default=experiments.GRID_POINTS)

    sp = sub.add_parser("solve", help="run a sweep described by a JSON config")
    sp.add_argument("--config", required=True, help="JSON experiment config")
    sp.add_argument("--per-dim", action="store_true")
    sp.add_argument("--out", help="CSV output path (overrides the config)")
    return parser


def _env_seed_override(config):
    raw = os.environ.get("ZDRD_SEED")
    if raw is None or raw.strip() == "":
        return config
    try:
        base = int(raw)
    except ValueError as exc:
        raise ConfigParse(f"ZDRD_SEED must be an integer, got {raw!r}") from exc
    if base < 0:
        raise ConfigParse(f"ZDRD_SEED must be >= 0, got {raw!r}")
    return replace(config, seeds=coding.SeedBundle(source=base, dither=base + 1))


def _unwritable(path):
    """Why no CSV can be written at ``path``, as far as is known before the sweep."""
    folder = os.path.dirname(os.path.abspath(path))
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        return f"no writable directory {folder}"
    if os.path.isdir(path):  # as open() would raise
        return str(IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path))


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "list-presets":
        for name in experiments.list_presets():
            print(name)
        return 0
    try:
        if args.command == "preset":
            config = experiments.preset_config(
                args.name,
                quantizer=args.quantizer,
                n_steps=args.n_steps,
                csv_path=args.out,
                points=args.grid_points,
            )
        else:
            config = experiments.config_from_json(args.config)
            if args.out:
                config = replace(config, csv_path=args.out)
        config = _env_seed_override(config)
    except ZdrdError as exc:  # the input, source matrices included, is at fault
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problem = config.csv_path and _unwritable(config.csv_path)
    if problem:  # fail before the sweep, not after it
        print(f"error: cannot write {config.csv_path}: {problem}", file=sys.stderr)
        return 2
    try:
        report = experiments.run_experiment(config, per_dim=args.per_dim)
    except ZdrdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # only writing the CSV does I/O
        print(f"error: cannot write {config.csv_path}: {exc}", file=sys.stderr)
        return 2
    print(experiments.format_report(report))
    if config.csv_path:
        print(f"wrote {config.csv_path}")
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
