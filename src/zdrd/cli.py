"""Command-line front end.

    zdrd list-presets
    zdrd preset NAME [--per-dim] [--quantizer default|sdusq|d4|none] [--out FILE]
                     [--n-steps N] [--grid-points K]
    zdrd solve --config FILE [--per-dim] [--out FILE]

Exit status: 0 on success, 1 when any grid point failed, 2 on bad input: a
config, source or option that does not parse or validate, before any point runs.
ZDRD_SEED=<int> overrides the configured seeds (source <int>, dither
<int> + 1).  Only this command reads it; the library runs the config it gets.
"""

import argparse
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
    return replace(config, seeds=coding.SeedBundle(source=base, dither=base + 1))


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
    try:
        report = experiments.run_experiment(config, per_dim=args.per_dim)
    except ZdrdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(experiments.format_report(report))
    if config.csv_path:
        print(f"wrote {config.csv_path}")
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
