#!/usr/bin/env python3
"""zdrd benchmark: timed distortion sweeps, a correctness gate, a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; zdrd is imported from its ``src``.  One
closed-loop caller issues one sweep at a time through the public
``zdrd.experiments.run_experiment`` - default worker count, CSV written, as
``zdrd preset`` does.  A round is one sweep of each of the workload's
fixed configs plus one of its seeded random sources, taken in turn (see
``workloads.py``); rounds repeat until ``--seconds`` is spent.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``sweep_s`` - a round's wall time in ``run_experiment``: the median
  call of each fixed config, plus the mean over the random sources of
  their median calls;
* ``setup_s`` - median over fresh interpreters of the time to import zdrd
  and build the workload's configs;
* ``peak_rss_mb`` - peak resident memory of this process after the sweeps;
* ``failed_ratio`` - (failures + 1/2) / (grid points + 1), failures being
  failed grid points plus failed correctness checks.  This is the
  Krichevsky-Trofimov estimate of the failure rate, which is never 0; the
  raw ratio is printed beside it and is ``failed / attempted`` of the
  result line;
* ``op_gap_bits`` - mean over points with r_active > 0 of
  (rate_op - rate_lower) / r_active.  Coded points whose rate nears
  log2(n_steps) are left out (``gate.well_sampled``): there the plug-in
  rate tracks the sample size, not the coder.  Bounds-only sweeps have no
  operational rate, so there it is taken over the additive upper bound.

``--trace 1`` spends half of ``--seconds`` untraced and half with spans
around the public layer functions (``spans.py``), and reports the
per-layer metrics plus ``trace.overhead_s``, the traced minus the untraced
median round.

The correctness gate (``gate.py``) runs after the timed region; any
violation makes ``correct`` false and the exit status 1.  Every metric is
printed by name with its unit; the last line is the JSON result.  The
environment (kernel backend, numba, numpy/scipy/OpenBLAS, CPUs, Python) is
printed beside it and saved with the result under ``.perfbench_out``.
Exit status 2 means there was nothing to benchmark.
"""

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import spans
import workloads

OUT = workloads.ROOT / ".perfbench_out"
SETUP_PROBES = 7
PROBE = Path(__file__).resolve().parent / "setup_probe.py"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def time_setup(workload, seed):
    """Median wall time of fresh interpreters that import zdrd and build configs."""
    cmd = [sys.executable, str(PROBE), workload, str(seed)]
    env = {**os.environ, **workloads.PINNED_ENV}
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=workloads.ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Sweeps:
    """Issues sweep rounds and keeps every report and CSV for the gate.

    A round sweeps every fixed config once, then the next seeded config in
    turn, so successive rounds cycle through the seed's random sources.
    """

    def __init__(self, zdrd, configs):
        self.zdrd = zdrd
        self.configs = configs
        self.fixed = [entry for entry in configs if not entry[2]]
        self.turns = [entry for entry in configs if entry[2]]
        self.reports = {name: [] for name, _, _ in configs}
        self.csvs = {name: [] for name, _, _ in configs}
        self.done = 0

    def sweep(self, entry, tracer=None):
        name, config, _ = entry
        root = tracer.span(spans.RUN_SPAN, root=True) if tracer else contextlib.nullcontext()
        with root:
            t0 = time.perf_counter()
            report = self.zdrd.experiments.run_experiment(config)
            elapsed = time.perf_counter() - t0
        self.reports[name].append(report)
        with open(config.csv_path, "rb") as fh:
            self.csvs[name].append(fh.read())
        return elapsed

    def rounds(self, seconds, tracer=None):
        """``{config name: [call seconds]}`` of rounds run until ``seconds``.

        Stops once another half round would pass ``seconds``.
        """
        times = {name: [] for name, _, _ in self.configs}
        totals = []
        start = time.perf_counter()
        while True:
            entries = list(self.fixed)
            if self.turns:
                entries.append(self.turns[self.done % len(self.turns)])
            total = 0.0
            for entry in entries:
                elapsed = self.sweep(entry, tracer)
                times[entry[0]].append(elapsed)
                total += elapsed
            totals.append(total)
            self.done += 1
            if time.perf_counter() - start + 0.5 * statistics.median(totals) >= seconds:
                return times

    def repeat_each(self):
        """Sweep, untimed, until every config has run and every fixed config
        and the first seeded one has run twice (the byte-identical CSV check)."""
        twice = {name for name, _, _ in self.fixed + self.turns[:1]}
        for entry in self.configs:
            want = 2 if entry[0] in twice else 1
            while len(self.reports[entry[0]]) < want:
                self.sweep(entry)

    def gate_runs(self):
        return [
            (name, config, seeded, self.reports[name], self.csvs[name])
            for name, config, seeded in self.configs
        ]


def sweep_seconds(times, configs):
    """A round's wall time: the median call of each fixed config, plus the
    mean over the seeded configs of their median calls."""
    fixed = [statistics.median(times[name]) for name, _, seeded in configs if not seeded]
    turns = [
        statistics.median(times[name]) for name, _, seeded in configs if seeded and times[name]
    ]
    return sum(fixed) + (statistics.fmean(turns) if turns else 0.0)


def op_gap_bits(sweeps):
    gaps = []
    for name, config, _ in sweeps.configs:
        for row in sweeps.reports[name][0].rows:
            if not row.r_active or row.status != "ok":
                continue
            if config.quantizer is None:
                gaps.append((row.rate_upper_bits - row.rate_lower_bits) / row.r_active)
            elif gate.well_sampled(row.rate_upper_bits, config.n_steps):
                gaps.append((row.rate_op_bits - row.rate_lower_bits) / row.r_active)
    return statistics.fmean(gaps) if gaps else float("nan")


def environment(zdrd):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "backend": zdrd.kernels.get_backend(),
        "numba": importlib.util.find_spec("numba") is not None,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "pinned_env": {k: os.environ.get(k) for k in workloads.PINNED_ENV},
    }


def main(argv=None):
    args = parse_args(argv)
    try:
        zdrd = workloads.load_zdrd()
    except workloads.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    out_dir = OUT / "results"
    csv_dir = OUT / "csv"
    csv_dir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    configs = workloads.build_configs(args.workload, args.seed, workloads.FULL, csv_dir)
    sweeps = Sweeps(zdrd, configs)
    reference = gate.load_reference()

    notes = {}
    metrics = {}
    span_records = []
    if args.trace:
        untraced = sweeps.rounds(args.seconds / 2)
        first = sweeps.done
        tracer = spans.Tracer()
        with tracer.installed(zdrd):
            traced = sweeps.rounds(args.seconds / 2, tracer)
        n_traced = sweeps.done - first
        span_records = tracer.spans
        metrics.update(spans.layer_metrics(span_records, tracer.missing, n_traced))
        metrics["trace.overhead_s"] = {
            "value": sweep_seconds(traced, configs) - sweep_seconds(untraced, configs),
            "unit": "s",
        }
        for name in sorted(spans.PER_LAYER.keys() - metrics.keys()):
            notes[name] = "absent: its wrap point is missing"
        times = untraced
        notes["trace.overhead_s"] = f"{n_traced} traced vs {first} untraced rounds"
        if tracer.missing:
            notes["missing wrap points"] = ", ".join(sorted(tracer.missing))
    else:
        setup_s = time_setup(args.workload, args.seed)
        times = sweeps.rounds(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["sweep_s"] = {"value": sweep_seconds(times, configs), "unit": "s"}
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    sweeps.repeat_each()

    fails = gate.check(
        zdrd, args.workload, args.seed, sweeps.gate_runs(), reference, workloads.REFERENCE_SEED
    )
    attempted = sum(len(config.d_grid) for _, config, _ in configs)
    if not args.trace:
        metrics["failed_ratio"] = {"value": (len(fails) + 0.5) / (attempted + 1), "unit": "ratio"}
        metrics["op_gap_bits"] = {"value": op_gap_bits(sweeps), "unit": "bits"}
        notes["sweep_s"] = f"{sweeps.done} rounds, {sum(map(len, times.values()))} calls"
        notes["setup_s"] = f"median of {SETUP_PROBES} fresh interpreters"
        notes["failed_ratio"] = f"raw {len(fails)}/{attempted} = {len(fails) / attempted:.6g}"

    env = environment(zdrd)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    for msg in fails:
        print(f"FAIL {msg}")
    for name, m in metrics.items():
        note = notes.get(name)
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    for name, note in notes.items():
        if name not in metrics:
            print(f"  {name:34s} {note}")
    print("env " + json.dumps(env, sort_keys=True))

    result = {
        "correct": not fails,
        "attempted": attempted,
        "failed": len(fails),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "calls_s": times,
        "fails": fails,
        "result": result,
        "spans": span_records,
    }
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh)
    print(json.dumps(result))
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())
