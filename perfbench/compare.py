#!/usr/bin/env python3
"""Summarize or compare result sets written by ``run.py``.

    python3 perfbench/compare.py DIR            # per-metric median and spread
    python3 perfbench/compare.py BASE_DIR NEW_DIR

A result set is a directory of ``run.py`` result files (by default they go
to ``.perfbench_out/results``).  For each workload and metric it prints
the median, the quartiles and the spread (quartile distance over median);
given two sets it also prints the change of the median against the bound
in ``BENCHMARK.json``.  Two sets whose kernel backend differs are not
compared: exit status 2.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load(directory):
    """{(workload, metric): [values]} and the set of kernel backends seen."""
    values = {}
    backends = set()
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as fh:
            record = json.load(fh)
        backends.add(record["env"]["backend"])
        for name, m in record["result"]["metrics"].items():
            values.setdefault((record["workload"], name), []).append(m["value"])
    return values, backends


def summary(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    spread = (q3 - q1) / abs(med) if med else float("nan")
    return med, q1, q3, spread


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(d) for d in argv]
    backends = set().union(*(b for _, b in sets))
    if len(backends) > 1:
        print(f"refusing to compare: kernel backends differ {sorted(backends)}", file=sys.stderr)
        return 2
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    base = sets[0][0]
    new = sets[-1][0]
    for key in sorted(base):
        workload, name = key
        med, q1, q3, spread = summary(base[key])
        line = (
            f"{workload:12s} {name:34s} n={len(base[key]):<3d} median={med:<12.6g}"
            f" q1={q1:<12.6g} q3={q3:<12.6g} spread={spread:.4f}"
        )
        if name in bounds:
            line += f" bound={bounds[name][0]}"
        if len(sets) == 2 and key in new:
            new_med = summary(new[key])[0]
            change = (new_med - med) / abs(med) if med else float("nan")
            line += f" new_median={new_med:.6g} change={change:+.4f}"
            if name in bounds:
                bound, better = bounds[name]
                worse = change if better == "lower" else -change
                line += " WORSE" if worse > bound else " ok"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
