"""Correctness gate, run outside the timed region.

Checks, for every sweep a workload ran:

* every grid point reports status ``ok``;
* lower-bound rates match ``reference.json`` within ``REF_TOL_BITS`` (the
  README's accuracy claim).  Configs whose inputs do not depend on the seed
  are checked at every seed; seed-generated configs only at the reference
  seed;
* lower-bound rates never increase with D (up to ``MONO_TOL_BITS``, far
  below the solver's 1e-10-nat gap), are 0 at d_max for stable sources, and
  are at least the sum of log2|eig(A)| over unstable eigenvalues;
* coded points: D_empirical is within ``D_REL_TOL`` of D_target, and the
  measured rate lies in the acceptance-6 sandwich evaluated at D_empirical,
  R(D_emp) - MC_SLACK_BITS - bias <= rate_op <= U + cond + MC_SLACK_BITS,
  where U = upper(R(D_emp)) is the additive bound.  ``bias`` allows for the
  two-pass code's rate being read off the n steps it was built on: the
  empirical entropy of n samples from an alphabet of effective size
  M = 2^U under-reads by up to about log2(1 + M/n) bits (Paninski 2003).
  The lower side is checked only at well-sampled points, M/n <=
  ``SAMPLE_RATIO_MAX``, so ``bias`` stays below log2(1.1) = 0.14 bits;
  where the rate nears log2(n) the plug-in rate says nothing about the
  coder and only the upper side is checked.  ``cond`` is the gap the
  coder leaves by not conditioning on the dither (see ``zdrd.coding``):
  I(index; dither) <= I(alpha + dither; dither) <= sum over active
  coordinates of -1/2 log2(h_i), the Gaussian bound for a channel input of
  SNR 1/h_i - 1.  It vanishes at high rate and is what lets low-rate
  points such as example3 at D=3 pass U;
* all CSVs written by repeated sweeps with one seed are byte-identical.

Each violation is one failure with a message.
"""

import json
import math
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference.json"
REF_TOL_BITS = 1e-6
MONO_TOL_BITS = 1e-8
D_REL_TOL = 0.05
MC_SLACK_BITS = 0.1
SAMPLE_RATIO_MAX = 0.1


def well_sampled(upper_bits, n_steps):
    """Whether n_steps samples pin down a rate of ``upper_bits`` bits."""
    return 2.0**upper_bits / n_steps <= SAMPLE_RATIO_MAX


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def _check_reference(ref_rows, report):
    ref = {repr(float(d)): rate for d, rate in ref_rows}
    fails = []
    for row in report.rows:
        want = ref.get(repr(row.d_target))
        if want is None:
            fails.append(f"D={row.d_target!r} has no reference row")
        elif row.rate_lower_bits is None or abs(row.rate_lower_bits - want) > REF_TOL_BITS:
            fails.append(f"D={row.d_target!r}: rate {row.rate_lower_bits!r} != reference {want!r}")
    return fails


def _check_bounds(zdrd, config, report):
    src = config.source
    rates = [row.rate_lower_bits for row in report.rows if row.rate_lower_bits is not None]
    fails = [
        f"rate rises from {a!r} to {b!r} with D"
        for a, b in zip(rates, rates[1:])
        if b > a + MONO_TOL_BITS
    ]
    dm = zdrd.d_max(src)
    if math.isfinite(dm):
        fails += [
            f"D={row.d_target!r} >= d_max but rate {row.rate_lower_bits!r} != 0"
            for row in report.rows
            if row.d_target >= dm and row.rate_lower_bits != 0.0
        ]
    else:
        eig = np.abs(np.linalg.eigvals(src.A))
        floor = float(np.sum(np.log2(eig[eig > 1.0])))
        fails += [
            f"D={row.d_target!r}: rate {row.rate_lower_bits!r} below floor {floor!r}"
            for row in report.rows
            if row.rate_lower_bits is not None and row.rate_lower_bits < floor - MONO_TOL_BITS
        ]
    return fails


def _check_coded(zdrd, config, report):
    fails = []
    for row in report.rows:
        if row.rate_op_bits is None or row.d_empirical is None:
            fails.append(f"D={row.d_target!r}: coded point without an operational rate")
            continue
        rel = abs(row.d_empirical - row.d_target) / row.d_target
        if rel > D_REL_TOL:
            fails.append(f"D={row.d_target!r}: D_empirical {row.d_empirical!r} off by {rel:.3f}")
        sol = zdrd.nrdf(config.source, row.d_empirical)
        scheme = zdrd.build_realization(config.source, sol)
        lower = float(sol.rate_bits)
        upper = zdrd.theoretical_upper_bound(lower, scheme.r, config.quantizer)
        cond = float(-0.5 * np.sum(np.log2(scheme.h_tilde[scheme.active])))
        hi = upper + cond + MC_SLACK_BITS
        if well_sampled(upper, config.n_steps):
            lo = lower - MC_SLACK_BITS - math.log2(1.0 + 2.0**upper / config.n_steps)
        else:
            lo = -math.inf
        if not lo <= row.rate_op_bits <= hi:
            fails.append(
                f"D={row.d_target!r}: rate_op {row.rate_op_bits!r} outside [{lo!r}, {hi!r}]"
            )
    return fails


def check(zdrd, workload, seed, runs, reference, reference_seed):
    """Failures of one workload's sweeps.

    ``runs`` is ``[(name, config, seeded, reports, csv_bytes)]``: the
    reports and CSV contents of every repeated sweep of one config.
    """
    fails = []
    for name, config, seeded, reports, csvs in runs:
        report = reports[0]
        where = f"{workload}/{name}"
        local = [f"D={row.d_target!r}: {row.status}" for row in report.rows if row.status != "ok"]
        if not seeded or seed == reference_seed:
            ref_rows = reference.get(workload, {}).get(name)
            if ref_rows is None:
                local.append("no reference rows")
            else:
                local += _check_reference(ref_rows, report)
        local += _check_bounds(zdrd, config, report)
        if config.quantizer is not None:
            local += _check_coded(zdrd, config, report)
        if len(set(csvs)) != 1:
            local.append(f"{len(set(csvs))} different CSVs from {len(csvs)} repeated sweeps")
        fails += [f"{where}: {msg}" for msg in local]
    return fails
