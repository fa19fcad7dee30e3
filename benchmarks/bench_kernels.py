#!/usr/bin/env python3
"""Benchmark the lockstep feedback loop of every quantizer kind, the D4 dither and ``simulate``.

For each kind of ``coding.KINDS`` it runs ``kernels.feedback_loop`` with
``kernels.lattice_step`` on the unstable 4-d source at D = 1 (r = 4 active
dimensions) for G loops at once, G in {1, 4, 20}, each loop with its own
source path and the kind's own dither draw.  It prints loop steps per
second (G loops times the horizon, over the wall time) and microseconds per
lockstep step (the wall time over the horizon, whatever G).  A kind whose
block does not divide r runs on block-diagonal copies of the source, so a
new kind is measured without editing this script.  The D4 dither row gives
blocks per second for --n blocks, and the last row the time of
``source_model.simulate`` on a p = 1 source for 1e5 steps.

Usage: python benchmarks/bench_kernels.py [--n 10000] [--repeat 3]
"""

import argparse
import math
import time

import numpy as np
from scipy.linalg import block_diag

from zdrd import build_realization, kernels, new_source, nrdf, simulate
from zdrd.coding import KINDS
from zdrd.quantizers import D4_UNIT_SCALE
from zdrd.realization import channel_matrices

A4 = [
    [0.8147, 0.6324, 0.9575, 0.9572],
    [0.9058, 0.0975, 0.9649, 0.4854],
    [0.1270, 0.2785, 0.1576, 0.8003],
    [0.9134, 0.5469, 0.9706, 0.1419],
]
R4 = 4  # active dimensions of one copy of the source at D = 1
BATCHES = (1, 4, 20)
SIM_STEPS = 100_000


def timeit(fn, repeat):
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def channel(copies):
    """The source of ``copies`` copies of A4 and its (fe, g) at D = copies."""
    A = block_diag(*[np.array(A4)] * copies)
    src = new_source(A, np.eye(A.shape[0]), np.eye(A.shape[0]))
    return src, channel_matrices(build_realization(src, nrdf(src, float(copies))))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=10_000)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    print(f"n = {args.n} steps per loop, best of {args.repeat}")
    for name, kind in KINDS.items():
        src, (fe1, g1) = channel(math.lcm(R4, kind.block) // R4)
        r, p = fe1.shape
        rng = np.random.default_rng(0)
        for G in BATCHES:
            bw = rng.standard_normal((args.n, p, G))
            x0 = rng.standard_normal((p, G))
            fe = np.repeat(fe1[..., None], G, axis=-1)
            g = np.repeat(g1[..., None], G, axis=-1)
            dith = np.stack([kind.dither(rng, args.n + 1, r) for _ in range(G)], axis=-1)
            step = kernels.lattice_step(dith, kind.scale, kind.nearest)
            t = timeit(lambda: kernels.feedback_loop(src.A, bw, x0, fe, g, step), args.repeat)
            rate = G * (args.n + 1) / t
            us = 1e6 * t / (args.n + 1)
            label = f"{name} G={G}"
            print(f"{label:<14} {rate:>12.4g} steps/s  {us:>6.2f} us/step  ({t:.3f} s) [p = {p}, r = {r}]")

    rng_dith = np.random.default_rng(1)
    t_dith = timeit(lambda: kernels.d4_dither(rng_dith, D4_UNIT_SCALE, args.n), args.repeat)
    print(f"{'d4_dither':<14} {args.n / t_dith:>12.4g} blocks/s")

    scalar = new_source([[0.5]], [[1.0]], [[1.0]])
    t_sim = timeit(lambda: simulate(scalar, SIM_STEPS, seed=0), args.repeat)
    us = 1e6 * t_sim / SIM_STEPS
    print(f"{'simulate p=1':<14} {SIM_STEPS / t_sim:>12.4g} steps/s  {us:>6.2f} us/step  ({t_sim:.3f} s)")


if __name__ == "__main__":
    main()
