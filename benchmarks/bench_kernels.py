#!/usr/bin/env python3
"""Benchmark the lockstep feedback loop and the D4 dither.

Runs the dithered scalar quantizer loop of ``kernels.feedback_loop`` on the
unstable 4-d source for G loops at once, G in {1, 4, 20}, each loop with
its own source path and dither, and prints loop steps per second (G loops
times the horizon, over the wall time).  The D4 dither row gives blocks per
second for --n blocks.

Usage: python benchmarks/bench_kernels.py [--n 10000] [--repeat 3]
"""

import argparse
import time

import numpy as np

from zdrd import build_realization, kernels, new_source, nrdf
from zdrd.quantizers import SQRT12, sdusq_dither
from zdrd.realization import channel_matrices

A4 = [
    [0.8147, 0.6324, 0.9575, 0.9572],
    [0.9058, 0.0975, 0.9649, 0.4854],
    [0.1270, 0.2785, 0.1576, 0.8003],
    [0.9134, 0.5469, 0.9706, 0.1419],
]
BATCHES = (1, 4, 20)


def timeit(fn, repeat):
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=10_000)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    src = new_source(A4, np.eye(4), np.eye(4))
    fe1, g1 = channel_matrices(build_realization(src, nrdf(src, 1.0)))
    r, p = fe1.shape
    rng = np.random.default_rng(0)

    print(f"n = {args.n} steps per loop, p = {p}, r = {r}, best of {args.repeat}")
    for G in BATCHES:
        bw = rng.standard_normal((args.n, p, G))
        x0 = rng.standard_normal((p, G))
        fe = np.repeat(fe1[..., None], G, axis=-1)
        g = np.repeat(g1[..., None], G, axis=-1)
        deltas = np.full((r, G), SQRT12)
        dith = sdusq_dither(rng, np.full(r * G, SQRT12), args.n + 1).reshape(args.n + 1, r, G)
        step = kernels.sdusq_step(dith, deltas)
        t = timeit(lambda: kernels.feedback_loop(src.A, bw, x0, fe, g, step), args.repeat)
        print(f"{'sdusq G=' + str(G):<14} {G * (args.n + 1) / t:>12.4g} steps/s  ({t:.3f} s)")

    rng_dith = np.random.default_rng(1)
    t_dith = timeit(lambda: kernels.d4_dither(rng_dith, 3.0382, args.n), args.repeat)
    print(f"{'d4_dither':<14} {args.n / t_dith:>12.4g} blocks/s")


if __name__ == "__main__":
    main()
