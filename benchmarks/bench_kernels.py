#!/usr/bin/env python3
"""Benchmark the numba-compiled kernels against the pure-NumPy fallback.

Runs the hot loops (state simulation, AWGN feedback loop, dithered scalar
and D4 quantizer loops) on a 4-d source for a 1e5-step horizon under both
backends and prints the timing ratio.  Results of the two backends are also
cross-checked for agreement.  D4 dither generation has a single vectorized
implementation; its row gives blocks per second for --n blocks.

Usage: python benchmarks/bench_kernels.py [--n 100000] [--repeat 3]
"""

import argparse
import time

import numpy as np

from zdrd import build_realization, new_source, nrdf
from zdrd import kernels
from zdrd._backend import HAVE_NUMBA
from zdrd.realization import channel_matrices

A4 = [
    [0.8147, 0.6324, 0.9575, 0.9572],
    [0.9058, 0.0975, 0.9649, 0.4854],
    [0.1270, 0.2785, 0.1576, 0.8003],
    [0.9134, 0.5469, 0.9706, 0.1419],
]


def timeit(fn, repeat):
    best = np.inf
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=100_000)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    src = new_source(A4, np.eye(4), np.eye(4))
    sol = nrdf(src, 1.0)
    scheme = build_realization(src, sol)
    fe, g = channel_matrices(scheme)
    r = scheme.r
    # raw unstable states overflow float64 over long horizons; time the open-loop
    # state kernel on a damped copy and keep the (bounded) feedback loops unstable
    A_stable = 0.3 * src.A

    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(4)
    bw = rng.standard_normal((args.n, 4))
    noise = rng.standard_normal((args.n + 1, r))
    deltas = np.full(r, np.sqrt(12.0))
    dith = (rng.random((args.n + 1, r)) - 0.5) * deltas
    scale = 3.0382
    dith4 = rng.uniform(-scale, scale, (args.n + 1, r)) * 0.3

    jobs = {
        "state_loop": lambda: kernels.state_loop(A_stable, bw, x0),
        "awgn_loop": lambda: kernels.awgn_loop(src.A, bw, x0, fe, g, noise)[3],
        "sdusq_loop": lambda: kernels.sdusq_loop(src.A, bw, x0, fe, g, dith, deltas)[4],
        "d4_loop": lambda: kernels.d4_loop(src.A, bw, x0, fe, g, dith4, scale)[4],
    }

    backends = ["numpy"] + (["numba"] if HAVE_NUMBA else [])
    results = {}
    for backend in backends:
        kernels.set_backend(backend)
        for name, fn in jobs.items():
            fn()  # warm-up (JIT compile on the numba backend)
            results[backend, name] = timeit(fn, args.repeat)

    print(f"n = {args.n} steps, best of {args.repeat}")
    header = f"{'kernel':<12} {'numpy (s)':>12}"
    if HAVE_NUMBA:
        header += f" {'numba (s)':>12} {'speedup':>9} {'max |diff|':>12}"
    print(header)
    for name in jobs:
        t_np, out_np = results["numpy", name]
        line = f"{name:<12} {t_np:>12.4f}"
        if HAVE_NUMBA:
            t_nb, out_nb = results["numba", name]
            diff = float(np.max(np.abs(out_np - out_nb)))
            line += f" {t_nb:>12.4f} {t_np / t_nb:>8.1f}x {diff:>12.3e}"
        print(line)

    rng_dith = np.random.default_rng(1)
    t_dith, _ = timeit(lambda: kernels.d4_dither(rng_dith, scale, args.n), args.repeat)
    print(f"{'d4_dither':<12} {args.n / t_dith:>12.4g} blocks/s")


if __name__ == "__main__":
    main()
