#!/usr/bin/env python3
"""Benchmark the lockstep feedback loop of every quantizer kind, the D4 dither and ``simulate``.

For each kind of ``coding.KINDS`` it runs ``kernels.feedback_loop`` with
``kernels.lattice_step`` on ``example3``'s unstable 4-d source at D = 1
(r = 4 active dimensions) for G loops at once, G in {1, 4, 20}, each loop
with its own input rows (``source_model.source_rows``, seeds 0..G-1) and
the kind's own dither draw.  It prints loop steps per second (G loops times the horizon,
over the wall time) and microseconds per
lockstep step (the wall time over the horizon, whatever G).  A kind whose
block does not divide r runs on block-diagonal copies of the source, so a
new kind is measured without editing this script.  The D4 dither row gives
blocks per second for --n blocks, the next row the time of
``source_model.simulate`` on a p = 1 source for 1e5 steps, and the last the
``tracemalloc`` peak of one ``coding.run_coding_batch`` (the scalar
quantizer on the 4-d source at D = 1, G = 4 points) at n = --n and 10 x --n.
A batch runs its horizon in fixed chunks, so the peak grows only by the
per-step squared errors it keeps, 8 bytes per step and point.  The last row
times what a coded point does with its indices after the loop, over 10 x --n
steps (1e5 by default) of the scalar quantizer at ``example1``'s lowest
default D: counting them chunk by chunk (``entropy_code.RowCounts``), the
histogram, the Huffman code and the rate.

Usage: python benchmarks/bench_kernels.py [--n 10000] [--repeat 3]
"""

import argparse
import math
import time
import tracemalloc

import numpy as np

from zdrd import build_realization, entropy_code, kernels, new_source, nrdf, simulate
from zdrd.coding import CHUNK, KINDS, SeedBundle, run_coding_batch
from zdrd.experiments import default_grid, preset_config
from zdrd.quantizers import D4_UNIT_SCALE
from zdrd.realization import channel_matrices
from zdrd.source_model import source_rows

R4 = 4  # active dimensions of one copy of the source at D = 1
BATCHES = (1, 4, 20)
SIM_STEPS = 100_000
PEAK_POINTS = 4


def timeit(fn, repeat):
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def block_diag(block, copies):
    """``copies`` copies of the square ``block`` down the diagonal of a zero matrix."""
    m = block.shape[0]
    A = np.zeros((m * copies, m * copies))
    for k in range(copies):
        A[k * m : (k + 1) * m, k * m : (k + 1) * m] = block
    return A


def channel(copies):
    """The source of ``copies`` copies of the unstable 4-d source and its (fe, g) at D = copies."""
    A = block_diag(preset_config("example3").source.A, copies)
    src = new_source(A, np.eye(A.shape[0]), np.eye(A.shape[0]))
    return src, channel_matrices(build_realization(src, nrdf(src, float(copies))))


def coded_peak(n):
    """Traced peak bytes of one coded batch of PEAK_POINTS points over n steps."""
    src = preset_config("example3").source
    scheme = build_realization(src, nrdf(src, 1.0))
    points = [(scheme, SeedBundle(i, 100 + i)) for i in range(PEAK_POINTS)]
    tracemalloc.start()
    try:
        run_coding_batch(src, n, "sdusq", points)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def example1_indices(n):
    """The int64 indices (n + 1, r) of one scalar-quantized loop of ``example1``
    at the lowest D of its default grid, seeds 1 and 2."""
    src = preset_config("example1").source
    fe, g = channel_matrices(build_realization(src, nrdf(src, default_grid(src)[0])))
    kind = KINDS["sdusq"]
    dith = kind.dither(np.random.default_rng(2), n + 1, fe.shape[0])[..., None]
    z = np.empty(dith.shape)
    step = kernels.lattice_step(dith, kind.scale, kind.nearest, z)
    u = source_rows(src, 1)(n + 1)[..., None]
    kernels.feedback_loop(src.A, u, np.zeros((src.p, 1)), fe[..., None], g[..., None], step)
    return z[..., 0].astype(np.int64)


def count_and_code(idx):
    """A coded point's work after its loop: counts by chunk, histogram, code, rate."""
    tally = entropy_code.RowCounts(idx.shape[1])
    for a in range(0, len(idx), CHUNK):
        tally.add(idx[a : a + CHUNK])
    counts = tally.histogram()
    return len(counts), int(counts @ entropy_code.huffman_lengths(counts)) / len(idx)


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
            u = np.stack([source_rows(src, i)(args.n + 1) for i in range(G)], axis=-1)
            e_prev = np.zeros((p, G))
            fe = np.repeat(fe1[..., None], G, axis=-1)
            g = np.repeat(g1[..., None], G, axis=-1)
            dith = np.stack([kind.dither(rng, args.n + 1, r) for _ in range(G)], axis=-1)
            step = kernels.lattice_step(dith, kind.scale, kind.nearest, np.empty(dith.shape))
            t = timeit(lambda: kernels.feedback_loop(src.A, u, e_prev, fe, g, step), args.repeat)
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

    short, long = args.n, 10 * args.n
    peaks = [coded_peak(n) / 1e6 for n in (short, long)]
    errors = 8 * PEAK_POINTS * (long - short) / 1e6
    print(
        f"{'coded peak':<14} {peaks[0]:.2f} MB at n = {short}, {peaks[1]:.2f} MB at n = {long}"
        f" (squared errors: +{errors:.2f} MB)"
    )

    idx = example1_indices(long)
    t_code = timeit(lambda: count_and_code(idx), args.repeat)
    symbols, rate = count_and_code(idx)
    print(
        f"{'count + code':<14} {1e3 * t_code:>9.2f} ms at n = {long}"
        f" ({symbols} symbols, {rate:.4f} bits/step)"
    )


if __name__ == "__main__":
    main()
