"""Closed-loop source coding over the realization scheme, with measured rates.

The unit-variance AWGN legs of the realization are replaced by subtractive-
dithered quantizers (independent scalar quantizers, or a D4 lattice on
blocks of four coordinates), and the joint index vector of each time step
is entropy coded memorylessly over time by a two-pass empirical Huffman
code.  Reported numbers are bits per vector per step and the end-to-end
mean squared error.

For r active dimensions the measured rate is bracketed by

    R(D_emp)  <=  rate  <=  R(D_emp) + (r/2) log2(pi e / 6) + 1      (scalar)
    R(D_emp)  <=  rate  <=  R(D_emp) + (r/2) log2(2 pi e G4) + 1     (D4 lattice)

up to Monte-Carlo noise and the gap between dither-conditioned and
unconditioned coding (the implemented coder does not condition on the
dither, which can push very-low-rate points slightly past the idealized
upper bound).
"""

import csv
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import entropy_code, kernels
from .errors import POINT_ERRORS, AlphabetOverflow, DimensionMismatch
from .quantizers import D4_UNIT_SCALE, G4, SQRT12, d4_nearest_columns, z_nearest
from .realization import RealizationScheme, channel_matrices
from .source_model import GaussMarkovSource, driving_rows, source_noise

ALPHABET_CAP = 2**20
HALF_LOG2_PIE6 = 0.5 * math.log2(math.pi * math.e / 6.0)  # ~0.2546 bits
HALF_LOG2_2PIE_G4 = 0.5 * math.log2(2.0 * math.pi * math.e * G4)  # ~0.1939 bits
# loop steps per horizon chunk of a coded batch
CHUNK = 2048


class Kind(NamedTuple):
    block: int  # coordinates quantized together; r must be a multiple
    scale: float  # step size or lattice scale giving unit noise per coordinate
    loss_bits: float  # space-filling loss per dimension, 1/2 log2(2 pi e G)
    nearest: Callable  # (x, out=None): nearest lattice point of each column of (r, G), unit scale
    dither: Callable  # (rng, rows, r) -> (rows, r) subtractive dither, uniform on the cell


def _sdusq_dither(rng, rows, r):
    return (rng.random((rows, r)) - 0.5) * SQRT12


def _d4_dither(rng, rows, r):
    # looked up on kernels at call time, where a tracer may have wrapped it
    return kernels.d4_dither(rng, D4_UNIT_SCALE, rows * (r // 4)).reshape(rows, r)


# every quantizer kind, by the name configs and the CLI use; the rest of the
# package reads each kind's facts from here
KINDS = {
    "sdusq": Kind(1, SQRT12, HALF_LOG2_PIE6, z_nearest, _sdusq_dither),
    "d4": Kind(4, D4_UNIT_SCALE, HALF_LOG2_2PIE_G4, d4_nearest_columns, _d4_dither),
}


def _kind(kind):
    if kind not in KINDS:
        raise ValueError(f"unknown quantizer kind {kind!r}")
    return KINDS[kind]


@dataclass(frozen=True)
class SeedBundle:
    source: int
    dither: int
    channel: int = 0  # seeds nothing; kept so that three positional seeds still build a bundle


@dataclass(frozen=True)
class CodingResult:
    empirical_rate_bits_per_vector: float
    empirical_entropy_bits: float
    empirical_mse: float
    n_steps: int
    alphabet_size_observed: int

    def to_dict(self):
        return asdict(self)

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)


def theoretical_upper_bound(rate_na_bits, r, kind):
    """Additive achievability bound on the operational rate, bits per vector.

    It adds r times the kind's per-dimension loss 1/2 log2(2 pi e G), G the
    normalized second moment of its cell (1/12 for the scalar quantizer, G4
    for D4), plus one bit.  With r = 0 nothing is transmitted and the bound
    is the rate itself.
    """
    loss = _kind(kind).loss_bits
    if r < 0:
        raise DimensionMismatch(f"r must be nonnegative, got {r}")
    if r == 0:
        return float(rate_na_bits)
    return float(rate_na_bits + r * loss + 1.0)


def run_coding_experiment(
    scheme: RealizationScheme,
    src: GaussMarkovSource,
    n: int,
    seeds: SeedBundle,
    kind: str,
    trace_path=None,
) -> CodingResult:
    """Simulate the quantized loop for n steps and entropy code the indices.

    Deterministic given ``seeds``: the source path comes from seeds.source,
    the dither stream from seeds.dither; ``kind`` names the quantizer, a key
    of :data:`KINDS`.  Optionally dumps a per-step CSV trace (t,
    indices..., codeword_length_bits, sq_error), whose squared errors are
    those that empirical_mse averages.  This is
    :func:`run_coding_batch` on one point; its error is raised.
    """
    (res,) = run_coding_batch(src, n, kind, [(scheme, seeds)], [trace_path])
    if isinstance(res, Exception):
        raise res
    return res


def _check_point(src, scheme, kind, block):
    if scheme.E.shape[0] != src.p:
        raise DimensionMismatch("scheme dimension does not match source")
    if scheme.r % block != 0:
        raise DimensionMismatch(
            f"the {kind.upper()} quantizer needs r divisible by {block}, got r={scheme.r}"
        )


def _chunks(n):
    """The ranges [a, b) of CHUNK steps (the last maybe fewer) that cover steps 0..n."""
    return ((a, min(a + CHUNK, n + 1)) for a in range(0, n + 1, CHUNK))


def run_coding_batch(src, n, kind, points, trace_paths=None):
    """Run the quantized loops of several schemes of ``src`` in lockstep.

    ``kind`` names the one quantizer of the batch, a key of :data:`KINDS`;
    an unknown kind raises ValueError before any work.  ``points`` is a
    sequence of (scheme, seeds).  Every point draws its own source path and
    dither stream as :func:`run_coding_experiment` describes, its loop runs
    in :func:`kernels.feedback_loop` with the others, and its indices get
    their own histogram and Huffman code, so each result equals that of the
    point run alone.  A point with r = 0 transmits nothing, and its
    reproduction free-runs on the predictor.

    The horizon runs in chunks of steps (:func:`_chunks`).  Each chunk runs
    from the errors the chunk before ended with, zero before step 0, and
    draws the next rows of every stream; a row B w_t does not depend on the
    rows formed with it (``source_model.driving_rows``), so a result does not
    depend on the chunk length.  Between chunks a point keeps only its index
    counts and its per-step squared errors (and, when traced, its indices),
    so memory grows with the horizon by 8 bytes per step and point.

    Returns one entry per point, in order: its CodingResult, or the error
    (one of ``errors.POINT_ERRORS``) that failed it.  ``trace_paths``
    optionally names a per-step CSV trace for each point.
    """
    quantizer = _kind(kind)
    p = src.p
    out = [None] * len(points)
    live = []
    for i, (scheme, _) in enumerate(points):
        try:
            _check_point(src, scheme, kind, quantizer.block)
            live.append(i)
        except POINT_ERRORS as exc:
            out[i] = exc
    if not live:
        return out

    G = len(live)
    rs = [points[i][0].r for i in live]
    rmax = max(rs)
    x0 = np.empty((p, G))
    fe = np.zeros((rmax, p, G))
    g = np.zeros((p, rmax, G))
    noises, dithers = [], []
    for col, i in enumerate(live):
        scheme, seeds = points[i]
        x0[:, col], draw = source_noise(src, seeds.source)
        noises.append(draw)
        dithers.append(np.random.default_rng(seeds.dither))
        if scheme.r:
            fe[: scheme.r, :, col], g[:, : scheme.r, col] = channel_matrices(scheme)
    sq = np.empty((G, n + 1))  # squared error of every step, a row per point
    tallies = [entropy_code.RowCounts(r) for r in rs]
    paths = trace_paths or [None] * len(points)
    traced = {col: [] for col, i in enumerate(live) if rs[col] and paths[i] is not None}
    e_prev = np.zeros((p, G))  # the errors before the chunk's first step
    for a, b in _chunks(n):
        head = int(a == 0)  # step 0 takes x_0; step t > 0 takes B w_{t-1}
        u = np.empty((b - a, p, G))
        u[:head] = x0
        dither = np.zeros((b - a, rmax, G))
        for col, r in enumerate(rs):
            u[head:, :, col] = driving_rows(src, noises[col](b - a - head))
            if r:
                dither[:, :r, col] = quantizer.dither(dithers[col], b - a, r)
        z = np.empty(dither.shape)  # the lattice coordinates of every step
        step = kernels.lattice_step(dither, quantizer.scale, quantizer.nearest, z)
        e = kernels.feedback_loop(src.A, u, e_prev, fe, g, step)
        idx = z.astype(np.int64)
        del u, dither, step, z
        e_prev = e[-1].copy()
        for col, r in enumerate(rs):
            e_col = e[:, :, col]
            sq[col, a:b] = np.sum(e_col * e_col, axis=1)
            if not r:
                continue
            rows = idx[:, :r, col]
            tallies[col].add(rows)
            if col in traced:
                traced[col].append(rows.copy())
        del idx, e  # freed before the next chunk is drawn

    for col, i in enumerate(live):
        r = rs[col]
        mse = float(np.mean(sq[col]))
        if r == 0:
            out[i] = CodingResult(0.0, 0.0, mse, n, 0)
            continue
        counts = tallies[col].histogram()
        if len(counts) > ALPHABET_CAP:
            out[i] = AlphabetOverflow(
                f"observed joint alphabet {len(counts)} exceeds cap {ALPHABET_CAP}"
            )
            continue
        lengths = entropy_code.huffman_lengths(counts)
        rate = int(counts @ lengths) / (n + 1)  # steps 0..n each send one codeword
        ent = entropy_code.empirical_entropy_bits(counts)
        out[i] = CodingResult(rate, ent, mse, n, len(counts))
        if col in traced:
            _write_trace(paths[i], np.concatenate(traced[col]), lengths, sq[col])
    return out


def _write_trace(path, idx, lengths, sq):
    """Write the trace of one point; ``lengths`` is the code of its histogram
    and ``sq`` its per-step squared errors, which its MSE averages."""
    r = idx.shape[1]
    # np.unique orders the rows as count_rows does, so row t is symbol[t]
    _, symbol = np.unique(idx, axis=0, return_inverse=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t"] + [f"index_{i}" for i in range(r)] + ["codeword_length_bits", "sq_error"]
        )
        rows = zip(idx.tolist(), lengths[symbol].tolist(), sq.tolist())
        for t, (row, length, err) in enumerate(rows):
            writer.writerow([t, *row, length, err])
