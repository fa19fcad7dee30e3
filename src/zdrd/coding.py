"""Closed-loop source coding over the realization scheme, with measured rates.

The unit-variance AWGN legs of the realization are replaced by subtractive-
dithered quantizers (independent scalar quantizers, or a D4 lattice on
blocks of four coordinates), and the joint index vector of each time step
is entropy coded memorylessly over time by a two-pass empirical Huffman
code.  Reported numbers are bits per vector per step and the end-to-end
mean squared error.  The Gaussian test channel (:func:`run_awgn_batch`) runs
through the same driver, :func:`_run_loops`.

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
from .source_model import GaussMarkovSource, source_rows

ALPHABET_CAP = 2**20
HALF_LOG2_PIE6 = 0.5 * math.log2(math.pi * math.e / 6.0)  # ~0.2546 bits
HALF_LOG2_2PIE_G4 = 0.5 * math.log2(2.0 * math.pi * math.e * G4)  # ~0.1939 bits
# loop steps per horizon chunk of a closed-loop batch
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
    source: int  # x_0 and the driving noise
    dither: int  # the dither, or the Gaussian channel's noise
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


def _point_error(src, scheme, kind, block):
    """The error that fails a point before it runs, or None."""
    if scheme.E.shape[0] != src.p:
        return DimensionMismatch("scheme dimension does not match source")
    if scheme.r % block != 0:
        return DimensionMismatch(
            f"the {kind.upper()} quantizer needs r divisible by {block}, got r={scheme.r}"
        )


def _chunks(n):
    """The ranges [a, b) of CHUNK steps (the last maybe fewer) that cover steps 0..n."""
    return ((a, min(a + CHUNK, n + 1)) for a in range(0, n + 1, CHUNK))


@np.errstate(all="ignore")  # a loop that overflows fails by its sink or by its MSE
def _run_loops(src, n, points, kind, block, draw, step, sink=None):
    """Run the closed loops of several schemes of ``src`` in lockstep, steps 0..n.

    The one driver of every closed loop.  ``points`` is a sequence of
    (scheme, seeds).  A point's input rows, x_0 and then B w_t, come from
    ``source_model.source_rows(src, seeds.source)``, and its channel rows by
    ``draw(rng, rows, r)`` from a generator seeded with seeds.dither.  The
    horizon runs in chunks (:func:`_chunks`), each from the errors of the
    chunk before; both streams drawn in pieces equal one draw, and a loop
    does not depend on the loops beside it (``kernels``), so each result
    equals its point run alone in one chunk.
    ``step(noise, z)`` is a chunk's step on its (rows, rmax, G) channel rows;
    a lattice step writes its coordinates into ``z``, whose (rows, r) part
    of point i goes to ``sink(i, z_i)`` until an error it raises fails i.

    Returns per point its squared errors ||e_t||^2 of steps 0..n, 8 bytes a
    step, or the error (one of ``errors.POINT_ERRORS``) that failed it.
    """
    out = [_point_error(src, scheme, kind, block) for scheme, _ in points]
    live = [i for i, res in enumerate(out) if res is None]
    if not live:
        return out

    p, G = src.p, len(live)
    rs = [points[i][0].r for i in live]
    rmax = max(rs)
    fe = np.zeros((rmax, p, G))
    g = np.zeros((p, rmax, G))
    sources, channels = [], []
    for col, i in enumerate(live):
        scheme, seeds = points[i]
        sources.append(source_rows(src, seeds.source))
        channels.append(np.random.default_rng(seeds.dither))
        if scheme.r:
            fe[: scheme.r, :, col], g[:, : scheme.r, col] = channel_matrices(scheme)
    sq = np.empty((G, n + 1))  # squared error of every step, a row per point
    e_prev = np.zeros((p, G))  # the errors before the chunk's first step
    for a, b in _chunks(n):
        u = np.empty((b - a, p, G))
        noise = np.zeros((b - a, rmax, G))
        for col, r in enumerate(rs):
            u[:, :, col] = sources[col](b - a)
            if r:
                noise[:, :r, col] = draw(channels[col], b - a, r)
        z = np.empty(noise.shape)
        e = kernels.feedback_loop(src.A, u, e_prev, fe, g, step(noise, z))
        del u, noise
        e_prev = e[-1].copy()
        for col, (i, r) in enumerate(zip(live, rs)):
            e_col = e[:, :, col]
            sq[col, a:b] = np.sum(e_col * e_col, axis=1)
            if r and sink is not None and out[i] is None:
                try:
                    sink(i, z[:, :r, col])
                except POINT_ERRORS as exc:
                    out[i] = exc
        del z, e  # freed before the next chunk is drawn
    for col, i in enumerate(live):
        out[i] = sq[col] if out[i] is None else out[i]
    return out


def run_coding_batch(src, n, kind, points, trace_paths=None):
    """Run the quantized loops of several schemes of ``src`` in lockstep.

    ``kind`` names the batch's quantizer, a key of :data:`KINDS`; an unknown
    kind raises ValueError before any work.  The points (scheme, seeds) run
    in :func:`_run_loops`, and each point's indices get their own counts and
    Huffman code.  A point fails with AlphabetOverflow once a lattice
    coordinate reaches 2^52 in magnitude or its joint alphabet exceeds
    ALPHABET_CAP.  Returns per point its CodingResult, or the error that
    failed it; ``trace_paths`` optionally names a trace for each point.
    """
    quantizer = _kind(kind)
    tallies = [entropy_code.RowCounts(scheme.r) for scheme, _ in points]
    paths = trace_paths or [None] * len(points)
    traced = {i: [] for i, path in enumerate(paths) if path is not None}

    def step(dither, z):
        return kernels.lattice_step(dither, quantizer.scale, quantizer.nearest, z)

    def sink(i, z):
        # floats this large have no fractional bits, and past 2^63 int64 wraps
        if not np.all(np.abs(z) < 2.0**52):  # a nan fails too
            raise AlphabetOverflow("a lattice coordinate reached 2^52 or is nan")
        idx = z.astype(np.int64)
        tallies[i].add(idx)
        if i in traced:
            traced[i].append(idx)

    out = _run_loops(src, n, points, kind, quantizer.block, quantizer.dither, step, sink)
    for i, sq in enumerate(out):
        if isinstance(sq, Exception):
            continue
        mse = float(np.mean(sq))
        if points[i][0].r == 0:
            out[i] = CodingResult(0.0, 0.0, mse, n, 0)
            if i in traced:  # no indices: one empty symbol, sent in 0 bits
                _write_trace(paths[i], np.empty((n + 1, 0), np.int64), np.zeros(1, np.int64), sq)
            continue
        counts = tallies[i].histogram()
        if len(counts) > ALPHABET_CAP:
            out[i] = AlphabetOverflow(
                f"observed joint alphabet {len(counts)} exceeds cap {ALPHABET_CAP}"
            )
            continue
        lengths = entropy_code.huffman_lengths(counts)
        rate = int(counts @ lengths) / (n + 1)  # steps 0..n each send one codeword
        ent = entropy_code.empirical_entropy_bits(counts)
        out[i] = CodingResult(rate, ent, mse, n, len(counts))
        if i in traced:
            _write_trace(paths[i], np.concatenate(traced[i]), lengths, sq)
    return out


def run_awgn_batch(src, n, points):
    """Run the Gaussian test channels of several schemes of ``src`` in lockstep.

    Each point (scheme, seeds) runs as in :func:`run_coding_batch`, but its
    channel adds unit-variance noise v_t drawn from seeds.dither.  Returns per
    point its MSE, the mean of ||x_t - y_t||^2 over steps 0..n, or its error.
    """
    draw = lambda rng, rows, r: rng.standard_normal((rows, r))  # noqa: E731
    out = _run_loops(src, n, points, "awgn", 1, draw, lambda noise, z: kernels.awgn_step(noise))
    return [sq if isinstance(sq, Exception) else float(np.mean(sq)) for sq in out]


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
