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
from .source_model import GaussMarkovSource, source_noise

ALPHABET_CAP = 2**20
HALF_LOG2_PIE6 = 0.5 * math.log2(math.pi * math.e / 6.0)  # ~0.2546 bits
HALF_LOG2_2PIE_G4 = 0.5 * math.log2(2.0 * math.pi * math.e * G4)  # ~0.1939 bits


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
    indices..., codeword_length_bits, squared error).  This is
    :func:`run_coding_batch` on one point; its error is raised.
    """
    (res,) = run_coding_batch(src, n, [(scheme, seeds, kind)], [trace_path])
    if isinstance(res, Exception):
        raise res
    return res


def _check_point(src, scheme, kind):
    block = _kind(kind).block
    if scheme.E.shape[0] != src.p:
        raise DimensionMismatch("scheme dimension does not match source")
    if scheme.r % block != 0:
        raise DimensionMismatch(
            f"the {kind.upper()} quantizer needs r divisible by {block}, got r={scheme.r}"
        )


def run_coding_batch(src, n, points, trace_paths=None):
    """Run the quantized loops of several schemes of ``src`` in lockstep.

    ``points`` is a sequence of (scheme, seeds, kind).  Every point draws
    its own source path and dither stream as :func:`run_coding_experiment`
    describes, its loop runs in one :func:`kernels.feedback_loop` with the
    others, and its indices get their own histogram and Huffman code, so
    each result equals that of the point run alone.  Points with r > 0 must
    share one quantizer kind; a point with r = 0 transmits nothing, and its
    reproduction free-runs on the predictor.  An unknown kind, or two kinds
    among the points with r > 0, raises ValueError.

    Returns one entry per point, in order: its CodingResult, or the error
    (one of ``errors.POINT_ERRORS``) that failed it.  ``trace_paths``
    optionally names a per-step CSV trace for each point.
    """
    p = src.p
    out = [None] * len(points)
    live = []
    for i, (scheme, _, kind) in enumerate(points):
        try:
            _check_point(src, scheme, kind)
            live.append(i)
        except POINT_ERRORS as exc:
            out[i] = exc
    kinds = {points[i][2] for i in live if points[i][0].r}
    if len(kinds) > 1:
        raise ValueError(f"a batch takes one quantizer kind, got {sorted(kinds)}")
    if not live:
        return out

    # with no active point the loop never steps, and any live kind will do
    kind = KINDS[kinds.pop() if kinds else points[live[0]][2]]
    G = len(live)
    rmax = max(points[i][0].r for i in live)
    x0 = np.empty((p, G))
    bw = np.empty((n, p, G))
    fe = np.zeros((rmax, p, G))
    g = np.zeros((p, rmax, G))
    dither = np.zeros((n + 1, rmax, G))
    for col, i in enumerate(live):
        scheme, seeds, _ = points[i]
        x0[:, col], w = source_noise(src, n, seeds.source)
        bw[:, :, col] = w @ src.B.T
        r = scheme.r
        if r == 0:
            continue
        fe[:r, :, col], g[:, :r, col] = channel_matrices(scheme)
        dither[:, :r, col] = kind.dither(np.random.default_rng(seeds.dither), n + 1, r)
    step = kernels.lattice_step(dither, kind.scale, kind.nearest)
    idx, e = kernels.feedback_loop(src.A, bw, x0, fe, g, step)
    del bw, dither, step

    for col, i in enumerate(live):
        r = points[i][0].r
        e_row = np.ascontiguousarray(e[:, :, col])
        mse = float(np.mean(np.sum(e_row * e_row, axis=1)))
        if r == 0:
            out[i] = CodingResult(0.0, 0.0, mse, n, 0)
            continue
        idx_row = np.ascontiguousarray(idx[:, :r, col])
        counts = entropy_code.histogram_of_rows(idx_row)
        if len(counts) > ALPHABET_CAP:
            out[i] = AlphabetOverflow(
                f"observed joint alphabet {len(counts)} exceeds cap {ALPHABET_CAP}"
            )
            continue
        lengths = entropy_code.huffman_lengths(counts)
        rate = entropy_code.average_code_length(counts, lengths)
        ent = entropy_code.empirical_entropy_bits(counts)
        out[i] = CodingResult(float(rate), float(ent), mse, n, len(counts))
        if trace_paths is not None and trace_paths[i] is not None:
            _write_trace(trace_paths[i], idx_row, lengths, e_row)
    return out


def _write_trace(path, idx, lengths, e):
    n1, r = idx.shape
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t"] + [f"index_{i}" for i in range(r)] + ["codeword_length_bits", "sq_error"]
        )
        for t in range(n1):
            row = tuple(int(v) for v in idx[t])
            writer.writerow(
                [t, *row, lengths[row], float(np.dot(e[t], e[t]))]
            )
