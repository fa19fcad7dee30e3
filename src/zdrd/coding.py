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
from dataclasses import dataclass

import numpy as np

from . import entropy_code, kernels
from .errors import POINT_ERRORS, AlphabetOverflow, DimensionMismatch
from .quantizers import G4, QuantizerConfig, sdusq_dither
from .realization import RealizationScheme, channel_matrices
from .source_model import GaussMarkovSource, source_noise

ALPHABET_CAP = 2**20
HALF_LOG2_PIE6 = 0.5 * math.log2(math.pi * math.e / 6.0)  # ~0.2546 bits


@dataclass(frozen=True)
class SeedBundle:
    source: int
    dither: int
    channel: int = 0


@dataclass(frozen=True)
class CodingResult:
    empirical_rate_bits_per_vector: float
    empirical_entropy_bits: float
    empirical_mse: float
    n_steps: int
    alphabet_size_observed: int

    def to_dict(self):
        return {
            "empirical_rate_bits_per_vector": self.empirical_rate_bits_per_vector,
            "empirical_entropy_bits": self.empirical_entropy_bits,
            "empirical_mse": self.empirical_mse,
            "n_steps": self.n_steps,
            "alphabet_size_observed": self.alphabet_size_observed,
        }

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)


def theoretical_upper_bound(rate_na_bits, r, kind):
    """Additive achievability bound on the operational rate, bits per vector.

    kind 'sdusq' adds (r/2) log2(pi e/6) + 1; kind 'd4' adds
    (r/2) log2(2 pi e G4) + 1, G4 the normalized second moment of D4.  With
    r = 0 nothing is transmitted and the bound is the rate itself.
    """
    if r < 0:
        raise DimensionMismatch(f"r must be nonnegative, got {r}")
    if r == 0:
        return float(rate_na_bits)
    if kind == "sdusq":
        return float(rate_na_bits + r * HALF_LOG2_PIE6 + 1.0)
    if kind == "d4":
        return float(rate_na_bits + 0.5 * r * math.log2(2.0 * math.pi * math.e * G4) + 1.0)
    raise ValueError(f"unknown quantizer kind {kind!r}")


def run_coding_experiment(
    scheme: RealizationScheme,
    src: GaussMarkovSource,
    n: int,
    seeds: SeedBundle,
    qcfg: QuantizerConfig,
    trace_path=None,
) -> CodingResult:
    """Simulate the quantized loop for n steps and entropy code the indices.

    Deterministic given ``seeds``: the source path comes from seeds.source,
    the dither stream from seeds.dither.  Optionally dumps a per-step CSV
    trace (t, indices..., codeword_length_bits, squared error).  This is
    :func:`run_coding_batch` on one point; its error is raised.
    """
    (res,) = run_coding_batch(src, n, [(scheme, seeds, qcfg)], [trace_path])
    if isinstance(res, Exception):
        raise res
    return res


def _check_point(src, scheme, qcfg):
    if scheme.E.shape[0] != src.p:
        raise DimensionMismatch("scheme dimension does not match source")
    r = scheme.r
    if r == 0:
        return
    if qcfg.kind == "sdusq":
        size = np.asarray(qcfg.deltas, float).size
        if size != r:
            raise DimensionMismatch(f"need {r} step sizes, got {size}")
    elif qcfg.kind == "d4":
        if r % 4 != 0:
            raise DimensionMismatch(f"the D4 quantizer needs r divisible by 4, got r={r}")
    else:
        raise ValueError(f"unknown quantizer kind {qcfg.kind!r}")


def run_coding_batch(src, n, points, trace_paths=None):
    """Run the quantized loops of several schemes of ``src`` in lockstep.

    ``points`` is a sequence of (scheme, seeds, qcfg).  Every point draws
    its own source path and dither stream as :func:`run_coding_experiment`
    describes, its loop runs in one :func:`kernels.feedback_loop` with the
    others, and its indices get their own histogram and Huffman code, so
    each result equals that of the point run alone.  Points with r > 0 must
    share one quantizer kind; a point with r = 0 transmits nothing, and its
    reproduction free-runs on the predictor.

    Returns one entry per point, in order: its CodingResult, or the error
    (one of ``errors.POINT_ERRORS``) that failed it.  ``trace_paths``
    optionally names a per-step CSV trace for each point.
    """
    p = src.p
    out = [None] * len(points)
    live = []
    for i, (scheme, _, qcfg) in enumerate(points):
        try:
            _check_point(src, scheme, qcfg)
            live.append(i)
        except POINT_ERRORS as exc:
            out[i] = exc
    kinds = {points[i][2].kind for i in live if points[i][0].r}
    if len(kinds) > 1:
        raise ValueError(f"a batch takes one quantizer kind, got {sorted(kinds)}")
    if not live:
        return out

    G = len(live)
    rmax = max(points[i][0].r for i in live)
    x0 = np.empty((p, G))
    bw = np.empty((n, p, G))
    fe = np.zeros((rmax, p, G))
    g = np.zeros((p, rmax, G))
    dither = np.zeros((n + 1, rmax, G))
    deltas = np.ones((rmax, G))  # sdusq step sizes; ones in the padding
    scale = np.ones(G)  # D4 lattice scales
    for col, i in enumerate(live):
        scheme, seeds, qcfg = points[i]
        x0[:, col], w = source_noise(src, n, seeds.source)
        bw[:, :, col] = w @ src.B.T
        r = scheme.r
        if r == 0:
            continue
        fe[:r, :, col], g[:, :r, col] = channel_matrices(scheme)
        rng_dith = np.random.default_rng(seeds.dither)
        if qcfg.kind == "sdusq":
            deltas[:r, col] = qcfg.deltas
            dither[:, :r, col] = sdusq_dither(rng_dith, deltas[:r, col], n + 1)
        else:
            scale[col] = float(np.asarray(qcfg.deltas, float).flat[0])
            dith = kernels.d4_dither(rng_dith, scale[col], (n + 1) * (r // 4))
            dither[:, :r, col] = dith.reshape(n + 1, r)
    if kinds == {"d4"}:
        step = kernels.d4_step(dither, scale)
    else:
        step = kernels.sdusq_step(dither, deltas)
    idx, e = kernels.feedback_loop(src.A, bw, x0, fe, g, step)
    del bw, dither

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
