"""Closed-loop source coding over the realization scheme, with measured rates.

The unit-variance AWGN legs of the realization are replaced by subtractive-
dithered quantizers (independent scalar quantizers, or a D4 lattice on
blocks of four coordinates), and the joint index vector of each time step
is entropy coded memorylessly over time by a two-pass empirical Huffman
code.  Reported numbers are bits per vector per step and the end-to-end
mean squared error.

For r active dimensions the measured rate is bracketed by

    R(D_emp)  <=  rate  <=  R(D_emp) + (r/2) log2(pi e / 6) + 1      (scalar)
    R(D_emp)  <=  rate  <=  R(D_emp) + (r/2) log2(2 pi e G_r) + 1    (lattice)

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
from .errors import AlphabetOverflow, DimensionMismatch
from .linalg import psd_sqrt_factor
from .quantizers import G4, QuantizerConfig, sdusq_dither
from .realization import RealizationScheme, channel_matrices
from .source_model import GaussMarkovSource

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


def theoretical_upper_bound(rate_na_bits, r, kind, g_r=None):
    """Additive achievability bound on the operational rate, bits per vector.

    kind 'sdusq' adds (r/2) log2(pi e/6) + 1; kind 'd4' (or any lattice with
    normalized second moment g_r) adds (r/2) log2(2 pi e g_r) + 1.  With
    r = 0 nothing is transmitted and the bound is the rate itself.
    """
    if r < 0:
        raise DimensionMismatch(f"r must be nonnegative, got {r}")
    if r == 0:
        return float(rate_na_bits)
    if kind == "sdusq":
        return float(rate_na_bits + r * HALF_LOG2_PIE6 + 1.0)
    if kind == "d4":
        g = G4 if g_r is None else g_r
        return float(rate_na_bits + 0.5 * r * math.log2(2.0 * math.pi * math.e * g) + 1.0)
    raise ValueError(f"unknown quantizer kind {kind!r}")


def run_coding_experiment(
    scheme: RealizationScheme,
    src: GaussMarkovSource,
    n: int,
    seeds: SeedBundle,
    qcfg: QuantizerConfig,
    alphabet_cap: int = ALPHABET_CAP,
    trace_path=None,
) -> CodingResult:
    """Simulate the quantized loop for n steps and entropy code the indices.

    Deterministic given ``seeds``: the source path comes from seeds.source,
    the dither stream from qcfg.seed_dither (seeds.dither is used when the
    config carries no seed of its own).  Optionally dumps a per-step CSV
    trace (t, indices..., codeword_length_bits, squared error).
    """
    p = src.p
    if scheme.E.shape[0] != p:
        raise DimensionMismatch("scheme dimension does not match source")
    r = scheme.r
    rng_src = np.random.default_rng(seeds.source)
    x0 = psd_sqrt_factor(src.sigma_x0, "sigma_x0") @ rng_src.standard_normal(p)
    w = rng_src.standard_normal((n, src.q))
    bw = w @ src.B.T

    if r == 0:
        # nothing is transmitted; the reproduction free-runs on the predictor
        fe = np.zeros((0, p))
        g = np.zeros((p, 0))
        noise = np.zeros((n + 1, 0))
        _, _, _, e = kernels.awgn_loop(src.A, bw, x0, fe, g, noise)
        mse = float(np.mean(np.sum(e * e, axis=1)))
        return CodingResult(0.0, 0.0, mse, n, 0)

    fe, g = channel_matrices(scheme)
    dither_seed = qcfg.seed_dither if qcfg.seed_dither is not None else seeds.dither
    rng_dith = np.random.default_rng(dither_seed)
    if qcfg.kind == "sdusq":
        deltas = np.asarray(qcfg.deltas, float)
        if deltas.size != r:
            raise DimensionMismatch(f"need {r} step sizes, got {deltas.size}")
        dith = sdusq_dither(rng_dith, deltas, n + 1)
        idx, k, alpha, beta, e = kernels.sdusq_loop(src.A, bw, x0, fe, g, dith, deltas)
    elif qcfg.kind == "d4":
        if r % 4 != 0:
            raise DimensionMismatch(f"the D4 quantizer needs r divisible by 4, got r={r}")
        scale = float(np.asarray(qcfg.deltas, float).flat[0])
        dith = kernels.d4_dither(rng_dith, scale, (n + 1) * (r // 4)).reshape(n + 1, r)
        idx, k, alpha, beta, e = kernels.d4_loop(src.A, bw, x0, fe, g, dith, scale)
    else:
        raise ValueError(f"unknown quantizer kind {qcfg.kind!r}")

    counts = entropy_code.histogram_of_rows(idx)
    if len(counts) > alphabet_cap:
        raise AlphabetOverflow(
            f"observed joint alphabet {len(counts)} exceeds cap {alphabet_cap}"
        )
    lengths = entropy_code.huffman_lengths(counts)
    rate = entropy_code.average_code_length(counts, lengths)
    ent = entropy_code.empirical_entropy_bits(counts)
    mse = float(np.mean(np.sum(e * e, axis=1)))

    if trace_path is not None:
        _write_trace(trace_path, idx, lengths, e)
    return CodingResult(float(rate), float(ent), mse, n, len(counts))


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
