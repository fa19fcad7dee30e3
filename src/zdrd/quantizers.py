"""Subtractive-dithered quantizers: uniform scalar and the 4-d checkerboard lattice.

The uniform scalar quantizer maps x to the cell index j with
j*delta - delta/2 <= x <= j*delta + delta/2 (ties round half away from
zero); subtracting the shared dither after quantization makes the
reconstruction error uniform on a cell and independent of the input.

Step sizes default to sqrt(12) so the quantization-noise variance matches
the unit noise of the normalized channel; the end-to-end distortion is
realized by the realization scheme's scaling matrices, not by delta.

The lattice variant quantizes blocks of four coordinates to a scaled copy
of D4 = {z in Z^4 : sum z_i even}, whose normalized second moment
G4 = 0.076603 gives the smaller space-filling loss.

Nearest points of D4 follow one rule (Conway & Sloane 1982, "Fast
quantizing and decoding algorithms for lattice quantizers and codes"),
implemented once by :func:`d4_nearest`, which the D4 feedback loop in
``kernels`` calls: round every coordinate half away from zero; if the sum is
odd, move the coordinate with the largest rounding error one step toward
x (among equal errors the lowest index; when x equals the rounded value,
step up).  :func:`d4_quantize` is the exhaustive reference; it agrees
away from ties and breaks ties lexicographically instead.

D4 dither is drawn as u - Q(u) with u uniform on the box
[0,1)^3 x [0,2), a fundamental domain of D4 (it holds one cube from each
of the two cosets of D4 in Z^4), so the result is exactly uniform on the
Voronoi cell (Zamir & Feder 1996, "On lattice quantization noise").
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

SQRT12 = float(np.sqrt(12.0))
G4 = 0.076603  # normalized second moment of D4
D4_VOL = 2.0  # covolume of D4
# scale making the per-coordinate noise variance of the dithered D4 cell unity:
# var/dim of the scaled cell is c^2 * G4 * D4_VOL^(1/2)
D4_UNIT_SCALE = float(1.0 / np.sqrt(G4 * np.sqrt(D4_VOL)))


@dataclass(frozen=True)
class QuantizerConfig:
    kind: str  # "sdusq" or "d4"
    deltas: np.ndarray  # step sizes (sdusq) or per-coordinate lattice scale (d4)
    seed_dither: int
    g_r: float | None = None  # normalized second moment, lattice kinds only


def sdusq_config(r: int, seed_dither: int) -> QuantizerConfig:
    return QuantizerConfig("sdusq", np.full(r, SQRT12), int(seed_dither))


def d4_config(r: int, seed_dither: int) -> QuantizerConfig:
    if r % 4 != 0:
        raise DimensionMismatch(f"the D4 quantizer needs r divisible by 4, got r={r}")
    return QuantizerConfig("d4", np.full(r, D4_UNIT_SCALE), int(seed_dither), g_r=G4)


def sdusq_encode(alpha, dither, deltas):
    """Cell indices of alpha + dither; ties round half away from zero."""
    z = (np.asarray(alpha, float) + np.asarray(dither, float)) / np.asarray(deltas, float)
    return (np.sign(z) * np.floor(np.abs(z) + 0.5)).astype(np.int64)


def sdusq_decode(indices, dither, deltas):
    """Reconstruction j*delta - dither; needs the encoder's dither realization."""
    return np.asarray(indices, float) * np.asarray(deltas, float) - np.asarray(dither, float)


def sdusq_dither(rng, deltas, n):
    """n rows of independent uniforms on [-delta_i/2, delta_i/2]."""
    deltas = np.asarray(deltas, float)
    return (rng.random((n, deltas.size)) - 0.5) * deltas


def d4_nearest(x):
    """Nearest D4 points of the rows of x (shape (..., 4)), by the module's tie rule.

    Returns the lattice points as floats with integer values.
    """
    x = np.asarray(x, float)
    if x.shape[-1:] != (4,):
        raise DimensionMismatch(f"D4 operates on rows of 4, got shape {x.shape}")
    f = np.where(x >= 0.0, np.floor(x + 0.5), -np.floor(-x + 0.5))
    odd = np.remainder(f.sum(axis=-1), 2.0) != 0.0
    worst = np.argmax(np.abs(x - f), axis=-1)
    flip = (np.arange(4) == worst[..., None]) & odd[..., None]
    return f + np.where(flip, np.where(x >= f, 1.0, -1.0), 0.0)


def d4_quantize(point, scale=1.0):
    """Nearest point of scale*D4, exact even at ties.

    Candidates are built per coordinate from the two enclosing integers
    (three when the coordinate is already integral), filtered to even sum;
    among minimal-distance candidates the lexicographically smallest wins.
    Returns the lattice point (not the integer coordinates).
    """
    x = np.asarray(point, float) / scale
    if x.shape != (4,):
        raise DimensionMismatch(f"D4 operates on 4-vectors, got shape {x.shape}")
    options = []
    for xi in x:
        f = np.floor(xi)
        if f == xi:
            options.append((xi - 1.0, xi, xi + 1.0))
        else:
            options.append((f, f + 1.0))
    best = None
    for cand in itertools.product(*options):
        if int(sum(cand)) % 2 != 0:
            continue
        d = sum((xi - ci) ** 2 for xi, ci in zip(x, cand))
        key = (d, cand)
        if best is None or key < best:
            best = key
    return np.array(best[1]) * scale
