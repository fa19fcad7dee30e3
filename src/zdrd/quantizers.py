"""Subtractive-dithered lattice quantizers: the integers Z and the 4-d checkerboard lattice.

Both kinds are one construction (Zamir & Feder 1996, "On lattice
quantization noise"), written once by :func:`dithered_encode` and
:func:`dithered_decode`: send the coordinates z of the lattice point nearest
to (x + q) / scale, output z * scale - q.  The dither q is shared by both
ends and uniform on the Voronoi cell, so the error is uniform on the cell
and independent of x.  A kind differs only in its nearest-point rule, its
scale and its dither.

The scalar quantizer is the lattice Z with block size 1 and scale
sqrt(12), so its noise variance matches the unit noise of the normalized
channel.  The lattice variant quantizes blocks of four coordinates to a
scaled copy of D4 = {z in Z^4 : sum z_i even}, whose normalized second
moment G4 = 0.076603 gives the smaller space-filling loss.

Nearest points follow one rule (Conway & Sloane 1982, "Fast quantizing and
decoding algorithms for lattice quantizers and codes"), with rounding
written once in :func:`z_nearest`: round half away from zero.
:func:`d4_nearest` rounds every coordinate so; if the sum is odd, it moves
the coordinate with the largest rounding error one step toward x (among
equal errors the lowest index; when x equals the rounded value, step up).
:func:`d4_nearest_columns` applies it to the feedback loop's ``(r, G)``
layout.  D4 dither is u - Q(u) with u uniform on [0,1)^3 x [0,2), a
fundamental domain of D4, so it is exactly uniform on the Voronoi cell.
"""

import numpy as np

from .errors import DimensionMismatch

SQRT12 = float(np.sqrt(12.0))
G4 = 0.076603  # normalized second moment of D4
D4_VOL = 2.0  # covolume of D4
# scale making the per-coordinate noise variance of the dithered D4 cell unity:
# var/dim of the scaled cell is c^2 * G4 * D4_VOL^(1/2)
D4_UNIT_SCALE = float(1.0 / np.sqrt(G4 * np.sqrt(D4_VOL)))


def z_nearest(x):
    """Nearest integers of an array x, as floats; ties round half away from zero.

    trunc(x + copysign(1/2, x)) is sign(x) * floor(|x| + 1/2) for every
    float, in two fewer operations, except that -0.0 maps to -0.0.
    """
    return np.trunc(x + np.copysign(0.5, x))


def dithered_encode(alpha, dither, scale, nearest=z_nearest):
    """Lattice coordinates z = nearest((alpha + dither) / scale), as integral floats."""
    return nearest(np.add(alpha, dither) / scale)


def dithered_decode(z, dither, scale):
    """Reconstruction z * scale - dither; needs the encoder's dither realization."""
    return np.multiply(z, scale) - dither


def d4_nearest(x):
    """Nearest D4 points of the rows of x (shape (..., 4)), by the module's tie rule.

    Returns the lattice points as floats with integer values.
    """
    x = np.asarray(x, float)
    if x.shape[-1:] != (4,):
        raise DimensionMismatch(f"D4 operates on rows of 4, got shape {x.shape}")
    f = z_nearest(x)
    odd = np.remainder(f.sum(axis=-1), 2.0) != 0.0
    worst = np.argmax(np.abs(x - f), axis=-1)
    flip = (np.arange(4) == worst[..., None]) & odd[..., None]
    return f + np.where(flip, np.where(x >= f, 1.0, -1.0), 0.0)


def d4_nearest_columns(x):
    """:func:`d4_nearest` on each column of x (shape (r, G)), in blocks of four rows."""
    r, G = x.shape
    return d4_nearest(x.T.reshape(G, r // 4, 4)).reshape(G, r).T
