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
It takes the blocks of four along any axis: the dither's rows, or, through
:func:`d4_nearest_columns`, the blocks of each column of the feedback
loop's ``(r, G)`` layout, which lie along axis 1 of its ``(r // 4, 4, G)``
view.  D4 dither is u - Q(u) with u uniform on [0,1)^3 x [0,2), a
fundamental domain of D4, so it is exactly uniform on the Voronoi cell.

Every rule takes ``out=``, which may be its input, so the feedback loop
quantizes into buffers it made once.
"""

import numpy as np

from .errors import DimensionMismatch

SQRT12 = float(np.sqrt(12.0))
G4 = 0.076603  # normalized second moment of D4
D4_VOL = 2.0  # covolume of D4
# scale making the per-coordinate noise variance of the dithered D4 cell unity:
# var/dim of the scaled cell is c^2 * G4 * D4_VOL^(1/2)
D4_UNIT_SCALE = float(1.0 / np.sqrt(G4 * np.sqrt(D4_VOL)))
# the h of z_nearest, as a 0-d array: ufuncs take it with less overhead than a float
_BELOW_HALF = np.array(np.nextafter(0.5, 0.0))
_BELOW_HALF.setflags(write=False)
_COORDS = np.arange(4)  # coordinate numbers of a D4 block
_ZERO, _TWO = np.array(0.0), np.array(2.0)  # ufunc operands, as _BELOW_HALF
_ZERO.setflags(write=False)
_TWO.setflags(write=False)


def z_nearest(x, out=None):
    """Nearest integers of an array x, as floats; ties round half away from zero.

    trunc(x + copysign(h, x)), h the largest double below 1/2.  The sum
    reaches the next integer in magnitude exactly when the fraction of |x| is
    at least 1/2: a half-integer plus h lies within half an ulp below that
    integer and rounds up to it, and every other sum stays below it.  With
    h = 1/2 the sum would also round up for the double just below 1/2 and,
    as a tie to even, for the odd integers in [2^52, 2^53).
    -0.0 maps to -0.0.
    """
    return np.trunc(np.add(x, np.copysign(_BELOW_HALF, x), out=out), out=out)


def dithered_encode(alpha, dither, scale, nearest=z_nearest, out=None):
    """Lattice coordinates z = nearest((alpha + dither) / scale), as integral floats.

    With ``out``, (alpha + dither) / scale is written there and ``nearest``
    rounds it in place.
    """
    x = np.add(alpha, dither, out=out)
    np.divide(x, scale, out=x)
    return nearest(x, out=x)


def dithered_decode(z, dither, scale, out=None):
    """Reconstruction z * scale - dither; needs the encoder's dither realization."""
    beta = np.multiply(z, scale, out=out)
    return np.subtract(beta, dither, out=beta)


def d4_nearest(x, axis=-1, out=None):
    """Nearest D4 points of the blocks of four along ``axis`` of x, by the module's tie rule.

    Returns the lattice points as floats with integer values, in ``out``
    if given (it may be x).
    """
    x = np.asarray(x, float)
    if x.shape[axis] != 4:
        raise DimensionMismatch(f"D4 operates on blocks of 4, got shape {x.shape} on axis {axis}")
    f = z_nearest(x)
    d = np.subtract(x, f)  # never -0.0, so its sign says on which side of f x lies
    odd = np.remainder(np.add.reduce(f, axis=axis, keepdims=True), _TWO)  # 1.0 if odd, else 0.0
    worst = np.abs(d).argmax(axis=axis, keepdims=True)
    coords = _COORDS.reshape((4,) + (1,) * (x.ndim - 1 - axis % x.ndim))
    move = np.multiply(np.equal(coords, worst), odd)
    np.copysign(move, d, out=move)  # +-1 at the coordinate to move, +-0.0 elsewhere
    out = np.add(f, move, out=out)
    return np.add(out, _ZERO, out=out)  # f = -0.0 plus -0.0 leaves -0.0; the rule gives +0.0


def d4_nearest_columns(x, out=None):
    """:func:`d4_nearest` on each column of x (shape (r, G)), in blocks of four rows.

    The blocks of a column lie along axis 1 of the ``(r // 4, 4, G)`` view
    of x, so the rule runs on views, with no transpose or copy.
    """
    if out is None:
        out = np.empty(x.shape)
    blocks = (x.shape[0] // 4, 4, x.shape[1])
    d4_nearest(x.reshape(blocks), axis=1, out=out.reshape(blocks))
    return out
