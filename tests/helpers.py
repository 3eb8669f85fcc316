"""Test-only constructions: a dense B-spline evaluation and an exact circle.

The program evaluates bases through element tables and runs on the slit,
the square and the pacman; the tests also compare against every basis
function of a raw knot array and against the circle's closed forms.
"""

import numpy as np

from igabem.geometry import Curve
from igabem.splines import KnotVector, bspline_derivatives


def bspline_dense(knots, degree, ts, nd=0, side="right"):
    """Dense evaluation of every basis function of a raw knot array.

    Pads the array with phantom outer knots so that short vectors (down to a
    single basis function) evaluate cleanly, then scatters the windows.

    Returns an array of shape ``(npts, nd + 1, ndim)`` where
    ``ndim = len(knots) - degree - 1``.
    """
    knots = np.asarray(knots, dtype=float)
    p = degree
    ndim = len(knots) - p - 1
    if ndim < 1:
        raise ValueError("knot array too short for the requested degree")
    pad_lo = knots[0] - np.arange(p, 0, -1, dtype=float)
    pad_hi = knots[-1] + np.arange(1, p + 1, dtype=float)
    padded = np.concatenate((pad_lo, knots, pad_hi))
    first, ders = bspline_derivatives(padded, p, ts, nd, side)
    first = first - p  # phantom offset
    out = np.zeros((ders.shape[0], nd + 1, ndim))
    cols = first[:, None] + np.arange(p + 1)[None, :]
    keep = (cols >= 0) & (cols < ndim)
    rows = np.broadcast_to(np.arange(ders.shape[0])[:, None], cols.shape)
    for k in range(nd + 1):
        out[rows[keep], k, cols[keep]] = ders[:, k, :][keep]
    return out


def circle(radius: float = 1.0) -> Curve:
    """Exact circle from four rational quadrant arcs (seam at angle 0)."""
    r = float(radius)
    c = np.array(
        [
            [r, 0], [r, r], [0, r], [-r, r], [-r, 0],
            [-r, -r], [0, -r], [r, -r], [r, 0],
        ],
        dtype=float,
    )
    s = np.sqrt(2.0) / 2.0
    w = np.array([1, s, 1, s, 1, s, 1, s, 1], dtype=float)
    kv = KnotVector(2, (0.0, 0.25, 0.5, 0.75, 1.0), (3, 2, 2, 2, 3), periodic=True)
    return Curve(kv, c, w)
