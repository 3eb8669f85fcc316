"""Test-only constructions: a dense B-spline evaluation, a curve with an
empty block store, an exact circle, the parity meshes and the slit's single
layer in closed form.

The program evaluates bases through element tables and runs on the slit,
the square and the pacman; the tests also compare against every basis
function of a raw knot array, against the circle's closed forms and against
V phi_h of piecewise-linear densities on the slit.
"""

import math

import numpy as np

from igabem.geometry import Curve, pacman, slit, square
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


def fresh(curve: Curve) -> Curve:
    """The same curve with an empty block store (``Curve._blocks``), the
    start of a new refinement lineage."""
    return Curve(curve.knots, curve.controls, curve.weights)


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


def parity_curves():
    """The four geometries with seven random knots each, and pacman with an
    element of width 1e-12 on either side of every breakpoint."""
    rng = np.random.default_rng(7)
    for make in (slit, square, pacman, lambda: circle(0.8)):
        yield make().refined(np.sort(rng.uniform(0.0, 1.0, 7)))
    h = 1e-12
    curve0 = pacman()
    bps = curve0.knots.breakpoints
    for b in bps[:-1]:
        for t0 in (b, (b - h) % 1.0):
            yield curve0.refined([t for t in (t0, t0 + h) if t not in bps])


def _log_moments(u):
    """Antiderivatives of log|u| and u log|u|, continuous at u = 0."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        lg = np.where(u == 0.0, 0.0, np.log(np.abs(u)))
    return u * lg - u, 0.5 * u * u * lg - 0.25 * u * u


def slit_single_layer(curve: Curve, coeffs, ts) -> np.ndarray:
    """V phi_h at parameters ts of a degree-1 slit curve, phi_h = sum
    coeffs[i] N_i, apart from the program's quadrature.

    In the physical coordinate X = 2t - 1 the density is linear on every
    element and ds = dX, so each element contributes moments of log|X - X0|,
    taken in closed form where X0 lies within one element width of the
    element.  Farther away the antiderivatives cancel to a few digits on
    small elements, while 16-point Gauss is exact to rounding there (the
    logarithm is analytic on an ellipse of parameter above 5.8).
    """
    kv = curve.knots
    x0 = 2.0 * np.atleast_1d(np.asarray(ts, dtype=float)) - 1.0
    xg, wg = np.polynomial.legendre.leggauss(16)
    xg, wg = 0.5 * (xg + 1.0), 0.5 * wg
    out = np.zeros_like(x0)
    for (a, b), i in zip(kv.elements.tolist(), kv.element_table[0].tolist()):
        xa, xb = 2.0 * a - 1.0, 2.0 * b - 1.0
        h = xb - xa
        va, vb = coeffs[i], coeffs[i + 1]  # density at the element ends
        near = np.maximum(xa - x0, x0 - xb) < h
        far = ~near
        xs = xa + h * xg
        out[far] += h * (np.log(np.abs(xs[None, :] - x0[far, None]))
                         @ (wg * (va + (vb - va) * xg)))
        u0 = xa - x0[near]
        f0a, f1a = _log_moments(u0)
        f0b, f1b = _log_moments(u0 + h)
        # density va + (vb - va) (u - u0) / h in u = X - X0
        slope = (vb - va) / h
        out[near] += (va - slope * u0) * (f0b - f0a) + slope * (f1b - f1a)
    return -out / (2.0 * math.pi)
