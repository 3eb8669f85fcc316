"""Geometry oracles: exact points, normals, lengths and corners.

Closed-form values (sector points, normals, lengths) were derived by hand
first.
"""

from math import comb

import numpy as np
import pytest
from scipy.integrate import quad

from igabem.geometry import Curve, pacman, slit, square
from igabem.splines import KnotVector, bspline_derivatives, rational_basis

from helpers import circle


def test_slit_basic():
    c = slit()
    np.testing.assert_allclose(c.point([0.0, 0.25, 1.0]), [[-1, 0], [-0.5, 0], [1, 0]], atol=1e-15)
    np.testing.assert_allclose(c.speed(np.linspace(0, 1, 9)), 2.0, atol=1e-14)
    assert c.element_lengths.sum() == pytest.approx(2.0, rel=1e-14)
    assert c.corner_params().size == 0
    assert not c.closed


def test_square_points_and_normals():
    c = square()
    np.testing.assert_allclose(
        c.point([0.0, 0.25, 0.5, 0.75]),
        [[0, 0], [0.5, 0], [0.5, 0.5], [0, 0.5]],
        atol=1e-15,
    )
    np.testing.assert_allclose(c.point([0.125]), [[0.25, 0.0]], atol=1e-15)
    # outward normals, one per edge midpoint
    mids = np.array([0.125, 0.375, 0.625, 0.875])
    np.testing.assert_allclose(
        c.normal(mids), [[0, -1], [1, 0], [0, 1], [-1, 0]], atol=1e-14
    )
    assert c.element_lengths.sum() == pytest.approx(2.0, rel=1e-14)
    np.testing.assert_allclose(c.corner_params(), [0.0, 0.25, 0.5, 0.75], atol=1e-15)
    # wrap-around evaluation
    np.testing.assert_allclose(c.point([1.25]), c.point([0.25]), atol=1e-15)


def test_square_initial_mesh_size_assumption():
    c = square()
    assert np.max(c.element_lengths) <= c.element_lengths.sum() / 4 + 1e-14


def test_pacman_exact_sector():
    c = pacman()
    r, half = 0.1, 7 * np.pi / 8
    # straight edge: affine in the parameter
    np.testing.assert_allclose(
        c.point([1 / 12]), [[0.05 * np.cos(half), -0.05 * np.sin(half)]], atol=1e-15
    )
    np.testing.assert_allclose(c.point([0.0]), [[0, 0]], atol=1e-15)
    np.testing.assert_allclose(c.point([1 / 6]), [[r * np.cos(half), -r * np.sin(half)]], atol=1e-16)
    # circular part: exact radius everywhere
    ts = np.linspace(1 / 6, 5 / 6, 301)
    radii = np.hypot(*c.point(ts).T)
    np.testing.assert_allclose(radii, r, atol=1e-15)
    # arc junctions and symmetry axis
    np.testing.assert_allclose(c.point([0.5]), [[r, 0.0]], atol=1e-15)
    ang = 7 * np.pi / 24
    np.testing.assert_allclose(c.point([7 / 18]), [[r * np.cos(ang), -r * np.sin(ang)]], atol=1e-15)
    # straight edges have zero second derivative
    np.testing.assert_allclose(c.frame([0.08], 2)[0, 2], [0.0, 0.0], atol=1e-12)


def test_pacman_corners_and_length():
    c = pacman()
    np.testing.assert_allclose(c.corner_params(), [0.0, 1 / 6, 5 / 6], atol=1e-15)
    exact = 0.2 + 0.1 * 7 * np.pi / 4
    assert c.element_lengths.sum() == pytest.approx(exact, rel=1e-12)
    ref, err = quad(lambda t: c.speed([t])[0], 0.0, 1.0, points=c.knots.breakpoints, limit=200)
    assert err < 1e-10
    assert c.element_lengths.sum() == pytest.approx(ref, rel=1e-10)
    # initial elements satisfy the quarter-length mesh assumption
    assert np.max(c.element_lengths) <= c.element_lengths.sum() / 4 + 1e-14


def test_pacman_outward_normal():
    c = pacman()
    # on the circular part the outward normal is radial
    ts = np.array([0.3, 0.5, 0.7])
    nu = c.normal(ts)
    pts = c.point(ts)
    np.testing.assert_allclose(nu, pts / 0.1, atol=1e-13)
    # on the lower straight edge it points away from the sector interior:
    # tangent (cos h, -sin h) with h = 7pi/8, rotated clockwise
    half = 7 * np.pi / 8
    nu_edge = c.normal(np.array([0.08]))[0]
    np.testing.assert_allclose(nu_edge, [-np.sin(half), -np.cos(half)], atol=1e-14)


def test_circle_exactness():
    c = circle()
    ts = np.linspace(0, 1, 257, endpoint=False)
    np.testing.assert_allclose(np.hypot(*c.point(ts).T), 1.0, atol=1e-14)
    assert c.element_lengths.sum() == pytest.approx(2 * np.pi, rel=1e-12)
    assert c.corner_params().size == 0
    nu = c.normal(ts)
    np.testing.assert_allclose(nu, c.point(ts), atol=1e-12)


def test_frame_derivatives_match_finite_differences():
    c = pacman()
    ts = np.array([0.25, 0.47, 0.62])
    h = 1e-6
    fr = c.frame(ts, 2)
    d1 = (c.point(ts + h) - c.point(ts - h)) / (2 * h)
    d2 = (c.point(ts + h) - 2 * c.point(ts) + c.point(ts - h)) / h**2
    np.testing.assert_allclose(fr[:, 1], d1, rtol=1e-7, atol=1e-9)
    np.testing.assert_allclose(fr[:, 2], d2, rtol=1e-3, atol=1e-4)


def test_param_delta():
    sq = square()
    assert sq.param_delta(0.9, 0.1) == pytest.approx(-0.2, abs=1e-15)
    assert sq.param_delta(0.1, 0.9) == pytest.approx(0.2, abs=1e-15)
    # exact half-period separation resolves to the negative image
    assert sq.param_delta(0.6, 0.1) == pytest.approx(-0.5, abs=1e-15)
    sl = slit()
    assert sl.param_delta(0.9, 0.1) == pytest.approx(0.8, abs=1e-15)


def test_refinement_preserves_geometry():
    c = pacman()
    fine = c.refined([0.05, 0.5, 0.5, 0.91])
    assert fine.knots.n_elements == c.knots.n_elements + 3
    assert fine.knots.breakpoints[4] == 0.5
    assert fine.knots.multiplicities[4] == 2
    ts = np.linspace(0, 1, 211, endpoint=False)
    np.testing.assert_allclose(fine.point(ts), c.point(ts), atol=1e-13)
    np.testing.assert_allclose(fine.speed(ts), c.speed(ts), atol=1e-11)
    assert fine.element_lengths.sum() == pytest.approx(c.element_lengths.sum(), rel=1e-12)


def test_curve_validation():
    kv = KnotVector(1, (0.0, 1.0), (2, 2))
    with pytest.raises(ValueError):
        Curve(kv, np.zeros((3, 2)), np.ones(3))  # wrong row count
    with pytest.raises(ValueError):
        Curve(kv, np.zeros((2, 2)), np.array([1.0, -1.0]))  # negative weight
    sq = square()
    moved = sq.controls.copy()
    moved[-1] += [1e-15, 0.0]
    with pytest.raises(ValueError):
        Curve(sq.knots, moved, sq.weights)  # last control point off the first
    weights = sq.weights.copy()
    weights[-1] = 2.0
    with pytest.raises(ValueError):
        Curve(sq.knots, sq.controls, weights)  # unequal end weights


# --------------------------------------------------------------------------
# element tables against the recurrence
# --------------------------------------------------------------------------


def _quotient(num, den):
    """Derivatives of num / den, num (m, nd + 1, c) and den (m, nd + 1)."""
    out = np.empty_like(num)
    for k in range(num.shape[1]):
        acc = num[:, k].copy()
        for j in range(1, k + 1):
            acc -= comb(k, j) * out[:, k - j] * den[:, j, None]
        out[:, k] = acc / den[:, 0, None]
    return out


def recurrence_basis(curve, ts, nd, side):
    """Rational basis windows straight from the Cox-de Boor recurrence."""
    kv = curve.knots
    first, ders = bspline_derivatives(kv.eval_knots, kv.degree, ts, nd, side)
    w = curve.basis_weights[first[:, None] + np.arange(kv.degree + 1)[None, :]]
    num = w[:, None, :] * ders
    return first, _quotient(num, num.sum(axis=2))


def recurrence_frame(curve, ts, nd, side):
    """Curve frames straight from the recurrence on homogeneous rows.

    The point is the plain contraction.  The derivatives contract the rows
    w_r (P_r - gamma(t)), w_r, the control points measured from that point:
    the rows w_r P_r hold P_r only to about eps |P_r|, and derivatives of
    order k on an element of width h amplify that by h^-k.
    """
    kv = curve.knots
    first, ders = bspline_derivatives(kv.eval_knots, kv.degree, ts, nd, side)
    cols = first[:, None] + np.arange(kv.degree + 1)[None, :]
    A = np.einsum("mkr,mrj->mkj", ders, curve._hom[cols])
    point = A[:, 0, :2] / A[:, 0, 2:]
    w = curve.weights[cols][..., None]
    out = _quotient(np.einsum("mkr,mrj->mkj", ders, w * (curve.controls[cols] - point[:, None])),
                    A[..., 2])
    out[:, 0] = point
    return out


def _raised(curve):
    """The curve with its first interior breakpoint at multiplicity p + 1."""
    z = curve.knots.breakpoints[1]
    while curve.knots.multiplicities[1] < curve.degree + 1:
        curve = curve.refined([z])
    return curve


def _parity_curves():
    rng = np.random.default_rng(11)
    out = {}
    for name, c in (("slit", slit()), ("circle", circle(0.8)), ("pacman", pacman())):
        out[name] = c
        out[name + "-refined"] = c.refined(np.sort(rng.uniform(0.0, 1.0, 9)))
        out[name + "-raised"] = _raised(c)
    return out


PARITY_CURVES = _parity_curves()


@pytest.mark.parametrize("name", sorted(PARITY_CURVES))
def test_element_tables_match_recurrence(name):
    curve = PARITY_CURVES[name]
    bp = np.asarray(curve.knots.breakpoints)
    rng = np.random.default_rng(3)
    ts = np.concatenate([bp, 0.5 * (bp[:-1] + bp[1:]), rng.uniform(0.0, 1.0, 300),
                         bp[1:-1] - 1e-12, bp[1:-1] + 1e-12])
    for nd in range(curve.degree + 1):
        # derivatives scale like h^-k on small elements
        for side in ("right", "left"):
            first, R = rational_basis(curve.knots, curve.basis_weights, ts, nd, side)
            first_ref, R_ref = recurrence_basis(curve, ts, nd, side)
            np.testing.assert_array_equal(first, first_ref)
            for k in range(nd + 1):
                np.testing.assert_allclose(
                    R[:, k], R_ref[:, k], rtol=0,
                    atol=1e-13 * max(1.0, np.abs(R_ref[:, k]).max()))
        # frames take right limits, and t = b of a closed curve is t = a
        fr = curve.frame(ts, nd)
        fr_ref = recurrence_frame(curve, curve.knots.wrap(ts), nd, "right")
        for k in range(nd + 1):
            np.testing.assert_allclose(
                fr[:, k], fr_ref[:, k], rtol=0,
                atol=1e-13 * max(1.0, np.abs(fr_ref[:, k]).max()))


@pytest.mark.parametrize("name", sorted(PARITY_CURVES))
def test_element_ends_equal_recurrence(name):
    # right limits at element starts, left limits at element ends and t = b:
    # the table holds the recurrence's own values there
    curve = PARITY_CURVES[name]
    bp = np.asarray(curve.knots.breakpoints)
    for ts, side in ((bp[:-1], "right"), (bp[1:], "left"), (bp[-1:], "right")):
        for nd in range(curve.degree + 1):
            _, R = rational_basis(curve.knots, curve.basis_weights, ts, nd, side)
            np.testing.assert_array_equal(R, recurrence_basis(curve, ts, nd, side)[1])
    # points at corners, the seam and t = b
    corners = curve.corner_params()
    ts = np.concatenate([corners, [bp[0], bp[-1]]])
    for side in ("right", "left"):
        np.testing.assert_array_equal(curve.frame(ts, 0),
                                      recurrence_frame(curve, ts, 0, side))


def test_pacman_seam_corner_is_exact():
    c = pacman()
    for t in (0.0, 1.0):
        assert np.array_equal(c.frame([t], 1)[0, 0], [0.0, 0.0])
