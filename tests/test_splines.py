"""Spline engine and knot-vector oracles.

Hand values below (hat functions, the cardinal quadratic, the rational
quarter-circle weights) were computed on paper before the engine existed.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from igabem.splines import (
    KnotVector,
    bspline_derivatives,
    insert_knot,
    rational_basis,
)

from helpers import bspline_dense

HALF_SQRT2 = np.sqrt(2.0) / 2.0


def eval_rational(kv, basis_weights, coeffs, ts, side="right"):
    """Σ coeffs[q] R_q(t) via windowed evaluation (test helper)."""
    first, R = rational_basis(kv, basis_weights, np.asarray(ts, float), nd=0, side=side)
    cols = first[:, None] + np.arange(kv.degree + 1)[None, :]
    return np.sum(R[:, 0, :] * np.asarray(coeffs)[cols], axis=1)


# ------------------------------------------------------------------ engine


def test_hat_function_values():
    # degree 1 on {0,1,2}: the single basis function is the unit hat at 1
    ts = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    vals = bspline_dense([0.0, 1.0, 2.0], 1, ts)
    assert vals.shape == (5, 1, 1)
    np.testing.assert_allclose(vals[:, 0, 0], [0.0, 0.5, 1.0, 0.5, 0.0], atol=1e-15)


def test_cardinal_quadratic_midpoint():
    # degree 2 on {0,1,2,3}: value 3/4 at the center of the middle span
    vals = bspline_dense([0.0, 1.0, 2.0, 3.0], 2, np.array([1.5]))
    assert vals[0, 0, 0] == pytest.approx(0.75, abs=1e-15)
    # and 1/2 at the interior knots
    vals = bspline_dense([0.0, 1.0, 2.0, 3.0], 2, np.array([1.0, 2.0]))
    np.testing.assert_allclose(vals[:, 0, 0], [0.5, 0.5], atol=1e-15)


def test_clamped_linears():
    first, ders = bspline_derivatives([0.0, 0.0, 1.0, 1.0], 1, np.array([0.0, 0.25, 1.0]), 0)
    vals = ders[:, 0, :]
    np.testing.assert_array_equal(first, [0, 0, 0])
    np.testing.assert_allclose(vals, [[1.0, 0.0], [0.75, 0.25], [0.0, 1.0]], atol=1e-15)


def test_window_indices_cover_dense():
    kv = KnotVector(2, (0.0, 0.25, 0.5, 1.0), (3, 1, 2, 3))
    ts = np.linspace(0.0, 1.0, 17)
    first, ders = bspline_derivatives(kv.eval_knots, 2, ts, 0)
    win = ders[:, 0, :]
    dense = bspline_dense(kv.eval_knots, 2, ts)
    for i, t in enumerate(ts):
        scat = np.zeros(kv.dim)
        scat[first[i] : first[i] + 3] = win[i]
        np.testing.assert_allclose(scat, dense[i, 0], atol=1e-15)


def test_derivatives_match_finite_differences():
    kv = KnotVector(3, (0.0, 0.3, 0.7, 1.0), (4, 2, 1, 4))
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(kv.dim)
    ts = np.array([0.11, 0.36, 0.55, 0.81])
    h = 1e-6

    def f(t):
        first, vals = bspline_derivatives(kv.eval_knots, 3, t, 0)
        cols = first[:, None] + np.arange(4)
        return np.sum(vals[:, 0, :] * coeffs[cols], axis=1)

    first, ders = bspline_derivatives(kv.eval_knots, 3, ts, 2)
    cols = first[:, None] + np.arange(4)
    d1 = np.sum(ders[:, 1, :] * coeffs[cols], axis=1)
    d2 = np.sum(ders[:, 2, :] * coeffs[cols], axis=1)
    fd1 = (f(ts + h) - f(ts - h)) / (2 * h)
    fd2 = (f(ts + h) - 2 * f(ts) + f(ts - h)) / h**2
    np.testing.assert_allclose(d1, fd1, rtol=1e-8, atol=1e-8)
    np.testing.assert_allclose(d2, fd2, rtol=1e-3, atol=1e-3)


def test_one_sided_limits_at_discontinuity():
    # degree 1 with an interior double knot: discontinuous basis at 0.5
    kv = KnotVector(1, (0.0, 0.5, 1.0), (2, 2, 2))
    t = np.array([0.5])
    dense_r = bspline_dense(kv.eval_knots, 1, t, side="right")[0, 0]
    dense_l = bspline_dense(kv.eval_knots, 1, t, side="left")[0, 0]
    np.testing.assert_allclose(dense_r, [0.0, 0.0, 1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(dense_l, [0.0, 1.0, 0.0, 0.0], atol=1e-15)


# ------------------------------------------------------------- knot vectors


def test_dim_formulas():
    slit = KnotVector(1, (0.0, 1.0), (2, 2))
    assert slit.dim == 2 and slit.n_elements == 1
    square = KnotVector(1, (0.0, 0.25, 0.5, 0.75, 1.0), (2, 1, 1, 1, 2), periodic=True)
    assert square.dim == 5
    fan = KnotVector(
        2,
        (0.0, 1 / 6, 7 / 18, 11 / 18, 5 / 6, 1.0),
        (3, 2, 2, 2, 2, 3),
        periodic=True,
    )
    assert fan.dim == 11


def test_validation_rejects_bad_vectors():
    with pytest.raises(ValueError):
        KnotVector(1, (0.0, 1.0), (1, 2))  # not clamped
    with pytest.raises(ValueError):
        KnotVector(1, (0.0, 0.5, 1.0), (2, 3, 2))  # multiplicity too high
    with pytest.raises(ValueError):
        KnotVector(1, (0.0, 0.5, 0.5, 1.0), (2, 1, 1, 2))  # not increasing
    with pytest.raises(ValueError):
        KnotVector(2, (0.0, 1.0), (2, 1), periodic=True)  # unequal seam mults
    with pytest.raises(ValueError):
        KnotVector(2, (0.0, 1.0), (2, 2), periodic=True)  # seam below degree + 1
    with pytest.raises(ValueError):  # smooth seam: multiplicity 1 < degree + 1
        KnotVector(2, (0.0, 0.25, 0.5, 0.75, 1.0), (1, 1, 1, 1, 1), periodic=True)


def test_partition_of_unity_clamped():
    kv = KnotVector(3, (0.0, 0.2, 0.45, 0.8, 1.0), (4, 2, 3, 1, 4))
    ts = np.linspace(0.0, 1.0, 1000)
    dense = bspline_dense(kv.eval_knots, 3, ts)
    assert dense.shape[2] == kv.dim
    np.testing.assert_allclose(dense[:, 0, :].sum(axis=1), 1.0, atol=1e-13)
    assert np.all(dense[:, 0, :] >= -1e-15)


def test_collocation_points_slit_and_monotone():
    slit = KnotVector(1, (0.0, 1.0), (2, 2))
    np.testing.assert_allclose(slit.collocation_points(), [1 / 3, 2 / 3], atol=1e-15)
    fan = KnotVector(
        2,
        (0.0, 1 / 6, 7 / 18, 11 / 18, 5 / 6, 1.0),
        (3, 2, 2, 2, 2, 3),
        periodic=True,
    )
    pts = fan.collocation_points()
    assert pts[0] == pytest.approx(1 / 24)
    assert np.all(np.diff(pts) > 0)
    # no collocation point may sit on a geometry corner of the fan sector
    for corner in (0.0, 1 / 6, 5 / 6):
        assert np.min(np.abs(pts - corner)) > 1e-12


def test_element_queries():
    kv = KnotVector(1, (0.0, 0.25, 0.5, 0.75, 1.0), (2, 1, 1, 1, 2))
    assert kv.nodes[1] == 0.25 and kv.multiplicities[1] == 1
    assert _node_multiplicity(kv, 0.3) == 0


def _node_multiplicity(kv, t):
    """Multiplicity of the node at parameter t, 0 when t is no node."""
    z = np.flatnonzero(kv.nodes == kv.wrap(t))
    return kv.multiplicities[z[0]] if len(z) else 0


def _assert_read_only(*arrays):
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 0


def test_node_bookkeeping_open():
    kv = KnotVector(1, (0.0, 0.25, 0.5, 1.0), (2, 1, 1, 2))  # a refined slit
    assert np.allclose(kv.nodes, [0.0, 0.25, 0.5, 1.0])
    np.testing.assert_array_equal(kv.patches,
                                  [[-1, 0], [0, 1], [1, 2], [2, -1]])
    np.testing.assert_array_equal(kv.touching, [False, True, True, False])
    _assert_read_only(kv.nodes, kv.patches, kv.touching)


def test_node_bookkeeping_closed():
    kv = KnotVector(1, (0.0, 0.25, 0.5, 0.75, 1.0), (2, 1, 1, 1, 2),
                    periodic=True)  # the square
    assert np.allclose(kv.nodes, [0.0, 0.25, 0.5, 0.75])
    np.testing.assert_array_equal(kv.patches,
                                  [[3, 0], [0, 1], [1, 2], [2, 3]])
    np.testing.assert_array_equal(kv.touching, [True] * 4)
    _assert_read_only(kv.nodes, kv.patches, kv.touching)


# ------------------------------------------------------------------- NURBS


def test_quarter_circle_rational_values():
    kv = KnotVector(2, (0.0, 1.0), (3, 3))
    w = np.array([1.0, HALF_SQRT2, 1.0])
    first, R = rational_basis(kv, w, np.array([0.5]))
    np.testing.assert_allclose(
        R[0, 0],
        [(2 - np.sqrt(2)) / 2, np.sqrt(2) - 1, (2 - np.sqrt(2)) / 2],
        atol=1e-15,
    )
    # rational functions always sum to one
    ts = np.linspace(0, 1, 97)
    _, R = rational_basis(kv, w, ts, nd=2)
    np.testing.assert_allclose(R[:, 0, :].sum(axis=1), 1.0, atol=1e-14)
    np.testing.assert_allclose(R[:, 1, :].sum(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(R[:, 2, :].sum(axis=1), 0.0, atol=1e-11)


def test_rational_derivatives_match_finite_differences():
    kv = KnotVector(2, (0.0, 0.4, 1.0), (3, 1, 3))
    w = np.array([1.0, 0.8, 1.3, 0.9])
    coeffs = np.array([0.2, -1.0, 0.7, 1.5])
    ts = np.array([0.15, 0.55, 0.85])
    h = 1e-6
    first, R = rational_basis(kv, w, ts, nd=2)
    cols = first[:, None] + np.arange(3)
    d1 = np.sum(R[:, 1, :] * coeffs[cols], axis=1)
    d2 = np.sum(R[:, 2, :] * coeffs[cols], axis=1)
    f = lambda t: eval_rational(kv, w, coeffs, t)
    fd1 = (f(ts + h) - f(ts - h)) / (2 * h)
    fd2 = (f(ts + h) - 2 * f(ts) + f(ts - h)) / h**2
    np.testing.assert_allclose(d1, fd1, rtol=1e-7)
    np.testing.assert_allclose(d2, fd2, rtol=1e-3)


# ---------------------------------------------------------- knot insertion


def test_insertion_guards():
    kv = KnotVector(1, (0.0, 0.5, 1.0), (2, 2, 2))
    coeffs = np.zeros((kv.dim, 1))
    with pytest.raises(ValueError):
        insert_knot(kv, coeffs, 0.5)  # multiplicity already p + 1
    with pytest.raises(ValueError):
        insert_knot(kv, coeffs, 1.5)  # outside the interval
    with pytest.raises(ValueError):
        insert_knot(kv, np.zeros((kv.dim + 1, 1)), 0.25)  # wrong row count
    square = KnotVector(1, (0.0, 0.25, 0.5, 0.75, 1.0), (2, 1, 1, 1, 2), periodic=True)
    for seam in (0.0, 1.0):
        with pytest.raises(ValueError):
            insert_knot(square, np.zeros((square.dim, 1)), seam)  # seam already at p + 1


def test_insertion_structure():
    kv = KnotVector(2, (0.0, 1.0), (3, 3))
    coeffs = np.eye(3)
    kv2, c2 = insert_knot(kv, coeffs, 0.5)
    assert kv2.breakpoints == (0.0, 0.5, 1.0)
    assert kv2.multiplicities == (3, 1, 3)
    assert c2.shape == (4, 3)
    kv3, _ = insert_knot(kv2, c2, 0.5)
    assert kv3.multiplicities == (3, 2, 3)


def test_batched_insertion_matches_single_insertions():
    kv = KnotVector(2, (0.0, 0.3, 0.7, 1.0), (3, 1, 2, 3), periodic=True)
    rng = np.random.default_rng(3)
    hom = np.column_stack((rng.uniform(-1, 1, (kv.dim, 2)), rng.uniform(0.5, 2, kv.dim)))
    ts = [0.55, 0.3, 1.15, 0.55, 0.3]  # 1.15 wraps to 0.15; repeats raise
    kv_all, hom_all = insert_knot(kv, hom, ts)
    kv_one, hom_one = kv, hom
    for t in sorted(kv.wrap(np.array(ts))):
        kv_one, hom_one = insert_knot(kv_one, hom_one, t)
    assert kv_all == kv_one
    assert kv_all.multiplicities == (3, 1, 3, 2, 2, 3)
    assert np.array_equal(hom_all, hom_one)
    # a list that pushes 0.7 past p + 1 is refused before any step divides
    # by a zero knot span
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="maximal"):
            insert_knot(kv, hom, [0.2, 0.7, 0.7])


grid = st.sampled_from([i / 32 for i in range(1, 32)])


@st.composite
def clamped_setups(draw):
    p = draw(st.integers(0, 3))
    interior = draw(st.lists(grid, min_size=0, max_size=3, unique=True))
    bp = (0.0, *sorted(interior), 1.0)
    mults = (p + 1, *(draw(st.integers(1, p + 1)) for _ in interior), p + 1)
    kv = KnotVector(p, bp, mults)
    w = draw(
        st.lists(st.floats(0.5, 2.0), min_size=kv.dim, max_size=kv.dim).map(np.array)
    )
    c = draw(
        st.lists(st.floats(-2.0, 2.0), min_size=kv.dim, max_size=kv.dim).map(np.array)
    )
    t_new = draw(st.sampled_from([i / 64 for i in range(1, 64)]))
    return kv, w, c, t_new


@settings(max_examples=60, deadline=None)
@given(clamped_setups())
def test_insertion_preserves_rational_functions(setup):
    kv, w, c, t_new = setup
    if _node_multiplicity(kv, t_new) >= kv.degree + 1:
        return
    hom = np.column_stack((w * c, w))
    kv2, hom2 = insert_knot(kv, hom, t_new)
    assert kv2.dim == kv.dim + 1
    w2 = hom2[:, 1]
    c2 = hom2[:, 0] / w2
    ts = np.linspace(0.0, 1.0, 73)
    f1 = eval_rational(kv, w, c, ts)
    f2 = eval_rational(kv2, w2, c2, ts)
    np.testing.assert_allclose(f2, f1, atol=1e-12, rtol=1e-12)
    assert np.min(w2) >= np.min(w) - 1e-14
    assert np.max(w2) <= np.max(w) + 1e-14


@st.composite
def periodic_setups(draw):
    # closed clamped vectors; insertion parameters beyond [0, 1) exercise the wrap
    p = draw(st.integers(0, 3))
    interior = draw(st.lists(grid, min_size=0, max_size=3, unique=True))
    bp = (0.0, *sorted(interior), 1.0)
    mults = (p + 1, *(draw(st.integers(1, p + 1)) for _ in interior), p + 1)
    kv = KnotVector(p, bp, mults, periodic=True)
    w = draw(
        st.lists(st.floats(0.5, 2.0), min_size=kv.dim, max_size=kv.dim).map(np.array)
    )
    c = draw(
        st.lists(st.floats(-2.0, 2.0), min_size=kv.dim, max_size=kv.dim).map(np.array)
    )
    t_new = draw(st.sampled_from([i / 64 for i in range(-64, 128)]))
    return kv, w, c, t_new


@settings(max_examples=60, deadline=None)
@given(periodic_setups())
def test_periodic_insertion_preserves_rational_functions(setup):
    kv, w, c, t_new = setup
    if _node_multiplicity(kv, t_new) >= kv.degree + 1:
        return
    hom = np.column_stack((w * c, w))
    kv2, hom2 = insert_knot(kv, hom, t_new)
    assert kv2.dim == kv.dim + 1
    assert _node_multiplicity(kv2, t_new) == _node_multiplicity(kv, t_new) + 1
    w2 = hom2[:, 1]
    c2 = hom2[:, 0] / w2
    ts = np.linspace(0.0, 1.0, 73, endpoint=False)
    f1 = eval_rational(kv, w, c, ts)
    f2 = eval_rational(kv2, w2, c2, ts)
    np.testing.assert_allclose(f2, f1, atol=1e-12, rtol=1e-12)
