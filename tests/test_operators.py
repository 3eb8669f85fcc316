"""Operator assembly against independently known integrals.

Closed forms used below, all for the kernel -log|x - y| / (2 pi):

* slit [-1, 1] on the x axis, density 1:
  V1(x) = -((1-x) log(1-x) + (1+x) log(1+x) - 2) / (2 pi), so V1(0) = 1/pi,
  and the total energy <V1, 1> = (3 - 2 log 2)/pi on any slit mesh (the
  all-ones coefficient vector is the unit density by partition of unity).
* circle of radius R: V1 = -R log R everywhere on the circle, and the
  double layer kernel is the constant -1/(2R), hence K g = -mean(g)/2 and
  in particular K 1 = -1/2 on every closed curve.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from igabem import quadrature
from igabem.adaptivity import initial_state, refine, uniform_refine
from igabem.experiments import pacman_trace
from igabem.geometry import circle, pacman, slit, square
from igabem.operators import (
    collocation_matrix,
    dirichlet_rhs,
    double_layer_values,
    galerkin_matrix,
    galerkin_rhs,
    single_layer_values,
)
from igabem.splines import rational_basis

TOTAL_SLIT_ENERGY = (3.0 - 2.0 * np.log(2.0)) / np.pi


def v_one_slit(x):
    """Exact single layer of the unit density on the slit, physical x."""
    x = np.asarray(x, dtype=float)
    return -((1 - x) * np.log1p(-x) + (1 + x) * np.log1p(x) - 2.0) / (2.0 * np.pi)


def hat(j, t):
    """Hat functions of the two-element slit space (breakpoints 0, 1/2, 1)."""
    t = float(t)
    if j == 0:
        return max(1.0 - 2.0 * t, 0.0) if t <= 0.5 else 0.0
    if j == 1:
        return 2.0 * t if t <= 0.5 else 2.0 - 2.0 * t
    return max(2.0 * t - 1.0, 0.0)


HAT_SUPPORT = {0: ((0.0, 0.5),), 1: ((0.0, 0.5), (0.5, 1.0)), 2: ((0.5, 1.0),)}


def slit_entry_oracle(i, j):
    """Galerkin entry on the two-element slit by nested adaptive quadrature."""

    def outer(s):
        acc = 0.0
        for ta, tb in HAT_SUPPORT[j]:
            pts = [s] if ta < s < tb else None
            val, _ = quad(
                lambda t: hat(j, t) * np.log(2.0 * abs(s - t)),
                ta, tb, points=pts, epsabs=1e-13, limit=300,
            )
            acc += val
        return hat(i, s) * acc

    total = 0.0
    for sa, sb in HAT_SUPPORT[i]:
        val, _ = quad(outer, sa, sb, epsabs=1e-12, limit=300)
        total += val
    return -4.0 * total / (2.0 * np.pi)  # both speeds are 2


# --------------------------------------------------------------------------
# slit oracles: every assembly regime against closed forms
# --------------------------------------------------------------------------


def test_single_element_energy():
    A = galerkin_matrix(slit())
    ones = np.ones(A.shape[0])
    assert ones @ A @ ones == pytest.approx(TOTAL_SLIT_ENERGY, abs=1e-13)


def test_two_element_entries_against_quadrature():
    A = galerkin_matrix(slit().refined([0.5]))
    assert A.shape == (3, 3)
    assert np.max(np.abs(A - A.T)) == 0.0
    # (0,0): identical pair only; (0,2): touching pair only; (1,1): all four
    assert A[0, 0] == pytest.approx(slit_entry_oracle(0, 0), abs=1e-9)
    assert A[0, 2] == pytest.approx(slit_entry_oracle(0, 2), abs=1e-9)
    assert A[1, 1] == pytest.approx(slit_entry_oracle(1, 1), abs=1e-9)


def test_far_pair_against_quadrature():
    # four equal elements: bases 0 and 4 live on separated elements
    A = galerkin_matrix(slit().refined([0.25, 0.5, 0.75]))

    def outer(s):
        val, _ = quad(
            lambda t: (4.0 * t - 3.0) * np.log(2.0 * abs(s - t)),
            0.75, 1.0, epsabs=1e-14,
        )
        return (1.0 - 4.0 * s) * val

    exact, _ = quad(outer, 0.0, 0.25, epsabs=1e-13, limit=200)
    exact *= -4.0 / (2.0 * np.pi)
    assert A[0, 4] == pytest.approx(exact, abs=1e-11)


@pytest.mark.parametrize("cuts", [
    [0.5],
    [0.125, 0.25, 0.5],          # graded mesh, uneven neighbors
    [0.25, 0.5, 0.5, 0.75],      # repeated knot
])
def test_total_energy_any_mesh(cuts):
    A = galerkin_matrix(slit().refined(cuts))
    ones = np.ones(A.shape[0])
    assert ones @ A @ ones == pytest.approx(TOTAL_SLIT_ENERGY, abs=1e-12)


# --------------------------------------------------------------------------
# square: touching pairs across geometric corners
# --------------------------------------------------------------------------

SQUARE_CORNERS = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 0.5], [0.0, 0.5], [0.0, 0.0]])


def square_point(t):
    """Boundary of [0, 1/2]^2 at parameter t, one side per quarter."""
    k = min(int(4.0 * t), 3)
    u = 4.0 * t - k
    return (1.0 - u) * SQUARE_CORNERS[k] + u * SQUARE_CORNERS[k + 1]


def square_hat(j, t):
    """Basis j of the square's initial space: hats at t = j / 4; the seam
    carries two functions, j = 0 on [0, 1/4] and j = 4 on [3/4, 1]."""
    return max(1.0 - abs(4.0 * t - j), 0.0)


def square_entry_oracle(i, j):
    """Galerkin entry on the square's initial mesh by nested adaptive
    quadrature."""

    def support(k):
        return [(lo / 4, hi / 4) for lo, hi in ((k - 1, k), (k, k + 1))
                if 0 <= lo and hi <= 4]

    def outer(s):
        ps = square_point(s)
        acc = 0.0
        for ta, tb in support(j):
            pts = [s] if ta < s < tb else None
            val, _ = quad(
                lambda t: square_hat(j, t) * np.log(np.hypot(*(ps - square_point(t)))),
                ta, tb, points=pts, epsabs=1e-13, limit=300,
            )
            acc += val
        return square_hat(i, s) * acc

    total = 0.0
    for sa, sb in support(i):
        val, _ = quad(outer, sa, sb, epsabs=1e-12, limit=300)
        total += val
    return -4.0 * total / (2.0 * np.pi)  # both speeds are 2


def test_corner_entries_against_quadrature():
    A = galerkin_matrix(square())
    # (0,4): the seam pair only, touching at the corner (0, 0); (0,1): an
    # identical pair and a pair touching at the corner (1/2, 0); (0,2): that
    # touching pair and a separated one
    for i, j in ((0, 4), (0, 1), (0, 2)):
        assert A[i, j] == pytest.approx(square_entry_oracle(i, j), abs=1e-11)


# --------------------------------------------------------------------------
# closed curved geometry: circle identities
# --------------------------------------------------------------------------


def test_circle_galerkin_constant_density():
    R = 0.8
    curve = circle(R)
    A = galerkin_matrix(curve)
    assert np.max(np.abs(A - A.T)) == 0.0
    ones = np.ones(A.shape[0])
    mass = galerkin_rhs(curve, lambda ts: np.ones_like(ts))
    assert np.allclose(A @ ones, -R * np.log(R) * mass, atol=5e-11)


def test_circle_pointwise_constant_density():
    R = 0.8
    curve = circle(R).refined([0.1, 0.1, 0.37])
    ones = np.ones(curve.knots.dim)
    # both seam parameters included: t = 1 must read the same windows as t = 0,
    # and so must -1e-17, whose reduction into the period rounds onto t = 1
    params = np.array([0.0, 0.02, 0.1, 0.100001, 0.26, 0.5, 0.93, 1.0, -1e-17])
    vals = single_layer_values(curve, ones, params)
    assert np.allclose(vals, -R * np.log(R), atol=1e-11)


def test_spd_on_benchmark_meshes():
    for curve in (slit(), square(), pacman()):
        A = galerkin_matrix(curve)
        assert np.linalg.eigvalsh(A).min() > 0.0


def test_quadrature_order_stability(monkeypatch):
    for curve in (pacman(), square(), circle(0.8), _corner_graded(pacman(), 0)):
        A12 = galerkin_matrix(curve, order=12)
        A20 = galerkin_matrix(curve, order=20)
        assert np.max(np.abs(A12 - A20)) < 1e-12, curve
    # graded meshes of 150 elements and more, where far pairs of very
    # different sizes take the lower orders of the separated-pair rule,
    # against order 32 on every pair.  Order 16 on every pair meets it to
    # 2.1e-15 of max|A| on these meshes; the rule at tolerance 1e-16 instead
    # of 1e-20 misses by 1.1e-14.  Scaled by the diagonal, the entries of
    # the smallest elements (2e-12 to 6e-11) count too: nodes or chords
    # taken from rounded parameters spread them by 1e-7 to 1e-5
    graded = (_corner_graded(slit(), 7, 40), _corner_graded(pacman(), 2, 30),
              _corner_graded(square(), 2, 30))
    A = [galerkin_matrix(curve) for curve in graded]
    monkeypatch.setattr(quadrature, "SEPARATED_ORDERS", ())
    for curve, A16 in zip(graded, A):
        assert curve.knots.n_elements >= 150
        A32 = galerkin_matrix(curve, order=32)
        assert np.max(np.abs(A16 - A32)) <= 5e-15 * np.max(np.abs(A32)), curve
        d = np.sqrt(np.diag(A32))
        assert np.max(np.abs(A16 - A32) / np.outer(d, d)) <= 1e-7, curve


# --------------------------------------------------------------------------
# pointwise single layer
# --------------------------------------------------------------------------


def test_pointwise_slit_exact():
    curve = slit().refined([0.3, 0.7, 0.7])
    ones = np.ones(curve.knots.dim)
    params = np.array([0.04, 0.3, 0.3 + 1e-9, 0.5, 0.65, 0.7 - 1e-7, 0.99])
    xs = -1.0 + 2.0 * params
    vals = single_layer_values(curve, ones, params)
    assert np.allclose(vals, v_one_slit(xs), atol=1e-11)


def test_collocation_applies_pointwise_potential():
    curve = slit().refined([0.3, 0.7, 0.7])
    B = collocation_matrix(curve)
    pts = curve.knots.collocation_points()
    ones = np.ones(curve.knots.dim)
    assert np.allclose(B @ ones, v_one_slit(-1.0 + 2.0 * pts), atol=1e-12)


def test_collocation_entry_against_quadrature():
    curve = slit().refined([0.5])
    B = collocation_matrix(curve)
    pts = curve.knots.collocation_points()
    assert np.allclose(pts, [1.0 / 6.0, 0.5, 5.0 / 6.0], atol=1e-15)
    # row 1, column 0: V applied to the first hat, evaluated at t = 1/2
    val, _ = quad(
        lambda t: hat(0, t) * np.log(2.0 * abs(0.5 - t)),
        0.0, 0.5, epsabs=1e-14, limit=300,
    )
    assert B[1, 0] == pytest.approx(-2.0 * val / (2.0 * np.pi), abs=1e-12)


def _corner_graded(curve, uniform_steps=3, depth=1):
    """``uniform_steps`` bisections, then ``depth`` refinements marking the
    corners and the ends of an open curve."""
    state = initial_state(curve)
    for _ in range(uniform_steps):
        state = uniform_refine(state)
    for _ in range(depth):
        curve = state.curve
        kv = curve.knots
        singular = np.concatenate(
            [curve.corner_params(), [] if curve.closed else [kv.a, kv.b]])
        marked = np.isclose(kv.nodes[:, None], singular[None, :],
                            rtol=0.0, atol=1e-12).any(axis=1)
        state = refine(state, np.flatnonzero(marked))
    return state.curve


def test_collocation_rows_match_pointwise():
    # far, graded-near and containing-element rules all occur at the targets;
    # the circle's collocation points straddle its periodic seam
    rng = np.random.default_rng(7)
    for curve in (pacman(), _corner_graded(pacman()), circle(0.8)):
        kv = curve.knots
        c = rng.standard_normal(kv.dim)
        B = collocation_matrix(curve)
        direct = single_layer_values(curve, c, kv.collocation_points())
        assert np.allclose(B @ c, direct, atol=1e-13), curve


def test_pointwise_pacman_against_scipy():
    curve = pacman()
    kv = curve.knots
    rng = np.random.default_rng(3)
    c = rng.standard_normal(kv.dim)
    x = 0.5
    px = curve.point(np.array([x]))[0]

    def integrand(t):
        ts = np.atleast_1d(t)
        first, R = rational_basis(kv, curve.basis_weights, ts)
        dens = float(np.sum(R[0, 0] * c[first[0] + np.arange(kv.degree + 1)]))
        pt = curve.point(ts)[0]
        return np.log(np.hypot(px[0] - pt[0], px[1] - pt[1])) * dens * curve.speed(ts)[0]

    pieces = []
    cuts = sorted(set(list(kv.breakpoints) + [x]))
    for a, b in zip(cuts[:-1], cuts[1:]):
        val, _ = quad(integrand, a, b, epsabs=1e-12, limit=400,
                      points=[x] if a <= x <= b else None)
        pieces.append(val)
    expected = -sum(pieces) / (2.0 * np.pi)
    got = single_layer_values(curve, c, np.array([x]))[0]
    assert got == pytest.approx(expected, abs=1e-9)


# --------------------------------------------------------------------------
# double layer
# --------------------------------------------------------------------------


def ones_of_points(pts):
    return np.ones(len(np.atleast_2d(pts)))


def gauss_nodes(curve, order):
    """Parameters of the order-point Gauss nodes of every element."""
    kv = curve.knots
    xg, _ = quadrature.gauss_unit(order)
    return (kv.elements[:, :1] + kv.widths[:, None] * xg).ravel()


def test_double_layer_of_one_is_minus_half():
    for curve in (circle(0.8), square(), pacman()):
        params = gauss_nodes(curve, 6)[::5]
        vals = double_layer_values(curve, ones_of_points, params)
        assert np.allclose(vals, -0.5, atol=1e-10), curve


def test_double_layer_vanishes_on_slit():
    curve = slit()
    params = np.array([0.1, 0.45, 0.8])
    vals = double_layer_values(curve, ones_of_points, params)
    assert np.allclose(vals, 0.0, atol=1e-14)
    linear = double_layer_values(curve, lambda pts: pts[:, 0], params)
    assert np.allclose(linear, 0.0, atol=1e-14)


def test_double_layer_circle_projects_to_mean():
    # on a circle the kernel is constant, so K g = -mean(g over the circle)/2
    R = 0.8
    curve = circle(R)
    params = np.array([0.03, 0.31, 0.55, 0.77])
    gx = double_layer_values(curve, lambda pts: pts[:, 0], params)
    assert np.allclose(gx, 0.0, atol=1e-12)
    f = dirichlet_rhs(curve, lambda pts: pts[:, 0], params)
    assert np.allclose(f, 0.5 * curve.point(params)[:, 0], atol=1e-12)


def test_double_layer_exact_near_nodes_of_own_element():
    # targets 1e-7 to 1e-4 from the Gauss nodes of their own element, where
    # the divided difference of two rounded curve points loses about
    # eps |gamma| / delta^2 (3.8e-6 here when the kernel was formed that way);
    # on a circle the kernel is constant, so K x vanishes
    curve = circle(0.8)
    nodes = gauss_nodes(curve, 16)
    offsets = np.array([-1e-4, -1e-6, -1e-7, 1e-7, 1e-6, 1e-4])
    params = (nodes[::5][:, None] + offsets[None, :]).ravel()
    vals = double_layer_values(curve, lambda pts: pts[:, 0], params)
    np.testing.assert_allclose(vals, 0.0, rtol=0.0, atol=1e-13)


def test_dirichlet_rhs_matches_normal_derivative_on_pacman():
    # u = x is harmonic with grad u = (1, 0), so V(nu_x) = (K + 1/2)(x) on
    # the boundary; nu_x |gamma'| is the rotated tangent component gamma_2'.
    curve = pacman()
    targets = np.array([0.09, 0.5, 0.74])
    f = dirichlet_rhs(curve, lambda pts: pts[:, 0], targets)
    for x, fx in zip(targets, f):
        px = curve.point(np.array([x]))[0]

        def integrand(t, x_pt=px):
            ts = np.atleast_1d(t)
            fr = curve.frame(ts, 1)
            pt = fr[0, 0]
            return np.log(np.hypot(x_pt[0] - pt[0], x_pt[1] - pt[1])) * fr[0, 1, 1]

        pieces = []
        cuts = sorted(set(list(curve.knots.breakpoints) + [float(x)]))
        for a, b in zip(cuts[:-1], cuts[1:]):
            val, _ = quad(integrand, a, b, epsabs=1e-12, limit=400,
                          points=[float(x)] if a <= x <= b else None)
            pieces.append(val)
        v_phi = -sum(pieces) / (2.0 * np.pi)
        assert fx == pytest.approx(v_phi, abs=1e-8)


def test_dirichlet_rhs_continuous_across_smooth_junctions():
    # the pacman arcs meet tangentially at t = 7/18 and 11/18, where its
    # collocation points sit; the graded rule of the neighbouring element
    # puts nodes within ~1e-14 of such a target, and a divided difference of
    # two rounded curve points there once moved (K + 1/2) g by 2e-3.  The
    # data is symmetric about the x axis, so both junctions share one value.
    curve = pacman()
    offsets = np.array([0.0, -1e-14, 1e-14, -1e-12, 1e-12, -1e-10, 1e-10])
    near = []
    for j in (7.0 / 18.0, 11.0 / 18.0):
        vals = dirichlet_rhs(curve, pacman_trace, j + offsets)
        away = dirichlet_rhs(curve, pacman_trace, j + np.array([-1e-8, 1e-8]))
        # the value 1e-8 away on either side brackets the limit to 3e-11
        assert np.all(np.abs(vals - away.mean()) < 1e-9), (j, vals, away)
        near.append(vals)
    np.testing.assert_allclose(near[0], near[1], rtol=0, atol=1e-9)


def test_double_layer_near_corners_keeps_angle_mass():
    # targets 1e-14 to 1e-6 on either side of every breakpoint of the
    # square, the pacman and a circle.  The graded rule of the neighbouring
    # element puts nodes that close to them; across a corner those nodes
    # carry most of the corner's angle (about 0.25 on the square), so K 1 =
    # -1/2 holds only if gamma(x) - gamma(t) keeps its digits there.  On a
    # circle the kernel is constant, so K x vanishes.  Differences of two
    # rounded curve points missed by up to 2.3e-5 on the square and 1.7e-4
    # on the pacman, and read K x = 3.4e-9 on the circle.
    offsets = np.array([s * 10.0 ** -k for k in range(6, 15) for s in (-1, 1)])
    for curve in (square(), pacman(), circle(0.8)):
        kv = curve.knots
        params = kv.wrap((kv.nodes[:, None] + offsets).ravel())
        vals = double_layer_values(curve, ones_of_points, params)
        np.testing.assert_allclose(vals, -0.5, rtol=0, atol=1e-14, err_msg=str(kv))
    linear = double_layer_values(curve, lambda pts: pts[:, 0], params)
    np.testing.assert_allclose(linear, 0.0, rtol=0, atol=1e-14)


def test_galerkin_rhs_mass_of_one():
    curve = pacman()
    b = galerkin_rhs(curve, lambda ts: np.ones_like(ts))
    assert b.sum() == pytest.approx(curve.element_lengths.sum(), rel=1e-12)
