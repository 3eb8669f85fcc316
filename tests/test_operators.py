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

import logging
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from igabem import operators, quadrature
from igabem.adaptivity import initial_state, refine, uniform_refine
from igabem.experiments import pacman_trace, square_trace
from igabem.geometry import Curve, pacman, slit, square
from igabem.operators import (
    collocation_matrix,
    dirichlet_rhs,
    double_layer_values,
    galerkin_matrix,
    galerkin_rhs,
    single_layer_values,
)
from igabem.splines import KnotVector, nearer_end, rational_basis

from helpers import circle, fresh, parity_curves, slit_single_layer

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
    assert np.allclose(A @ ones, -R * np.log(R) * mass, rtol=0, atol=5e-11)


def test_circle_pointwise_constant_density():
    R = 0.8
    curve = circle(R).refined([0.1, 0.1, 0.37])
    ones = np.ones(curve.knots.dim)
    # both seam parameters included: t = 1 must read the same windows as t = 0,
    # and so must -1e-17, whose reduction into the period rounds onto t = 1
    params = np.array([0.0, 0.02, 0.1, 0.100001, 0.26, 0.5, 0.93, 1.0, -1e-17])
    vals = single_layer_values(curve, ones, params)
    np.testing.assert_allclose(vals, -R * np.log(R), rtol=0.0, atol=1e-11)


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
    assert np.allclose(vals, v_one_slit(xs), rtol=0, atol=1e-11)


def test_collocation_applies_pointwise_potential():
    curve = slit().refined([0.3, 0.7, 0.7])
    B = collocation_matrix(curve)
    pts = curve.knots.collocation_points()
    ones = np.ones(curve.knots.dim)
    assert np.allclose(B @ ones, v_one_slit(-1.0 + 2.0 * pts), rtol=0, atol=1e-12)


def test_collocation_entry_against_quadrature():
    curve = slit().refined([0.5])
    B = collocation_matrix(curve)
    pts = curve.knots.collocation_points()
    assert np.allclose(pts, [1.0 / 6.0, 0.5, 5.0 / 6.0], rtol=0, atol=1e-15)
    # row 1, column 0: V applied to the first hat, evaluated at t = 1/2
    val, _ = quad(
        lambda t: hat(0, t) * np.log(2.0 * abs(0.5 - t)),
        0.0, 0.5, epsabs=1e-14, limit=300,
    )
    assert B[1, 0] == pytest.approx(-2.0 * val / (2.0 * np.pi), abs=1e-12)


def test_collocation_rejects_corner_points():
    # the square's initial collocation points 1/4, 1/2 and 3/4 are corners,
    # where the jump factor depends on the interior angle
    with pytest.raises(ValueError, match=r"t=0\.25 lies on a corner"):
        collocation_matrix(square(), 8)


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
        assert np.allclose(B @ c, direct, rtol=0, atol=1e-13), curve


@pytest.mark.parametrize("targets_per_block", [1, 7])
def test_potentials_do_not_depend_on_blocking(monkeypatch, targets_per_block):
    # the far field and the containing element run in blocks of targets of
    # two budgets, and the near pairs are collected block by block; each
    # target's row must come out bit for bit the same whatever the blocks,
    # for parameter targets and for element-local ones
    rng = np.random.default_rng(11)
    q = operators.DEFAULT_ORDER

    def g(pts):
        return pts[:, 0] ** 2 + np.sin(pts[:, 1])

    def potentials(curve, params, c):
        u, local_params = _samples(curve, 6)
        return (single_layer_values(curve, c, params), collocation_matrix(curve),
                double_layer_values(curve, g, params),
                single_layer_values(curve, c, local_params, local=u))

    for curve in (slit(), pacman(), _corner_graded(pacman()), circle(0.8)):
        kv = curve.knots
        params = np.concatenate([rng.uniform(kv.a, kv.b, 50), kv.breakpoints[1:-1]])
        c = rng.standard_normal(kv.dim)
        default = potentials(curve, params, c)
        monkeypatch.setattr(operators, "_FAR_BLOCK",
                            float(targets_per_block * kv.n_elements * q))
        for got, want in zip(potentials(curve, params, c), default):
            np.testing.assert_array_equal(got, want)
        monkeypatch.undo()


def test_log_dist_against_mpmath():
    # 1/2 log(dx^2 + dy^2) against log |(dx, dy)| in 40 digits, over
    # directions of every quadrant and distances from 1e-28 to 1e2
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(5)
    r = 10.0 ** rng.uniform(-28.0, 2.0, 4000)
    angle = rng.uniform(0.0, 2.0 * np.pi, 4000)
    dx, dy = r * np.cos(angle), r * np.sin(angle)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = operators._log_dist(dx.copy(), dy.copy())
        at_zero = operators._log_dist(np.zeros(1), np.zeros(1), 1e-300)
    assert np.isfinite(at_zero).all()
    with mpmath.workdps(40):
        exact = np.array([float(mpmath.log(mpmath.hypot(mpmath.mpf(a), mpmath.mpf(b))))
                          for a, b in zip(dx, dy)])
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - exact) <= 2.0 * eps * np.maximum(1.0, np.abs(np.log(r))))


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
        assert np.allclose(vals, -0.5, rtol=0, atol=1e-10), curve


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
    assert np.allclose(f, 0.5 * curve.point(params)[:, 0], rtol=0, atol=1e-12)


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


# --------------------------------------------------------------------------
# singular blocks by content key, carried across steps
# --------------------------------------------------------------------------

MEMO_CURVES = {"slit": slit, "square": square, "pacman": pacman,
               "circle": lambda: circle(0.8)}


def _random_steps(curve, steps, seed):
    """The curve's initial state and ``steps`` refinements, each marking a
    random quarter of the nodes and every corner and open end: bisections,
    closures and (at degree 2) raised multiplicities."""
    rng = np.random.default_rng(seed)
    state = initial_state(curve)
    yield state.curve
    for _ in range(steps):
        curve = state.curve
        kv = curve.knots
        singular = np.concatenate(
            [curve.corner_params(), [] if curve.closed else [kv.a, kv.b]])
        marked = np.isclose(kv.nodes[:, None], singular[None, :],
                            rtol=0.0, atol=1e-12).any(axis=1)
        marked |= rng.random(len(marked)) < 0.25
        state = refine(state, np.flatnonzero(marked))
        yield state.curve


@pytest.mark.parametrize("name", list(MEMO_CURVES))
def test_duffy_blocks_do_not_depend_on_the_batch(name):
    # the memo gathers blocks computed in other batches and reuses them
    # across meshes, which is only sound if a block's bits are its own
    curve = list(_random_steps(MEMO_CURVES[name](), 4, seed=3))[-1]
    kv = curve.knots
    e = np.arange(kv.n_elements)
    et, es = kv.patches[kv.touching].T
    B, M = operators._duffy_blocks(curve, 16, e, et, es)
    rng = np.random.default_rng(5)
    for _ in range(4):
        ie = rng.choice(len(e), rng.integers(1, len(e) + 1))
        it = rng.choice(len(et), rng.integers(1, len(et) + 1))
        Bs, Ms = operators._duffy_blocks(curve, 16, e[ie], et[it], es[it])
        assert np.array_equal(Bs, B[ie]) and np.array_equal(Ms, M[it])
    for i, j in ((0, 0), (len(e) - 1, len(et) - 1)):  # batches of one
        Bs, Ms = operators._duffy_blocks(curve, 16, e[[i]], et[[j]], es[[j]])
        assert np.array_equal(Bs[0], B[i]) and np.array_equal(Ms[0], M[j])


@pytest.mark.parametrize("name", ["slit", "square", "pacman"])
def test_memo_carried_across_adaptive_steps(name):
    # the refined curves share one store: on it each step's matrix is the
    # bits of a fresh curve's, and it keeps every key of the current mesh,
    # which a fresh curve's store holds alone
    steps = list(_random_steps(MEMO_CURVES[name](), 8, seed=11))
    for curve in steps:
        assert curve._blocks is steps[0]._blocks
        A = galerkin_matrix(curve)
        clean = fresh(curve)
        assert np.array_equal(A, galerkin_matrix(clean))
        keys = set(operators._singular_keys(curve, 16))
        assert keys <= set(curve._blocks)
        assert set(clean._blocks) == keys


def test_memo_carried_across_uniform_steps():
    # every element of a width has the same tables on the straight slit:
    # one identical and one touching block per step, and no width recurs,
    # so each step adds its two keys to the store and evicts none
    state = initial_state(slit())
    for step in range(8):
        state = uniform_refine(state)
        A = galerkin_matrix(state.curve)
        clean = fresh(state.curve)
        assert np.array_equal(A, galerkin_matrix(clean))
        assert len(clean._blocks) == 2
        assert len(state.curve._blocks) == 2 * (step + 1)


@pytest.mark.parametrize("change", ["control", "weight", "order"])
def test_memo_keys_cover_every_input(change, monkeypatch):
    curve = list(_random_steps(pacman(), 3, seed=2))[-1]
    galerkin_matrix(curve)
    warm = dict(curve._blocks)
    order, changed = 16, set()
    if change == "order":
        order = 12
    else:  # same knots, row 3 edited: the elements whose window holds it change
        controls, weights = curve.controls.copy(), curve.weights.copy()
        if change == "control":
            controls[3] += 1e-3
        else:
            weights[3] *= 1.25
        first = curve.knots.element_table[0]
        changed = set(np.flatnonzero((first <= 3) & (3 <= first + curve.degree)).tolist())
        curve = Curve(curve.knots, controls, weights)
    want = galerkin_matrix(fresh(curve), order)
    computed = []
    duffy = operators._duffy_blocks

    def spy(curve, order, e, et, es):
        computed.append(len(e) + len(et))
        return duffy(curve, order, e, et, es)

    monkeypatch.setattr(operators, "_duffy_blocks", spy)
    curve = fresh(curve)  # a new lineage, its store filled from the warm one
    curve._blocks.update(warm)
    assert np.array_equal(galerkin_matrix(curve, order), want)
    keys = operators._singular_keys(curve, order)
    missing = set(keys) - set(warm)
    assert computed == [len(missing)]
    n_el = curve.knots.n_elements
    et, es = curve.knots.patches[curve.knots.touching].T
    for i, k in enumerate(keys):
        pair = {i} if i < n_el else {int(et[i - n_el]), int(es[i - n_el])}
        # a key is recomputed exactly when its elements changed
        assert (k in missing) == (change == "order" or bool(pair & changed)), i
    assert set(curve._blocks) == set(warm) | set(keys)


def test_grid_is_built_once_per_curve_and_order():
    curve = pacman()
    points, wbasis, xy = operators._grid(curve, 16)
    assert operators._grid(curve, 16)[0] is points
    assert not any(a.flags.writeable for a in (points, wbasis, xy))
    # the far field's x and y rows: contiguous copies of the points
    assert xy.flags.c_contiguous and np.array_equal(xy, points.reshape(-1, 2).T)
    assert operators._grid(curve, 12)[0].shape == (curve.knots.n_elements, 12, 2)
    refined = curve.refined([0.5])
    assert operators._grid(refined, 16)[0].shape[0] == curve.knots.n_elements + 1


def _straight_quadratic(breakpoints):
    """The slit as a degree-2 B-spline with its controls at the Greville
    abscissae, so gamma(t) = (2 t - 1, 0) whatever the knots."""
    kv = KnotVector(2, breakpoints, (3,) + (1,) * (len(breakpoints) - 2) + (3,))
    g = 0.5 * (kv.eval_knots[1:-2] + kv.eval_knots[2:-1])
    return Curve(kv, np.column_stack([2.0 * g - 1.0, 0.0 * g]), np.ones(len(g)))


def test_memo_key_sees_a_basis_window_change():
    # moving the knot 1/4 to 3/16 changes the basis window of the element
    # [1/2, 3/4] but, on this line, not one bit of its width or its frame
    # table: only the basis table tells the two blocks apart
    before = _straight_quadratic((0.0, 0.25, 0.5, 0.75, 1.0))
    after = _straight_quadratic((0.0, 0.1875, 0.5, 0.75, 1.0))
    cols = slice(4, 6)  # the two ends of element 2
    assert np.array_equal(before._frame_table[:, cols], after._frame_table[:, cols])
    assert not np.array_equal(before._basis_table[:, cols], after._basis_table[:, cols])
    galerkin_matrix(before)
    warm = set(before._blocks)
    after._blocks.update(before._blocks)
    assert np.array_equal(galerkin_matrix(after), galerkin_matrix(fresh(after)))
    assert operators._singular_keys(after, 16)[2] not in warm


# --------------------------------------------------------------------------
# residual samples as element-local targets: near blocks by content key
# --------------------------------------------------------------------------

def _three_element_loop():
    """A closed triangle of three unequal elements, where some element
    ends have a neighbour whose rule grades toward its other end."""
    kv = KnotVector(1, (0.0, 0.2, 0.5, 1.0), (2, 1, 1, 2), periodic=True)
    controls = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8], [0.0, 0.0]])
    return Curve(kv, controls, np.ones(4))


def _uniform_slit(steps):
    state = initial_state(slit())
    for _ in range(steps):
        state = uniform_refine(state)
    return state.curve


# the straight quadratic's elements [1/2, 3/4] and [3/4, 1] have the same
# width and frame table; only their basis windows tell their blocks apart
SAMPLE_CURVES = (list(parity_curves())
                 + [_uniform_slit(6), _corner_graded(slit(), 2, 3), square(),
                    pacman(), circle(0.8), _three_element_loop(),
                    _straight_quadratic((0.0, 0.1875, 0.5, 0.75, 1.0))])


def _samples(curve, q):
    u, _ = quadrature.gauss_unit(q)
    kv = curve.knots
    return u, kv.elements[:, :1] + kv.widths[:, None] * u


def _keyed(curve, targets):
    """The target rows' keyed neighbours and near decision, as ``_potential``
    passes them on."""
    return operators._keyed_near(curve, operators._sample_neighbours(curve),
                                 targets[0], targets[2])


def _near_keys(curve, targets):
    own, ends = operators._sample_keys(curve, 16, targets, _keyed(curve, targets)[0])
    return set(own) | set(ends) - {None}


@pytest.mark.parametrize("k", range(len(SAMPLE_CURVES)))
def test_element_local_targets_match_parameters(k):
    # the keyed near blocks against the per-target rules at the same
    # parameters, on meshes with elements down to 1e-12, closed curves of
    # four and three elements and a uniform slit where all blocks coincide
    curve = SAMPLE_CURVES[k]
    c = np.random.default_rng(k).standard_normal(curve.knots.dim)
    for q in (6, 7):
        u, params = _samples(curve, q)
        got = single_layer_values(curve, c, params, local=u)
        want = single_layer_values(curve, c, params.ravel()).reshape(params.shape)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


def test_element_local_targets_keep_unkeyed_neighbours():
    # on the three-element loop some neighbours grade away from the shared
    # node and keep the graded rule by parameter; a wrong shape is refused
    curve = _three_element_loop()
    nb = operators._sample_neighbours(curve)
    assert (nb < 0).any() and (nb >= 0).any()
    u, params = _samples(curve, 6)
    with pytest.raises(ValueError, match="shape"):
        single_layer_values(curve, np.ones(4), params.ravel(), local=u)


@pytest.mark.parametrize("name", ["slit", "pacman"])
def test_targets_on_the_far_grid_nodes(name):
    # targets at the grid's own Gauss nodes sit at r = 0 from a node of
    # their own element: the far field, which forms log r^2 without a floor,
    # takes log 0 there and zeroes it as near, with no RuntimeWarning (an
    # error in this suite)
    if name == "slit":
        curve = _uniform_slit(5)
    else:
        curve = list(_random_steps(pacman(), 3, seed=4))[-1]
    u, params = _samples(curve, 16)
    frames, _ = curve.at_nodes(np.arange(curve.knots.n_elements)[:, None],
                               *nearer_end(u), absolute=True)
    assert np.array_equal(frames[..., 0, :], operators._grid(curve, 16)[0])
    c = np.random.default_rng(8).standard_normal(curve.knots.dim)
    got = single_layer_values(curve, c, params, local=u)
    assert np.isfinite(got).all()
    if name == "slit":
        want = slit_single_layer(curve, c, params.ravel()).reshape(params.shape)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("name", list(MEMO_CURVES))
def test_sample_blocks_do_not_depend_on_the_batch(name):
    # each distinct key is computed on its first element and gathered for
    # the others, which is only sound if a block's bits are its own
    curve = list(_random_steps(MEMO_CURVES[name](), 4, seed=3))[-1]
    targets = operators._local_targets(curve, quadrature.gauss_unit(6)[0])
    e = np.arange(curve.knots.n_elements)
    nb, near = _keyed(curve, targets)
    ends = np.flatnonzero(nb.ravel() >= 0)
    own, touch, _ = operators._sample_near_blocks(curve, 16, targets, nb, near, e, ends)
    assert np.abs(touch).max() > 0.0
    rng = np.random.default_rng(5)
    for _ in range(4):
        ie = rng.choice(len(e), rng.integers(1, len(e) + 1))
        it = rng.choice(len(ends), rng.integers(1, len(ends) + 1))
        o, t, _ = operators._sample_near_blocks(curve, 16, targets, nb, near, e[ie],
                                                ends[it])
        assert np.array_equal(o, own[ie]) and np.array_equal(t, touch[it])
    for i, j in ((0, 0), (len(e) - 1, len(ends) - 1)):  # batches of one
        o, t, _ = operators._sample_near_blocks(curve, 16, targets, nb, near, e[[i]],
                                                ends[[j]])
        assert np.array_equal(o[0], own[i]) and np.array_equal(t[0], touch[j])


def test_sample_blocks_on_uniform_slit():
    # every element of the uniform slit has the same tables: one own block
    # and one block per side, whatever the mesh size
    for steps in (3, 6):
        curve = _uniform_slit(steps)
        targets = operators._local_targets(curve, quadrature.gauss_unit(6)[0])
        own, ends = operators._sample_keys(curve, 16, targets, _keyed(curve, targets)[0])
        assert len(set(own)) == 1
        assert len(set(ends) - {None}) == 2


@pytest.mark.parametrize("change", ["control", "weight", "q_int", "order"])
def test_sample_keys_cover_every_input(change, monkeypatch):
    curve = list(_random_steps(pacman(), 3, seed=2))[-1]
    order, u = 16, quadrature.gauss_unit(6)[0]
    targets = operators._local_targets(curve, u)
    nb, near = _keyed(curve, targets)  # every change below keeps the knots
    own0, ends0 = operators._sample_keys(curve, order, targets, nb)
    blocks0, _ = operators._sample_blocks(curve, order, targets, nb, near)
    changed = set()
    if change == "q_int":
        u = quadrature.gauss_unit(7)[0]
    elif change == "order":
        order = 12
    else:  # same knots, row 3 edited: the elements whose window holds it change
        controls, weights = curve.controls.copy(), curve.weights.copy()
        if change == "control":
            controls[3] += 1e-3
        else:
            weights[3] *= 1.25
        first = curve.knots.element_table[0]
        changed = set(np.flatnonzero((first <= 3) & (3 <= first + curve.degree)).tolist())
        curve = Curve(curve.knots, controls, weights)
    every = change in ("q_int", "order")
    targets = operators._local_targets(curve, u)
    near = _keyed(curve, targets)[1]
    own1, ends1 = operators._sample_keys(curve, order, targets, nb)
    for e in range(curve.knots.n_elements):
        # a key changes exactly when its elements changed
        assert (own1[e] != own0[e]) == (every or e in changed), e
        for side in (0, 1):
            k, f = 2 * e + side, int(nb[e, side])
            assert (ends1[k] is None) == (f < 0) == (ends0[k] is None)
            if f >= 0:
                assert (ends1[k] != ends0[k]) == (every or bool({e, f} & changed)), k

    computed = []
    near_blocks = operators._sample_near_blocks

    def spy(curve, order, targets, nb, near, e, ends, pairs=None):
        computed.append((len(e), len(ends)))
        return near_blocks(curve, order, targets, nb, near, e, ends, pairs)

    monkeypatch.setattr(operators, "_sample_near_blocks", spy)
    blocks, _ = operators._sample_blocks(curve, order, targets, nb, near)
    # each distinct key once, and the gathered stack equals a fresh
    # evaluation of every element, then of every keyed end in order
    assert computed == [(len(set(own1)), len(set(ends1) - {None}))]
    keyed = np.flatnonzero(nb.ravel() >= 0)
    fresh_own, fresh_touch, _ = near_blocks(curve, order, targets, nb, near,
                                            np.arange(len(own1)), keyed)
    own = blocks[:len(own1)]
    assert np.array_equal(own, fresh_own)
    assert np.array_equal(blocks[len(own1):], fresh_touch)
    for e in set(range(len(own1))) - changed:
        if not every:  # an unchanged element keeps its block bit for bit
            assert np.array_equal(own[e], blocks0[e]), e


@pytest.mark.parametrize("name", ["slit", "square", "pacman"])
def test_sample_memo_carried_across_adaptive_steps(name):
    # on the lineage's store each step's values are the bits of a fresh
    # curve's, and the store keeps every key of the current mesh, which a
    # fresh curve's store holds alone
    rng = np.random.default_rng(13)
    steps = list(_random_steps(MEMO_CURVES[name](), 8, seed=11))
    for curve in steps:
        u, params = _samples(curve, 6)
        c = rng.standard_normal(curve.knots.dim)
        got = single_layer_values(curve, c, params, local=u)
        clean = fresh(curve)
        assert np.array_equal(got, single_layer_values(clean, c, params, local=u))
        keys = _near_keys(curve, operators._local_targets(curve, u))
        assert keys <= set(steps[0]._blocks)
        assert set(clean._blocks) == keys


def _collocation_steps(name, steps, seed):
    """``_random_steps`` of a curve, less the meshes whose collocation
    points hit a corner, which ``collocation_matrix`` refuses."""
    for curve in _random_steps(MEMO_CURVES[name](), steps, seed):
        gaps = curve.param_delta(curve.knots.collocation_points()[:, None],
                                 curve.corner_params()[None, :])
        if not (np.abs(gaps) < 1e-12).any():
            yield curve


@pytest.mark.parametrize("name", ["slit", "pacman", "circle"])
def test_collocation_memo_carried_across_adaptive_steps(name):
    # the collocation rows' own and neighbour blocks are keyed by content:
    # on the store carried from mesh to mesh the matrix is the bits of a
    # fresh curve's, and the store keeps every key of the current mesh,
    # which a fresh curve's store holds alone
    stores, meshes = set(), 0
    for curve in _collocation_steps(name, 8, seed=11):
        stores.add(id(curve._blocks))
        B = collocation_matrix(curve)
        clean = fresh(curve)
        assert np.array_equal(B, collocation_matrix(clean))
        keys = _near_keys(curve, operators._param_targets(
            curve, curve.knots.collocation_points()))
        assert keys <= set(curve._blocks)
        assert set(clean._blocks) == keys
        meshes += 1
    assert len(stores) == 1
    assert meshes >= 6


@pytest.mark.parametrize("name", ["slit", "pacman", "circle"])
def test_keyed_near_decision_matches_parameter_mask(name):
    # a keyed neighbour is near a parameter target when its offset from the
    # shared node is below NEAR_FACTOR widths of the neighbour; the far
    # field's mask by parameter distance to the element says the same, but
    # at a tie |offset| = NEAR_FACTOR h', which the pacman's collocation
    # points meet, where each test rounds its own way (both rules are
    # accurate to rounding at that distance)
    rng, seen = np.random.default_rng(3), set()
    for curve in _collocation_steps(name, 8, seed=11):
        kv = curve.knots
        params = np.concatenate([kv.collocation_points(), kv.breakpoints[:-1],
                                 rng.uniform(kv.a, kv.b, 100)])
        row, _, offset = operators._param_targets(curve, params)
        nb, near = operators._keyed_near(curve, operators._sample_neighbours(curve),
                                         row, offset)
        hs = kv.widths[nb]
        tie = np.abs(np.abs(offset[..., 0]) / hs - operators.NEAR_FACTOR) < 1e-12
        keyed = (nb >= 0) & ~tie
        gap = np.abs(curve.param_delta(params[:, None], kv.elements[nb].mean(axis=2)))
        by_parameter = np.maximum(gap - 0.5 * hs, 0.0) < operators.NEAR_FACTOR * hs
        np.testing.assert_array_equal(near[..., 0][keyed], by_parameter[keyed])
        seen |= set(near[..., 0][keyed].tolist())
    assert seen == {False, True}


def _dirichlet_targets(curve, rng):
    """Corners, parameters 1e-9 either side of them, element midpoints and
    random parameters."""
    corners = curve.corner_params()
    return np.concatenate([corners, (corners + 1e-9) % 1.0, (corners - 1e-9) % 1.0,
                           curve.knots.elements.mean(axis=1), rng.uniform(0.0, 1.0, 40)])


@pytest.mark.parametrize("make, trace", [(pacman, pacman_trace), (square, square_trace)],
                         ids=["pacman", "square"])
def test_double_layer_tables_kept_on_the_curve(make, trace, caplog):
    # each call on one curve reads the tables that the calls before it kept
    # there, and gives the bits of the same call on a fresh curve
    curve, rng = make(), np.random.default_rng(17)
    ts = _dirichlet_targets(curve, rng)
    calls = [ts[:30], rng.permutation(ts), ts[10:][::-1], rng.choice(ts, 25)]
    for call in calls:
        for fn in (double_layer_values, dirichlet_rhs):
            np.testing.assert_array_equal(fn(curve, trace, call), fn(make(), trace, call))
    # every graded group of this call was met before: no table is computed
    caplog.set_level(logging.DEBUG, logger="igabem.operators")
    double_layer_values(curve, trace, calls[1])
    assert [r.getMessage().split(",")[0] for r in caplog.records] == [
        "double-layer tables: 0 computed"]


def test_double_layer_tables_follow_data_and_order():
    # a second g, or a second order, on a curve whose tables are warm is
    # never served the first one's tables
    curve, rng = pacman(), np.random.default_rng(19)
    ts = _dirichlet_targets(curve, rng)
    double_layer_values(curve, pacman_trace, ts)

    def shifted(pts):
        return 2.0 * pacman_trace(pts) + 1.0

    for g, order in ((shifted, 16), (pacman_trace, 12)):
        np.testing.assert_array_equal(double_layer_values(curve, g, ts, order),
                                      double_layer_values(pacman(), g, ts, order))
