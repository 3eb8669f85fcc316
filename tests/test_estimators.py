"""Estimator tests against hand-derived patch integrals and scipy quadrature.

The slit gamma(t) = (2t - 1, 0) has constant speed 2, so arclength from the
left tip is sigma = 2t and every patch integral can be done by hand in sigma.
For a residual r that is LINEAR in arclength with slope a, the Faermann
integrand is identically a^2, hence

    eta(z)^2 = a^2 |omega(z)|^2 = |omega(z)| * int_omega (r')^2 = mu_arc(z)^2

on every patch, an exact equality this suite leans on repeatedly.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from igabem.adaptivity import initial_state, uniform_refine
from igabem.estimators import (
    ResidualData,
    faermann_indicators,
    partition_quality,
    residual_indicators,
    sample_residual,
)
from igabem.experiments import run_adaptive
from igabem.geometry import Curve, pacman, slit, square
from igabem.operators import galerkin_matrix, galerkin_rhs
from igabem.quadrature import gauss_unit
from igabem.solve import solve_linear
from igabem.splines import KnotVector

from helpers import circle, slit_single_layer


def _scalar_geometry(curve):
    @lru_cache(maxsize=None)
    def geom(t):
        fr = curve.frame(np.array([t]), 1)
        return (
            float(fr[0, 0, 0]),
            float(fr[0, 0, 1]),
            float(np.hypot(fr[0, 1, 0], fr[0, 1, 1])),
        )

    return geom


def _seminorm_integrand(curve, R, Rp):
    """Pointwise Faermann integrand with the diagonal limit (dR/dt)^2."""
    geom = _scalar_geometry(curve)

    def G(s, t):
        if abs(s - t) < 1e-12:
            return Rp(t) ** 2
        xs, ys, sps = geom(s)
        xt, yt, spt = geom(t)
        d2 = (xs - xt) ** 2 + (ys - yt) ** 2
        dr = R(s) - R(t)
        return dr * dr * sps * spt / d2

    return G


def _patch_seminorm_dblquad(curve, R, Rp, elements):
    """eta(z)^2 for a two-element patch by adaptive quadrature."""
    G = _seminorm_integrand(curve, R, Rp)
    spans = [tuple(map(float, curve.knots.elements[e])) for e in elements]
    total = 0.0
    for lo, hi in spans:
        total += dblquad(lambda t, s: G(s, t), lo, hi, lo, hi,
                         epsabs=1e-12, epsrel=1e-9)[0]
    (l1, h1), (l2, h2) = spans
    total += 2.0 * dblquad(lambda t, s: G(s, t), l1, h1, l2, h2,
                           epsabs=1e-12, epsrel=1e-9)[0]
    return total


# --------------------------------------------------------------------------
# residual grid
# --------------------------------------------------------------------------


def test_residual_grid_layout():
    curve = slit().refined([0.4])
    res = ResidualData.from_function(curve, lambda t: t * (1 - t), q_int=7)
    assert res.params.shape == (2, 7)
    assert np.all(res.params[0] < 0.4) and np.all(res.params[1] > 0.4)
    assert np.allclose(res.values, res.params * (1 - res.params))


def test_sample_residual_default_order():
    curve = slit().refined([0.5])
    c = np.zeros(curve.knots.dim)
    res = sample_residual(curve, c, lambda t: np.ones_like(t))
    assert res.q_int == max(curve.degree + 2, 6)
    assert np.allclose(res.values, 1.0)


# --------------------------------------------------------------------------
# straight-line closed forms
# --------------------------------------------------------------------------


def test_linear_residual_eta_equals_mu():
    # the second mesh has 255 touching nodes, so the element squares and the
    # cross terms both run more than one block of the seminorm kernel
    for cuts in ([0.25, 0.5, 0.75], np.arange(1, 256) / 256):
        curve = slit().refined(cuts)
        res = ResidualData.from_function(curve, lambda t: 0.7 * t - 0.3, q_int=6)
        eta2 = faermann_indicators(res)
        mu2_arc = residual_indicators(res, weight="arclength")
        mu2_par = residual_indicators(res, weight="parameter")
        assert np.allclose(eta2, mu2_arc, rtol=1e-12, atol=0)
        # the slit halves parameter lengths relative to arclength
        assert np.allclose(mu2_par, 0.5 * mu2_arc, rtol=1e-13, atol=0)


@settings(max_examples=25, deadline=None)
@given(
    cuts=st.lists(st.floats(0.05, 0.95), max_size=5, unique=True),
    slope=st.floats(-2.0, 2.0),
    offset=st.floats(-1.0, 1.0),
)
def test_linear_equality_random_meshes(cuts, slope, offset):
    cuts = sorted(cuts)
    if any(b - a < 0.01 for a, b in zip(cuts, cuts[1:])):
        cuts = list(np.linspace(0.2, 0.8, len(cuts)))
    curve = slit().refined(cuts) if cuts else slit()
    res = ResidualData.from_function(
        curve, lambda t: slope * t + offset, q_int=5
    )
    eta2 = faermann_indicators(res)
    mu2 = residual_indicators(res, weight="arclength")
    assert np.allclose(eta2, mu2, rtol=1e-9, atol=1e-16)


def test_quadratic_patch_closed_forms():
    # r(sigma) = sigma^2 in arclength from the left tip, i.e. R(t) = 4 t^2.
    # Divided differences give ((sigma1^2 - sigma2^2)/(sigma1 - sigma2))^2 =
    # (sigma1 + sigma2)^2, so each patch integral is elementary:
    #   node 1/2: iint_[0,2]^2 (x+y)^2 = 56/3,   mu^2 = 2 * int_0^2 (2x)^2 = 64/3
    #   node 0:   iint_[0,1]^2 (x+y)^2 = 7/6,    mu^2 = 1 * int_0^1 (2x)^2 = 4/3
    #   node 1:   iint_[1,2]^2 (x+y)^2 = 55/6,   mu^2 = 1 * int_1^2 (2x)^2 = 28/3
    curve = slit().refined([0.5])
    res = ResidualData.from_function(curve, lambda t: 4.0 * t**2, q_int=6)
    eta2 = faermann_indicators(res)
    mu2 = residual_indicators(res, weight="arclength")
    assert eta2 == pytest.approx([7.0 / 6.0, 56.0 / 3.0, 55.0 / 6.0], rel=1e-12)
    assert mu2 == pytest.approx([4.0 / 3.0, 64.0 / 3.0, 28.0 / 3.0], rel=1e-12)


def test_cubic_single_element_closed_forms():
    # R(t) = t^3 on the unrefined slit: the speeds and distances cancel to
    # ((s^3 - t^3)/(s - t))^2 = (s^2 + s t + t^2)^2, integrating to 37/30;
    # the derivative integral is int 9 t^4 / 2 = 9/10, times patch length 1.
    res = ResidualData.from_function(slit(), lambda t: t**3, q_int=6)
    eta2 = faermann_indicators(res)
    mu2 = residual_indicators(res, weight="parameter")
    assert eta2 == pytest.approx([37.0 / 30.0, 37.0 / 30.0], rel=1e-12)
    assert mu2 == pytest.approx([0.9, 0.9], rel=1e-12)


def _slit_mesh(name):
    if name == "adaptive":
        return run_adaptive("slit", method="galerkin", estimator="mu",
                            theta=0.75, max_dofs=60).final_state.curve
    state = initial_state(slit())
    while state.curve.knots.dim < int(name):
        state = uniform_refine(state)
    return state.curve


@pytest.mark.parametrize("mesh", ["17", "65", "257", "adaptive"])
def test_residual_samples_meet_the_slit_closed_form(mesh):
    # r = f - V phi_h at every sample, for the Galerkin density of the slit
    # data, against V phi_h of the piecewise-linear density in closed form
    curve = _slit_mesh(mesh)
    f = lambda t: 0.5 * (1.0 - 2.0 * t)  # noqa: E731
    coeffs, _ = solve_linear(galerkin_matrix(curve), galerkin_rhs(curve, f))
    res = sample_residual(curve, coeffs, f)
    assert res.params.shape == (curve.knots.n_elements, 6)
    v = slit_single_layer(curve, coeffs, res.params.ravel()).reshape(res.params.shape)
    np.testing.assert_allclose(res.values, f(res.params) - v,
                               rtol=0, atol=1e-13 * np.abs(v).max())


# --------------------------------------------------------------------------
# curved geometry against adaptive quadrature
# --------------------------------------------------------------------------


def test_faermann_matches_dblquad_on_pacman():
    curve = pacman()
    R = lambda t: np.cos(2 * np.pi * t)  # noqa: E731
    Rp = lambda t: -2 * np.pi * np.sin(2 * np.pi * t)  # noqa: E731
    res = ResidualData.from_function(curve, R, q_int=12)
    eta2 = faermann_indicators(res)
    want = _patch_seminorm_dblquad(curve, R, Rp, (1, 2))
    assert eta2[2] == pytest.approx(want, rel=1e-6)


def test_mu_matches_quad_on_pacman():
    curve = pacman()
    R = lambda t: np.cos(2 * np.pi * t)  # noqa: E731
    res = ResidualData.from_function(curve, R, q_int=12)
    geom = _scalar_geometry(curve)
    kv = curve.knots
    parts = [
        quad(lambda t: (2 * np.pi * np.sin(2 * np.pi * t)) ** 2 / geom(t)[2],
             *kv.elements[e], epsabs=1e-13, epsrel=1e-11)[0]
        for e in (1, 2)
    ]
    hs = kv.elements[:, 1] - kv.elements[:, 0]
    arcs = curve.element_lengths
    want_par = (hs[1] + hs[2]) * sum(parts)
    want_arc = (arcs[1] + arcs[2]) * sum(parts)
    assert residual_indicators(res, "parameter")[2] == pytest.approx(want_par, rel=1e-8)
    assert residual_indicators(res, "arclength")[2] == pytest.approx(want_arc, rel=1e-8)


def test_seam_patch_circle():
    # Node 0 of a closed curve pairs the last element with the first; the
    # integrand sees only physical distances, so this must agree with the
    # direct double integrals over [0.75,1] x [0,0.25] and friends.
    curve = circle(0.8)
    R = lambda t: np.cos(2 * np.pi * t)  # noqa: E731
    Rp = lambda t: -2 * np.pi * np.sin(2 * np.pi * t)  # noqa: E731
    res = ResidualData.from_function(curve, R, q_int=12)
    eta2 = faermann_indicators(res)
    want = _patch_seminorm_dblquad(curve, R, Rp, (3, 0))
    assert eta2[0] == pytest.approx(want, rel=1e-6)


# --------------------------------------------------------------------------
# partition quality
# --------------------------------------------------------------------------


def test_partition_quality_hats():
    # For degree 1 the preferred function is a hat; with piecewise constant
    # speed, ||1 - hat||^2 over its support is always a third of the support
    # length, so q_T = 2/3 regardless of the mesh.
    for curve in (slit(), slit().refined([0.3, 0.5]), square()):
        rep = partition_quality(curve)
        assert rep.contained
        assert np.allclose(rep.q_per_element, 2.0 / 3.0, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [4, 7, 12])
def test_partition_quality_quadratic_closed_form(n):
    # gamma(t) = (t, 0) on n uniform degree-2 elements (control points at
    # the Greville abscissae), so the speed is 1 and, in element units:
    # * end elements take the one-element basis (1 - x)^2,
    #   q = 1 - int_0^1 (1 - (1 - x)^2)^2 = 7/15;
    # * their neighbours take the two-element basis next to it, with
    #   int B = 2/3 and int B^2 = 1/3, so q = 1 - (2 - 4/3 + 1/3) / 2 = 1/2;
    # * inside, the centred cardinal B-spline M has int M = 1 and
    #   int M^2 = 11/20, so q = 1 - (3 - 2 + 11/20) / 3 = 29/60.
    bp = np.linspace(0.0, 1.0, n + 1)
    kv = KnotVector(2, tuple(bp), (3,) + (1,) * (n - 1) + (3,))
    greville = 0.5 * (kv.eval_knots[1:-2] + kv.eval_knots[2:-1])
    curve = Curve(kv, np.column_stack([greville, np.zeros(kv.dim)]), np.ones(kv.dim))
    expected = np.full(n, 29.0 / 60.0)
    expected[[1, -2]] = 0.5
    expected[[0, -1]] = 7.0 / 15.0
    rep = partition_quality(curve)
    assert rep.contained
    np.testing.assert_allclose(rep.q_per_element, expected, rtol=1e-13, atol=0.0)


def _partition_quality_loops(curve, order=16):
    """q_per_element and containment from the definition, element by
    element, summing in the same order as ``partition_quality`` on the same
    element-local Gauss nodes, with basis and speed taken node by node
    (``Curve.basis``, ``Curve.displacement``) rather than from the shared
    table product that ``partition_quality`` reads."""
    kv = curve.knots
    p, n_el = kv.degree, kv.n_elements
    xg, wg = gauss_unit(order)
    hs = kv.elements[:, 1] - kv.elements[:, 0]
    first = kv.element_table[0]
    nodes = [kv.local(e, xg) for e in range(n_el)]
    basis = [curve.basis(row, tau) for row, tau in nodes]
    sp = [np.hypot(*curve.displacement(row, tau, 1)[:, 1].T) for row, tau in nodes]
    arc = curve.element_lengths
    m = (p + 1) // 2
    q_out, contained = np.empty(n_el), True
    for e in range(n_el):
        cands = []
        for q in range(first[e], first[e] + p + 1):
            els = [f for f in range(n_el) if first[f] <= q <= first[f] + p]
            fits = all(abs(f - e) <= m for f in els)
            cands.append((not fits, float(np.sum(hs[els])),
                          float(np.sum(arc[els])), q, els))
        bad, _, supp_arc, q, els = min(cands, key=lambda c: c[:4])
        contained = contained and not bad
        err = 0.0
        for f in els:
            psi = basis[f][:, q - first[f]]
            err += float(hs[f] * np.sum(wg * (1.0 - psi) ** 2 * sp[f]))
        q_out[e] = 1.0 - err / supp_arc
    return q_out, contained


def test_partition_quality_matches_loops():
    for curve in (slit().refined([0.3, 0.5]), square().refined([0.99, 0.6]),
                  circle().refined([0.01, 0.99, 0.995]),
                  pacman().refined([0.02, 0.98, 0.01]),
                  pacman().refined(list(np.linspace(0.41, 0.6, 6)))):
        rep = partition_quality(curve)
        q_ref, contained_ref = _partition_quality_loops(curve)
        assert rep.contained == contained_ref
        # the two evaluations of basis and speed round apart (measured up to
        # 4.8e-16 relative); the selection and the sums are the same
        np.testing.assert_allclose(rep.q_per_element, q_ref, rtol=1e-14, atol=0.0)


def test_partition_quality_quadratic():
    for curve in (pacman(), circle(), pacman().refined([0.05, 0.5])):
        rep = partition_quality(curve)
        assert rep.contained
        assert 0.0 < rep.q_min <= rep.q_per_element.max() <= 1.0


def test_partition_quality_centered_candidate():
    # Uniform interior knots at degree 2 tie on support length; the choice
    # must still land inside the one-layer patch around each element.
    curve = pacman().refined(list(np.linspace(0.41, 0.6, 6)))
    rep = partition_quality(curve)
    assert rep.contained
    assert rep.q_min > 0.0


# --------------------------------------------------------------------------
# real residual of a boundary solve
# --------------------------------------------------------------------------


def test_slit_solve_residual_and_local_bound():
    curve = slit().refined(list(np.linspace(0.125, 0.875, 7)))
    f = lambda t: 0.5 * (1.0 - 2.0 * t)  # noqa: E731
    A = galerkin_matrix(curve)
    b = galerkin_rhs(curve, f)
    coeffs, _ = solve_linear(A, b)
    res = sample_residual(curve, coeffs, f)

    eta2 = faermann_indicators(res)
    mu2_arc = residual_indicators(res, weight="arclength")
    mu2_par = residual_indicators(res, weight="parameter")
    for arr in (eta2, mu2_arc, mu2_par):
        assert arr.shape == (curve.knots.n_elements + 1,)
        assert np.all(np.isfinite(arr)) and np.all(arr >= 0.0)
    assert np.sqrt(eta2.sum()) > 1e-4  # tip singularity keeps this visible

    # straight screens satisfy the local equivalence
    # eta(z) <= sqrt(2) * mu_arc(z) on every patch
    assert np.all(np.sqrt(eta2) <= np.sqrt(2.0 * mu2_arc) + 1e-6)
