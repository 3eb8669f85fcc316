"""Quadrature oracles.

Expected values here are either closed-form moments or independent
scipy.integrate or mpmath computations; they were fixed before the rules
were wired into any assembly code.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from igabem.operators import GRADE_MAX_LEVELS, GRADE_MIN_LEVELS
from igabem.quadrature import (
    gauss_legendre,
    gauss_log,
    gauss_unit,
    graded_union,
    graded_unit,
    separated_order,
)


# ---------------------------------------------------------------- plain Gauss


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 16, 32])
def test_gauss_legendre_monomial_exactness(n):
    x, w = gauss_legendre(n)
    for k in range(2 * n):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        got = w @ x**k
        assert got == pytest.approx(exact, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("n", [1, 2, 5, 10, 33])
def test_gauss_legendre_structure(n):
    x, w = gauss_legendre(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0)
    assert np.all(w > 0)
    assert np.all(np.abs(x) < 1)
    # symmetrized exactly
    np.testing.assert_array_equal(x, -x[::-1])
    np.testing.assert_array_equal(w, w[::-1])


def test_gauss_legendre_known_two_point():
    x, w = gauss_legendre(2)
    np.testing.assert_allclose(x, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-15)
    np.testing.assert_allclose(w, [1.0, 1.0], atol=1e-15)


def test_rules_are_deterministic():
    for fn in (gauss_legendre, gauss_unit, gauss_log, lambda n: graded_unit(n, 5)):
        x1, w1 = fn(12)
        x2, w2 = fn(12)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(w1, w2)
        # cached rules are shared, so callers must not be able to change them
        assert not x1.flags.writeable and not w1.flags.writeable


def test_gauss_unit_is_affine_image():
    x, w = gauss_unit(7)
    assert np.all((x > 0) & (x < 1))
    assert w.sum() == pytest.approx(1.0, abs=1e-15)
    assert w @ x**13 == pytest.approx(1.0 / 14.0, rel=1e-14)


# ------------------------------------------------------------ log-weight rule


def test_gauss_log_one_point_closed_form():
    # the 1-point rule for log(1/x) on [0,1] is node 1/4, weight 1
    x, w = gauss_log(1)
    assert x[0] == pytest.approx(0.25, abs=1e-15)
    assert w[0] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 24, 32])
def test_gauss_log_moment_exactness(n):
    # ∫_0^1 x^k log(1/x) dx = 1/(k+1)^2, exactness through degree 2n-1
    x, w = gauss_log(n)
    for k in range(2 * n):
        got = w @ x**k
        assert got == pytest.approx(1.0 / (k + 1) ** 2, rel=5e-13)


@pytest.mark.parametrize("n", [2, 8, 24])
def test_gauss_log_structure(n):
    x, w = gauss_log(n)
    assert np.all(np.diff(x) > 0)
    assert np.all((x > 0) & (x < 1))
    assert np.all(w > 0)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)


def test_gauss_log_against_adaptive_quadrature():
    # independent check on a non-polynomial integrand:
    #   ∫_0^1 cos(3x) log(1/x) dx  via scipy's singular-weight quadrature
    ref, err = quad(lambda t: np.cos(3 * t), 0.0, 1.0, weight="alg-loga", wvar=(0.0, 0.0))
    assert err < 1e-12
    x, w = gauss_log(16)
    assert w @ np.cos(3 * x) == pytest.approx(-ref, abs=1e-13)


# ---------------------------------------------------------------- grading


def test_graded_unit_partitions_unity():
    x, w = graded_unit(6, levels=5)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(np.diff(x) > 0)
    assert x.shape == (6 * 6,)


def test_graded_unit_smooth_integrand():
    x, w = graded_unit(8, levels=3)
    assert w @ x**3 == pytest.approx(0.25, rel=1e-14)


def test_graded_unit_resolves_log_endpoint():
    # ∫_0^1 log(1/x) dx = 1; the graded composite rule should get close,
    # limited only by the untouched tail below 2^-levels
    x, w = graded_unit(12, levels=30)
    assert w @ np.log(1.0 / x) == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("n", [8, 16, 24])
def test_graded_union_indexes_every_level(n):
    # one inner panel per level and the outer panels of the deepest level,
    # which hold every shallower level's outer panels bit for bit
    nodes, index = graded_union(n, GRADE_MIN_LEVELS, GRADE_MAX_LEVELS)
    assert len(nodes) == n * (2 * GRADE_MAX_LEVELS - GRADE_MIN_LEVELS + 1)
    assert len(index) == GRADE_MAX_LEVELS - GRADE_MIN_LEVELS + 1
    for levels in range(GRADE_MIN_LEVELS, GRADE_MAX_LEVELS + 1):
        x = nodes[index[levels - GRADE_MIN_LEVELS]]
        assert x.tobytes() == graded_unit(n, levels)[0].tobytes(), levels


# ------------------------------------------------------- separated-pair order


def test_separated_order_meets_log_reference():
    # Gauss at the chosen order on int_{-1}^{1} log(a - y) dy, whose
    # singularity at y = a sets the rule's rho, against an mpmath reference
    mpmath = pytest.importorskip("mpmath")
    a_s = np.geomspace(1.0, 1e6, 600)
    for cap in (3, 8, 16, 32):
        q = separated_order(a_s, cap)
        assert q.max() <= cap
        assert np.all(np.diff(q) <= 0)
    q = separated_order(a_s, 16)
    below = np.flatnonzero(q < 16)
    assert len(below) > 500 and q.min() == 4
    for a, n in zip(a_s[below], q[below]):
        x, w = gauss_legendre(int(n))
        with mpmath.workdps(40):
            exact = float(mpmath.quad(lambda y: mpmath.log(mpmath.mpf(a) - y), [-1, 1]))
        assert abs(w @ np.log(a - x) - exact) <= 1e-15 * abs(exact), a


@pytest.mark.parametrize("kind", [np.int32, np.int64], ids=lambda k: k.__name__)
@pytest.mark.parametrize("fn, args", [(gauss_legendre, (12,)), (gauss_unit, (12,)),
                                      (gauss_log, (12,)), (graded_unit, (12, 5))],
                         ids=["legendre", "unit", "log", "graded"])
def test_numpy_integer_orders_read_the_bytes_of_int_orders(fn, args, kind):
    # the caches are kept per argument type, so a numpy integer order or
    # level has a rule of its own; it must be the Python int's, byte for
    # byte, and as read-only
    for got, want in zip(fn(*map(kind, args)), fn(*args)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert not got.flags.writeable


def test_invalid_arguments_raise():
    for fn in (gauss_legendre, gauss_unit, gauss_log,
               lambda n: graded_unit(n, 3)):
        for n in (0, -1, np.int64(0)):
            with pytest.raises(ValueError):
                fn(n)
        # an order is an integer: a float raises, even where the equal
        # integer order is cached
        fn(12)
        with pytest.raises(TypeError):
            fn(12.0)
    for levels in (-1, np.int64(-1)):
        with pytest.raises(ValueError):
            graded_unit(4, levels=levels)
