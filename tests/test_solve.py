import numpy as np
import pytest

from igabem.solve import (
    aitken,
    energy_error_collocation,
    energy_error_galerkin,
    fit_rate,
    solve_linear,
)


def spd_system(n, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


def test_solve_matches_numpy():
    A = spd_system(40, 1)
    b = np.arange(40.0)
    x, cond = solve_linear(A, b)
    assert np.allclose(x, np.linalg.solve(A, b), rtol=0, atol=1e-12)
    true = np.linalg.cond(A, 1)
    assert true / 10.0 < cond < true * 10.0


def test_aitken_exact_on_geometric():
    i = np.arange(8)
    val, ok = aitken(5.0 - 3.0 * 0.5**i)
    assert ok
    assert val == pytest.approx(5.0, abs=1e-12)
    val, ok = aitken(2.0 + 0.7 * (-0.4) ** i)
    assert ok
    assert val == pytest.approx(2.0, abs=1e-12)


def test_aitken_degenerate_sequences():
    val, ok = aitken([3.0, 3.0, 3.0, 3.0])
    assert val == 3.0 and not ok
    val, ok = aitken([1.0, 2.0])
    assert val == 2.0 and not ok
    # converged to rounding level: the early entries still give the limit
    seq = [1.0, 1.5, 1.75, 1.875, 2.0 - 1e-13, 2.0 - 1e-13, 2.0 - 1e-13]
    val, ok = aitken(seq)
    assert ok
    assert val == pytest.approx(2.0, abs=1e-10)


def test_galerkin_error_identity():
    A = spd_system(12, 3)
    rng = np.random.default_rng(4)
    c_exact = rng.standard_normal(12)
    b = A @ c_exact
    energy_sq = float(c_exact @ b)
    c, _ = solve_linear(A, b)
    err_sq = energy_error_galerkin(energy_sq, c, b)
    assert 0.0 <= err_sq < 1e-10 * energy_sq


def test_galerkin_error_clamps_negative():
    A = spd_system(6, 5)
    c_exact = np.ones(6)
    b = A @ c_exact
    energy_sq = float(c_exact @ b)
    assert energy_error_galerkin(energy_sq * (1.0 - 1e-9), c_exact, b) == 0.0


def test_collocation_error_identity():
    # for a density in the space the error formula is exactly the A-norm of
    # the coefficient difference, and splits off the Galerkin part
    A = spd_system(10, 7)
    rng = np.random.default_rng(8)
    c_exact = rng.standard_normal(10)
    b = A @ c_exact
    energy_sq = float(c_exact @ b)
    d = rng.standard_normal(10) * 0.1
    c_other = c_exact + d
    err_sq = energy_error_collocation(energy_sq, c_other, A, b)
    assert err_sq == pytest.approx(float(d @ A @ d), rel=1e-9)
    c_gal, _ = solve_linear(A, b)
    gal_sq = energy_error_galerkin(energy_sq, c_gal, b)
    diff = c_gal - c_other
    assert err_sq == pytest.approx(gal_sq + float(diff @ A @ diff), rel=1e-9)


def test_fit_rate_recovers_power_law():
    ns = np.array([8, 16, 32, 64, 128, 256])
    errs = 3.0 * ns**-1.5
    assert fit_rate(ns, errs) == pytest.approx(-1.5, abs=1e-12)
    errs_noisy = errs * np.exp(0.01 * np.sin(np.arange(6.0)))
    assert fit_rate(ns, errs_noisy) == pytest.approx(-1.5, abs=0.05)


def test_fit_rate_ignores_zero_rows():
    ns = np.array([8, 16, 32, 64, 0])
    errs = np.array([1.0, 0.5, 0.25, 0.125, 0.0])
    assert fit_rate(ns, errs) == pytest.approx(-1.0, abs=1e-12)
