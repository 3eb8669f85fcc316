"""Acceptance scoreboard: full-size benchmark runs plus closed-form oracles.

The convergence fixture drives all eleven benchmark runs at their target
sizes, which takes a few minutes; everything else here is fast.  Each check
prints one ``criterion k: PASS/FAIL`` line so a log scan (``pytest -s``)
shows the whole scoreboard at once.  Criteria/tolerances:

 1. slit uniform (N=512): slope in [-0.65, -0.40]
 2. slit adaptive, all four method/estimator combos (N~500): slope <= -2.2
 3. pacman uniform slope in [-0.75, -0.45]; adaptive <= -3.0
 4. square uniform slope in [-1.2, -0.85]; adaptive <= -2.2
 5. square adaptive runs end with multiplicity p+1 at the four corners
 6. eta/err and mu/err in [0.05, 5] on every logged iteration of every run
 7. slit, every iteration, every node: eta(z) <= sqrt(2) mu(z) + 1e-6
 8. one-element slit oracles: sum of the Galerkin matrix = (2/pi)(3/2-log2),
    V[1](midpoint) = 1/pi, both to 1e-10; slit energy is pi/4 exactly
 9. property bundle: partition of unity 1e-13, insertion invariance 1e-12,
    Galerkin symmetry 1e-10 rel and SPD, quadrature exactness, Aitken
    exactness, orthogonality/interpolation residuals 1e-8, kappa doubling
    bound, nestedness 1e-12
10. partition diagnostic q > 0 with contained supports on all initial spaces
"""

import math
from pathlib import Path

import numpy as np
import pytest

from igabem.adaptivity import (
    dorfler_marking,
    initial_state,
    kappa,
    refine,
    uniform_refine,
)
from igabem.estimators import (
    faermann_indicators,
    partition_quality,
    residual_indicators,
    sample_residual,
)
from igabem.experiments import MATRIX, get_problem, reference_energy, run_adaptive
from igabem.geometry import slit
from igabem.operators import (
    collocation_matrix,
    galerkin_matrix,
    galerkin_rhs,
    single_layer_values,
)
from igabem.quadrature import gauss_legendre, gauss_log
from igabem.solve import aitken, fit_rate, solve_linear
from igabem.splines import insert_knot

from helpers import bspline_dense

ENERGY_CACHE = Path(__file__).resolve().parents[1] / "ref_energies.json"
THETA = 0.75
ORDER = 16

EFF_LO, EFF_HI = 0.05, 5.0


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def matrix():
    """All benchmark runs at acceptance size: tag -> (record, fitted slope)."""
    out = {}
    for tag, (problem, method, estimator, uniform, max_dofs) in MATRIX.items():
        record = run_adaptive(
            problem,
            method=method,
            estimator=estimator,
            theta=THETA,
            max_dofs=max_dofs,
            uniform=uniform,
            energy_cache=ENERGY_CACHE,
        )
        slope = fit_rate(record.column("N"), np.sqrt(record.column("err_sq")))
        out[tag] = (record, slope)
    return out


def test_criterion_01_slit_uniform_rate(matrix):
    _, slope = matrix["slit_galerkin_mu_uniform"]
    _criterion(1, -0.65 <= slope <= -0.40, f"slit uniform slope {slope:.3f}")


def test_criterion_02_slit_adaptive_rates(matrix):
    slopes = {
        tag: matrix[tag][1]
        for tag in (
            "slit_galerkin_mu_adaptive",
            "slit_galerkin_eta_adaptive",
            "slit_collocation_mu_adaptive",
            "slit_collocation_eta_adaptive",
        )
    }
    detail = ", ".join(f"{t.split('_', 1)[1]} {s:.3f}" for t, s in slopes.items())
    _criterion(2, all(s <= -2.2 for s in slopes.values()), detail)


def test_criterion_03_pacman_rates(matrix):
    _, uni = matrix["pacman_galerkin_mu_uniform"]
    _, ad_g = matrix["pacman_galerkin_mu_adaptive"]
    _, ad_c = matrix["pacman_collocation_eta_adaptive"]
    ok = (-0.75 <= uni <= -0.45) and ad_g <= -3.0 and ad_c <= -3.0
    _criterion(3, ok, f"uniform {uni:.3f}, adaptive {ad_g:.3f} / {ad_c:.3f}")


def test_criterion_04_square_rates(matrix):
    _, uni = matrix["square_galerkin_mu_uniform"]
    _, ad_m = matrix["square_galerkin_mu_adaptive"]
    _, ad_e = matrix["square_galerkin_eta_adaptive"]
    ok = (-1.2 <= uni <= -0.85) and ad_m <= -2.2 and ad_e <= -2.2
    _criterion(4, ok, f"uniform {uni:.3f}, adaptive {ad_m:.3f} / {ad_e:.3f}")


def test_criterion_05_square_corner_multiplicities(matrix):
    report = []
    ok = True
    for tag in ("square_galerkin_mu_adaptive", "square_galerkin_eta_adaptive"):
        record, _ = matrix[tag]
        kv = record.final_state.curve.knots
        full = kv.degree + 1
        mults = []
        for corner in (0.0, 0.25, 0.5, 0.75):
            idx = int(np.argmin(np.abs(np.asarray(kv.breakpoints) - corner)))
            hit = abs(kv.breakpoints[idx] - corner) < 1e-14
            m = kv.multiplicities[idx] if hit else 0
            mults.append(m)
            ok = ok and m == full
        report.append(f"{tag.split('_')[2]}-steered {mults}")
    _criterion(5, ok, "final corner multiplicities " + "; ".join(report))


def test_criterion_06_efficiency_indices(matrix):
    bad = []
    lo, hi = np.inf, -np.inf
    for tag, (record, _) in matrix.items():
        for col in ("eff_eta", "eff_mu"):
            vals = record.column(col)
            lo, hi = min(lo, vals.min()), max(hi, vals.max())
            if vals.min() < EFF_LO or vals.max() > EFF_HI:
                bad.append(f"{tag} {col} [{vals.min():.2f}, {vals.max():.2f}]")
    if bad:
        # Known red: the weighted-residual index mu/err on the pacman geometry
        # is 7.0-7.2 on uniform meshes.  The two elements at the reentrant
        # corner carry 98.6% of int (r')^2, and r' is unbounded there.  The
        # logged value under-resolves it: on the uniform mesh with N=46,
        # mu/err is 7.06, 8.11, 8.99, 9.35, 9.65, 9.73 at q_int = 6, 8, 12,
        # 16, 24, 32, while quadrature order 32 instead of 16 changes nothing.
        # The exact index is near 10, so no correct computation brings it
        # under 5.  The Faermann index and both indices on the other
        # geometries stay inside the band.
        detail = "out of band: " + "; ".join(bad)
    else:
        detail = f"all indices in [{lo:.2f}, {hi:.2f}]"
    _criterion(6, not bad, detail)


def test_criterion_07_local_node_bound():
    prob = get_problem("slit")
    state = initial_state(prob.make_curve())
    worst = -np.inf
    iters = 0
    for _ in range(400):
        curve = state.curve
        f = prob.rhs_factory(curve, ORDER)
        A = galerkin_matrix(curve, ORDER)
        b = galerkin_rhs(curve, f, ORDER)
        c, _ = solve_linear(A, b)
        res = sample_residual(curve, c, f, ORDER)
        eta = np.sqrt(faermann_indicators(res))
        mu_arc = np.sqrt(residual_indicators(res, weight="arclength"))
        worst = max(worst, float((eta - math.sqrt(2.0) * mu_arc).max()))
        iters += 1
        if curve.knots.dim >= 500:
            break
        state = refine(state, dorfler_marking(residual_indicators(res), THETA))
    ok = worst <= 1e-6
    _criterion(
        7, ok, f"worst eta - sqrt(2) mu over {iters} iterations: {worst:.3e}"
    )


def test_criterion_08_closed_form_oracles():
    curve = slit()
    entry = galerkin_matrix(curve, ORDER).sum()
    target = (2.0 / math.pi) * (1.5 - math.log(2.0))
    d1 = abs(entry - target)
    v1 = single_layer_values(curve, np.ones(2), np.array([0.5]))[0]
    d2 = abs(v1 - 1.0 / math.pi)
    exact = reference_energy("slit", cache=ENERGY_CACHE) == math.pi / 4.0
    ok = d1 <= 1e-10 and d2 <= 1e-10 and exact
    _criterion(
        8,
        ok,
        f"matrix sum off by {d1:.1e}, V[1] off by {d2:.1e}, "
        f"energy exact: {exact}",
    )


def test_criterion_09_property_bundle():
    rng = np.random.default_rng(20260819)
    failures = []
    report = []

    def check(name, dev, tol):
        report.append(f"{name} {dev:.1e}")
        if not dev <= tol:
            failures.append(f"{name} {dev:.3e} > {tol:.0e}")

    # partition of unity on the three initial spaces
    dev = 0.0
    for name in ("slit", "square", "pacman"):
        kv = get_problem(name).make_curve().knots
        ts = rng.uniform(kv.a, kv.b, 400)
        B = bspline_dense(kv.eval_knots, kv.degree, ts)[:, 0, :]
        dev = max(dev, float(np.abs(B.sum(axis=1) - 1.0).max()))
    check("pu", dev, 1e-13)

    # geometry is invariant under mesh refinement (knot insertion)
    coarse = get_problem("pacman").make_curve()
    fine = uniform_refine(uniform_refine(initial_state(coarse))).curve
    ts = rng.uniform(0.0, 1.0, 300)
    dev = float(np.abs(fine.frame(ts)[:, 0] - coarse.frame(ts)[:, 0]).max())
    check("insertion", dev, 1e-12)

    # Galerkin symmetry and positive definiteness on the pacman space
    A = galerkin_matrix(get_problem("pacman").make_curve(), ORDER)
    sym = float(np.abs(A - A.T).max() / np.abs(A).max())
    check("symmetry", sym, 1e-10)
    eigs = np.linalg.eigvalsh(0.5 * (A + A.T))
    check("spd", 0.0 if eigs.min() > 0.0 else 1.0, 0.5)

    # quadrature exactness at the rule's design degree
    x, w = gauss_legendre(8)
    dev = max(
        abs(float(np.sum(w * x**15))),
        abs(float(np.sum(w * x**14)) - 2.0 / 15.0),
    )
    xl, wl = gauss_log(6)
    dev = max(
        dev,
        max(
            abs(float(np.sum(wl * xl**k)) - 1.0 / (k + 1) ** 2)
            for k in range(12)
        ),
    )
    check("quadrature", dev, 1e-13)

    # Aitken is exact on geometric sequences
    val, accel = aitken([3.7 + 0.9 * 0.55**k for k in range(8)])
    check("aitken", abs(val - 3.7) if accel else 1.0, 1e-12)

    # solved systems honor orthogonality / interpolation
    prob = get_problem("slit")
    curve = uniform_refine(uniform_refine(initial_state(prob.make_curve()))).curve
    f = prob.rhs_factory(curve, ORDER)
    A = galerkin_matrix(curve, ORDER)
    b = galerkin_rhs(curve, f, ORDER)
    c, _ = solve_linear(A, b)
    check("orthogonality", float(np.abs(A @ c - b).max() / np.abs(b).max()), 1e-8)
    B = collocation_matrix(curve, ORDER)
    fc = f(curve.knots.collocation_points())
    cc, _ = solve_linear(B, fc)
    check(
        "interpolation", float(np.abs(B @ cc - fc).max() / np.abs(fc).max()), 1e-8
    )

    # local mesh ratio never exceeds twice its initial value
    dev = 0.0
    for name in ("slit", "square", "pacman"):
        st = initial_state(get_problem(name).make_curve())
        k0 = kappa(st)
        for _ in range(12):
            kv = st.curve.knots
            n_nodes = kv.n_elements + (0 if kv.periodic else 1)
            marked = rng.choice(n_nodes, size=max(1, n_nodes // 3), replace=False)
            st = refine(st, marked)
            dev = max(dev, kappa(st) / k0 - 2.0)
    check("kappa", dev, 1e-12)

    # refined spaces reproduce coarse functions exactly
    kv = uniform_refine(initial_state(prob.make_curve())).curve.knots
    coef = rng.normal(size=kv.dim)
    kv2, coef2 = kv, coef
    for a, bb in kv.elements:
        kv2, coef2 = insert_knot(kv2, coef2, float(0.5 * (a + bb)))
    ts = rng.uniform(0.0, 1.0, 300)
    f1 = bspline_dense(kv.eval_knots, kv.degree, ts)[:, 0, :] @ coef
    f2 = bspline_dense(kv2.eval_knots, kv2.degree, ts)[:, 0, :] @ np.ravel(coef2)
    check("nestedness", float(np.abs(f1 - f2).max()), 1e-12)

    _criterion(
        9,
        not failures,
        "; ".join(failures) if failures else ", ".join(report),
    )


def test_criterion_10_partition_diagnostic():
    report = []
    ok = True
    for name in ("slit", "square", "pacman"):
        pc = partition_quality(get_problem(name).make_curve(), order=ORDER)
        ok = ok and pc.q_min > 0.0 and pc.contained
        report.append(f"{name} q={pc.q_min:.3f} contained={pc.contained}")
    _criterion(10, ok, ", ".join(report))
