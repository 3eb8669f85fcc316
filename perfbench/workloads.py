"""The benchmark's workloads and the checks each one's result must pass.

All workloads run ``igabem.experiments.run_adaptive`` with the baseline
settings of the paper's experiments (theta 0.75, quadrature order 16).  They
are deterministic: the seed only picks the probe points of the final-mesh
checks below.  Why each workload is in the benchmark is in BENCHMARK.json
and README.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import checks

THETA = 0.75
ORDER = 16
# the pacman curve's corners by construction: the reentrant corner at the
# seam and the two ends of the circular arc
PACMAN_CORNERS = (0.0, 1.0 / 6.0, 5.0 / 6.0)
# Tolerances of the final-mesh checks, each at least 100 times the largest
# discrepancy measured on these workloads (seeds 1-3): load vector 1.4e-17
# against entries of 1e-2, potentials 7.8e-16 at random points and 1.5e-14
# at the collocation points, energy errors 1.1e-15 of the energy.
LOAD_RTOL = 1e-13
POTENTIAL_TOL = 1e-11
ENERGY_RTOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    method: str
    estimator: str
    uniform: bool
    max_dofs: int  # target number of unknowns
    tol: float  # energy error that time_to_err_s waits for
    slope_range: tuple[float, float]

    def run_kwargs(self) -> dict:
        return dict(method=self.method, estimator=self.estimator, theta=THETA,
                    max_dofs=self.max_dofs, order=ORDER, uniform=self.uniform)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("slit-collocation-adaptive", "slit", "collocation", "eta",
                 False, 60, 1.5e-2, (-math.inf, -2.2)),
        Workload("pacman-galerkin-adaptive", "pacman", "galerkin", "mu",
                 False, 25, 1.8e-2, (-math.inf, -3.0)),
        Workload("slit-galerkin-uniform", "slit", "galerkin", "mu",
                 True, 257, 4e-2, (-0.65, -0.40)),
    )
}


def history_problems(w: Workload, rows: list[dict]) -> list[str]:
    # Galerkin energies on nested spaces never fall, so err_sq never rises;
    # the slit's first bisection adds nothing in exact arithmetic, hence a
    # relative allowance of 1e-12 instead of strict decrease
    monotone = 1e-12 if w.method == "galerkin" else None
    return checks.history_problems(rows, w.max_dofs, w.tol, w.slope_range,
                                   monotone)


def final_mesh_problems(w: Workload, record, rng: np.random.Generator,
                        ref_energy: float) -> list[str]:
    """Re-solve on the run's final mesh apart from the run and compare."""
    if w.problem == "slit":
        return _slit_final(w, record, rng)
    kv = record.final_state.curve.knots
    out = checks.corner_problems(kv.breakpoints, kv.multiplicities, kv.degree,
                                 PACMAN_CORNERS)
    return out + _pacman_final(record, rng, ref_energy)


def _slit_final(w: Workload, record, rng) -> list[str]:
    from igabem.experiments import get_problem
    from igabem.operators import (collocation_matrix, galerkin_matrix,
                                  galerkin_rhs, single_layer_values)

    out = []
    if record.energy_ref != checks.SLIT_ENERGY:
        out.append(f"slit error measured against {record.energy_ref!r}, "
                   f"not pi/4")
    curve = record.final_state.curve
    kv = curve.knots
    knots = checks.open_knots(kv.breakpoints, kv.multiplicities)
    f = get_problem("slit").rhs_factory(curve, ORDER)
    b = checks.slit_load_vector(knots)
    b_prog = galerkin_rhs(curve, f, ORDER)
    if not np.allclose(b_prog, b, rtol=0.0, atol=LOAD_RTOL * np.abs(b).max()):
        out.append("galerkin_rhs differs from the exact slit load vector by "
                   f"{np.abs(b_prog - b).max():.3e}")
    A = galerkin_matrix(curve, ORDER)
    c = np.linalg.solve(A, b)
    energy = float(c @ b)
    err_g = checks.SLIT_ENERGY - energy
    if not err_g > 0.0:
        out.append(f"Galerkin energy {energy!r} on the final mesh is not "
                   "below pi/4")

    # the program's pointwise potential against the closed form, at
    # seed-chosen parameters
    ts = rng.uniform(0.0, 1.0, 32)
    v_prog = single_layer_values(curve, c, ts, order=ORDER)
    v_exact = checks.slit_single_layer(knots, c, ts)
    dv = np.abs(v_prog - v_exact).max()
    if dv > POTENTIAL_TOL:
        out.append(f"single_layer_values misses the closed form by {dv:.3e}")

    final = record.rows[-1]["err_sq"]
    if w.method == "galerkin":
        if abs(final - err_g) > ENERGY_RTOL * checks.SLIT_ENERGY:
            out.append(f"final err_sq {final:.12e} differs from the re-solve "
                       f"{err_g:.12e}")
        return out

    # collocation: the density solves V phi(x_j) = f(x_j), which the closed
    # form confirms, and its energy error cannot beat the Galerkin one
    xs = kv.collocation_points()
    cc = np.linalg.solve(collocation_matrix(curve, ORDER), f(xs))
    dv = np.abs(checks.slit_single_layer(knots, cc, xs) - f(xs)).max()
    if dv > POTENTIAL_TOL:
        out.append(f"collocation density misses the data by {dv:.3e} "
                   "at the collocation points")
    err_c = checks.SLIT_ENERGY - 2.0 * float(cc @ b) + float(cc @ A @ cc)
    if abs(final - err_c) > ENERGY_RTOL * checks.SLIT_ENERGY:
        out.append(f"final err_sq {final:.12e} differs from the re-solve "
                   f"{err_c:.12e}")
    if final < err_g * (1.0 - 1e-9):
        out.append(f"collocation error {final:.6e} is below the Galerkin "
                   f"error {err_g:.6e} of the same space")
    return out


def _pacman_final(record, rng, ref_energy: float) -> list[str]:
    from igabem.experiments import get_problem, pacman_trace
    from igabem.operators import galerkin_matrix, galerkin_rhs
    from igabem.quadrature import gauss_unit
    from igabem.splines import rational_basis

    out = []
    curve = record.final_state.curve
    kv = curve.knots
    f = get_problem("pacman").rhs_factory(curve, ORDER)
    b = galerkin_rhs(curve, f, ORDER)
    c = np.linalg.solve(galerkin_matrix(curve, ORDER), b)
    err_g = ref_energy - float(c @ b)
    final = record.rows[-1]["err_sq"]
    if not err_g > 0.0:
        out.append(f"Galerkin energy {float(c @ b)!r} on the final mesh is "
                   f"above the reference {ref_energy!r}")
    elif abs(final - err_g) > ENERGY_RTOL * ref_energy:
        out.append(f"final err_sq {final:.12e} differs from the re-solve "
                   f"{err_g:.12e}")

    # Green's representation with the computed density reproduces the
    # harmonic function at seed-chosen interior points
    xg, wg = gauss_unit(ORDER)
    sub = 8  # composite panels per element keep the rule exact to ~1e-10
    elems = kv.elements
    hs = np.repeat((elems[:, 1] - elems[:, 0]) / sub, sub)
    lo = np.repeat(elems[:, 0], sub) + np.tile(np.arange(sub), len(elems)) * hs
    ts = (lo[:, None] + hs[:, None] * xg[None, :]).ravel()
    fr = curve.frame(ts, 1)
    ys, d1 = fr[:, 0], fr[:, 1]
    speed = np.hypot(d1[:, 0], d1[:, 1])
    normals = np.column_stack((d1[:, 1], -d1[:, 0])) / speed[:, None]
    weights = (hs[:, None] * wg[None, :]).ravel() * speed
    first, R = rational_basis(kv, curve.basis_weights, ts)
    density = np.einsum("qb,qb->q", R[:, 0, :],
                        c[first[:, None] + np.arange(kv.degree + 1)[None, :]])
    pts = checks.pacman_interior_points(rng, 16)
    u_h = checks.representation_formula(pts, ys, normals, weights, density,
                                        pacman_trace(ys))
    du = np.abs(u_h - checks.harmonic_reference(pts)).max()
    if du > PACMAN_INTERIOR_TOL:
        out.append(f"representation formula misses Re(z^(4/7)) by {du:.3e} "
                   "inside the sector")
    return out


# The interior error is bounded by the energy error of the density times the
# H^(1/2) norm of G(x, .); on the final N=25 mesh it measures 1.7e-5 to
# 2.5e-5 (seeds 1-3) against values of about 0.2.
PACMAN_INTERIOR_TOL = 1e-3

