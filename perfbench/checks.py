"""Correctness checks on the result of one benchmark run.

Every check returns a list of failure messages, empty when the result
passes.  The checks compare against values computed apart from the program
(the exact slit energy pi/4, closed-form single-layer potentials of
piecewise linear densities on the slit, the harmonic function whose trace
is the pacman data) or against properties the method must have (Galerkin
energies rise toward the reference on nested spaces, convergence slopes,
reliability of both estimators, full multiplicity at the corners).  None of
them compares against a stored copy of an earlier run.

The functions take plain rows and knot data so that tests can hand them
perturbed results.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

SLIT_ENERGY = math.pi / 4.0
EFF_MIN = 0.05  # reliability: eta/err and mu/err never fall below this
MAX_GAP = 1e-3  # largest accepted relative_gap of a cached reference energy


# --------------------------------------------------------------------------
# reference energies
# --------------------------------------------------------------------------


def reference_entry_problems(path: Path, problem: str, degree: int) -> list[str]:
    """Why the cached reference energy of ``problem`` cannot be used, if so.

    The entry must exist, be finite and positive, belong to a curve of the
    same degree and come from an extrapolation whose adaptive and uniform
    estimates agree to ``MAX_GAP``.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"cannot read {path}: {exc}"]
    entry = data.get(problem)
    if not isinstance(entry, dict):
        return [f"{path} has no entry for {problem!r}"]
    out = []
    energy = entry.get("energy")
    if not isinstance(energy, (int, float)) or not math.isfinite(energy) or energy <= 0:
        out.append(f"{problem} reference energy {energy!r} is not a positive number")
    if entry.get("degree") != degree:
        out.append(f"{problem} reference entry has degree {entry.get('degree')!r}, "
                   f"the curve has degree {degree}")
    gap = entry.get("relative_gap")
    if not isinstance(gap, (int, float)) or not gap < MAX_GAP:
        out.append(f"{problem} reference relative_gap {gap!r} is not below {MAX_GAP}")
    return out


# --------------------------------------------------------------------------
# properties of the iteration history
# --------------------------------------------------------------------------


def fit_slope(ns, errs) -> float:
    """Least-squares slope of log(err) against log(N) over the last half of
    the rows, at least four (the rule of the paper's rate plots).  Fitted
    here, not with ``igabem.solve.fit_rate``, so that the slope check does
    not rest on the program it checks."""
    ns = np.asarray(ns, dtype=float)
    errs = np.asarray(errs, dtype=float)
    tail = min(len(ns), max(4, (len(ns) + 1) // 2))
    return float(np.polyfit(np.log(ns[-tail:]), np.log(errs[-tail:]), 1)[0])


def history_problems(rows: list[dict], target_n: int, tol: float,
                     slope_range: tuple[float, float],
                     monotone_rtol: float | None) -> list[str]:
    """Checks on the per-iteration rows of one run.

    * the run reaches ``target_n`` unknowns and the error tolerance;
    * ``err_sq > 0`` on every row (for Galerkin runs: no energy above the
      reference);
    * with ``monotone_rtol`` set, ``err_sq`` never rises by more than that
      share of the first error (Galerkin energies on nested spaces);
    * the tail slope lies in ``slope_range``;
    * eta/err and mu/err stay at or above ``EFF_MIN``.
    """
    if not rows:
        return ["the run recorded no iteration"]
    out = []
    ns = np.array([r["N"] for r in rows], dtype=float)
    err_sq = np.array([r["err_sq"] for r in rows], dtype=float)
    if ns[-1] < target_n:
        out.append(f"run ended at N={int(ns[-1])}, below its target N={target_n}")
    if np.any(np.diff(ns) <= 0):
        out.append("N does not grow at every iteration")
    if not np.all(np.isfinite(err_sq)) or np.any(err_sq <= 0.0):
        out.append("err_sq is not positive at every iteration "
                   f"(smallest {np.nanmin(err_sq):.3e})")
        return out
    err = np.sqrt(err_sq)
    if not np.any(err <= tol):
        out.append(f"error never reached the tolerance {tol:g} "
                   f"(final {err[-1]:.3e})")
    if monotone_rtol is not None:
        rise = np.diff(err_sq).max(initial=-np.inf)
        if rise > monotone_rtol * err_sq[0]:
            out.append(f"err_sq rises by {rise:.3e} between iterations")
    lo, hi = slope_range
    slope = fit_slope(ns, err)
    if not lo <= slope <= hi:
        out.append(f"tail slope {slope:.3f} outside [{lo}, {hi}]")
    for col in ("eff_eta", "eff_mu"):
        vals = np.array([r[col] for r in rows], dtype=float)
        if not np.all(vals >= EFF_MIN):
            out.append(f"{col} falls to {np.nanmin(vals):.3f}, below {EFF_MIN}")
    return out


def same_history(rows_a: list[dict], rows_b: list[dict], rtol: float = 1e-12) -> list[str]:
    """Two runs of one workload give the same rows (apart from wall time)."""
    if len(rows_a) != len(rows_b):
        return [f"runs differ in length: {len(rows_a)} and {len(rows_b)} iterations"]
    for ra, rb in zip(rows_a, rows_b):
        for key, va in ra.items():
            if key == "wall_ms":
                continue
            vb = rb[key]
            if not abs(va - vb) <= rtol * max(abs(va), abs(vb)):
                return [f"runs differ at iteration {ra['iter']} in {key}: {va!r} vs {vb!r}"]
    return []


def corner_problems(breakpoints, multiplicities, degree: int, corners) -> list[str]:
    """Every corner parameter is a breakpoint at multiplicity degree + 1."""
    bps = np.asarray(breakpoints, dtype=float)
    out = []
    for c in corners:
        hit = np.flatnonzero(np.abs(bps - c) < 1e-14)
        m = int(multiplicities[hit[0]]) if len(hit) else 0
        if m != degree + 1:
            out.append(f"corner t={c:.6g} ends at multiplicity {m}, not {degree + 1}")
    return out


# --------------------------------------------------------------------------
# closed forms on the slit gamma(t) = (2t - 1, 0)
# --------------------------------------------------------------------------


def open_knots(breakpoints, multiplicities) -> np.ndarray:
    return np.repeat(np.asarray(breakpoints, dtype=float),
                     np.asarray(multiplicities, dtype=int))


def _hat_elements(knots: np.ndarray):
    """Yield (a, b, i) for every element [a, b] of a degree-1 open knot
    vector; basis functions i - 1 and i are nonzero there, falling from 1
    and rising to 1 across the element."""
    for j in range(len(knots) - 1):
        if knots[j + 1] > knots[j]:
            yield knots[j], knots[j + 1], j


def slit_load_vector(knots: np.ndarray) -> np.ndarray:
    """<f, N_i> for f(t) = (1 - 2t) / 2 and speed 2, exactly.

    f times a hat is quadratic on each element, so two-point Gauss is exact.
    """
    b = np.zeros(len(knots) - 2)
    x = 0.5 + np.array([-0.5, 0.5]) / math.sqrt(3.0)
    for a, e, i in _hat_elements(knots):
        t = a + (e - a) * x
        w = 0.5 * (e - a)
        integrand = (1.0 - 2.0 * t)  # f * speed
        b[i - 1] += w * np.sum(integrand * (e - t) / (e - a))
        b[i] += w * np.sum(integrand * (t - a) / (e - a))
    return b


def _log_moments(u):
    """Antiderivatives of log|u| and u log|u|, continuous at u = 0."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        lg = np.where(u == 0.0, 0.0, np.log(np.abs(u)))
    return u * lg - u, 0.5 * u * u * lg - 0.25 * u * u


def slit_single_layer(knots: np.ndarray, coeffs: np.ndarray, ts) -> np.ndarray:
    """V phi_h at parameters ts, phi_h = sum coeffs[i] N_i.

    In the physical coordinate X = 2t - 1 the density is linear on every
    element and ds = dX, so each element contributes moments of log|X - X0|.
    They are taken in closed form where X0 lies within one element width of
    the element.  Farther away the antiderivatives cancel to a few digits on
    small elements, while 16-point Gauss is exact to rounding there (the
    logarithm is analytic on an ellipse of parameter above 5.8).
    """
    x0 = 2.0 * np.atleast_1d(np.asarray(ts, dtype=float)) - 1.0
    xg, wg = np.polynomial.legendre.leggauss(16)
    xg, wg = 0.5 * (xg + 1.0), 0.5 * wg
    out = np.zeros_like(x0)
    for a, e, i in _hat_elements(knots):
        xa, xb = 2.0 * a - 1.0, 2.0 * e - 1.0
        h = xb - xa
        va, vb = coeffs[i - 1], coeffs[i]  # density at the element ends
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


# --------------------------------------------------------------------------
# the pacman data: Re(z^(4/7)) is harmonic inside the sector
# --------------------------------------------------------------------------


def pacman_interior_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """Points well inside the sector: radius in [0.03, 0.07] of 0.1 and
    angle within 0.6 pi of the axis, away from both edges at 7/8 pi."""
    r = rng.uniform(0.03, 0.07, n)
    ang = rng.uniform(-0.6 * math.pi, 0.6 * math.pi, n)
    return np.column_stack((r * np.cos(ang), r * np.sin(ang)))


def harmonic_reference(pts: np.ndarray) -> np.ndarray:
    z = pts[:, 0] + 1j * pts[:, 1]
    return np.real(z ** (4.0 / 7.0))


def representation_formula(pts: np.ndarray, ys: np.ndarray, normals: np.ndarray,
                           weights: np.ndarray, density: np.ndarray,
                           trace: np.ndarray) -> np.ndarray:
    """u(x) = int G(x, y) phi(y) ds_y - int dG/dn_y(x, y) g(y) ds_y inside
    the domain, G = -log|x - y| / (2 pi), by the given boundary rule
    (``weights`` already carry the arclength element)."""
    d = pts[:, None, :] - ys[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", d, d)
    single = -0.5 * np.log(r2) @ (weights * density)
    dgdn = np.einsum("ijk,jk->ij", d, normals) / r2
    double = dgdn @ (weights * trace)
    return (single - double) / (2.0 * math.pi)
