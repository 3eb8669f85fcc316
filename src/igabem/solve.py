"""Linear solves and energy-norm error identities.

The energy norm is |||psi|||^2 = <V psi, psi>.  For the Galerkin solution c
of A c = b the error against the exact density phi satisfies

    |||phi - phi_h|||^2 = |||phi|||^2 - c . b

by Galerkin orthogonality.  A density c' obtained by any other method (here:
collocation) is measured through

    |||phi - phi'|||^2 = |||phi|||^2 - 2 c' . b + c' . A c'

with the Galerkin matrix A and load b of the same space; equivalently this is
the Galerkin error plus |||phi_h - phi'|||^2, so the cross term never helps.
"""

from __future__ import annotations

import logging

import numpy as np

logger = logging.getLogger(__name__)

__all__ = [
    "solve_linear",
    "aitken",
    "energy_error_galerkin",
    "energy_error_collocation",
    "fit_rate",
]

_COND_WARN = 1e13


def solve_linear(A: np.ndarray, b: np.ndarray):
    """LU solve returning (solution, 1-norm condition estimate).

    The matrix is symmetrically equilibrated by its diagonal first; on
    strongly graded meshes the raw matrix mixes element scales over many
    orders of magnitude and the plain condition number reports that scaling,
    not actual solve instability.  The estimate refers to the equilibrated
    matrix.
    """
    # imported here, so that only a program that solves loads scipy
    from scipy.linalg import lapack, lu_factor, lu_solve

    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    d = np.abs(np.diagonal(A))
    scale = 1.0 / np.sqrt(np.where(d > 0.0, d, 1.0))
    As = A * scale[:, None] * scale[None, :]
    lu, piv = lu_factor(As)
    x = scale * lu_solve((lu, piv), scale * b)
    anorm = np.linalg.norm(As, 1)
    rcond, info = lapack.dgecon(lu, anorm, norm="1")
    cond = 1.0 / rcond if info == 0 and rcond > 0.0 else np.inf
    if cond > _COND_WARN:
        logger.warning("system matrix badly conditioned: cond ~ %.2e", cond)
    return x, cond


def aitken(seq) -> tuple[float, bool]:
    """Accelerated limit of a linearly converging sequence.

    Applies the delta-squared update and returns the last stable entry
    together with a flag; stability means the second difference is clearly
    above rounding level.  Falls back to (last element, False) when no entry
    qualifies.  Exact for x_i = L + c q^i.
    """
    x = np.asarray(seq, dtype=float)
    if len(x) < 3:
        return (float(x[-1]) if len(x) else np.nan), False
    d2 = x[2:] - 2.0 * x[1:-1] + x[:-2]
    scale = np.max(np.abs(x))
    stable = np.abs(d2) > 64.0 * np.finfo(float).eps * max(scale, 1e-300)
    if not stable.any():
        return float(x[-1]), False
    i = int(np.flatnonzero(stable)[-1])
    y = x[i + 2] - (x[i + 2] - x[i + 1]) ** 2 / d2[i]
    return float(y), True


def energy_error_galerkin(energy_sq: float, c: np.ndarray, b: np.ndarray) -> float:
    """Squared energy error of a Galerkin solution, clamped at zero."""
    err_sq = float(energy_sq) - float(np.dot(c, b))
    if err_sq < 0.0:
        # only reachable through rounding or an inexact reference energy
        logger.warning("negative squared error %.3e clamped to 0", err_sq)
        return 0.0
    return err_sq


def energy_error_collocation(energy_sq: float, c: np.ndarray, A: np.ndarray,
                             b: np.ndarray) -> float:
    """Squared energy error of a non-Galerkin density in the same space."""
    c = np.asarray(c, dtype=float)
    err_sq = float(energy_sq) - 2.0 * float(np.dot(c, b)) + float(c @ A @ c)
    if err_sq < 0.0:
        logger.warning("negative squared error %.3e clamped to 0", err_sq)
        return 0.0
    return err_sq


def fit_rate(ns, errs, with_residual: bool = False):
    """Least-squares slope of log(err) against log(N) over the tail rows.

    Uses the last half of the samples, at least four; fewer than four rows
    give the slope through all of them.  With ``with_residual`` the RMS
    deviation of the tail fit is returned as a second value.
    """
    ns = np.asarray(ns, dtype=float)
    errs = np.asarray(errs, dtype=float)
    keep = (errs > 0.0) & (ns > 0.0)
    ns, errs = ns[keep], errs[keep]
    if len(ns) < 2:
        return (np.nan, np.nan) if with_residual else np.nan
    tail = min(len(ns), max(4, (len(ns) + 1) // 2))
    x = np.log(ns[-tail:])
    y = np.log(errs[-tail:])
    coef = np.polyfit(x, y, 1)
    if with_residual:
        rms = float(np.sqrt(np.mean((y - np.polyval(coef, x)) ** 2)))
        return float(coef[0]), rms
    return float(coef[0])
