"""Benchmark problems and adaptive runs.

Three model setups on the builtin geometries: the open slit with a known
density, and Dirichlet problems on the rotated square and the pacman wedge
whose data is a harmonic trace.  Each run drives the solve/estimate/mark
/refine loop and records, per iteration, both estimator totals and the
energy-norm error against a reference energy.

Reference energies for the Dirichlet problems are not known in closed form.
Each is the Calderon pairing <f, phi> = <V phi, phi> of the data with the
exact density, computed once by graded quadrature on the geometry mesh and
cached in a JSON sidecar so later runs (and the CLI) just read the number.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .adaptivity import MeshState, dorfler_marking, initial_state, refine, uniform_refine
from .estimators import faermann_indicators, residual_indicators, sample_residual
from .geometry import Curve, pacman, slit, square
from .operators import (
    DEFAULT_ORDER,
    collocation_matrix,
    dirichlet_rhs,
    galerkin_matrix,
    galerkin_rhs,
)
from .quadrature import gauss_unit, graded_unit
# aitken has no caller here; it stays importable from this module because
# perfbench/tracing.py wraps experiments.aitken by name
from .solve import aitken, energy_error_collocation, energy_error_galerkin, solve_linear  # noqa: F401

logger = logging.getLogger(__name__)

__all__ = [
    "Problem",
    "PROBLEMS",
    "get_problem",
    "RunRecord",
    "run_adaptive",
    "reference_energy",
    "RUN_CSV_HEADER",
    "write_run_csv",
    "read_run_csv",
    "write_knots_csv",
    "MATRIX",
]

# the cache shipped at the source tree's root, whatever the working directory
REF_ENERGY_CACHE = Path(__file__).resolve().parents[2] / "ref_energies.json"
MAX_ITERATIONS = 400  # refinement steps a run takes at most
RUN_CSV_HEADER = "iter,N,n_elements,eta,mu,err_sq,eff_eta,eff_mu,wall_ms"
_INT_COLUMNS = ("iter", "N", "n_elements")

# The benchmark matrix, run by scripts/run_benchmarks.py and by the
# acceptance tests: run tag -> (problem, method, estimator, uniform?,
# max unknowns).
MATRIX = {
    "_".join([problem, method, estimator, "uniform" if uniform else "adaptive"]):
        (problem, method, estimator, uniform, max_dofs)
    for problem, method, estimator, uniform, max_dofs in [
        ("slit", "galerkin", "mu", True, 512),
        ("slit", "galerkin", "mu", False, 500),
        ("slit", "galerkin", "eta", False, 500),
        ("slit", "collocation", "mu", False, 500),
        ("slit", "collocation", "eta", False, 500),
        ("square", "galerkin", "mu", True, 513),
        ("square", "galerkin", "mu", False, 300),
        ("square", "galerkin", "eta", False, 300),
        ("pacman", "galerkin", "mu", True, 650),
        ("pacman", "galerkin", "mu", False, 200),
        ("pacman", "collocation", "eta", False, 200),
    ]
}


@dataclass(frozen=True)
class Problem:
    """One benchmark: geometry, right-hand side, and what is known about it.

    ``rhs_factory(curve, order)`` returns the right-hand side as a function
    of curve parameters.  Its ``curve`` argument is unused: the slit data is
    in closed form, and the Dirichlet data f = (K + 1/2) g depends only on
    the geometry, so it is computed on the geometry mesh ``make_curve()``
    at quadrature order ``order``, whatever mesh the caller analyses.  Each
    returned f memoises its values by parameter, so a run builds f once
    and every mesh of the run shares it.
    ``density_exact(curve, row, tau)`` evaluates the exact density at
    offsets ``tau`` from the element ends ``row`` (2 e + end) of ``curve``,
    as ``Curve.displacement`` addresses points: a point next to a tip or a
    corner, where the density blows up, is measured from that end and
    keeps its digits.  Only tau = 0 at such an end is excluded.
    ``energy_exact`` is the squared energy norm of the exact density when
    known in closed form, otherwise None and ``reference_energy`` computes
    it as the pairing <f, phi>.
    """

    name: str
    make_curve: Callable[[], Curve]
    rhs_factory: Callable[[Curve, int], Callable]
    methods: tuple[str, ...]
    density_exact: Callable[[Curve, np.ndarray, np.ndarray], np.ndarray]
    energy_exact: float | None = None


def _slit_rhs(curve: Curve, order: int):
    # data V phi = f with phi(x) = -x / sqrt(1 - x^2) on the segment
    # gamma(t) = (2t - 1, 0), which gives f(t) = (1 - 2t) / 2
    del curve, order

    def f(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return 0.5 * (1.0 - 2.0 * ts)

    return f


def square_trace(pts: np.ndarray) -> np.ndarray:
    """Harmonic function sinh(2 pi x) cos(2 pi y) on boundary points."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return np.sinh(2.0 * np.pi * pts[:, 0]) * np.cos(2.0 * np.pi * pts[:, 1])


def pacman_trace(pts: np.ndarray) -> np.ndarray:
    """Re(z^(4/7)) on boundary points; the corner value 0 is taken exactly."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    z = pts[:, 0] + 1j * pts[:, 1]
    out = np.zeros(len(z))
    nz = z != 0
    out[nz] = np.real(z[nz] ** (4.0 / 7.0))
    return out


def _dirichlet_factory(make_curve, trace):
    """Data (K + 1/2) g on the geometry mesh ``make_curve()``, memoised by
    exact parameter value inside each f: surviving elements keep their
    Gauss nodes and the corner-graded load rule is self-similar under
    bisection, so most parameters of a step recur from earlier steps."""
    def factory(curve: Curve, order: int):
        del curve  # knot insertion leaves the geometry, and so f, unchanged
        data_curve = make_curve()
        keys = np.empty(0)  # sorted parameters evaluated so far
        vals = np.empty(0)

        def f(ts):
            nonlocal keys, vals
            ts = np.atleast_1d(np.asarray(ts, dtype=float))
            pos = np.searchsorted(keys, ts)
            known = pos < len(keys)
            known[known] = keys[pos[known]] == ts[known]
            if not known.all():
                new = np.unique(ts[~known])
                at = np.searchsorted(keys, new)
                keys = np.insert(keys, at, new)
                vals = np.insert(vals, at,
                                 dirichlet_rhs(data_curve, trace, new, order))
                pos = np.searchsorted(keys, ts)
            return vals[pos]

        return f

    return factory


def _slit_density(curve: Curve, row, tau) -> np.ndarray:
    # -x / sqrt(1 - x^2) with x = 2t - 1 is (t_b - t_a) / (2 sqrt(t_a t_b)),
    # t_a = t - a and t_b = b - t; both are taken from the element end, so
    # each is exact at its own tip
    kv = curve.knots
    end = kv.breakpoint_array[(np.asarray(row) + 1) >> 1]
    ta = (end - kv.a) + tau
    tb = (kv.b - end) - tau
    return (tb - ta) / (2.0 * np.sqrt(ta * tb))


def _normal_derivative(dw):
    """Exact density of the data g = Re w(z), w analytic with derivative
    ``dw``: dg / dnu = Re(w'(z) nu), z and the unit normal nu = -i gamma' /
    |gamma'| taken as complex numbers from displacements from the end."""
    def density(curve: Curve, row, tau) -> np.ndarray:
        d = curve.displacement(row, tau, 1)
        z = curve.end_points[row] + d[..., 0, :]
        tan = d[..., 1, 0] + 1j * d[..., 1, 1]
        return np.real(dw(z[..., 0] + 1j * z[..., 1]) * -1j * tan / np.abs(tan))

    return density


PROBLEMS = {
    "slit": Problem(
        name="slit",
        make_curve=slit,
        rhs_factory=_slit_rhs,
        methods=("galerkin", "collocation"),
        density_exact=_slit_density,
        energy_exact=np.pi / 4.0,
    ),
    "square": Problem(
        name="square",
        make_curve=square,
        rhs_factory=_dirichlet_factory(square, square_trace),
        methods=("galerkin",),
        # sinh(2 pi x) cos(2 pi y) = Re sinh(2 pi z); its normal
        # derivative jumps at the corners
        density_exact=_normal_derivative(
            lambda z: 2.0 * np.pi * np.cosh(2.0 * np.pi * z)),
    ),
    "pacman": Problem(
        name="pacman",
        make_curve=pacman,
        rhs_factory=_dirichlet_factory(pacman, pacman_trace),
        methods=("galerkin", "collocation"),
        # Re z^(4/7), unbounded at the reentrant corner z = 0, which is the
        # exact end point of both its elements: z = 0 only at tau = 0 there
        density_exact=_normal_derivative(lambda z: (4.0 / 7.0) * z ** (-3.0 / 7.0)),
    ),
}


def get_problem(problem) -> Problem:
    if isinstance(problem, Problem):
        return problem
    try:
        return PROBLEMS[str(problem)]
    except KeyError:
        raise ValueError(
            f"unknown problem {problem!r}, expected one of {sorted(PROBLEMS)}"
        ) from None


# --------------------------------------------------------------------------
# reference energies
# --------------------------------------------------------------------------


# Gauss points per panel and dyadic grading levels of the pairing rule, and
# the next rule up, whose value checks it.  The slit density grows like
# t^(-1/2) at its tips, so the levels go far below the 48 of the operators:
# at 60 levels the pairing misses pi / 4 by 1.8e-11.
PAIRING_RULE = (24, 100)
PAIRING_CHECK_RULE = (32, 112)
PAIRING_GAP_WARN = 1e-12  # relative gap between the two rules that is logged


def _pairing(problem: Problem, n: int, levels: int, order: int) -> float:
    """<f, phi> = <V phi, phi>, the squared energy norm of the exact density.

    Quadrature on the geometry mesh ``problem.make_curve()``: each element
    is split at its midpoint and each half is measured from its own element
    end (row 2 e + end, tau = +-(h / 2) x).  A half whose end is a corner or
    an open end, where the density blows up, takes ``graded_unit(n,
    levels)``, the others ``gauss_unit(n)``.  Speeds and the density come
    from displacements from the end; only f takes parameters.
    """
    curve = problem.make_curve()
    kv = curve.knots
    # element ends on a corner or an open end; element e ends at node
    # (e + 1) % n_nodes, and row 2 e + end is entry (e, end)
    singular = np.isin(kv.nodes, curve.corner_params())
    if not kv.periodic:
        singular[[0, -1]] = True
    singular = np.column_stack((singular, np.roll(singular, -1)))[: kv.n_elements]
    rules = []
    for rows, (xs, ws) in ((np.flatnonzero(singular), graded_unit(n, levels)),
                           (np.flatnonzero(~singular), gauss_unit(n))):
        half = 0.5 * kv.widths[rows // 2]
        rules.append((rows.repeat(len(xs)),
                      np.outer(np.where(rows % 2, -half, half), xs).ravel(),
                      np.outer(half, ws).ravel()))
    row, tau, w = (np.concatenate(parts) for parts in zip(*rules))
    d1 = curve.displacement(row, tau, 1)[:, 1]
    f = problem.rhs_factory(curve, order)
    fv = f(kv.wrap(kv.breakpoint_array[(row + 1) >> 1] + tau))
    phi = problem.density_exact(curve, row, tau)
    return float(np.sum(w * fv * phi * np.hypot(d1[:, 0], d1[:, 1])))


def reference_energy(problem, cache: str | Path | None = REF_ENERGY_CACHE,
                     order: int = DEFAULT_ORDER) -> float:
    """Squared energy norm of the exact density, exact or from the pairing.

    Known values short-circuit.  Otherwise the cache file is consulted, and
    on a miss the energy is the pairing <f, phi> of the data (at quadrature
    order ``order``) with the exact density, at ``PAIRING_RULE``.  It is
    stored under the problem name with its ``degree`` and the
    ``relative_gap`` to the pairing at ``PAIRING_CHECK_RULE``; a gap above
    ``PAIRING_GAP_WARN`` is logged.  A cached entry that is not an object,
    whose energy is not a finite positive number, or whose ``degree``
    differs from the problem's curve, is reported and treated as a miss,
    and so is a cache file that is not a JSON object, which is left as it
    is; a usable entry is returned as stored, without recomputing the
    pairing.
    """
    problem = get_problem(problem)
    if problem.energy_exact is not None:
        return float(problem.energy_exact)

    degree = problem.make_curve().degree
    path = Path(cache) if cache is not None else None
    data: dict | None = {}
    if path is not None and path.exists():
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # not JSON, or not UTF-8 text
            data = exc
        if not isinstance(data, dict):
            logger.warning("ignoring reference energy cache %s, left as it is: "
                           "not a JSON object (%.60s)", path, data)
            data = None
    entry = data.get(problem.name) if data is not None else None
    if entry is not None:
        energy = entry.get("energy") if isinstance(entry, dict) else None
        if not isinstance(entry, dict):
            why = f"entry {entry!r} is not an object"
        elif entry.get("degree") != degree:
            why = f"degree {entry.get('degree')}, the curve has degree {degree}"
        elif not (isinstance(energy, (int, float)) and np.isfinite(energy)
                  and energy > 0.0):
            why = f"energy {energy!r} is not a finite positive number"
        else:
            return float(energy)
        logger.warning("ignoring cached reference energy for %s: %s",
                       problem.name, why)

    logger.info("computing reference energy for %s", problem.name)
    energy, check = (_pairing(problem, *rule, order)
                     for rule in (PAIRING_RULE, PAIRING_CHECK_RULE))
    gap = abs(energy - check) / energy
    if gap > PAIRING_GAP_WARN:
        logger.warning("reference energy of %s moves by %.3g relative between "
                       "quadrature rules %s and %s", problem.name, gap,
                       PAIRING_RULE, PAIRING_CHECK_RULE)
    if path is not None and data is not None:
        data[problem.name] = {"energy": energy, "degree": degree,
                              "relative_gap": gap}
        try:
            _write_json_atomic(path, data)
        except OSError as exc:
            logger.warning("could not store the reference energy of %s in %s: %s",
                           problem.name, path, exc)
    return energy


def _write_json_atomic(path: Path, data: dict) -> None:
    """Write JSON to a temporary file beside ``path``, then move it over
    ``path``: readers see the old file or the new one, never a partial one."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# --------------------------------------------------------------------------
# adaptive runs
# --------------------------------------------------------------------------


@dataclass
class RunRecord:
    """Per-iteration history of one run, plus the final mesh."""

    problem: str
    method: str
    estimator: str
    theta: float
    uniform: bool
    degree: int
    energy_ref: float
    rows: list[dict]
    final_state: MeshState

    def column(self, name: str) -> np.ndarray:
        dtype = int if name in _INT_COLUMNS else float
        return np.array([row[name] for row in self.rows], dtype=dtype)


def run_adaptive(problem, method: str = "galerkin", estimator: str = "mu",
                 theta: float = 0.75, max_dofs: int = 500,
                 order: int = DEFAULT_ORDER, uniform: bool = False,
                 energy_cache: str | Path | None = REF_ENERGY_CACHE,
                 progress: Callable[[dict], None] | None = None) -> RunRecord:
    """Drive solve/estimate/mark/refine until ``max_dofs`` unknowns.

    Both estimator totals are recorded every iteration; ``estimator`` only
    selects which one steers the marking.  With ``uniform=True`` every node
    is marked instead, which bisects every element above the width floor.
    Collocation runs also assemble the Galerkin system of the same space,
    since the error identity needs it.
    """
    problem = get_problem(problem)
    if method not in problem.methods:
        raise ValueError(f"problem {problem.name!r} supports methods "
                         f"{problem.methods}, not {method!r}")
    if estimator not in ("eta", "mu"):
        raise ValueError(f"estimator must be 'eta' or 'mu', not {estimator!r}")
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")

    energy_ref = reference_energy(problem, cache=energy_cache, order=order)
    state = initial_state(problem.make_curve())
    f = problem.rhs_factory(state.curve, order)
    rows: list[dict] = []

    for it in range(MAX_ITERATIONS):
        t0 = time.perf_counter()
        curve = state.curve
        kv = curve.knots
        A = galerkin_matrix(curve, order)
        b = galerkin_rhs(curve, f, order)
        if method == "galerkin":
            c, _ = solve_linear(A, b)
            err_sq = energy_error_galerkin(energy_ref, c, b)
        else:
            B = collocation_matrix(curve, order)
            c, _ = solve_linear(B, f(kv.collocation_points()))
            err_sq = energy_error_collocation(energy_ref, c, A, b)
        if not np.all(np.isfinite(c)):
            logger.warning("solver failure at N=%d, returning partial record",
                           kv.dim)
            break
        if err_sq <= 0.0:
            logger.warning("energy error fell below the reference resolution "
                           "at N=%d, stopping", kv.dim)
            break

        res = sample_residual(curve, c, f, order)
        eta_sq = faermann_indicators(res)
        mu_sq = residual_indicators(res)
        eta = float(np.sqrt(eta_sq.sum()))
        mu = float(np.sqrt(mu_sq.sum()))
        err = float(np.sqrt(err_sq))
        row = {
            "iter": it,
            "N": kv.dim,
            "n_elements": kv.n_elements,
            "eta": eta,
            "mu": mu,
            "err_sq": err_sq,
            "eff_eta": eta / err if err > 0.0 else np.inf,
            "eff_mu": mu / err if err > 0.0 else np.inf,
            "wall_ms": (time.perf_counter() - t0) * 1e3,
        }
        rows.append(row)
        if progress is not None:
            progress(row)
        if kv.dim >= max_dofs:
            break
        new_state = (uniform_refine(state) if uniform else
                     refine(state, dorfler_marking(
                         eta_sq if estimator == "eta" else mu_sq, theta)))
        if new_state is state:
            logger.info("mesh saturated at N=%d, stopping", kv.dim)
            break
        state = new_state

    return RunRecord(
        problem=problem.name,
        method=method,
        estimator=estimator,
        theta=theta,
        uniform=uniform,
        degree=state.curve.degree,
        energy_ref=energy_ref,
        rows=rows,
        final_state=state,
    )


# --------------------------------------------------------------------------
# CSV output
# --------------------------------------------------------------------------


def _format_cell(name: str, value) -> str:
    if name in _INT_COLUMNS:
        return str(int(value))
    return "%.17g" % float(value)


def write_run_csv(path: str | Path, record: RunRecord) -> None:
    """Write the per-iteration history, one row per refinement step."""
    names = RUN_CSV_HEADER.split(",")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for row in record.rows:
            writer.writerow([_format_cell(n, row[n]) for n in names])


def read_run_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Read a run history back as column arrays, validating the header and
    the field count of every row (a file cut short ends in a short row)."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RUN_CSV_HEADER.split(","):
            raise ValueError(f"unexpected header {header!r} in {path}")
        rows = []
        for row in filter(None, reader):
            if len(row) != len(header):
                raise ValueError(f"line {reader.line_num} of {path} has {len(row)} "
                                 f"fields against the header's {len(header)}")
            rows.append(row)
    out: dict[str, np.ndarray] = {}
    for j, name in enumerate(header):
        dtype = int if name in _INT_COLUMNS else float
        out[name] = np.array([dtype(row[j]) for row in rows], dtype=dtype)
    return out


def write_knots_csv(path: str | Path, curve: Curve) -> None:
    """Dump the mesh nodes (``KnotVector.nodes``, so a closed curve's seam
    once) as node/multiplicity rows.

    ``is_max`` flags knots at full multiplicity degree + 1, where the
    discrete space allows a jump.
    """
    kv = curve.knots
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "multiplicity", "is_max"])
        # node z is breakpoint z; zip stops after the last node
        for t, m in zip(kv.nodes, kv.multiplicities):
            writer.writerow(["%.17g" % t, int(m), int(m == kv.degree + 1)])
