"""Command line front end: run benchmarks, self-check the build, fit rates."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .experiments import (
    PROBLEMS,
    REF_ENERGY_CACHE,
    read_run_csv,
    run_adaptive,
    write_knots_csv,
    write_run_csv,
)
from .solve import fit_rate

_ESTIMATOR_ALIASES = {
    "eta": "eta",
    "faermann": "eta",
    "mu": "mu",
    "residual": "mu",
}


def _cmd_run(args) -> int:
    def progress(row):
        print(
            "iter %3d  N %5d  elements %5d  eta %.6e  mu %.6e  err %.6e"
            % (row["iter"], row["N"], row["n_elements"], row["eta"],
               row["mu"], np.sqrt(row["err_sq"])),
            flush=True,
        )

    record = run_adaptive(
        args.problem,
        method=args.method,
        estimator=_ESTIMATOR_ALIASES[args.estimator],
        theta=args.theta,
        max_dofs=args.max_dofs,
        order=args.quad_order,
        uniform=args.uniform,
        energy_cache=args.energy_cache,
        progress=progress,
    )
    err = np.sqrt(record.column("err_sq"))
    slope, rms = fit_rate(record.column("N"), err, with_residual=True)
    print("reference energy %.12g" % record.energy_ref)
    print("error rate %.3f (tail fit rms %.3f) over %d iterations"
          % (slope, rms, len(record.rows)))
    if args.out:
        write_run_csv(args.out, record)
        print("wrote", args.out)
    if args.knots_out:
        write_knots_csv(args.knots_out, record.final_state.curve)
        print("wrote", args.knots_out)
    return 0


def _cmd_rates(args) -> int:
    status = 0
    for path in args.csv:
        try:
            cols = read_run_csv(path)
        except (OSError, ValueError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            status = 1
            continue
        ns = cols["N"]
        print(path)
        for label, vals in (("err", np.sqrt(cols["err_sq"])),
                            ("eta", cols["eta"]), ("mu", cols["mu"])):
            slope, rms = fit_rate(ns, vals, with_residual=True)
            print("  %-4s slope %8.4f  (tail fit rms %.4f)" % (label, slope, rms))
    return status


def _verify_checks(quick: bool):
    """Yield (name, passed, detail) tuples; cheap oracles first."""
    from .estimators import (
        faermann_indicators,
        partition_quality,
        residual_indicators,
        sample_residual,
    )
    from .geometry import circle, pacman, slit, square
    from .operators import collocation_matrix, galerkin_matrix, galerkin_rhs, single_layer_values
    from .solve import aitken, solve_linear

    A1 = galerkin_matrix(slit(), 16)
    val = float(A1.sum())
    want = (3.0 - 2.0 * np.log(2.0)) / np.pi
    yield ("slit <V1,1> equals (3-2log2)/pi", abs(val - want) <= 1e-10,
           f"{val:.12g} vs {want:.12g}")

    ones = np.ones(slit().knots.dim)
    v0 = float(single_layer_values(slit(), ones, np.array([0.5]), 16)[0])
    yield ("slit V1 at the midpoint equals 1/pi", abs(v0 - 1.0 / np.pi) <= 1e-10,
           f"{v0:.12g} vs {1.0 / np.pi:.12g}")

    c = circle(0.3)
    vc = single_layer_values(c, np.ones(c.knots.dim), np.linspace(0, 1, 7), 16)
    want_c = -0.3 * np.log(0.3)
    yield ("circle V1 is constant -R log R", bool(np.all(np.abs(vc - want_c) <= 1e-10)),
           f"max dev {np.max(np.abs(vc - want_c)):.2e}")

    pac = pacman()
    Ap = galerkin_matrix(pac, 12)
    sym = float(np.max(np.abs(Ap - Ap.T)) / np.max(np.abs(Ap)))
    eig = float(np.linalg.eigvalsh(0.5 * (Ap + Ap.T)).min())
    yield ("pacman Galerkin matrix symmetric and positive definite",
           sym <= 1e-10 and eig > 0.0, f"asym {sym:.2e}, min eig {eig:.3e}")

    acc, ok = aitken([1.0 + 0.5 ** k for k in range(8)])
    yield ("Aitken reproduces a geometric limit", ok and abs(acc - 1.0) <= 1e-12,
           f"{acc:.12g}")

    check = partition_quality(pac, 16)
    yield ("quasi-interpolant diagnostic on pacman", check.contained and check.q_min > 0.0,
           f"q_min {check.q_min:.4f}")

    # small slit solve: estimator totals finite, local bound holds
    from .adaptivity import initial_state, refine, dorfler_marking
    state = initial_state(slit())
    for _ in range(6):
        curve = state.curve
        f = PROBLEMS["slit"].rhs_factory(curve, 16)
        A = galerkin_matrix(curve, 16)
        b = galerkin_rhs(curve, f, 16)
        coef, _ = solve_linear(A, b)
        res = sample_residual(curve, coef, f, 16)
        eta = np.sqrt(faermann_indicators(res))
        mu_arc = np.sqrt(residual_indicators(res, weight="arclength"))
        bound = bool(np.all(eta <= np.sqrt(2.0) * mu_arc + 1e-6))
        if not bound:
            break
        state = refine(state, dorfler_marking(eta ** 2, 0.75))
    yield ("slit local bound eta <= sqrt(2) mu at every node", bound,
           f"final mesh {state.curve.knots.n_elements} elements")

    try:
        collocation_matrix(square(), 8)
        corner_guard = False
    except ValueError:
        corner_guard = True
    yield ("square collocation rejected (corner collocation points)",
           corner_guard, "ValueError raised" if corner_guard else "no error")

    if quick:
        return

    rec = run_adaptive("slit", method="galerkin", estimator="mu",
                       max_dofs=160, energy_cache=None)
    slope = fit_rate(rec.column("N"), np.sqrt(rec.column("err_sq")))
    effs = np.concatenate([rec.column("eff_eta"), rec.column("eff_mu")])
    yield ("slit adaptive rate reaches about N^-5/2", slope <= -1.8,
           f"slope {slope:.3f}")
    yield ("slit adaptive efficiencies stay moderate",
           bool(np.all((effs > 0.02) & (effs < 20.0))),
           f"range [{effs.min():.2f}, {effs.max():.2f}]")

    rec = run_adaptive("slit", method="galerkin", estimator="mu",
                       max_dofs=128, uniform=True, energy_cache=None)
    slope = fit_rate(rec.column("N"), np.sqrt(rec.column("err_sq")))
    yield ("slit uniform rate near N^-1/2", -0.75 <= slope <= -0.3,
           f"slope {slope:.3f}")


def _cmd_verify(args) -> int:
    failures = 0
    for name, passed, detail in _verify_checks(args.quick):
        print("%s %s (%s)" % ("PASS" if passed else "FAIL", name, detail))
        failures += 0 if passed else 1
    total = "all checks passed" if failures == 0 else f"{failures} check(s) failed"
    print(total)
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igabem",
        description="Adaptive isogeometric BEM for the 2D single-layer equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one benchmark and log each iteration")
    run.add_argument("--problem", choices=sorted(PROBLEMS), required=True)
    run.add_argument("--method", choices=("galerkin", "collocation"),
                     default="galerkin")
    run.add_argument("--estimator", choices=sorted(_ESTIMATOR_ALIASES),
                     default="mu", help="faermann/eta or residual/mu")
    run.add_argument("--theta", type=float, default=0.75)
    run.add_argument("--uniform", action="store_true",
                     help="refine every element instead of marking")
    run.add_argument("--max-dofs", type=int, default=500)
    run.add_argument("--quad-order", type=int, default=16)
    run.add_argument("--out", help="write per-iteration CSV here")
    run.add_argument("--knots-out", help="write final knot histogram CSV here")
    run.add_argument("--energy-cache", default=REF_ENERGY_CACHE,
                     help="JSON sidecar holding extrapolated reference energies")
    run.set_defaults(func=_cmd_run)

    verify = sub.add_parser("verify", help="run oracle and property self-checks")
    verify.add_argument("--quick", action="store_true",
                        help="skip the small convergence runs")
    verify.set_defaults(func=_cmd_verify)

    rates = sub.add_parser("rates", help="fit log-log slopes from run CSVs")
    rates.add_argument("csv", nargs="+", help="CSV files written by 'run'")
    rates.set_defaults(func=_cmd_rates)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
