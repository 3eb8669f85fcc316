"""Command line front end: run benchmarks and fit rates from their CSVs."""

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
from .operators import DEFAULT_ORDER
from .solve import fit_rate


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
        estimator=args.estimator,
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
    run.add_argument("--estimator", choices=("eta", "mu"), default="mu",
                     help="Faermann (eta) or weighted residual (mu)")
    run.add_argument("--theta", type=float, default=0.75)
    run.add_argument("--uniform", action="store_true",
                     help="mark every node instead of Doerfler marking")
    run.add_argument("--max-dofs", type=int, default=500)
    run.add_argument("--quad-order", type=int, default=DEFAULT_ORDER)
    run.add_argument("--out", help="write per-iteration CSV here")
    run.add_argument("--knots-out", help="write final knot histogram CSV here")
    run.add_argument("--energy-cache", default=REF_ENERGY_CACHE,
                     help="JSON sidecar caching reference energies")
    run.set_defaults(func=_cmd_run)

    rates = sub.add_parser("rates", help="fit log-log slopes from run CSVs")
    rates.add_argument("csv", nargs="+", help="CSV files written by 'run'")
    rates.set_defaults(func=_cmd_rates)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
