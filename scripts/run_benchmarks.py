"""Run the full benchmark matrix and write plot-ready CSV files.

One CSV per run (iteration history) plus one knot histogram per adaptive
run, all into --outdir.  The matrix covers, per problem, a uniform baseline
and the adaptive variants; the slit problem runs all four method/estimator
combinations.  Expect a few minutes per large run.  Prints one line per
run, then the matrix's total wall time.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from igabem.experiments import (
    MATRIX,
    REF_ENERGY_CACHE,
    run_adaptive,
    write_knots_csv,
    write_run_csv,
)
from igabem.solve import fit_rate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="output directory")
    parser.add_argument("--theta", type=float, default=0.75)
    parser.add_argument("--quick", action="store_true",
                        help="stop every run at its first step with 120 or more "
                        "unknowns, for a fast pass")
    parser.add_argument("--energy-cache", default=REF_ENERGY_CACHE)
    args = parser.parse_args(argv)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    for tag, (problem, method, estimator, uniform, max_dofs) in MATRIX.items():
        if args.quick:
            max_dofs = min(max_dofs, 120)
        t0 = time.perf_counter()
        record = run_adaptive(problem, method=method, estimator=estimator,
                              theta=args.theta, max_dofs=max_dofs,
                              uniform=uniform, energy_cache=args.energy_cache)
        err = np.sqrt(record.column("err_sq"))
        slope = fit_rate(record.column("N"), err)
        print("%-40s N=%4d  rate %7.3f  (%.1fs)"
              % (tag, record.rows[-1]["N"], slope, time.perf_counter() - t0),
              flush=True)
        write_run_csv(outdir / f"{tag}.csv", record)
        if not uniform:
            write_knots_csv(outdir / f"{tag}_knots.csv", record.final_state.curve)
    print("total wall time %.1fs" % (time.perf_counter() - start))
    print("wrote CSVs to", outdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
