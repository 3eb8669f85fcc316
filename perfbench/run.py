"""igabem benchmark: time to an accurate adaptive solution.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One run repeats ``igabem.experiments.run_adaptive`` on one workload (see
``workloads.py``) in whole rounds until ``--seconds`` have passed, checks the
result of every round, and prints one JSON object as the last line of
standard output: ``correct``, ``attempted`` and ``failed`` operations (one
operation per iteration of the adaptive loop) and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured without
tracing.  With ``--trace 1`` the rounds alternate between untraced and
traced; the metrics are the per-layer ones from the traced rounds plus the
tracing overhead, and the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REF_ENERGIES = ROOT / "ref_energies.json"
OUT = HERE / "out"
SETUP_SAMPLES = 7


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> None:
    if not (SRC / "igabem" / "__init__.py").is_file():
        _fail(f"no igabem sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------


def setup_probe(name: str) -> None:
    """Import igabem, build the problem and look up its reference energy;
    print the seconds this took.  Runs in a fresh interpreter."""
    t0 = time.perf_counter()
    _import_program()
    from igabem.adaptivity import initial_state
    from igabem.experiments import get_problem, reference_energy

    from workloads import WORKLOADS

    problem = get_problem(WORKLOADS[name].problem)
    initial_state(problem.make_curve())
    reference_energy(problem, cache=REF_ENERGIES)
    print(time.perf_counter() - t0)


def setup_seconds(name: str) -> list[float]:
    """Set-up time of ``SETUP_SAMPLES`` fresh interpreters, one at a time.

    These stay wall seconds: set-up is mostly reading and linking modules,
    which the calibration kernel does not track (scaling by it widened the
    spread of the median from 8% to 12% in a test of six medians of seven).
    """
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", name],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# --------------------------------------------------------------------------
# rounds
# --------------------------------------------------------------------------


class _Count(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.n = 0

    def emit(self, record):
        self.n += 1
        print(f"perfbench: igabem warning: {record.getMessage()}",
              file=sys.stderr)


def run_round(w, calibrate, tracer=None) -> dict:
    """One ``run_adaptive`` call, calibrated after every iteration.

    Returns wall and reference seconds (see ``speed``) of the whole call
    and up to the first iteration within the error tolerance, the record
    (None if it raised) and the number of igabem warnings."""
    from igabem.experiments import run_adaptive
    from speed import SpeedClock

    reached: list[tuple[float, float]] = []

    def progress(row):
        now = clock.mark()
        if not reached and math.sqrt(row["err_sq"]) <= w.tol:
            reached.append(now)

    handler = _Count()
    logger = logging.getLogger("igabem")
    logger.addHandler(handler)
    if tracer is not None:
        tracer.install()
    record = None
    clock = SpeedClock(calibrate)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            record = run_adaptive(w.problem, energy_cache=REF_ENERGIES,
                                  progress=progress, **w.run_kwargs())
    except Exception:
        traceback.print_exc()
    finally:
        total = clock.mark()
        if tracer is not None:
            tracer.uninstall()
        logger.removeHandler(handler)
    own = [c for c in caught if str(SRC) in str(c.filename)]
    for c in own:
        print(f"perfbench: igabem warning: {c.message}", file=sys.stderr)
    to_err = reached[0] if reached else total
    return {"wall": total[0], "ref": total[1], "to_err_wall": to_err[0],
            "to_err_ref": to_err[1], "record": record,
            "warnings": handler.n + len(own)}


def round_ops(w, r) -> tuple[int, int]:
    """(attempted, failed) iterations of one round.  A round that raised,
    warned or stopped below its target N fails as a whole, counting the
    step it stopped at."""
    rows = r["record"].rows if r["record"] is not None else []
    complete = bool(rows) and rows[-1]["N"] >= w.max_dofs
    attempted = len(rows) + (0 if complete else 1)
    ok = complete and r["warnings"] == 0
    return attempted, 0 if ok else attempted


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # one BLAS thread, set before numpy loads here and in the set-up probes:
    # the machine's other load then moves the timings less, and the count is
    # at or below nproc on any machine
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0

    _import_program()
    import numpy as np

    import checks
    import tracing
    from speed import Calibration
    from workloads import WORKLOADS, final_mesh_problems, history_problems

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}, expected one of "
              f"{sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    if not REF_ENERGIES.is_file():
        _fail(f"{REF_ENERGIES} is missing")
    ref_hash = _sha256(REF_ENERGIES)
    # metric names and units, in the order they are reported
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    from igabem.experiments import get_problem, reference_energy

    problem = get_problem(w.problem)
    if problem.energy_exact is None:
        bad = checks.reference_entry_problems(
            REF_ENERGIES, w.problem, problem.make_curve().degree)
        if bad:
            # a missing or unusable reference fails the workload instead of
            # starting a minutes-long extrapolation inside the timed run
            for msg in bad:
                print(f"perfbench: {msg}", file=sys.stderr)
            print(json.dumps({"correct": True, "attempted": 1, "failed": 1,
                              "metrics": {}}))
            return 0
    ref_energy = reference_energy(problem, cache=REF_ENERGIES)

    setup = setup_seconds(w.name)
    calibrate = Calibration()

    tracer = tracing.Tracer() if args.trace else None
    rounds: list[dict] = []
    spans: dict[int, list] = {}
    t_begin = time.perf_counter()
    while (time.perf_counter() - t_begin < args.seconds or not rounds
           or (tracer is not None and not spans)):
        traced = tracer is not None and len(rounds) % 2 == 1
        r = run_round(w, calibrate, tracer if traced else None)
        r["traced"] = traced
        print(f"perfbench: round {len(rounds)}{' traced' if traced else ''}: "
              f"run {r['wall']:.3f} s wall, {r['ref']:.3f} s reference; "
              f"error {w.tol:g} after {r['to_err_wall']:.3f} s wall, "
              f"{r['to_err_ref']:.3f} s reference", file=sys.stderr)
        if traced:
            spans[len(rounds)] = tracer.take()
        rounds.append(r)
        if len(rounds) == 1:  # the memory one run of the workload needs
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = 0
    for r in rounds:
        a, f = round_ops(w, r)
        attempted += a
        failed += f
    good = [r for r in rounds if round_ops(w, r)[1] == 0]

    problems: list[str] = []
    if good:
        first = good[0]["record"]
        problems += history_problems(w, first.rows)
        rng = np.random.default_rng(args.seed)
        problems += final_mesh_problems(w, first, rng, ref_energy)
        for r in good[1:]:
            problems += checks.same_history(first.rows, r["record"].rows)
    if _sha256(REF_ENERGIES) != ref_hash:
        problems.append(f"{REF_ENERGIES.name} changed during the run")
    for msg in problems:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)

    timed = good or rounds  # failed rounds only when nothing else ran
    if tracer is None:
        final_err = math.sqrt(timed[0]["record"].rows[-1]["err_sq"]) \
            if timed[0]["record"] is not None and timed[0]["record"].rows else math.nan
        values = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(r["ref"] for r in timed),
            "time_to_err_s": statistics.median(r["to_err_ref"] for r in timed),
            "peak_rss_mb": peak_rss_mb,
            "final_err": final_err,
        }
    else:
        values = layer_metrics([m["name"] for m in spec["per_layer"]], rounds,
                               spans, calibrate.samples)
        OUT.mkdir(exist_ok=True)
        tracing.write_spans(OUT / f"{w.name}-spans.jsonl", spans)

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec["end_to_end" if tracer is None else "per_layer"]},
    }))
    return 0


def layer_metrics(names: list[str], rounds: list[dict],
                  spans: dict[int, list], calibrations: list[float]) -> dict:
    """Medians over the traced rounds.  Span times are wall seconds; the
    overhead is the median traced run time minus the median untraced one,
    both in reference seconds."""
    import tracing

    per_round = []
    for k, r in enumerate(rounds):
        if not r["traced"] or k not in spans:
            continue
        m = tracing.summarize(spans[k])
        m["experiments.iterations"] = len(r["record"].rows) if r["record"] else 0
        m["experiments.warnings"] = r["warnings"]
        m["trace.run_s"] = r["ref"]
        m["trace.spans"] = len(spans[k])
        per_round.append(m)
    plain = [r["ref"] for r in rounds if not r["traced"]]
    out = {name: statistics.median(m.get(name, 0.0) for m in per_round)
           for name in names}
    out["trace.overhead_s"] = out["trace.run_s"] - statistics.median(plain)
    out["trace.calibration_s"] = statistics.median(calibrations)
    return out


if __name__ == "__main__":
    sys.exit(main())
