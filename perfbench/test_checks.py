"""Each benchmark check accepts a sound result and rejects a perturbed one.

Run from the root of a source checkout:

    python3 -m pytest -q perfbench/test_checks.py
"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from igabem.adaptivity import initial_state, uniform_refine  # noqa: E402
from igabem.experiments import get_problem  # noqa: E402
from igabem.geometry import slit  # noqa: E402
from igabem.operators import galerkin_rhs, single_layer_values  # noqa: E402

ADAPTIVE = workloads.WORKLOADS["pacman-galerkin-adaptive"]
UNIFORM = workloads.WORKLOADS["slit-galerkin-uniform"]


def _rows(ns, rate, err0=0.1, eff=2.0):
    ns = np.asarray(ns, dtype=float)
    errs = err0 * (ns / ns[0]) ** rate
    return [{"iter": k, "N": int(n), "n_elements": int(n) - 1,
             "eta": eff * e, "mu": eff * e, "err_sq": e * e,
             "eff_eta": eff, "eff_mu": eff, "wall_ms": 1.0}
            for k, (n, e) in enumerate(zip(ns, errs))]


def _adaptive_rows():
    return _rows(np.round(11 * 1.1 ** np.arange(12)).astype(int) + np.arange(12), -4.0)


def _uniform_rows():
    return _rows(2 ** np.arange(10) + 1, -0.5, err0=0.3)


def test_sound_histories_pass():
    rows = _adaptive_rows()
    w = replace(ADAPTIVE, max_dofs=rows[-1]["N"], tol=rows[5]["err_sq"] ** 0.5)
    assert workloads.history_problems(w, rows) == []
    rows = _uniform_rows()
    w = replace(UNIFORM, max_dofs=rows[-1]["N"], tol=0.1)
    assert workloads.history_problems(w, rows) == []


def test_record_cut_short_is_rejected():
    rows = _uniform_rows()
    w = replace(UNIFORM, max_dofs=rows[-1]["N"], tol=0.1)
    out = workloads.history_problems(w, rows[:-2])
    assert any("below its target" in msg for msg in out)


def test_galerkin_energy_above_reference_is_rejected():
    rows = _uniform_rows()
    # err_sq = E_ref - c.b, so an energy above the reference makes it negative
    rows[6]["err_sq"] = -1e-6
    w = replace(UNIFORM, max_dofs=rows[-1]["N"], tol=0.1)
    out = workloads.history_problems(w, rows)
    assert any("not positive" in msg for msg in out)


def test_rising_galerkin_error_is_rejected():
    rows = _uniform_rows()
    rows[6]["err_sq"] = rows[5]["err_sq"] * 1.01
    w = replace(UNIFORM, max_dofs=rows[-1]["N"], tol=0.1)
    assert any("rises" in msg for msg in workloads.history_problems(w, rows))


def test_uniform_slope_fails_the_adaptive_slope_check():
    rows = _uniform_rows()
    w = replace(ADAPTIVE, max_dofs=rows[-1]["N"], tol=0.1)
    out = workloads.history_problems(w, rows)
    assert any("tail slope" in msg for msg in out)


def test_unreliable_estimator_is_rejected():
    rows = _adaptive_rows()
    rows[3]["eff_mu"] = 0.01
    out = checks.history_problems(rows, rows[-1]["N"], 1.0, (-math.inf, -3.0), None)
    assert any("eff_mu" in msg for msg in out)


def test_pacman_corner_at_multiplicity_p_is_rejected():
    curve = get_problem("pacman").make_curve()
    state = initial_state(curve)
    refined = state.curve.refined([1.0 / 6.0, 5.0 / 6.0])  # raise to p + 1
    kv = refined.knots
    corners = workloads.PACMAN_CORNERS
    assert checks.corner_problems(kv.breakpoints, kv.multiplicities, kv.degree,
                                  corners) == []
    kv0 = curve.knots  # corners 1/6 and 5/6 still at multiplicity p
    out = checks.corner_problems(kv0.breakpoints, kv0.multiplicities, kv0.degree,
                                 corners)
    assert len(out) == 2


def test_differing_rounds_are_rejected():
    rows = _adaptive_rows()
    other = [dict(r) for r in rows]
    assert checks.same_history(rows, other) == []
    other[4]["eta"] *= 1.0 + 1e-9
    assert checks.same_history(rows, other)


def test_reference_entries(tmp_path):
    repo_file = ROOT / "ref_energies.json"
    assert checks.reference_entry_problems(repo_file, "pacman", 2) == []
    assert checks.reference_entry_problems(repo_file, "pacman", 1)
    data = json.loads(repo_file.read_text(encoding="utf-8"))
    data["pacman"]["relative_gap"] = 5e-3
    bad = tmp_path / "ref.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    assert checks.reference_entry_problems(bad, "pacman", 2)
    del data["pacman"]
    bad.write_text(json.dumps(data), encoding="utf-8")
    assert checks.reference_entry_problems(bad, "pacman", 2)


def test_slit_closed_forms_match_the_program():
    # one element with density 1: V 1 at the midpoint is 1/pi
    one = checks.open_knots((0.0, 1.0), (2, 2))
    v = checks.slit_single_layer(one, np.ones(2), [0.5])
    assert v[0] == pytest.approx(1.0 / math.pi, rel=1e-14)
    state = initial_state(slit())
    for _ in range(4):
        state = uniform_refine(state)
    curve = state.curve.refined([0.25])  # a double knot: a jump is allowed
    kv = curve.knots
    knots = checks.open_knots(kv.breakpoints, kv.multiplicities)
    f = get_problem("slit").rhs_factory(curve, workloads.ORDER)
    b = checks.slit_load_vector(knots)
    np.testing.assert_allclose(galerkin_rhs(curve, f, workloads.ORDER), b,
                               rtol=0, atol=1e-15)
    c = np.random.default_rng(0).normal(size=kv.dim)
    ts = np.random.default_rng(1).uniform(0.0, 1.0, 50)
    np.testing.assert_allclose(single_layer_values(curve, c, ts),
                               checks.slit_single_layer(knots, c, ts),
                               rtol=0, atol=workloads.POTENTIAL_TOL)
    perturbed = c.copy()
    perturbed[3] += 1e-6
    assert np.abs(single_layer_values(curve, perturbed, ts)
                  - checks.slit_single_layer(knots, c, ts)).max() \
        > workloads.POTENTIAL_TOL


def test_representation_formula_reproduces_a_harmonic_function():
    # on the unit circle, u = x has density du/dn = x; the rule is exact
    # enough with 400 equispaced points for interior points at radius 0.5
    th = np.linspace(0.0, 2.0 * np.pi, 400, endpoint=False)
    ys = np.column_stack((np.cos(th), np.sin(th)))
    w = np.full(len(th), 2.0 * np.pi / len(th))
    pts = np.array([[0.5, 0.0], [0.0, -0.3], [-0.2, 0.1]])
    u = checks.representation_formula(pts, ys, ys, w, ys[:, 0], ys[:, 0])
    np.testing.assert_allclose(u, pts[:, 0], atol=1e-12)
    wrong = checks.representation_formula(pts, ys, ys, w, -ys[:, 0], ys[:, 0])
    assert np.abs(wrong - pts[:, 0]).max() > 0.1


def test_round_counts_a_short_run_as_failed():
    import run

    class Rec:
        def __init__(self, rows):
            self.rows = rows

    rows = _uniform_rows()
    w = replace(UNIFORM, max_dofs=rows[-1]["N"])
    assert run.round_ops(w, {"record": Rec(rows), "warnings": 0}) == (10, 0)
    assert run.round_ops(w, {"record": Rec(rows[:-1]), "warnings": 0}) == (10, 10)
    assert run.round_ops(w, {"record": Rec(rows), "warnings": 1}) == (10, 10)
    assert run.round_ops(w, {"record": None, "warnings": 0}) == (1, 1)


def test_tracer_restores_the_program_and_splits_self_time():
    import igabem.experiments as ex
    from igabem.geometry import Curve

    before = (ex.galerkin_matrix, Curve.frame)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ex.galerkin_matrix is not before[0]
        ex.galerkin_matrix(slit())
    finally:
        tracer.uninstall()
    assert (ex.galerkin_matrix, Curve.frame) == before
    spans = tracer.take()
    m = tracing.summarize(spans)
    assert m["operators.galerkin_matrix.pairs"] == 1
    assert m["operators.galerkin_matrix.total_s"] == pytest.approx(
        sum(v for k, v in m.items() if k.endswith(".s")), rel=1e-9)

    synthetic = [["a", -1, 0.0, 10.0, None, None],
                 ["b", 0, 1.0, 4.0, None, None],
                 ["c", 1, 2.0, 3.0, None, None]]
    m = tracing.summarize(synthetic)
    assert (m["a.s"], m["b.s"], m["c.s"]) == (7.0, 2.0, 1.0)


def test_speed_clock_scales_wall_time_by_the_calibration():
    import time

    import speed

    at_reference = speed.SpeedClock(lambda: speed.REFERENCE_S)
    time.sleep(0.01)
    wall, ref = at_reference.mark()
    assert wall >= 0.01 and ref == pytest.approx(wall, rel=1e-12)
    half_speed = speed.SpeedClock(lambda: 2.0 * speed.REFERENCE_S)
    time.sleep(0.01)
    wall, ref = half_speed.mark()
    assert ref == pytest.approx(0.5 * wall, rel=1e-12)
