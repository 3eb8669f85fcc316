"""End-to-end tests for the benchmark driver, CSV output, and references."""

import json
from pathlib import Path

import numpy as np
import pytest

from igabem import experiments
from igabem.adaptivity import initial_state, refine, uniform_refine
from igabem.experiments import (
    PROBLEMS,
    Problem,
    RUN_CSV_HEADER,
    get_problem,
    pacman_trace,
    read_run_csv,
    reference_energy,
    run_adaptive,
    square_trace,
    write_knots_csv,
    write_run_csv,
)
from igabem.geometry import pacman, slit, square
from igabem.operators import (
    collocation_matrix,
    dirichlet_rhs,
    galerkin_matrix,
    galerkin_rhs,
)
from igabem.quadrature import gauss_unit, graded_unit
from igabem.solve import (
    energy_error_collocation,
    energy_error_galerkin,
    fit_rate,
    solve_linear,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_get_problem_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown problem"):
        get_problem("lshape")


def test_run_csv_round_trip(tmp_path):
    rec = run_adaptive("slit", max_dofs=12, energy_cache=None)
    path = tmp_path / "run.csv"
    write_run_csv(path, rec)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == RUN_CSV_HEADER
    assert "\r" not in text
    cols = read_run_csv(path)
    for name in RUN_CSV_HEADER.split(","):
        np.testing.assert_array_equal(cols[name], rec.column(name))


def test_run_csv_header_is_validated(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unexpected header"):
        read_run_csv(path)


def test_knots_csv_lists_breakpoints_once(tmp_path):
    path = tmp_path / "knots.csv"
    write_knots_csv(path, square())
    rows = path.read_text(encoding="utf-8").splitlines()
    assert rows[0] == "t,multiplicity,is_max"
    body = [r.split(",") for r in rows[1:]]
    assert [float(r[0]) for r in body] == [0.0, 0.25, 0.5, 0.75]
    assert [int(r[2]) for r in body] == [1, 0, 0, 0]  # seam already at p+1


def test_slit_adaptive_small_run_is_sane():
    rec = run_adaptive("slit", max_dofs=40, energy_cache=None)
    ns = rec.column("N")
    err_sq = rec.column("err_sq")
    assert np.all(np.diff(ns) > 0)
    assert np.all(np.isfinite(err_sq)) and np.all(err_sq > 0.0)
    assert fit_rate(ns, np.sqrt(err_sq)) < -1.0
    for name in ("eff_eta", "eff_mu"):
        eff = rec.column(name)
        assert np.all((eff > 0.02) & (eff < 10.0))


def test_uniform_galerkin_energies_increase_to_limit():
    # The slit data is odd about the midpoint and so is the exact density.
    # The hat function added by the first bisection is even, hence V-orthogonal
    # to every odd function: its coefficient vanishes and E_1 = E_0 = 2 pi / 9
    # in exact arithmetic.  From the second bisection on the energy must grow.
    state = initial_state(slit())
    prob = PROBLEMS["slit"]
    energies = []
    for k in range(6):
        curve = state.curve
        A = galerkin_matrix(curve, 16)
        b = galerkin_rhs(curve, prob.rhs_factory(curve, 16), 16)
        c, _ = solve_linear(A, b)
        energies.append(float(c @ b))
        if k == 1:
            mid = np.argmin(np.abs(curve.knots.collocation_points() - 0.5))
            assert abs(c[mid]) <= 1e-12 * np.abs(c).max()
        state = uniform_refine(state)
    assert abs(energies[1] - energies[0]) <= 1e-12 * energies[0]
    assert np.all(np.diff(energies[1:]) > 1e-8)
    assert energies[-1] < np.pi / 4.0


def test_collocation_error_dominates_galerkin_error():
    # the collocation density is measured through the Galerkin identity of
    # the same space, so its energy error can never fall below
    state = initial_state(slit())
    for _ in range(3):
        state = uniform_refine(state)
    curve = state.curve
    prob = PROBLEMS["slit"]
    f = prob.rhs_factory(curve, 16)
    A = galerkin_matrix(curve, 16)
    b = galerkin_rhs(curve, f, 16)
    cg, _ = solve_linear(A, b)
    B = collocation_matrix(curve, 16)
    cc, _ = solve_linear(B, f(curve.knots.collocation_points()))
    e_gal = energy_error_galerkin(np.pi / 4.0, cg, b)
    e_col = energy_error_collocation(np.pi / 4.0, cc, A, b)
    assert e_col >= e_gal - 1e-14
    assert e_col < 10.0 * e_gal  # collocation stays in the same ballpark


def test_square_collocation_is_rejected():
    with pytest.raises(ValueError, match="supports methods"):
        run_adaptive("square", method="collocation", max_dofs=20,
                     energy_cache=None)


def test_reference_energy_exact_short_circuit(tmp_path):
    cache = tmp_path / "ref.json"
    val = reference_energy("slit", cache=cache)
    assert val == pytest.approx(np.pi / 4.0, abs=0.0)
    assert not cache.exists()  # exact values never touch the sidecar


def test_reference_energy_cache_round_trip(tmp_path):
    toy = Problem(
        name="toy-slit",
        make_curve=slit,
        rhs_factory=PROBLEMS["slit"].rhs_factory,
        methods=("galerkin",),
        energy_exact=None,
        reference_dofs=48,
    )
    cache = tmp_path / "ref.json"
    val = reference_energy(toy, cache=cache)
    assert abs(val - np.pi / 4.0) < 1e-3
    data = json.loads(cache.read_text(encoding="utf-8"))
    entry = data["toy-slit"]
    assert set(entry) == {"energy", "accelerated", "uniform_estimate",
                          "relative_gap", "dofs", "degree"}
    assert entry["degree"] == 1
    # second call reads the sidecar (poison the pipeline by zero dofs)
    again = reference_energy(
        Problem(name="toy-slit", make_curve=slit,
                rhs_factory=PROBLEMS["slit"].rhs_factory,
                methods=("galerkin",), reference_dofs=0),
        cache=cache)
    assert again == val


def _toy_slit(reference_dofs=16):
    return Problem(name="toy-slit", make_curve=slit,
                   rhs_factory=PROBLEMS["slit"].rhs_factory,
                   methods=("galerkin",), reference_dofs=reference_dofs)


def test_reference_energy_refuses_entry_of_other_degree(tmp_path, caplog):
    cache = tmp_path / "ref.json"
    stale = {"energy": 1.0, "accelerated": True, "uniform_estimate": 1.0,
             "relative_gap": 0.0, "dofs": 16, "degree": 2}
    cache.write_text(json.dumps({"toy-slit": stale}), encoding="utf-8")
    with caplog.at_level("WARNING", logger="igabem"):
        val = reference_energy(_toy_slit(), cache=cache)
    assert "ignoring cached reference energy for toy-slit" in caplog.text
    assert abs(val - np.pi / 4.0) < 1e-2
    entry = json.loads(cache.read_text(encoding="utf-8"))["toy-slit"]
    assert entry["degree"] == 1 and entry["energy"] == val


def test_reference_energy_writes_cache_atomically(tmp_path, monkeypatch):
    cache = tmp_path / "ref.json"
    before = json.dumps({"other": {"energy": 2.0, "degree": 1}})
    cache.write_text(before, encoding="utf-8")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("igabem.experiments.os.replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        reference_energy(_toy_slit(), cache=cache)
    # the old file is intact and no temporary file is left behind
    assert cache.read_text(encoding="utf-8") == before
    assert [p.name for p in tmp_path.iterdir()] == ["ref.json"]
    monkeypatch.undo()
    reference_energy(_toy_slit(), cache=cache)
    data = json.loads(cache.read_text(encoding="utf-8"))
    assert set(data) == {"other", "toy-slit"}
    assert [p.name for p in tmp_path.iterdir()] == ["ref.json"]


def test_shipped_reference_sidecar_is_readable():
    data = json.loads((REPO_ROOT / "ref_energies.json").read_text("utf-8"))
    for name in ("square", "pacman"):
        entry = data[name]
        assert entry["energy"] > 0.0
        assert entry["relative_gap"] < 1e-3
        assert entry["dofs"] >= PROBLEMS[name].reference_dofs


def test_default_cache_does_not_depend_on_working_directory(tmp_path, monkeypatch):
    # from any directory the default reads the shipped sidecar: no
    # extrapolation starts and no file appears where the run was started
    def no_extrapolation(*args, **kwargs):
        raise AssertionError("reference energy extrapolated")

    monkeypatch.setattr(experiments, "_energy_sequence", no_extrapolation)
    monkeypatch.chdir(tmp_path)
    data = json.loads((REPO_ROOT / "ref_energies.json").read_text("utf-8"))
    assert reference_energy("pacman") == data["pacman"]["energy"]
    assert list(tmp_path.iterdir()) == []


def test_perfbench_tracer_finds_every_traced_name(monkeypatch):
    # the benchmark's tracer wraps program functions by name; a renamed or
    # removed one must fail here, not only in traced benchmark runs
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    import tracing

    originals = (experiments.refine, experiments.uniform_refine)
    tracer = tracing.Tracer()
    try:
        tracer.install()  # raises AttributeError on a missing name
        assert experiments.refine is not originals[0]
    finally:
        tracer.uninstall()
    assert (experiments.refine, experiments.uniform_refine) == originals


def test_traces_at_geometry_landmarks():
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]])
    vals = square_trace(pts)
    assert vals[0] == 0.0 and vals[2] == 0.0
    assert vals[1] == pytest.approx(np.sinh(np.pi))
    assert vals[3] == pytest.approx(-np.sinh(np.pi))

    # pacman data vanishes on both straight edges and at the corner
    curve = pacman()
    ts = np.concatenate([np.linspace(0.0, 1.0 / 6.0, 9),
                         np.linspace(5.0 / 6.0, 1.0, 9)])
    edge_vals = pacman_trace(curve.point(ts))
    assert np.max(np.abs(edge_vals)) < 1e-15
    arc_vals = pacman_trace(curve.point(np.linspace(0.2, 0.8, 7)))
    assert np.all(np.abs(arc_vals) > 1e-4)


@pytest.mark.parametrize("name", ["square", "pacman"])
def test_exact_density_matches_normal_difference_quotient(name):
    prob = PROBLEMS[name]
    trace = {"square": square_trace, "pacman": pacman_trace}[name]
    curve = prob.make_curve()
    ts = np.array([0.05, 0.21, 0.47, 0.62, 0.91])
    pts = curve.point(ts)
    nrm = curve.normal(ts)
    eps = 1e-6
    fd = (trace(pts + eps * nrm) - trace(pts - eps * nrm)) / (2.0 * eps)
    phi = prob.density_exact(curve, ts)
    np.testing.assert_allclose(phi, fd, rtol=1e-5, atol=1e-8)


def test_slit_density_is_odd_and_vanishes_at_center():
    phi = PROBLEMS["slit"].density_exact(slit(), np.array([0.25, 0.5, 0.75]))
    assert phi[1] == 0.0
    assert phi[0] == pytest.approx(-phi[2])


@pytest.mark.parametrize("name", ["square", "pacman"])
def test_energy_equals_data_density_pairing(name):
    # |||phi|||^2 = <V phi, phi> = <f, phi>, computed with the exact density
    # and graded quadrature toward the corners; independent of the Galerkin
    # pipeline that produced the reference energy
    prob = PROBLEMS[name]
    trace = {"square": square_trace, "pacman": pacman_trace}[name]
    curve = prob.make_curve()
    kv = curve.knots
    corners = {float(c) for c in curve.corner_params()}
    xs_p, ws_p = gauss_unit(24)
    total = 0.0
    for lo, hi in kv.elements:
        lo, hi = float(lo), float(hi)
        h = hi - lo
        at_lo = lo in corners
        at_hi = hi in corners or (kv.periodic and hi == kv.breakpoints[-1]
                                  and 0.0 in corners)
        if at_lo and at_hi:
            half, whalf = graded_unit(24, 40)
            xs = np.concatenate([0.5 * half, 1.0 - 0.5 * half[::-1]])
            ws = np.concatenate([0.5 * whalf, 0.5 * whalf[::-1]])
        elif at_lo or at_hi:
            xs, ws = graded_unit(24, 40)
            if at_hi:  # graded toward 1: the rule toward 0, mirrored
                xs, ws = 1.0 - xs[::-1], ws[::-1]
        else:
            xs, ws = xs_p, ws_p
        tp = lo + h * xs
        fv = dirichlet_rhs(curve, trace, tp, 16)
        phi = prob.density_exact(curve, tp)
        total += h * float(np.sum(ws * fv * phi * curve.speed(tp)))
    ref = reference_energy(name, cache=REPO_ROOT / "ref_energies.json")
    assert total == pytest.approx(ref, rel=1e-6)


def test_slit_tip_elements_shrink_monotonically():
    from igabem.adaptivity import dorfler_marking, refine
    from igabem.estimators import residual_indicators, sample_residual

    state = initial_state(slit())
    prob = PROBLEMS["slit"]
    first_widths = []
    for _ in range(12):
        curve = state.curve
        f = prob.rhs_factory(curve, 16)
        A = galerkin_matrix(curve, 16)
        b = galerkin_rhs(curve, f, 16)
        c, _ = solve_linear(A, b)
        elems = curve.knots.elements
        first_widths.append(float(elems[0, 1] - elems[0, 0]))
        res = sample_residual(curve, c, f, 16)
        state = refine(state, dorfler_marking(residual_indicators(res), 0.75))
    assert np.all(np.diff(first_widths) <= 0.0)
    elems = state.curve.knots.elements
    widths = elems[:, 1] - elems[:, 0]
    assert widths[0] < 0.1 * widths.max()  # tips far smaller than interior


TRACES = {"square": square_trace, "pacman": pacman_trace}


def _uniform(curve, steps):
    state = initial_state(curve)
    for _ in range(steps):
        state = uniform_refine(state)
    return state


def _corner_graded_pacman(levels=8):
    # one uniform bisection, then the elements at the three corners bisected
    # again and again, down to widths of 2^-(levels + 1) / 6
    state = _uniform(pacman(), 1)
    for _ in range(levels):
        curve = state.curve
        near = np.abs(curve.param_delta(curve.knots.nodes[:, None],
                                        curve.corner_params()[None, :]))
        state = refine(state, np.flatnonzero((near < 1e-12).any(axis=1)))
    return state.curve


@pytest.mark.parametrize("name", ["square", "pacman"])
def test_dirichlet_data_lives_on_the_geometry_mesh(name, monkeypatch):
    prob = PROBLEMS[name]
    rng = np.random.default_rng(11)
    coarse = prob.make_curve()
    fine = _uniform(coarse, 2).curve
    ts = np.concatenate([rng.uniform(0.0, 1.0, 60), coarse.knots.breakpoints])
    # the data does not depend on the mesh the caller passes
    np.testing.assert_array_equal(prob.rhs_factory(coarse, 16)(ts),
                                  prob.rhs_factory(fine, 16)(ts))

    calls = [ts[:40], ts[20:][::-1], np.concatenate([ts[5:15], ts[5:15]]),
             rng.permutation(ts)]
    fresh = [prob.rhs_factory(fine, 16)(call) for call in calls]
    seen = []

    def counting(curve, trace, params, order):
        seen.append(np.array(params, copy=True))
        return dirichlet_rhs(curve, trace, params, order)

    monkeypatch.setattr(experiments, "dirichlet_rhs", counting)
    f = prob.rhs_factory(fine, 16)
    first = {}
    for call, ref in zip(calls, fresh):
        vals = f(call)
        assert vals.shape == call.shape
        # a parameter evaluated once keeps its value bit for bit
        for t, v in zip(call, vals):
            assert first.setdefault(t, v) == v
        # and is what a fresh f returns, bit for bit: a target's value does
        # not depend on which other targets share the call
        np.testing.assert_array_equal(vals, ref)
    # every distinct parameter reached dirichlet_rhs exactly once
    evaluated = np.concatenate(seen)
    assert len(evaluated) == len(np.unique(ts))
    np.testing.assert_array_equal(np.sort(evaluated), np.unique(ts))


@pytest.mark.parametrize("name, make_mesh", [
    ("pacman", lambda: _uniform(pacman(), 4).curve),
    ("pacman", _corner_graded_pacman),
    ("square", lambda: _uniform(square(), 4).curve),
], ids=["pacman-uniform", "pacman-corner-graded", "square-uniform"])
def test_geometry_mesh_data_keeps_galerkin_energies(name, make_mesh):
    # the energy of the Galerkin solution with f on the geometry mesh
    # against f evaluated on the analysis mesh itself
    curve = make_mesh()
    A = galerkin_matrix(curve, 16)
    energies = []
    for f in (PROBLEMS[name].rhs_factory(curve, 16),
              lambda ts: dirichlet_rhs(curve, TRACES[name], ts, 16)):
        b = galerkin_rhs(curve, f, 16)
        c, _ = solve_linear(A, b)
        energies.append(float(c @ b))
    assert energies[0] == pytest.approx(energies[1], rel=1e-12, abs=0.0)
