"""End-to-end tests for the benchmark driver, CSV output, and references."""

import json
import warnings
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


def _toy_slit():
    # the slit without its closed-form energy: reference_energy pairs
    return Problem(name="toy-slit", make_curve=slit,
                   rhs_factory=PROBLEMS["slit"].rhs_factory,
                   methods=("galerkin",),
                   density_exact=PROBLEMS["slit"].density_exact)


def test_reference_energy_cache_round_trip(tmp_path, monkeypatch):
    cache = tmp_path / "ref.json"
    val = reference_energy(_toy_slit(), cache=cache)
    assert abs(val - np.pi / 4.0) <= 1e-14
    data = json.loads(cache.read_text(encoding="utf-8"))
    entry = data["toy-slit"]
    assert set(entry) == {"energy", "degree", "relative_gap"}
    assert entry["degree"] == 1 and entry["energy"] == val
    assert entry["relative_gap"] < experiments.PAIRING_GAP_WARN

    # second call reads the sidecar: no pairing is computed
    def no_pairing(*args, **kwargs):
        raise AssertionError("reference energy recomputed on a cache hit")

    monkeypatch.setattr(experiments, "_pairing", no_pairing)
    assert reference_energy(_toy_slit(), cache=cache) == val


def test_reference_energy_refuses_entry_of_other_degree(tmp_path, caplog):
    cache = tmp_path / "ref.json"
    stale = {"energy": 1.0, "relative_gap": 0.0, "degree": 2}
    cache.write_text(json.dumps({"toy-slit": stale}), encoding="utf-8")
    with caplog.at_level("WARNING", logger="igabem"):
        val = reference_energy(_toy_slit(), cache=cache)
    assert "ignoring cached reference energy for toy-slit" in caplog.text
    assert abs(val - np.pi / 4.0) <= 1e-14
    entry = json.loads(cache.read_text(encoding="utf-8"))["toy-slit"]
    assert entry["degree"] == 1 and entry["energy"] == val


@pytest.mark.parametrize("energy", [-1.0, 0.0, float("nan"), float("inf"),
                                    "0.785", None])
def test_reference_energy_refuses_unusable_energy(tmp_path, caplog, energy):
    # a degree-1 entry whose energy no run can use is reported and
    # recomputed, exactly as an entry of another degree is
    cache = tmp_path / "ref.json"
    cache.write_text(json.dumps({"toy-slit": {"energy": energy, "degree": 1}}),
                     encoding="utf-8")
    with caplog.at_level("WARNING", logger="igabem"):
        val = reference_energy(_toy_slit(), cache=cache)
    assert "ignoring cached reference energy for toy-slit" in caplog.text
    assert "not a finite positive number" in caplog.text
    assert abs(val - np.pi / 4.0) <= 1e-14
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
        assert np.isfinite(entry["energy"]) and entry["energy"] > 0.0
        assert entry["degree"] == PROBLEMS[name].make_curve().degree
        assert entry["relative_gap"] < 1e-3  # the bound the benchmark reads


def test_default_cache_does_not_depend_on_working_directory(tmp_path, monkeypatch):
    # from any directory the default reads the shipped sidecar: no pairing
    # is computed and no file appears where the run was started
    def no_pairing(*args, **kwargs):
        raise AssertionError("reference energy computed")

    monkeypatch.setattr(experiments, "_pairing", no_pairing)
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
    phi = prob.density_exact(curve, *curve.knots.locate(ts))
    np.testing.assert_allclose(phi, fd, rtol=1e-5, atol=1e-8)


def test_slit_density_is_odd_and_vanishes_at_center():
    curve = slit()
    phi = PROBLEMS["slit"].density_exact(
        curve, *curve.knots.locate(np.array([0.25, 0.5, 0.75])))
    assert phi[1] == 0.0
    assert phi[0] == pytest.approx(-phi[2])


def test_exact_density_next_to_tips_and_corner():
    # 1e-30 from an end the point is measured from that end, so the
    # density keeps its digits where a parameter would round onto the end;
    # -x / sqrt(1 - x^2) is +inf at the tip x = -1 (t = 0)
    tau = np.array([1e-30, -1e-30])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tips = PROBLEMS["slit"].density_exact(slit(), np.array([0, 1]), tau)
        curve = pacman()
        last = 2 * curve.knots.n_elements - 1  # the end of the last element
        corner = PROBLEMS["pacman"].density_exact(curve, np.array([0, last]), tau)
    np.testing.assert_allclose(tips, [1.0, -1.0] / (2.0 * np.sqrt(1e-30)),
                               rtol=1e-15, atol=0.0)
    assert np.all(np.isfinite(corner))
    # mirror-symmetric about the x axis, and |w'| ~ |z|^(-3/7) is huge there
    assert corner[0] == pytest.approx(corner[1], rel=1e-12)
    assert np.all(np.abs(corner) > 1e12)


@pytest.fixture(scope="module")
def pairings():
    """The program's reference pairing of each problem at its rule and the
    next rule up."""
    return {name: [experiments._pairing(PROBLEMS[name], *rule, 16)
                   for rule in (experiments.PAIRING_RULE,
                                experiments.PAIRING_CHECK_RULE)]
            for name in PROBLEMS}


def _meets(value, reference, rel):
    return abs(value - reference) <= rel * abs(reference)


def test_pairing_meets_the_slit_energy(pairings):
    # |||phi|||^2 = <V phi, phi> = <f, phi> = pi / 4 in closed form
    assert all(_meets(v, np.pi / 4.0, 1e-14) for v in pairings["slit"])


@pytest.mark.parametrize("name", ["square", "pacman"])
def test_pairing_certifies_the_shipped_entry(name, pairings):
    # the reference every logged err_sq is measured against is the pairing
    # of the data with the exact density, independent of any Galerkin run
    energy, raised = pairings[name]
    assert _meets(raised, energy, 1e-13)
    shipped = json.loads((REPO_ROOT / "ref_energies.json").read_text("utf-8"))
    entry = shipped[name]["energy"]
    assert _meets(energy, entry, 1e-12)
    assert not _meets(energy, entry * (1.0 + 1e-9), 1e-12)
    # Galerkin energies on nested uniform meshes rise toward it from below
    state = initial_state(PROBLEMS[name].make_curve())
    f = PROBLEMS[name].rhs_factory(state.curve, 16)
    energies = []
    for _ in range(5):
        curve = state.curve
        b = galerkin_rhs(curve, f, 16)
        c, _ = solve_linear(galerkin_matrix(curve, 16), b)
        energies.append(float(c @ b))
        state = uniform_refine(state)
    assert np.all(np.diff(energies) > 0.0)
    assert energies[-1] < energy


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
