"""Marking and refinement mechanics on hand-checked examples."""

import os
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import igabem
from igabem.adaptivity import (
    MeshState,
    dorfler_marking,
    initial_state,
    kappa,
    level_gaps_ok,
    refine,
    uniform_refine,
)
from igabem.geometry import Curve, pacman, slit, square
from igabem.splines import KnotVector


# --------------------------------------------------------------------------
# marking
# --------------------------------------------------------------------------


def test_dorfler_examples():
    sq = [4.0, 1.0, 3.0, 2.0]
    assert dorfler_marking(sq, 0.5).tolist() == [0, 2]
    assert dorfler_marking(sq, 0.4).tolist() == [0]
    assert dorfler_marking(sq, 1.0).tolist() == [0, 1, 2, 3]
    # ties resolve toward lower index
    assert dorfler_marking([2.0, 2.0, 1.0], 0.5).tolist() == [0, 1]
    # zero entries never make the minimal set
    assert dorfler_marking([1.0, 0.0, 0.0], 1.0).tolist() == [0]
    assert dorfler_marking([0.0, 0.0], 0.9).size == 0


def test_dorfler_rejects_bad_theta():
    with pytest.raises(ValueError):
        dorfler_marking([1.0], 0.0)
    with pytest.raises(ValueError):
        dorfler_marking([1.0], 1.5)


@settings(max_examples=40, deadline=None)
@given(
    sq=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12),
    theta=st.floats(0.05, 1.0),
)
@example(sq=[5e-324], theta=0.5)
def test_dorfler_bound_and_minimality(sq, theta):
    sq = np.asarray(sq)
    marked = dorfler_marking(sq, theta)
    total = sq.sum()
    if total == 0.0:
        assert marked.size == 0
        return
    got = sq[marked].sum()
    assert got >= theta * total - 1e-9 * total
    if marked.size:
        # exact arithmetic on the same inputs: with subnormal indicators the
        # float products theta * total and 1e-9 * total round to zero
        exact = [Fraction(float(v)) for v in sq]
        ex_total = sum(exact)
        ex_marked = [exact[i] for i in marked]
        assert (sum(ex_marked) - min(ex_marked)
                < Fraction(theta) * ex_total + Fraction(1e-9) * ex_total)


# --------------------------------------------------------------------------
# single refinement steps
# --------------------------------------------------------------------------


def test_saturated_tip_bisects_single_element():
    # open ends, multiplicity already degree + 1; the right tip has no
    # element on its right, which must not leak into the bisected set
    for tip in (0, 1):
        state = refine(initial_state(slit()), [tip])
        kv = state.curve.knots
        assert kv.breakpoints == (0.0, 0.5, 1.0)
        assert kv.multiplicities[1] == 1
        assert state.levels == (1, 1)


def test_interior_node_raises_then_bisects():
    state = initial_state(slit().refined([0.5]))
    state = refine(state, [1])
    kv = state.curve.knots
    assert kv.breakpoints == (0.0, 0.5, 1.0)
    assert kv.multiplicities[1] == 2
    assert state.levels == (0, 0)
    # saturated now: marking again splits both patch elements
    state = refine(state, [1])
    kv = state.curve.knots
    assert kv.breakpoints == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert kv.multiplicities[2] == 2
    assert state.levels == (1, 1, 1, 1)


def test_both_endpoints_marked_bisects_without_raising():
    state = initial_state(slit().refined([0.5]))
    state = refine(state, [0, 1])
    kv = state.curve.knots
    assert kv.breakpoints == (0.0, 0.25, 0.5, 1.0)
    assert kv.multiplicities[2] == 1  # consumed by the bisection
    assert state.levels == (1, 1, 0)


def test_seam_patch_bisection_on_square():
    state = initial_state(square())
    state = refine(state, [0])  # seam corner is saturated at degree 1
    kv = state.curve.knots
    assert kv.breakpoints == (0.0, 0.125, 0.25, 0.5, 0.75, 0.875, 1.0)
    assert state.levels == (1, 1, 0, 0, 1, 1)


def test_square_corner_multiplicity_raise():
    state = initial_state(square())
    state = refine(state, [1])
    kv = state.curve.knots
    assert kv.breakpoints == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert kv.multiplicities[1] == 2
    assert state.levels == (0, 0, 0, 0)


def test_refine_rejects_unknown_node():
    state = initial_state(slit())
    with pytest.raises(ValueError):
        refine(state, [5])


def test_empty_marking_is_identity():
    state = initial_state(pacman())
    assert refine(state, []) is state


# --------------------------------------------------------------------------
# closure cascade
# --------------------------------------------------------------------------


def test_tip_grading_then_cascade():
    # four tip refinements produce the staircase (4,4,3,2,1) on the slit
    state = initial_state(slit())
    for _ in range(4):
        state = refine(state, [0])
    assert state.levels == (4, 4, 3, 2, 1)
    assert state.curve.knots.breakpoints == (0.0, 0.0625, 0.125, 0.25, 0.5, 1.0)

    # bisecting the second element forces a full closure cascade downhill
    state = refine(state, [1, 2])
    assert state.levels == (4, 5, 5, 4, 4, 3, 3, 2, 2)
    assert level_gaps_ok(state)


def test_closure_ends_next_to_a_floored_element():
    # element 0 is below twice the width floor, so it never splits;
    # splitting element 2 needs element 1 one level down, and splitting 1
    # needs the floored element 0, so neither may split.  The alarm turns a
    # closure that never ends into a failure.
    kv = KnotVector(1, (0.0, 1.5e-12, 8e-12, 1.0), (2, 1, 1, 2))
    controls = np.column_stack([kv.breakpoints, np.zeros(4)])
    state = MeshState(Curve(kv, controls, np.ones(4)), (0, 1, 2))

    def give_up(signum, frame):
        raise TimeoutError("level closure did not end")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        new_state = refine(state, [2, 3])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert new_state is state


def test_uniform_refine():
    state = initial_state(slit().refined([0.3]))
    state = uniform_refine(state)
    assert state.curve.knots.breakpoints == (0.0, 0.15, 0.3, 0.65, 1.0)
    assert state.levels == (1, 1, 1, 1)


def test_uniform_refine_keeps_the_width_floor():
    # the 1e-12 element stays whole; its neighbours are bisected
    state = MeshState(slit().refined([0.5, 0.5 + 1e-12]), (1, 1, 1))
    new = uniform_refine(state)
    assert new.curve.knots.breakpoints == (
        0.0, 0.25, 0.5, 0.5 + 1e-12, 0.5 * (0.5 + 1e-12 + 1.0), 1.0)
    assert new.levels == (2, 2, 1, 2, 2)
    # a mesh with every element at the floor is saturated
    kv = KnotVector(1, (0.0, 1e-12), (2, 2))
    floored = initial_state(Curve(kv, np.array([[0.0, 0.0], [1.0, 0.0]]), np.ones(2)))
    assert uniform_refine(floored) is floored


# --------------------------------------------------------------------------
# invariants under random marking
# --------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_random_marking_invariants(data):
    curve = pacman()
    kappa0 = kappa(initial_state(curve))
    state = initial_state(curve)
    ts = np.linspace(0.0, 1.0, 40, endpoint=False)
    ref_points = curve.point(ts)
    for _ in range(3):
        n_nodes = len(state.curve.knots.breakpoints) - 1  # closed curve
        marks = data.draw(
            st.sets(st.integers(0, n_nodes - 1), min_size=1, max_size=4)
        )
        old_bp = set(state.curve.knots.breakpoints)
        state = refine(state, sorted(marks))
        assert old_bp <= set(state.curve.knots.breakpoints)
        assert level_gaps_ok(state)
        assert kappa(state) <= 2.0 * kappa0 + 1e-12
    # knot insertion never moves the curve
    assert np.allclose(state.curve.point(ts), ref_points, rtol=0, atol=1e-12)


def test_mesh_state_validates_levels():
    with pytest.raises(ValueError):
        MeshState(slit(), (0, 0))


def test_adaptivity_loads_neither_estimators_nor_operators():
    # refinement reads mesh topology from the knot vector alone
    src = str(Path(igabem.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, igabem.adaptivity; print(sorted(m for m in sys.modules "
            "if m in ('igabem.estimators', 'igabem.operators')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.strip() == "[]"
