"""Adaptive knot refinement driven by nodewise error indicators.

The mesh is tracked as a curve plus one bisection level per element.  A
refinement step translates a set of marked nodes into element operations:

* elements with both endpoint nodes marked are bisected;
* every other marked node gets its knot multiplicity raised by one, unless
  it is already at degree + 1, in which case the elements of its patch are
  bisected instead (open curve endpoints are always saturated, so marking a
  tip bisects the tip element);
* bisections are closed so that neighboring levels never differ by more
  than one, which keeps the meshes locally quasi-uniform: the ratio of
  neighboring element widths never exceeds twice that of the initial mesh.

Multiplicity raises change neither the element list nor the levels.
Elements already at the width floor ``MIN_WIDTH`` are never bisected, nor
is any element whose closure would need one of them; a step whose every
operation is refused returns the state unchanged.  Uniform refinement is
``refine`` with every node marked, so the floor holds there too.

Nodes, their patches and element neighbours are read from the knot
vector's ``nodes`` and ``patches`` tables, so open and closed curves take
the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Curve

__all__ = [
    "MIN_WIDTH",
    "MeshState",
    "initial_state",
    "dorfler_marking",
    "refine",
    "uniform_refine",
    "level_gaps_ok",
    "kappa",
]

# Elements are never bisected below this parameter width.  Strongly graded
# meshes (a reentrant corner needs widths ~ N^-6) otherwise reach the
# resolution of double precision around N ~ 400, where knot arithmetic
# starts colliding parameters and the assembled energies pick up noise.
MIN_WIDTH = 1e-12


@dataclass(frozen=True)
class MeshState:
    curve: Curve
    levels: tuple[int, ...]

    def __post_init__(self):
        if len(self.levels) != self.curve.knots.n_elements:
            raise ValueError("one level per element required")


def initial_state(curve: Curve) -> MeshState:
    return MeshState(curve, (0,) * curve.knots.n_elements)


def dorfler_marking(indicators_sq, theta: float) -> np.ndarray:
    """Minimal node set carrying a theta-fraction of the total square sum.

    Nodes are taken in order of decreasing indicator (ties by index), so the
    returned set is the canonical minimal one.  Returns sorted node indices.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    sq = np.asarray(indicators_sq, dtype=float)
    total = float(sq.sum())
    if total <= 0.0:
        return np.empty(0, dtype=int)
    order = np.lexsort((np.arange(len(sq)), -sq))
    csum = np.cumsum(sq[order])
    target = theta * total
    k = int(np.searchsorted(csum, target - 1e-12 * total)) + 1
    return np.sort(order[: min(k, len(sq))])


def refine(state: MeshState, marked_nodes) -> MeshState:
    """Apply one adaptive step for the given marked node indices."""
    curve = state.curve
    kv = curve.knots
    p = kv.degree
    marked = {int(z) for z in np.atleast_1d(np.asarray(marked_nodes, dtype=int))}
    if not marked:
        return state
    patches = kv.patches
    n_nodes = len(patches)
    if not marked <= set(range(n_nodes)):
        raise ValueError("marked node index out of range")

    # an element is bisected when the nodes at both its ends are marked
    patch = {z: {int(e) for e in patches[z] if e >= 0} for z in marked}
    bisect = ({int(patches[z, 1]) for z in marked}
              & {int(patches[z, 0]) for z in marked}) - {-1}
    covered = {z for z in marked if patch[z] & bisect}

    raises: list[float] = []
    for z in sorted(marked - covered):
        if kv.multiplicities[z] < p + 1:
            raises.append(float(kv.nodes[z]))
        else:
            bisect.update(patch[z])

    # close bisections so adjacent levels keep differing by at most one;
    # elements at the width floor refuse to split, and so does any element
    # whose closure would need a refused one.  The refused set only grows
    # and no refused element is split, so the loop ends.
    levels = state.levels
    blocked = set(np.flatnonzero(kv.widths < 2.0 * MIN_WIDTH).tolist())
    bisect -= blocked
    changed = True
    while changed:
        changed = False
        for e in sorted(bisect):
            # element e's neighbours: left of its start node, right of its end
            lower = {int(f) for f in (patches[e, 0], patches[(e + 1) % n_nodes, 1])
                     if f >= 0 and f not in bisect and levels[f] < levels[e]}
            if lower & blocked:
                bisect.discard(e)
                blocked.add(e)
                changed = True
            elif lower:
                bisect |= lower
                changed = True

    elems = kv.elements
    mids = [float(0.5 * (elems[e, 0] + elems[e, 1])) for e in sorted(bisect)]
    if not mids and not raises:
        return state
    new_levels: list[int] = []
    for e in range(kv.n_elements):
        if e in bisect:
            new_levels += [levels[e] + 1, levels[e] + 1]
        else:
            new_levels.append(levels[e])
    return MeshState(curve.refined(mids + raises), tuple(new_levels))


def uniform_refine(state: MeshState) -> MeshState:
    """``refine`` with every node marked: bisect all but floored elements."""
    return refine(state, np.arange(len(state.curve.knots.nodes)))


def level_gaps_ok(state: MeshState) -> bool:
    """Whether neighboring bisection levels differ by at most one."""
    kv = state.curve.knots
    left, right = kv.patches[kv.touching].T
    lv = np.asarray(state.levels)
    return bool(np.all(np.abs(lv[right] - lv[left]) <= 1))


def kappa(state: MeshState) -> float:
    """Largest ratio of neighboring element parameter widths."""
    kv = state.curve.knots
    left, right = kv.patches[kv.touching].T
    hs = kv.widths
    ratios = hs[right] / hs[left]
    return float(np.max(np.maximum(ratios, 1.0 / ratios), initial=1.0))
