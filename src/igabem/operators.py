"""Boundary integral operators on NURBS curves.

Single-layer operator with kernel -log|x - y| / (2 pi).  Every quadrature
node is an (element, local coordinate) pair; only targets and the data f
take parameters.  Element pairs are integrated in two regimes:

* identical or touching pair: one Duffy-type rule (Sauter and Schwab,
  *Boundary Element Methods*, 2011).  A radial variable x carries the
  singularity, and the kernel splits as log x, taken by a log-weight Gauss
  rule in x, plus log(|gamma(s) - gamma(t)| / x), analytic in (x, y) even
  across a geometric corner and taken by plain Gauss from the elements'
  divided differences (``Curve.chord``).  An identical pair maps the
  triangle s > t by s - t = h x and adds its mirror image; a touching pair
  takes the two triangles anchored at the shared node.

  Such a block reads no absolute position, only the quadrature order, the
  degree, the element widths and each element's frame and basis tables at
  its two ends, so it is looked up by the bytes of those inputs
  (``_singular_keys``).  Elements with equal inputs share one block: on
  the straight slit every element of a width does.
* separated pair: tensor Gauss at an order chosen per pair.  Each element
  gets a ball (centre the midpoint of its end points, radius reaching its
  Gauss points), and the gap between two balls relative to the larger
  radius fixes the order by ``quadrature.separated_order``, capped by the
  caller's order.  Pairs of one order are assembled together in blocks.

Pointwise potentials (collocation rows, residual samples of V phi_h, and the
Dirichlet data (K + 1/2) g) go through one vectorised engine.  Per target it
integrates far elements on a plain Gauss grid, and the other elements near
the target on composite rules graded toward it.  Targets come in one of
two forms, which each caller names: parameters, or (element, local
coordinate) nodes at local coordinates shared by every element, the form
of the residual samples (``single_layer_values(..., local=u)``).  The forms
only name targets: each near-field rule runs in one loop that both call.
The far field runs in blocks of _FAR_BLOCK / (n_el q) targets, and each
block finds its own near (target, element) pairs, so no array spans all
targets times all elements.  The element containing the target takes the
kernel's own rule (``_containing_rows``): for V a split at the target with
the log-weight rule on each side, for K plain Gauss, since K is smooth
along an arc; both take the kernel from divided differences.  That rule
does not grow with the mesh, so it runs after the far field in blocks of
its own, _FAR_BLOCK / q^2 targets.  Each target's row sums its far field,
then its own element, then its graded pairs, in this order whatever the
blocks, so the blocking changes no bit of the result.  A graded rule
(``_graded_rows``) measures its nodes and the target from the element end
it grades toward, so gamma(x) - gamma(t) is a difference of two
displacements from that end, each exact to its last digits, and one kernel
formula serves every node.  The engine returns the density contracted with
coefficients, the raw basis windows (one column per basis function), or the
integral of data g.

The single layer's near field is content-keyed in both target forms.  Its
targets come in rows, one element's shared local coordinates or one
parameter (``_local_targets``, ``_param_targets``), each target with its
nearer end and offset from it and its offsets from both ends of its
element.  The block of a row's own split rule against the raw basis
windows reads only the element's ``_element_rows`` entry, the order, and
those ends and offsets; the block of a touching neighbour's rule graded
toward the shared node also reads the neighbour's entry and the targets'
offsets from that node, their displacement from it coming from the
element's own tables.  Whether such a neighbour is near a target follows
from the same inputs (``_keyed_near``), and the far field skips
exactly those pairs.  Own and end keys share one table; each distinct key
is computed once, and the blocks are scattered into the windows' columns
or contracted with the coefficients (``_sample_blocks``): on the uniform
slit one own block and two neighbour blocks serve every element's samples.
Neighbours that do not touch, and those whose rule grades away from the
shared node (a closed curve of few elements), keep the rules by parameter
and run at every call, as does every near rule of the double layer, which
reads g at absolute points.

Singular and near blocks live in one store per refinement lineage,
``Curve._blocks``, shared by a curve and every curve ``refined`` from it
(``_stored``).  A key holds all of its block's inputs and starts with its
rule's name (``identical``, ``touching``, ``own``, ``end``), so the
Galerkin matrix, the collocation rows and the residual samples share the
store, and a block has the same bits warm or fresh.  Boehm insertion
changes the tables of the elements it splits or whose basis window it
moves, so a step computes only their keys and their neighbours'.  Nothing
is evicted; a new ``make_curve()`` starts a new store.

The Dirichlet data (``dirichlet_rhs``) evaluates (K + 1/2) g on one curve,
call after call.  The double-layer kernel of one g and order is therefore
kept on the curve with its Gauss grids, and serves every call there: its
grid and g on it are formed once, and so is one table per (element, end) of
the node frames and g values at the nodes of every grading level toward that
end (``quadrature.graded_union``).  A graded group of any level gathers from
it all that it reads apart from its targets, with the bits of forming them
at its own nodes.  Single-layer kernels form their groups anew.

The log kernel of separated Galerkin pairs and of the pointwise single
layer's graded rules is 1/2 log(dx^2 + dy^2), formed in place
(``_log_dist``): cheaper than log(hypot) and as accurate, both within
0.6 eps max(1, |log r|) for r = |(dx, dy)| from 1e-28 to 1e2.  The
pointwise single layer's far field sums log(dx^2 + dy^2) from the grid's
contiguous x and y rows, with neither the 1/2 nor the floor, and halves
the sums once: scaling by a power of two is exact, so every sum keeps the
bits of one over 1/2 log r^2, in fewer passes over the entries.

Geometry and basis at quadrature nodes come from ``Curve`` by two paths,
which each caller names.  Node sets that every element shares (the Duffy
rule of identical and touching pairs, the Gauss grids, a graded rule over
all its elements, measured from the end it grades toward, and the load
vector's rules, one element at a time at a corner) go through
``Curve.at_nodes``, one table product per element end that gives the
frames and the basis windows together.  Only the split at a target inside
its element differs per node; it takes Horner's rule node by node
(``Curve.displacement``, ``Curve.basis``).
"""

from __future__ import annotations

import logging

import numpy as np

from .geometry import Curve
from .quadrature import gauss_log, gauss_unit, graded_union, graded_unit, separated_order
from .splines import nearer_end
from .splines import rational_basis  # noqa: F401  (wrapped here by perfbench/tracing.py)

logger = logging.getLogger(__name__)

DEFAULT_ORDER = 16
NEAR_FACTOR = 0.75  # parameter-distance/size ratio below which grading kicks in
GRADE_MIN_LEVELS = 2
GRADE_MAX_LEVELS = 48
_TWO_PI = 2.0 * np.pi
# far-field kernel entries evaluated per block of element pairs or of
# targets: this bounds the memory of a block, whose temporaries are about
# ten arrays of this many doubles, whatever the mesh size
_FAR_BLOCK = 1e5

__all__ = [
    "galerkin_matrix",
    "galerkin_rhs",
    "collocation_matrix",
    "single_layer_values",
    "dirichlet_rhs",
]


# --------------------------------------------------------------------------
# kernel helpers
# --------------------------------------------------------------------------


def _norm(v: np.ndarray) -> np.ndarray:
    return np.hypot(v[..., 0], v[..., 1])


def _log_dist(dx: np.ndarray, dy: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """log |(dx, dy)| as 1/2 log(dx^2 + dy^2 + floor), in place in ``dx``;
    both arguments are overwritten.  The single layer's far field takes
    neither the 1/2 nor the floor (``_SingleLayer.far``)."""
    dx *= dx
    dy *= dy
    dx += dy
    if floor:
        dx += floor
    return np.multiply(np.log(dx, out=dx), 0.5, out=dx)


def _phi(frames, basis):
    """Basis windows times speed, from ``Curve.at_nodes``."""
    return basis * _norm(frames[..., 1, :])[..., None]


def _phi_windows(curve: Curve, e, u):
    """``_phi`` at local coordinates u shared by elements e."""
    return _phi(*curve.at_nodes(e, *nearer_end(u)))


def _grids(curve: Curve, orders) -> list:
    """The Gauss grid of each order: points on every element, (n_el, q, 2),
    the basis windows there times speed, Gauss weight and width, (n_el, q,
    p + 1), and the points' x and y as two contiguous rows, (2, n_el q);
    read-only, built once per curve and order.  The orders not built yet
    share one ``Curve.at_nodes`` call over all their nodes."""
    missing = [m for m in dict.fromkeys(orders) if m not in curve._grids]
    if missing:
        kv = curve.knots
        rules = [gauss_unit(m) for m in missing]
        frames, basis = curve.at_nodes(np.arange(kv.n_elements)[:, None],
                                       *nearer_end(np.concatenate([x for x, _ in rules])),
                                       absolute=True)
        cuts = np.cumsum(missing)[:-1]
        for m, (_, wg), fm, bm in zip(missing, rules, np.split(frames, cuts, axis=1),
                                      np.split(basis, cuts, axis=1)):
            points = np.ascontiguousarray(fm[..., 0, :])
            grid = (points, _phi(fm, bm) * (wg * kv.widths[:, None])[..., None],
                    np.ascontiguousarray(points.reshape(-1, 2).T))
            for a in grid:
                a.flags.writeable = False
            curve._grids[m] = grid
    return [curve._grids[m] for m in orders]


def _grid(curve: Curve, order: int):
    """The Gauss grid of one order (``_grids``)."""
    return _grids(curve, [order])[0]


def _grade_levels(h: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Grading levels toward a target at distance d from elements of size h."""
    lv = np.ceil(np.log2(h / np.maximum(d, 1e-300))) + 2
    return np.clip(lv, GRADE_MIN_LEVELS, GRADE_MAX_LEVELS).astype(int)


# --------------------------------------------------------------------------
# Galerkin assembly
# --------------------------------------------------------------------------


def _radial_rule(order: int):
    """Radial nodes and weights of the singular-pair rule, shaped (2q, 1):
    q plain Gauss nodes, then q nodes of the log-weight rule."""
    xg, wg = gauss_unit(order)
    xl, wl = gauss_log(order)
    return np.concatenate([xg, xl])[:, None], np.concatenate([wg, wl])[:, None]


def _singular_blocks(curve: Curve, s, t, chord: np.ndarray,
                     jac: np.ndarray, order: int) -> np.ndarray:
    """Element matrices of log|gamma(s) - gamma(t)| over Duffy-mapped pairs.

    The nodes ``s``, ``t`` ((element, u) pairs) and ``jac`` broadcast over
    (pair, x, y), x on the ``_radial_rule`` and y on plain Gauss, and each
    side is evaluated on the entries it holds.  The log-weight rows take
    log x, the Gauss rows log ``chord`` = |gamma(s) - gamma(t)| / x.
    Returns M[k, a, b] pairing pair k's s window against its t window.
    """
    _, wx = _radial_rule(order)
    _, wy = gauss_unit(order)
    phis = _phi_windows(curve, *s)
    phit = _phi_windows(curve, *t)
    # the log weights carry log(1/x), so log x enters there as -1
    log_chord = np.log(chord)
    kern = np.concatenate([log_chord, np.full_like(log_chord, -1.0)], axis=1)
    w = jac * wx * wy * kern
    return np.einsum("kxy,kxya,kxyb->kab", w, phis, phit)


def _duffy_blocks(curve: Curve, order: int, e, et, es):
    """Element matrices of the identical pairs (e, e) and of the touching
    pairs (es, et), element et ending where es starts, as two stacks.

    Each block reads only its own elements' widths and ``Curve._frame_table``
    and ``Curve._basis_table`` columns at their two ends, so a block's bits
    do not depend on which other pairs share the batch.
    """
    kv = curve.knots
    x, _ = _radial_rule(order)
    y, _ = gauss_unit(order)
    xq = x[:order]  # the Gauss rows, which take the chord

    # identical pairs: the triangle s > t under s - t = h x, mirrored by the
    # transpose; the chord over x is h |gamma[s, t]| about the element start
    e = e[:, None, None]
    h = kv.widths[e]
    v = (1.0 - x) * y
    chord = _norm(curve.chord(2 * e, h * (xq + v[:order]), h * v[:order]))
    B = _singular_blocks(curve, (e, x + v), (e, v), h * chord,
                         h * h * (1.0 - x), order)

    # touching pairs, the seam included.  The two triangles are anchored at
    # the shared node; with s = h2 x a past it and t = h1 x b before it, the
    # chord over x is h2 a gamma[node, s] + h1 b gamma[node, t], each side
    # about the node
    et, es = et[:, None, None], es[:, None, None]
    h1 = kv.widths[et]
    h2 = kv.widths[es]

    def touching_chord(a, b):
        d = ((h2 * a)[..., None] * curve.chord(2 * es, 0.0, h2 * xq * a)
             + (h1 * b)[..., None] * curve.chord(2 * et + 1, 0.0, -h1 * xq * b))
        return _norm(d)

    M = (_singular_blocks(curve, (es, x), (et, 1.0 - x * y),
                          touching_chord(1.0, y), h1 * h2 * x, order)
         + _singular_blocks(curve, (es, x * y), (et, 1.0 - x),
                            touching_chord(y, 1.0), h1 * h2 * x, order))
    return B, M


def _element_rows(curve: Curve) -> list:
    """Per element, the bytes of its width and of its ``_frame_table`` and
    ``_basis_table`` columns at both ends: all that a block of the element
    reads apart from its rule."""
    kv = curve.knots
    n = kv.n_elements

    def ends(table):  # row e: the columns at ends 2 e and 2 e + 1
        return table.reshape(len(table), n, -1).transpose(1, 0, 2).reshape(n, -1)

    rows = np.column_stack([kv.widths, ends(curve._frame_table),
                            ends(curve._basis_table)])
    return [r.tobytes() for r in rows]


def _singular_keys(curve: Curve, order: int) -> list:
    """The content key of every identical pair, then of every touching row
    of ``KnotVector.patches`` in (es, et) order: the rule's name, the
    order, the degree, and each element's ``_element_rows`` entry, the
    inputs ``_duffy_blocks`` reads."""
    kv = curve.knots
    own = _element_rows(curve)
    et, es = kv.patches[kv.touching].T
    return ([("identical", order, curve.degree, k) for k in own]
            + [("touching", order, curve.degree, own[s], own[t]) for s, t in zip(es, et)])


def _stored(curve: Curve, keys: list, compute, what: str) -> np.ndarray:
    """The blocks of ``keys``, stacked in their order, from the lineage's
    store ``curve._blocks``.  ``compute(new)`` returns the blocks of the
    distinct keys missing there, given the positions ``new`` of their first
    occurrences in ``keys``; the store keeps copies, so that none keeps its
    batch alive, and evicts nothing.  Logs the traffic as ``what``."""
    store = curve._blocks
    index: dict = {}
    slot = np.array([index.setdefault(k, len(index)) for k in keys], dtype=int)
    first = np.unique(slot, return_index=True)[1]
    new = np.array([i for i in first if keys[i] not in store], dtype=int)
    store.update(zip([keys[i] for i in new], (b.copy() for b in compute(new))))
    logger.debug("%s blocks: %d computed, %d reused", what, len(new), len(first) - len(new))
    return np.stack([store[k] for k in index])[slot]


def _singular_pairs(curve: Curve, order: int):
    """Element matrices of every identical and touching pair of elements.

    Blocks are looked up by content key (``_singular_keys``): pairs with
    bit-identical inputs have bit-identical blocks, so each key missing from
    the store is computed once, in one batch per regime (``_stored``).
    Returns (s elements, t elements, blocks); the blocks pair the s basis
    window against the t window and enter the matrix with their transposes.
    """
    kv = curve.knots
    e = np.arange(kv.n_elements)
    et, es = kv.patches[kv.touching].T

    def compute(new):
        touch = new[new >= len(e)] - len(e)
        B, M = _duffy_blocks(curve, order, new[new < len(e)], et[touch], es[touch])
        return (*B, *M)

    blocks = _stored(curve, _singular_keys(curve, order), compute, "singular")
    return np.concatenate([e, es]), np.concatenate([e, et]), blocks


def galerkin_matrix(curve: Curve, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Symmetric Galerkin matrix of the single-layer operator.

    The identical and touching blocks come from the curve's lineage store
    (``_singular_pairs``), so an adaptive step computes only those of the
    elements it changed; the matrix is the same bits as on a fresh curve.
    """
    kv = curve.knots
    n_el = kv.n_elements
    # below three elements some pair of a closed curve touches at both ends,
    # and the touching-pair rule, anchored at one shared node, would leave
    # the singularity at the other
    if curve.closed and n_el < 3:
        raise ValueError("closed curves need at least three elements for assembly")
    points = _grid(curve, order)[0]
    first = kv.element_table[0]
    offsets = np.arange(kv.degree + 1)
    # every pair is added once, the upper triangle's; A + A.T completes it
    A = np.zeros((kv.dim, kv.dim))

    def add(ce, cf, blocks):
        rows = first[ce][:, None] + offsets
        cols = first[cf][:, None] + offsets
        np.add.at(A, (rows[:, :, None], cols[:, None, :]), blocks)

    # separated pairs: the upper triangle less the identical pairs and the
    # touching rows of the patch table
    touching = kv.patches[kv.touching]
    separated = np.triu(np.ones((n_el, n_el), dtype=bool), 1)
    separated[touching.min(axis=1), touching.max(axis=1)] = False
    e, f = np.nonzero(separated)
    # each pair's Gauss order from the balls around its two elements: the
    # centre is the midpoint of the end points, the radius reaches every
    # Gauss point
    ends = curve.end_points.reshape(n_el, 2, 2)
    centre = 0.5 * (ends[:, 0] + ends[:, 1])
    reach = np.concatenate([ends, points], axis=1) - centre[:, None, :]
    radius = np.hypot(reach[..., 0], reach[..., 1]).max(axis=1)
    gap = np.hypot(*(centre[e] - centre[f]).T) - radius[e] - radius[f]
    pair_order = separated_order(
        1.0 + np.maximum(gap, 0.0) / np.maximum(radius[e], radius[f]), order)
    orders = np.unique(pair_order).tolist()
    for m, (pm, wm, _) in zip(orders, _grids(curve, orders)):
        pick = pair_order == m
        ge, gf = e[pick], f[pick]
        step = max(1, int(_FAR_BLOCK // (m * m)))
        for k0 in range(0, len(ge), step):
            ce, cf = ge[k0:k0 + step], gf[k0:k0 + step]
            a, b = pm[ce][:, :, None, :], pm[cf][:, None, :, :]
            K = _log_dist(a[..., 0] - b[..., 0], a[..., 1] - b[..., 1])
            add(ce, cf, np.matmul(wm[ce].transpose(0, 2, 1),
                                  np.matmul(K, wm[cf])))
    add(*_singular_pairs(curve, order))
    return (A + A.T) / (-_TWO_PI)


def _corner_graded_rule(lo: float, hi: float, at_lo: bool, at_hi: bool,
                        order: int):
    """Rule on [lo, hi] graded toward whichever endpoints are corners:
    parameters anchored at the corner, weights and local coordinates."""
    h = hi - lo
    levels = min(30, max(2, int(np.log2(max(h, 1e-30)) + 44.0)))
    xs, ws = graded_unit(order, levels)
    if at_lo and at_hi:
        t = np.concatenate([lo + 0.5 * h * xs, hi - 0.5 * h * xs[::-1]])
        w = np.concatenate([0.5 * h * ws, 0.5 * h * ws[::-1]])
        return t, w, np.concatenate([0.5 * xs, 1.0 - 0.5 * xs[::-1]])
    if at_hi:
        return hi - h * xs[::-1], h * ws[::-1], 1.0 - xs[::-1]
    return lo + h * xs, h * ws, xs


def galerkin_rhs(curve: Curve, f_of_params, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Load vector <f, R_i> with f given as a function of curve parameters.

    Elements ending at a corner get a rule graded toward it: Dirichlet data
    of corner domains stays bounded there but its derivatives do not, and
    plain Gauss on those elements loses enough digits to spoil computed
    energies once the mesh is deeply refined.  All nodes go to f in one call.
    """
    kv = curve.knots
    elems = kv.elements
    hs = kv.widths
    # element ends on a corner; element e ends at node (e + 1) % n_nodes
    corner = np.isin(kv.nodes, curve.corner_params())
    at = np.column_stack((corner, np.roll(corner, -1)))[: kv.n_elements]
    plain = np.flatnonzero(~at.any(axis=1))
    xg, wg = gauss_unit(order)
    # (element, parameter, weight, basis windows times speed) per node; the
    # plain elements share one Gauss rule
    rules = [(plain.repeat(order),
              (elems[plain, 0][:, None] + hs[plain][:, None] * xg).ravel(),
              (hs[plain][:, None] * wg).ravel(),
              _phi_windows(curve, plain[:, None], xg).reshape(-1, curve.degree + 1))]
    for e in np.flatnonzero(at.any(axis=1)):
        t, w, u = _corner_graded_rule(*elems[e].tolist(), *at[e].tolist(), order)
        rules.append((np.full(len(t), e), t, w, _phi_windows(curve, np.array([[e]]), u)[0]))
    eq, tq, wq, phi = (np.concatenate(parts) for parts in zip(*rules))
    b = np.zeros(kv.dim)
    np.add.at(b, kv.element_table[0][eq][:, None] + np.arange(curve.degree + 1),
              (np.asarray(f_of_params(tq)) * wq)[:, None] * phi)
    return b


# --------------------------------------------------------------------------
# pointwise potentials (collocation rows, residual sampling, Dirichlet data)
# --------------------------------------------------------------------------

def _pair_geometry(curve: Curve, params: np.ndarray, x_pts: np.ndarray,
                   inside: np.ndarray, pair_i: np.ndarray, pair_e: np.ndarray):
    """Where the graded rule of each (target, element) pair grades: toward
    the end z of the element nearer the target (0 its start, 1 its end).
    Returns that end, the target's parameter distance from it and the
    target's displacement from it, taken from the target's own element when
    z is one of that element's ends, else from points."""
    kv = curve.knots
    elems = kv.elements
    x = params[pair_i]
    d_lo = np.abs(curve.param_delta(x, elems[pair_e, 0]))
    d_hi = np.abs(curve.param_delta(x, elems[pair_e, 1]))
    toward = (d_lo > d_hi).astype(int)
    z = 2 * pair_e + toward

    def node(row):
        return ((row + 1) >> 1) % len(kv.nodes)

    # the end of the target's element that is z, where it has one
    own = 2 * inside[pair_i]
    own += node(own) != node(z)
    shared = np.flatnonzero(node(own) == node(z))
    px = x_pts[pair_i] - curve.end_points[z]
    own = own[shared]
    px[shared] = curve.displacement(
        own, x[shared] - kv.breakpoint_array[(own + 1) >> 1])[:, 0]
    return toward, np.minimum(d_lo, d_hi), px


def _containing_rows(kernel, row, tau):
    """The kernel's rule on the element containing each target (``row``,
    ``tau`` as from ``KnotVector.locate``), in blocks of _FAR_BLOCK / q^2
    targets: its size per target does not grow with the mesh as the far
    field's does.  Yields each part's targets and rows against the
    kernel's density, in the order the parts are summed."""
    step = max(1, int(_FAR_BLOCK // (kernel.order * kernel.order)))
    for s0 in range(0, len(row), step):
        for idx, kw, vals in kernel.containing(row[s0:s0 + step], tau[s0:s0 + step]):
            yield s0 + idx, np.einsum("kn,knw->kw", kw, vals)


def _graded_rows(curve: Curve, kernel, pair_e: np.ndarray, toward: np.ndarray,
                 d: np.ndarray, px: np.ndarray):
    """Rows of (target, element) pairs on rules graded toward the target.

    Pair k's rule runs over element ``pair_e[k]``, graded toward its end
    ``toward[k]`` at the level that the target's distance ``d[k]`` from that
    end sets, with nodes at offsets h x from the end, and the target at
    displacement ``px[k]`` from that end.  The kernel gives the frames and
    the density once per distinct element of a group (``graded``).  Yields
    each group's mask over the pairs and its rows against that density.
    """
    hs = curve.knots.widths
    key = 2 * _grade_levels(hs[pair_e], d) + toward
    for k in np.unique(key):
        pick = key == k
        levels, end = divmod(int(k), 2)
        ue, slot = np.unique(pair_e[pick], return_inverse=True)
        xs, ws = graded_unit(kernel.order, levels)  # distances from the end in widths
        frames, dens = kernel.graded(ue, levels, end, -xs if end else xs)
        kern = kernel.value(px[pick], frames[slot])
        yield pick, np.einsum("kn,knw->kw", (hs[ue, None] * ws)[slot] * kern, dens[slot])


class _SingleLayer:
    """Kernel log|gamma(x) - gamma(t)| against sum coeffs[q] R_q |gamma'| in
    one column or, without ``coeffs``, against each R_q |gamma'| in column q.

    Far elements use the ``_grid`` of the given order, whose kernel ``far``
    leaves unhalved: ``far_scale`` halves the far sums once.  The near field
    is keyed (``_sample_blocks``): its rules run against the raw basis
    windows times speed, which ``cw``, the coefficients of each element's
    window, contracts afterwards.
    """

    keyed = True
    far_scale = 0.5

    def __init__(self, curve: Curve, order: int, coeffs: np.ndarray | None = None):
        self.curve = curve
        self.order = order
        _, wbasis, self.grid_xy = _grid(curve, order)
        cols = curve.knots.element_table[0][:, None] + np.arange(curve.degree + 1)[None, :]
        if coeffs is None:
            self.grid, self.cols = wbasis, cols
            self.n_cols = curve.knots.dim
            self.cw = None
        else:  # one column, summed on the grid and after the near blocks
            self.cw = coeffs[cols]
            self.grid = np.einsum("eqb,eb->eq", wbasis, self.cw)[..., None]
            self.n_cols = 1

    def far(self, pts):
        """log r^2 from points pts to every grid node, (len(pts), n_el q).

        No floor: a far node lies at r^2 above about 1e-24, where adding
        1e-300 changes no bit, and r = 0 only where a target sits on a node
        of its own element, an entry the far field zeroes as near."""
        dx = pts[:, 0, None] - self.grid_xy[0]
        dy = pts[:, 1, None] - self.grid_xy[1]
        dx *= dx
        dy *= dy
        dx += dy
        with np.errstate(divide="ignore"):
            return np.log(dx, out=dx)

    @staticmethod
    def value(px, frames):
        return _log_dist(px[:, None, 0] - frames[..., 0, 0],
                         px[:, None, 1] - frames[..., 0, 1], 1e-300)

    def graded(self, e, levels, end, s):
        """Frames and raw windows of elements e at unit offsets s from their
        end ``end``, the nodes of a graded group of ``levels``."""
        frames, basis = self.curve.at_nodes(e[:, None], s, end)
        return frames, _phi(frames, basis)

    def containing(self, row, tau):
        """Split the element at the target: log|x - t| goes into the
        log-weight rule on each side, the analytic rest log |gamma[x, t]|
        into plain Gauss, with the chord about the target's nearer end."""
        curve = self.curve
        q = self.order
        xg, wg = gauss_unit(q)
        xl, wl = gauss_log(q)
        end = row & 1
        h = curve.knots.widths[row >> 1]
        v = tau / h  # the target's local coordinate less its nearer end
        for orient, ell in ((1.0, 1.0 - end - v), (-1.0, end + v)):
            idx = np.flatnonzero(ell > 0.0)
            if not len(idx):
                continue
            e, hi, li = row[idx, None] >> 1, h[idx, None], ell[idx, None]
            ug = (end + v)[idx, None] + orient * li * xg
            ul = (end + v)[idx, None] + orient * li * xl
            chord = curve.chord(row[idx, None], tau[idx, None],
                                hi * (ug - end[idx, None]))
            ei = hi * li
            for kw, u in ((ei * (np.log(ei) + np.log(_norm(chord))) * wg, ug),
                          (-ei * wl, ul)):
                rows, taus = curve.knots.local(e, u)  # node by node
                yield idx, kw, _phi(curve.displacement(rows, taus, 1),
                                    curve.basis(rows, taus))


class _DoubleLayer:
    """Double-layer kernel against data g at boundary points, in one column.

    The kernel carries the speed.  Far elements use a Gauss grid of its own.
    One kernel serves every call on its curve with the same g and order
    (``dirichlet_rhs``), so it keeps in ``tables`` one table per
    (element, end) that a graded group met: the node frames and g values
    at every node of the gradings GRADE_MIN_LEVELS to GRADE_MAX_LEVELS
    toward that end (``quadrature.graded_union``, 1,520 nodes at order 16),
    from which a group of any level gathers its own; it counts the lookups
    served from them in ``reused``.  A table costs its full node set
    whatever level first needs it.  The program evaluates the data on the
    geometry mesh of 4 or 5 elements, where at most 10 tables serve a run;
    a call with many targets on a fine mesh, whose groups each meet few
    levels, forms more nodes than its groups read.  On the pacman refined
    to 160 elements, 3,000 random targets take 0.25 s against 0.19 s with
    tables per (element, levels, end), and a 41 MB tracemalloc peak
    against 9 MB (2-core VM, one BLAS thread).
    """

    n_cols = 1
    keyed = False
    far_scale = 1.0

    def __init__(self, curve: Curve, order: int, g_of_points):
        kv = curve.knots
        hs = kv.widths[:, None]
        xg, wg = gauss_unit(order)
        self.curve = curve
        self.order = order
        self.g_of_points = g_of_points
        self.grid_frames = curve.at_nodes(np.arange(kv.n_elements)[:, None], *nearer_end(xg),
                                          absolute=True)[0].reshape(-1, 2, 2)
        gjac = np.asarray(g_of_points(self.grid_frames[:, 0])) * (hs * wg).ravel()
        self.grid = gjac.reshape(kv.n_elements, order, 1)
        self.cols = np.zeros((kv.n_elements, 1), dtype=int)
        self.tables: dict = {}
        self.reused = 0

    def far(self, pts):
        """The kernel from points pts to every grid node."""
        return self.value(pts, self.grid_frames)

    @staticmethod
    def value(px, frames):
        """d . rot gamma'(t) / |d|^2, the normal derivative times the speed,
        with d = px less the point row of ``frames``; 0 where d = 0.  Formed
        in place, with the operations and rounding of (dx t_y - dy t_x) /
        (dx^2 + dy^2 + 1e-300)."""
        dx = px[:, None, 0] - frames[..., 0, 0]
        dy = px[:, None, 1] - frames[..., 0, 1]
        d1 = frames[..., 1, :]
        den = dx * dx
        dx *= d1[..., 1]
        t = dy * d1[..., 0]
        dy *= dy
        den += dy
        den += 1e-300
        dx -= t
        dx /= den
        return dx

    def graded(self, e, levels, end, s):
        """Frames and g of elements e at the nodes s (unit offsets from their
        end ``end``) of a graded group of ``levels``, gathered from the
        (element, end) tables; the elements without one have theirs formed
        in one batch and kept."""
        nodes, index = graded_union(self.order, GRADE_MIN_LEVELS, GRADE_MAX_LEVELS)
        new = [k for k in e.tolist() if (k, end) not in self.tables]
        if new:
            en = np.array(new)[:, None]
            frames = self.curve.at_nodes(en, -nodes if end else nodes, end)[0]
            pts = frames[..., 0, :] + self.curve.end_points[2 * en + end]
            g = np.asarray(self.g_of_points(pts.reshape(-1, 2))).reshape(pts.shape[:-1] + (1,))
            self.tables.update(((k, end), t) for k, t in zip(new, zip(frames, g)))
        self.reused += len(e) - len(new)
        pick = index[levels - GRADE_MIN_LEVELS]
        tables = [self.tables[k, end] for k in e.tolist()]
        return np.stack([f[pick] for f, _ in tables]), np.stack([g[pick] for _, g in tables])

    def containing(self, row, tau):
        """The kernel is smooth inside the element containing the target, so
        the rule there is plain Gauss, i.e. the grid itself.  The kernel of
        ``value`` is gamma[t, t, x] . rot gamma'(t) / |gamma[t, x]|^2,
        taken from the element's coefficients about the target's nearer
        end, so no difference of two rounded points enters."""
        xg, _ = gauss_unit(self.order)
        inside, end = row >> 1, row[:, None] & 1
        h = self.curve.knots.widths[inside][:, None]
        g1, d1, g2 = self.curve.chord(row[:, None], h * (xg - end), tau[:, None],
                                      second=True)
        kern = ((g2[..., 0] * d1[..., 1] - g2[..., 1] * d1[..., 0])
                / (g1[..., 0] ** 2 + g1[..., 1] ** 2))
        yield np.arange(len(row)), kern, self.grid[inside]


def _sample_neighbours(curve: Curve) -> np.ndarray:
    """The element across each end of every element, (n_el, 2), where its
    rule for the element's targets grades toward the shared node; -1
    elsewhere.

    That holds on an open curve.  On a closed one the neighbour's other end
    lies P - h' - d away round the curve from a target d from the shared
    node, so it holds for every target of an element of width h when 2 h <
    P - h'; otherwise (few elements) the pair keeps the graded rule by
    parameter.
    """
    kv = curve.knots
    e = np.arange(kv.n_elements)
    nb = np.stack([kv.patches[e, 0], kv.patches[(e + 1) % len(kv.nodes), 1]], axis=1)
    if curve.closed:
        hs = kv.widths
        nb[2.0 * hs[:, None] >= kv.period - hs[nb]] = -1
    return nb


def _local_targets(curve: Curve, u: np.ndarray):
    """Targets at the local coordinates u shared by every element, one row
    of len(u) per element, in the form the keyed near field reads: each
    target's nearer end ``row`` (2 e + end) and offset ``tau`` from it, as
    from ``KnotVector.local``, and its offsets h (u - side) from both ends
    of its element, (n_el, 2, len(u))."""
    kv = curve.knots
    e = np.arange(kv.n_elements)[:, None]
    row, tau = np.broadcast_arrays(*kv.local(e, u))
    return row, tau, kv.widths[e, None] * (u - np.arange(2)[:, None])


def _param_targets(curve: Curve, params: np.ndarray):
    """Targets at parameters in [a, b), one row each, in the form of
    ``_local_targets``: the nearer end and offset from
    ``KnotVector.locate``, and the offsets t - t_end from both ends of the
    containing element, the ones ``_pair_geometry`` takes."""
    kv = curve.knots
    row, tau = kv.locate(params)
    offset = params[:, None] - kv.breakpoint_array[(row >> 1)[:, None] + np.arange(2)]
    return row[:, None], tau[:, None], offset[..., None]


def _keyed_near(curve: Curve, neighbours: np.ndarray, row: np.ndarray,
                offset: np.ndarray):
    """For target rows ``row`` with ``offset`` from their element's ends
    (``_local_targets``, ``_param_targets``): the keyed neighbours of each
    row's element among ``neighbours`` (``_sample_neighbours``), (n, 2), and
    whether the one across an end is near each target, (n, 2, m): |offset|
    < NEAR_FACTOR h'.  This reads only offsets and widths, so the decision
    follows from a touching key."""
    nb = neighbours[row[:, 0] >> 1]
    near = np.abs(offset) < NEAR_FACTOR * curve.knots.widths[nb][..., None]
    return nb, near & (nb >= 0)[..., None]


def _sample_keys(curve: Curve, order: int, targets, nb: np.ndarray):
    """The content keys of the near blocks of the target rows ``targets``
    (``_local_targets``, ``_param_targets``): per row, ``"own"``, the
    order, the bytes of its targets' nearer ends and offsets from them, and
    its element's ``_element_rows`` entry, whose length gives the degree;
    per row end 2 k + side, ``"end"``, the order, the side, the bytes of
    the targets' offsets from that end, the element's entry and the
    neighbour's, or None where the row's keyed neighbours ``nb``
    (``_keyed_near``) have none."""
    row, tau, offset = targets
    rows = _element_rows(curve)
    e = (row[:, 0] >> 1).tolist()
    return ([("own", order, r.tobytes(), t.tobytes(), rows[k])
             for k, r, t in zip(e, row & 1, tau)],
            [("end", order, side, offset[k, side].tobytes(), rows[e[k]], rows[f])
             if f >= 0 else None
             for k, pair in enumerate(nb.tolist()) for side, f in enumerate(pair)])


def _sample_near_blocks(curve: Curve, order: int, targets, nb: np.ndarray,
                        near: np.ndarray, own: np.ndarray, ends: np.ndarray, pairs=None):
    """Near blocks of the target rows ``targets`` (m targets each), against
    raw basis windows times speed (one column per basis function).

    Row k's own block takes its element's split rule (``_containing_rows``)
    at its targets, for k in ``own``; the block of row end 2 k + side, in
    ``ends``, takes the rule on the neighbour across that end of the
    element, graded toward the shared node (``_graded_rows``), with the
    targets' distance and displacement from the node read from the
    element's tables at their offset, and zero rows for the targets that
    the rows' keyed neighbours ``nb`` and their ``near`` decision
    (``_keyed_near``) call far.  Each reads only its keys' inputs
    (``_sample_keys``), so a block's bits do not depend on its batch.
    Further graded ``pairs`` (element, end, distance, displacement) share
    the end blocks' groups.  Returns the own blocks, (len(own), m, p + 1),
    the end blocks, (len(ends), m, p + 1), and the rows of ``pairs``.
    """
    row, tau, offset = targets
    shape = (row.shape[1], curve.degree + 1)
    raw = _SingleLayer(curve, order)
    own_rows = np.zeros((len(own) * shape[0], shape[1]))
    for idx, r in _containing_rows(raw, row[own].ravel(), tau[own].ravel()):
        own_rows[idx] += r

    k, side = ends >> 1, ends & 1
    pk, pj = np.nonzero(near[k, side])
    k, side = k[pk], side[pk]
    h = offset[k, side, pj]
    px = curve.displacement(2 * (row[k, 0] >> 1) + side, h)[:, 0]
    graded = (nb[k, side], 1 - side, np.abs(h), px)
    if pairs is not None:
        graded = [np.concatenate(ab) for ab in zip(graded, pairs)]
    rows = np.zeros((len(graded[0]), shape[1]))
    for pick, r in _graded_rows(curve, raw, *graded):
        rows[pick] = r
    touch = np.zeros((len(ends),) + shape)
    touch[pk, pj] = rows[:len(pk)]
    return own_rows.reshape((len(own),) + shape), touch, rows[len(pk):]


def _sample_blocks(curve: Curve, order: int, targets, nb: np.ndarray, near: np.ndarray,
                   pairs=None, what: str = "sample"):
    """Every near block of the target rows ``targets``, and the rows of
    further graded ``pairs`` (``_sample_near_blocks``), with the rows'
    keyed neighbours ``nb`` and their ``near`` decision (``_keyed_near``).
    Each distinct key (``_sample_keys``) missing from the store is computed
    once, on its first row or row end, in one batch with ``pairs``
    (``_stored``, which logs the traffic as ``what``).  Returns one stack,
    (n + n_keyed, m, p + 1): every row's own block, then the block of each
    row end 2 k + side with a keyed neighbour, in order of 2 k + side; and
    the rows of ``pairs``."""
    n = len(targets[0])
    own_keys, end_keys = _sample_keys(curve, order, targets, nb)
    keyed = np.flatnonzero([k is not None for k in end_keys])
    rows = []

    def compute(new):
        own, ends, r = _sample_near_blocks(curve, order, targets, nb, near, new[new < n],
                                           keyed[new[new >= n] - n], pairs)
        rows.append(r)
        return (*own, *ends)

    blocks = _stored(curve, own_keys + [end_keys[k] for k in keyed], compute, what)
    return blocks, rows[0]


def _potential(curve: Curve, kernel, params, local=None,
               what: str = "sample") -> np.ndarray:
    """Integrals of ``kernel`` against its density at the target parameters.

    ``kernel`` supplies the kernel from target points to its Gauss grid
    (``far``), times ``far_scale`` once summed, and its ``value`` at other
    quadrature nodes, its density there (``grid`` (n_el, q, w) times
    weights, and ``graded``, the frames and the density of a graded group's
    nodes, in windows of w values), the output column ``cols[e, j]`` of
    slot j of element e's window among ``n_cols``, and the rule on the
    element containing the target.  Far elements take the grid, in blocks
    of targets whose near (target, element) entries are zeroed by index;
    the other near elements take composite rules graded toward the target.
    Each rule runs in one loop whatever the form of the targets
    (``_containing_rows``, ``_graded_rows``).
    Returns an (n_targets, n_cols) array.

    With ``local`` the targets are the nodes (e, local[j]) of every element
    e, element by element, and ``params`` holds their parameters; without,
    they are the parameters, one row each.  A ``keyed`` kernel, the single
    layer, takes each target row's own element and its keyed neighbours
    from the blocks of their keys (``_sample_blocks``), logged as
    ``what``; the far field skips exactly the keyed pairs that the table of
    near neighbours calls near (``_keyed_near``).  Its other near pairs keep
    their rules by parameter and run in the same graded groups as the
    neighbour blocks.
    All are integrated against raw basis windows, then scattered into the
    columns or contracted with the coefficients, per target in the order
    own, side 0, side 1, after the far field and before the other pairs.
    The double layer reads g at absolute points, so it keeps every near
    rule by parameter: its table of near neighbours is all -1.
    """
    kv = curve.knots
    n_el, q, w = kernel.grid.shape
    if local is None:
        params = kv.wrap(np.atleast_1d(params))
        x_pts = curve.point(params)
        targets = _param_targets(curve, params)
    else:
        params = np.ravel(params)
        e = np.arange(n_el)[:, None]
        x_pts = curve.at_nodes(e, *nearer_end(local), absolute=True)[0]
        x_pts = x_pts[..., 0, :].reshape(-1, 2)
        targets = _local_targets(curve, local)
    # the element containing each target, right-continuous at breakpoints,
    # with the target's nearer end and offset
    row, tau, _ = targets
    inside = row.ravel() >> 1
    m = len(params)
    # per target: the keyed neighbour across each end and whether it is
    # near; the double layer has none, all -1
    neighbours = _sample_neighbours(curve) if kernel.keyed else np.full((n_el, 2), -1)
    nb_rows, near_rows = _keyed_near(curve, neighbours, row, targets[2])
    nb = nb_rows.repeat(row.shape[1], axis=0)
    keyed_near = near_rows.transpose(0, 2, 1).reshape(m, 2)
    out = np.zeros((m, kernel.n_cols))
    hs = kv.widths
    mids = kv.elements.mean(axis=1)

    # far elements, block by block of targets; near are the containing
    # element, the keyed neighbours that their keys call near, and the
    # other elements within NEAR_FACTOR sizes, kept as (target, element)
    # pairs in row-major order (seeded empty for a call without targets)
    near_pairs = [(np.zeros(0, dtype=int),) * 2]
    step = max(1, int(_FAR_BLOCK // (n_el * q)))
    for s0 in range(0, m, step):
        sl = slice(s0, min(s0 + step, m))
        gap = np.abs(curve.param_delta(params[sl, None], mids))
        near = gap - 0.5 * hs < NEAR_FACTOR * hs
        near[np.arange(len(near)), inside[sl]] = True
        k, side = np.nonzero(nb[sl] >= 0)  # a target's two keyed neighbours differ
        near[k, nb[s0 + k, side]] = keyed_near[s0 + k, side]
        ni, ne = np.nonzero(near)
        near_pairs.append((s0 + ni, ne))
        K = kernel.far(x_pts[sl]).reshape(-1, n_el, q)
        K[ni, ne] = 0.0
        if w == 1:
            # multiply and sum per row: a matrix-vector product would
            # round a target's row by its position in the block
            K *= kernel.grid[..., 0]
            out[sl, 0] = K.reshape(len(K), -1).sum(axis=1)
        else:
            win = np.einsum("cer,erw->cew", K, kernel.grid)
            for j in range(w):  # slot j of distinct elements: distinct columns
                out[sl, kernel.cols[:, j]] += win[:, :, j]
    out *= kernel.far_scale  # the far sums alone, before any near part

    pair_i, pair_e = (np.concatenate(p) for p in zip(*near_pairs))
    keep = (pair_e != inside[pair_i]) & (pair_e[:, None] != nb[pair_i]).all(axis=1)
    pair_i, pair_e = pair_i[keep], pair_e[keep]
    toward, d, px = _pair_geometry(curve, params, x_pts, inside, pair_i, pair_e)
    if not kernel.keyed:
        for ii, r in _containing_rows(kernel, row.ravel(), tau.ravel()):
            np.add.at(out, (ii[:, None], kernel.cols[inside[ii]]), r)
        for pick, r in _graded_rows(curve, kernel, pair_e, toward, d, px):
            np.add.at(out, (pair_i[pick][:, None], kernel.cols[pair_e[pick]]), r)
        return out

    # the keyed blocks, each with the row of its targets and the element of
    # its windows, own blocks first, then the keyed ends in order; then the
    # other near pairs' rows, which ran in the same graded groups
    blocks, rows = _sample_blocks(curve, q, targets, nb_rows, near_rows,
                                  (pair_e, toward, d, px), what)
    k, side = np.nonzero(nb_rows >= 0)
    to = np.concatenate([np.arange(len(row)), k])
    f = np.concatenate([row[:, 0] >> 1, nb_rows[k, side]])
    if kernel.cw is None:  # scattered into the columns of the windows
        t = to[:, None] * row.shape[1] + np.arange(row.shape[1])
        np.add.at(out, (t[..., None], kernel.cols[f][:, None, :]), blocks)
        np.add.at(out, (pair_i[:, None], kernel.cols[pair_e]), rows)
        return out
    V = np.zeros(row.shape)
    np.add.at(V, to, np.einsum("bjw,bw->bj", blocks, kernel.cw[f]))
    out[:, 0] += V.ravel()
    np.add.at(out[:, 0], pair_i, np.einsum("kw,kw->k", rows, kernel.cw[pair_e]))
    return out


def collocation_matrix(curve: Curve, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Square collocation system: row i evaluates V at collocation point i.

    Each point's own element and touching neighbours take content-keyed
    blocks (``_potential``) from the curve's lineage store; the matrix is
    the same bits as on a fresh curve.

    Raises ValueError when a collocation point falls on a geometric corner:
    the jump factor of the boundary identity depends on the interior angle
    there, so such a configuration is ambiguous.
    """
    pts = curve.knots.collocation_points()
    corners = curve.corner_params()
    if len(corners):
        gaps = np.abs(curve.param_delta(pts[:, None], corners[None, :]))
        hit = np.nonzero(gaps.min(axis=1) < 1e-12)[0]
        if len(hit):
            raise ValueError(
                f"collocation point t={float(pts[hit[0]]):g} lies on a corner, "
                "where "
                "the jump factor depends on the interior angle; refine or "
                "reparametrize so collocation points avoid corners"
            )
    return _potential(curve, _SingleLayer(curve, order), pts,
                      what="collocation") / (-_TWO_PI)


def single_layer_values(curve: Curve, coeffs: np.ndarray, params: np.ndarray,
                        order: int = DEFAULT_ORDER, local=None) -> np.ndarray:
    """Evaluate V phi_h on the curve at the given parameters.

    phi_h = sum coeffs[q] R_q, contracted on the quadrature grids, so no
    (targets x dim) array is built; the near field is integrated against
    the raw basis windows, once per distinct content key
    (``_sample_blocks``), and contracted with the coefficients after.
    With ``local``, local coordinates shared by every element, the targets
    are the nodes (e, local[j]) and ``params`` their parameters, shape
    (n_el, len(local)); the values come back in that shape.  The near
    blocks come from the curve's lineage store (``_stored``), so the next
    mesh of a refinement computes only those of the elements it changed;
    the values are the same bits as on a fresh curve.
    """
    kernel = _SingleLayer(curve, order, np.asarray(coeffs, dtype=float))
    if local is None:
        return _potential(curve, kernel, params, what="single-layer")[:, 0] / (-_TWO_PI)
    local = np.asarray(local, dtype=float)
    shape = (curve.knots.n_elements, len(local))
    if np.shape(params) != shape:
        raise ValueError(f"params of targets at shared local coordinates must "
                         f"have shape {shape}, got {np.shape(params)}")
    return (_potential(curve, kernel, params, local)[:, 0]
            / (-_TWO_PI)).reshape(shape)


def dirichlet_rhs(curve: Curve, g_of_points, params,
                  order: int = DEFAULT_ORDER) -> np.ndarray:
    """(K + 1/2) g at the given parameters, K the double-layer operator.

    ``g_of_points``, the Dirichlet trace data, maps an (m, 2) array of
    boundary points to values.  The kernel is bounded along smooth arcs and
    grows like 1/distance across corners, so near elements get graded
    composite rules.  A target may sit on a corner only if g decays there
    fast enough to keep the integrand bounded (as it does for data
    vanishing along straight edges).

    The kernel of g at this order is kept on the curve, so a later call
    with the same g (the same object, taken to be a fixed function) and
    order reads its Gauss grid and the frames and g values of every graded
    group met before; the values are the same bits as on a fresh curve.
    """
    params = np.atleast_1d(np.asarray(params, dtype=float))
    kernel = curve._grids.get((g_of_points, order))
    if kernel is None:
        kernel = curve._grids[g_of_points, order] = _DoubleLayer(curve, order, g_of_points)
    n, reused = len(kernel.tables), kernel.reused
    values = _potential(curve, kernel, params)[:, 0] / _TWO_PI
    logger.debug("double-layer tables: %d computed, %d reused",
                 len(kernel.tables) - n, kernel.reused - reused)
    return values + 0.5 * np.asarray(g_of_points(curve.point(params)))
