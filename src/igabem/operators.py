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
* separated pair: tensor Gauss at an order chosen per pair.  Each element
  gets a ball (centre the midpoint of its end points, radius reaching its
  Gauss points), and the gap between two balls relative to the larger
  radius fixes the order by ``quadrature.separated_order``, capped by the
  caller's order.  Pairs of one order are assembled together in blocks.

Pointwise potentials (collocation rows, residual samples of V phi_h, and the
Dirichlet data (K + 1/2) g) go through one vectorised engine.  Per target it
integrates far elements on a plain Gauss grid in blocks of targets, and the
other elements near the target on composite rules graded toward it.  The
element containing the target takes the kernel's own rule: for V a split at
the target with the log-weight rule on each side, for K plain Gauss, since
K is smooth along an arc; both take the kernel from divided differences.
A graded rule measures its nodes and the target from the element end it
grades toward, so gamma(x) - gamma(t) is a difference of two displacements
from that end (``Curve.displacement``), each exact to its last digits, and
one kernel formula serves every node.  The engine returns the density
contracted with coefficients, the raw basis windows (one column per basis
function), or the integral of data g.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .geometry import Curve
from .quadrature import gauss_log, gauss_unit, graded_unit, separated_order
from .splines import rational_basis  # noqa: F401  (wrapped here by perfbench/tracing.py)

logger = logging.getLogger(__name__)

DEFAULT_ORDER = 16
NEAR_FACTOR = 0.75  # parameter-distance/size ratio below which grading kicks in
GRADE_MAX_LEVELS = 48
_TWO_PI = 2.0 * np.pi
# far-field kernel entries evaluated per block of element pairs or of
# targets: this bounds the memory of a block, whose temporaries are about
# ten arrays of this many doubles, whatever the mesh size
_FAR_BLOCK = 1e5

__all__ = [
    "ElementCache",
    "element_cache",
    "galerkin_matrix",
    "galerkin_rhs",
    "collocation_matrix",
    "single_layer_values",
    "double_layer_values",
    "dirichlet_rhs",
]


# --------------------------------------------------------------------------
# shared per-element quadrature data
# --------------------------------------------------------------------------


@dataclass
class ElementCache:
    """Gauss data on every element: points, weighted basis."""

    curve: Curve
    order: int
    points: np.ndarray  # (n_el, q, 2)
    first: np.ndarray  # (n_el,) first basis index per element
    wbasis: np.ndarray  # (n_el, q, p+1) basis * speed * gauss weight * length


def element_cache(curve: Curve, order: int = DEFAULT_ORDER) -> ElementCache:
    kv = curve.knots
    xg, wg = gauss_unit(order)
    hs = kv.widths[:, None]
    e = np.arange(kv.n_elements)[:, None]
    return ElementCache(curve, order, curve.local_frame(e, xg)[..., 0, :], kv.element_table[0],
                        _phi_windows(curve, e, xg) * (wg * hs)[..., None])


# --------------------------------------------------------------------------
# kernel helpers
# --------------------------------------------------------------------------


def _norm(v: np.ndarray) -> np.ndarray:
    return np.hypot(v[..., 0], v[..., 1])


def _phi_windows(curve: Curve, e, u):
    """Rational basis windows times speed at local coordinates u of
    elements e; the speed needs no point, so it takes displacements."""
    d1 = curve.displacement(*curve.knots.local(e, u), 1)[..., 1, :]
    return curve.local_basis(e, u) * _norm(d1)[..., None]


def _grade_levels(h: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Grading levels toward a target at distance d from elements of size h."""
    lv = np.ceil(np.log2(h / np.maximum(d, 1e-300))) + 2
    return np.clip(lv, 2, GRADE_MAX_LEVELS).astype(int)


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


def _singular_pairs(curve: Curve, order: int):
    """Element matrices of every identical and touching pair of elements.

    Returns (s elements, t elements, blocks); the blocks pair the s basis
    window against the t window and enter the matrix with their transposes.
    """
    kv = curve.knots
    x, _ = _radial_rule(order)
    y, _ = gauss_unit(order)
    xq = x[:order]  # the Gauss rows, which take the chord

    # identical pairs: the triangle s > t under s - t = h x, mirrored by the
    # transpose; the chord over x is h |gamma[s, t]| about the element start
    e = np.arange(kv.n_elements)[:, None, None]
    h = kv.widths[e]
    v = (1.0 - x) * y
    chord = _norm(curve.chord(2 * e, h * (xq + v[:order]), h * v[:order]))
    B = _singular_blocks(curve, (e, x + v), (e, v), h * chord,
                         h * h * (1.0 - x), order)

    # touching pairs: element et ends at the node where element es starts,
    # the seam included.  The two triangles are anchored at that node; with
    # s = h2 x a past it and t = h1 x b before it, the chord over x is
    # h2 a gamma[node, s] + h1 b gamma[node, t], each side about the node
    et, es = kv.patches[(kv.patches >= 0).all(axis=1)].T[:, :, None, None]
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
    return (np.concatenate([e.ravel(), es.ravel()]),
            np.concatenate([e.ravel(), et.ravel()]), np.concatenate([B, M]))


def galerkin_matrix(curve: Curve, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Symmetric Galerkin matrix of the single-layer operator."""
    kv = curve.knots
    n_el = kv.n_elements
    # below three elements some pair of a closed curve touches at both ends,
    # and the touching-pair rule, anchored at one shared node, would leave
    # the singularity at the other
    if curve.closed and n_el < 3:
        raise ValueError("closed curves need at least three elements for assembly")
    cache = element_cache(curve, order)
    offsets = np.arange(kv.degree + 1)
    # every pair is added once, the upper triangle's; A + A.T completes it
    A = np.zeros((kv.dim, kv.dim))

    def add(ce, cf, blocks):
        rows = cache.first[ce][:, None] + offsets
        cols = cache.first[cf][:, None] + offsets
        np.add.at(A, (rows[:, :, None], cols[:, None, :]), blocks)

    # separated pairs: the upper triangle less the identical pairs and the
    # touching rows of the patch table
    touching = kv.patches[(kv.patches >= 0).all(axis=1)]
    separated = np.triu(np.ones((n_el, n_el), dtype=bool), 1)
    separated[touching.min(axis=1), touching.max(axis=1)] = False
    e, f = np.nonzero(separated)
    # each pair's Gauss order from the balls around its two elements: the
    # centre is the midpoint of the end points, the radius reaches every
    # Gauss point
    ends = curve.point(kv.elements.ravel()).reshape(n_el, 2, 2)
    centre = 0.5 * (ends[:, 0] + ends[:, 1])
    reach = np.concatenate([ends, cache.points], axis=1) - centre[:, None, :]
    radius = np.hypot(reach[..., 0], reach[..., 1]).max(axis=1)
    gap = np.hypot(*(centre[e] - centre[f]).T) - radius[e] - radius[f]
    pair_order = separated_order(
        1.0 + np.maximum(gap, 0.0) / np.maximum(radius[e], radius[f]), order)
    for m in np.unique(pair_order):
        cm = cache if m == order else element_cache(curve, int(m))
        pick = pair_order == m
        ge, gf = e[pick], f[pick]
        step = max(1, int(_FAR_BLOCK // (m * m)))
        for k0 in range(0, len(ge), step):
            ce, cf = ge[k0:k0 + step], gf[k0:k0 + step]
            d = cm.points[ce][:, :, None, :] - cm.points[cf][:, None, :, :]
            K = np.log(np.hypot(d[..., 0], d[..., 1]))
            add(ce, cf, np.matmul(cm.wbasis[ce].transpose(0, 2, 1),
                                  np.matmul(K, cm.wbasis[cf])))
    add(*_singular_pairs(curve, order))
    return (A + A.T) / (-_TWO_PI)


def _corner_graded_rule(lo: float, hi: float, at_lo: bool, at_hi: bool,
                        order: int):
    """Rule on [lo, hi] graded toward whichever endpoints are corners:
    parameters anchored at the corner, weights and local coordinates."""
    h = hi - lo
    levels = min(30, max(2, int(np.log2(max(h, 1e-30)) + 44.0)))
    xs, ws = graded_unit(order, levels, 0.0)
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
    at = np.zeros(elems.shape, dtype=bool)  # element ends on a corner
    corners = curve.corner_params()
    if corners.size:
        at = np.abs(curve.param_delta(elems[..., None], corners)).min(axis=2) < 1e-12
    plain = np.flatnonzero(~at.any(axis=1))
    xg, wg = gauss_unit(order)
    # (element, parameter, weight, local coordinate) per node
    rules = [(plain.repeat(order),
              (elems[plain, 0][:, None] + hs[plain][:, None] * xg).ravel(),
              (hs[plain][:, None] * wg).ravel(), np.tile(xg, len(plain)))]
    for e in np.flatnonzero(at.any(axis=1)):
        t, w, u = _corner_graded_rule(*elems[e].tolist(), *at[e].tolist(), order)
        rules.append((np.full(len(t), e), t, w, u))
    eq, tq, wq, uq = (np.concatenate(parts) for parts in zip(*rules))
    phi = _phi_windows(curve, eq, uq)  # phi carries the speed
    b = np.zeros(kv.dim)
    np.add.at(b, kv.element_table[0][eq][:, None] + np.arange(curve.degree + 1),
              (np.asarray(f_of_params(tq)) * wq)[:, None] * phi)
    return b


# --------------------------------------------------------------------------
# pointwise potentials (collocation rows, residual sampling, Dirichlet data)
# --------------------------------------------------------------------------

def _graded_pair_rules(curve: Curve, params: np.ndarray, x_pts: np.ndarray,
                       inside: np.ndarray, pair_i: np.ndarray,
                       pair_e: np.ndarray, order: int):
    """Group (target, element) pairs sharing a graded-rule shape.

    A pair's rule grades toward the end z of its element nearer the target
    and measures both from z: the nodes at offsets h x, the target from its
    own element when z is one of that element's ends, else from points.
    Yields (targets, elements, slot, u, weights, px, frames, origin) per
    group: local coordinates ``u`` shared by the group, one target
    displacement ``px`` per pair, and weights, node ``frames`` (row 0 the
    displacement) and the point z, ``origin``, once per distinct element,
    which pair k reads at ``slot[k]``.
    """
    kv = curve.knots
    elems, hs = kv.elements, kv.widths
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
    key = 2 * _grade_levels(hs[pair_e], np.minimum(d_lo, d_hi)) + toward
    for k in np.unique(key):
        pick = key == k
        levels, end = divmod(int(k), 2)
        ue, slot = np.unique(pair_e[pick], return_inverse=True)
        xs, ws = graded_unit(order, levels)  # distances from z in widths
        h = hs[ue][:, None]
        rows = 2 * ue[:, None] + end
        yield (pair_i[pick], ue, slot, 1.0 - xs if end else xs, h * ws, px[pick],
               curve.displacement(rows, h * (-xs if end else xs), 1),
               curve.end_points[rows])


class _SingleLayer:
    """Kernel log|gamma(x) - gamma(t)| against sum coeffs[q] R_q |gamma'| in
    one column or, without ``coeffs``, against each R_q |gamma'| in column q.

    Far elements use the element cache's Gauss grid.
    """

    def __init__(self, cache: ElementCache, coeffs: np.ndarray | None = None):
        self.cache = cache
        self.grid_frames = cache.points.reshape(-1, 1, 2)
        cols = cache.first[:, None] + np.arange(cache.curve.degree + 1)[None, :]
        if coeffs is None:
            self.grid, self.cols = cache.wbasis, cols
            self.n_cols = cache.curve.knots.dim
            self.cw = None
        else:
            self.cw = coeffs[cols]
            self.grid = np.einsum("eqb,eb->eq", cache.wbasis, self.cw)[..., None]
            self.cols, self.n_cols = np.zeros((len(cols), 1), dtype=int), 1

    @staticmethod
    def value(px, frames):
        return np.log(np.hypot(px[:, None, 0] - frames[..., 0, 0],
                               px[:, None, 1] - frames[..., 0, 1]) + 1e-300)

    def density(self, e, u, frames, origin=None):  # reads only speeds
        phi = (self.cache.curve.local_basis(e, u)
               * _norm(frames[..., 1, :])[..., None])
        if self.cw is None:
            return phi
        return (phi * self.cw[e]).sum(axis=-1, keepdims=True)

    def containing(self, row, tau):
        """Split the element at the target: log|x - t| goes into the
        log-weight rule on each side, the analytic rest log |gamma[x, t]|
        into plain Gauss, with the chord about the target's nearer end."""
        curve = self.cache.curve
        q = self.cache.order
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
            dens = self.density(e, ug, curve.displacement(*curve.knots.local(e, ug), 1))
            yield idx, ei * (np.log(ei) + np.log(_norm(chord))) * wg, dens
            yield idx, -ei * wl, self.density(
                e, ul, curve.displacement(*curve.knots.local(e, ul), 1))


class _DoubleLayer:
    """Double-layer kernel against data g at boundary points, in one column.

    The kernel carries the speed.  Far elements use a Gauss grid of its own.
    """

    n_cols = 1

    def __init__(self, curve: Curve, order: int, g_of_points):
        kv = curve.knots
        hs = kv.widths[:, None]
        xg, wg = gauss_unit(order)
        self.curve = curve
        self.order = order
        self.g_of_points = g_of_points
        self.grid_frames = curve.local_frame(
            np.arange(kv.n_elements)[:, None], xg, 1).reshape(-1, 2, 2)
        gjac = np.asarray(g_of_points(self.grid_frames[:, 0])) * (hs * wg).ravel()
        self.grid = gjac.reshape(kv.n_elements, order, 1)
        self.cols = np.zeros((kv.n_elements, 1), dtype=int)

    @staticmethod
    def value(px, frames):
        """d . rot gamma'(t) / |d|^2, the normal derivative times the speed,
        with d = px less the point row of ``frames``; 0 where d = 0."""
        dx = px[:, None, 0] - frames[..., 0, 0]
        dy = px[:, None, 1] - frames[..., 0, 1]
        d1 = frames[..., 1, :]
        return (dx * d1[..., 1] - dy * d1[..., 0]) / (dx * dx + dy * dy + 1e-300)

    def density(self, e, u, frames, origin):
        vals = self.g_of_points((frames[..., 0, :] + origin).reshape(-1, 2))
        return np.asarray(vals).reshape(frames.shape[:-2] + (1,))

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


def _potential(curve: Curve, kernel, params) -> np.ndarray:
    """Integrals of ``kernel`` against its density at the target parameters.

    ``kernel`` supplies the kernel ``value`` on a Gauss grid
    (``grid_frames``, points and whatever derivatives ``value`` reads) and
    at other quadrature nodes, its density there (``grid`` (n_el, q, w)
    times weights, ``density`` at other nodes from frames measured from
    ``origin``, both in windows of w values), the output column
    ``cols[e, j]`` of slot j of element e's window among ``n_cols``, and
    the rule on the element containing the target.  Far elements take the
    grid, in blocks of targets; the other near elements take composite
    rules graded toward the target.  Returns an (n_targets, n_cols) array.
    """
    kv = curve.knots
    params = kv.wrap(np.atleast_1d(params))
    m = len(params)
    x_pts = curve.point(params)
    # the element containing each target, right-continuous at breakpoints,
    # with the target's nearer end and offset
    row, tau = kv.locate(params)
    inside = row >> 1
    n_el, q, w = kernel.grid.shape
    out = np.zeros((m, kernel.n_cols))

    # near: the containing element and those within NEAR_FACTOR sizes
    hs = kv.widths
    gap = np.abs(curve.param_delta(params[:, None], kv.elements.mean(axis=1)[None, :]))
    near = np.maximum(gap - 0.5 * hs, 0.0) < NEAR_FACTOR * hs
    near[np.arange(m), inside] = True

    def add(ii, ee, kw, vals):
        np.add.at(out, (ii[:, None], kernel.cols[ee]),
                  np.einsum("kn,knw->kw", kw, vals))

    # far elements and the containing element, block by block of targets
    step = max(1, int(_FAR_BLOCK // (n_el * q)))
    for s0 in range(0, m, step):
        sl = slice(s0, min(s0 + step, m))
        K = kernel.value(x_pts[sl], kernel.grid_frames)
        K = K.reshape(-1, n_el, q)
        K[near[sl]] = 0.0
        if w == 1:
            # multiply and sum per row: a matrix-vector product would
            # round a target's row by its position in the block
            out[sl, 0] = (K.reshape(len(K), -1) * kernel.grid.ravel()).sum(axis=1)
        else:
            win = np.einsum("cer,erw->cew", K, kernel.grid)
            for j in range(w):  # slot j of distinct elements: distinct columns
                out[sl, kernel.cols[:, j]] += win[:, :, j]
        for idx, kw, vals in kernel.containing(row[sl], tau[sl]):
            add(s0 + idx, inside[sl][idx], kw, vals)

    pair_i, pair_e = np.nonzero(near)
    keep = pair_e != inside[pair_i]
    for ii, ue, slot, u, tw, px, frames, origin in _graded_pair_rules(
            curve, params, x_pts, inside, pair_i[keep], pair_e[keep], q):
        dens = kernel.density(ue[:, None], u, frames, origin)
        kern = kernel.value(px, frames[slot])
        add(ii, ue[slot], tw[slot] * kern, dens[slot])
    return out


def collocation_matrix(curve: Curve, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Square collocation system: row i evaluates V at collocation point i.

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
    cache = element_cache(curve, order)
    return _potential(curve, _SingleLayer(cache), pts) / (-_TWO_PI)


def single_layer_values(curve: Curve, coeffs: np.ndarray, params: np.ndarray,
                        order: int = DEFAULT_ORDER) -> np.ndarray:
    """Evaluate V phi_h on the curve at the given parameters.

    phi_h = sum coeffs[q] R_q, contracted on the quadrature grids, so no
    (targets x dim) array is built.
    """
    kernel = _SingleLayer(element_cache(curve, order), np.asarray(coeffs, dtype=float))
    return _potential(curve, kernel, params)[:, 0] / (-_TWO_PI)


def double_layer_values(curve: Curve, g_of_points, params: np.ndarray,
                        order: int = DEFAULT_ORDER) -> np.ndarray:
    """Evaluate the double-layer potential K g on the curve at parameters.

    ``g_of_points`` maps an (m, 2) array of boundary points to values.  The
    kernel is bounded along smooth arcs and grows like 1/distance across
    corners, so near elements get graded composite rules.  A target may sit
    on a corner only if g decays there fast enough to keep the integrand
    bounded (as it does for data vanishing along straight edges).
    """
    kernel = _DoubleLayer(curve, order, g_of_points)
    return _potential(curve, kernel, params)[:, 0] / _TWO_PI


def dirichlet_rhs(curve: Curve, g_of_points, params,
                  order: int = DEFAULT_ORDER) -> np.ndarray:
    """(K + 1/2) g at the given parameters, for Dirichlet trace data g."""
    params = np.atleast_1d(np.asarray(params, dtype=float))
    pts = curve.point(params)
    return double_layer_values(curve, g_of_points, params, order) + 0.5 * np.asarray(
        g_of_points(pts)
    )
