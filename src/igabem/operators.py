"""Boundary integral operators on NURBS curves.

Single-layer operator with kernel -log|x - y| / (2 pi).  Element pairs are
integrated in two regimes:

* identical or touching pair: one Duffy-type rule.  A radial variable x
  carries the singularity, and the kernel splits as log x, taken by a
  log-weight Gauss rule in x, plus log(|gamma(s) - gamma(t)| / x), analytic
  in (x, y) even across a geometric corner and taken by plain Gauss.  An
  identical pair maps the triangle s > t by s - t = h x and adds its mirror
  image; a touching pair takes the two triangles anchored at the shared
  node.
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
K is smooth along an arc; its nodes near the target take the kernel from
the curvature integrated along the chord instead of a divided difference
of two rounded points.  Nodes of other elements that come closer than 1e-9
in parameter take the kernel's coincidence limit when no corner lies
between them and the target.  The engine
returns the density contracted with coefficients, the raw basis windows
(one column per basis function), or the integral of data g.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .geometry import _CORNER_TOL, Curve
from .quadrature import gauss_log, gauss_unit, graded_unit, separated_order
from .splines import rational_basis

logger = logging.getLogger(__name__)

DEFAULT_ORDER = 16
NEAR_FACTOR = 0.75  # parameter-distance/size ratio below which grading kicks in
GRADE_MAX_LEVELS = 48
_TWO_PI = 2.0 * np.pi
# parameter distance below which the double-layer kernel takes its
# coincidence limit instead of a divided difference of two curve points
_DL_COINCIDENT = 1e-9
# own-element nodes closer to the target than this fraction of the element
# take the kernel from a Gauss rule of this order along the chord
_DL_CLOSE = 1.0 / 64.0
_DL_CLOSE_ORDER = 4
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
    """Gauss data on every element: parameters, points, weighted basis."""

    curve: Curve
    order: int
    params: np.ndarray  # (n_el, q)
    points: np.ndarray  # (n_el, q, 2)
    first: np.ndarray  # (n_el,) first basis index per element
    wbasis: np.ndarray  # (n_el, q, p+1) basis * speed * gauss weight * length

    def density_weights(self, coeffs: np.ndarray) -> np.ndarray:
        """(n_el, q) integration-ready values of the density sum c_q R_q."""
        p = self.curve.degree
        cols = self.first[:, None] + np.arange(p + 1)[None, :]
        return np.einsum("eqb,eb->eq", self.wbasis, np.asarray(coeffs)[cols])


def element_cache(curve: Curve, order: int = DEFAULT_ORDER) -> ElementCache:
    kv = curve.knots
    xg, wg = gauss_unit(order)
    elems = kv.elements
    lo = elems[:, 0][:, None]
    hs = (elems[:, 1] - elems[:, 0])[:, None]
    params = lo + hs * xg[None, :]
    flat = params.ravel()
    fr = curve.frame(flat, 1)
    pts = fr[:, 0].reshape(len(elems), order, 2)
    sp = np.hypot(fr[:, 1, 0], fr[:, 1, 1]).reshape(len(elems), order)
    first, R = rational_basis(kv, curve.basis_weights, flat)
    first = first.reshape(len(elems), order)[:, 0]
    basis = R[:, 0, :].reshape(len(elems), order, kv.degree + 1)
    wbasis = basis * (sp * wg[None, :] * hs)[:, :, None]
    return ElementCache(curve, order, params, pts, first, wbasis)


# --------------------------------------------------------------------------
# kernel helpers
# --------------------------------------------------------------------------


def _phi_windows(curve: Curve, ts: np.ndarray):
    """Rational basis windows times speed at the given parameters, and the
    curve points there."""
    first, R = rational_basis(curve.knots, curve.basis_weights, ts)
    fr = curve.frame(ts, 1)
    return first, R[:, 0, :] * np.hypot(fr[:, 1, 0], fr[:, 1, 1])[:, None], fr[:, 0]


def _smooth_log_part(px: np.ndarray, s: np.ndarray, t: np.ndarray,
                     frames: np.ndarray) -> np.ndarray:
    """log(|gamma(s) - gamma(t)| / |s - t|) with diagonal limit log|gamma'(t)|,
    from the points px = gamma(s) and the frames of order 1 at t.

    Callers pass parameter values whose plain difference is already the
    minimal periodic image.
    """
    d = np.abs(s - t)
    pt = frames[..., 0, :]
    dist = np.hypot(px[..., 0] - pt[..., 0], px[..., 1] - pt[..., 1])
    ratio = np.empty_like(dist)
    tiny = d < 1e-14
    np.divide(dist, d, out=ratio, where=~tiny)
    if tiny.any():
        d1 = frames[..., 1, :][tiny]
        ratio[tiny] = np.hypot(d1[:, 0], d1[:, 1])
    return np.log(ratio)


def _grade_levels(h: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Grading levels toward a target at distance d from elements of size h."""
    # deeper panels than the floating-point grid near the endpoint can
    # resolve would collapse onto it, so cap by ~ h / (256 eps)
    cap = np.clip(np.trunc(np.log2(np.maximum(h, 1e-30)) + 44.0),
                  2, GRADE_MAX_LEVELS)
    lv = np.ceil(np.log2(h / np.maximum(d, 1e-300))) + 2
    return np.clip(lv, 2, cap).astype(int)


# --------------------------------------------------------------------------
# Galerkin assembly
# --------------------------------------------------------------------------


def _radial_rule(order: int):
    """Radial nodes and weights of the singular-pair rule, shaped (2q, 1):
    q plain Gauss nodes, then q nodes of the log-weight rule."""
    xg, wg = gauss_unit(order)
    xl, wl = gauss_log(order)
    return np.concatenate([xg, xl])[:, None], np.concatenate([wg, wl])[:, None]


def _singular_blocks(curve: Curve, s: np.ndarray, t: np.ndarray,
                     jac: np.ndarray, order: int) -> np.ndarray:
    """Element matrices of log|gamma(s) - gamma(t)| over Duffy-mapped pairs.

    ``s``, ``t`` and the Jacobian ``jac`` broadcast over (pair, x, y), with
    x on the ``_radial_rule`` and y on plain Gauss.  The log-weight rows take
    log x, the Gauss rows log(|gamma(s) - gamma(t)| / x).  Geometry and
    basis are evaluated on the entries ``s`` and ``t`` hold, so a side that
    depends on x alone costs 2q points per pair.  Returns M[k, a, b]
    pairing pair k's s basis window against its t window.
    """
    x, wx = _radial_rule(order)
    _, wy = gauss_unit(order)
    _, phis, ps = _phi_windows(curve, s.ravel())
    _, phit, pt = _phi_windows(curve, t.ravel())
    phis = phis.reshape(s.shape + (-1,))
    phit = phit.reshape(t.shape + (-1,))
    d = ps.reshape(s.shape + (2,)) - pt.reshape(t.shape + (2,))
    # the log weights carry log(1/x), so log x enters there as -1
    kern = np.where(np.arange(2 * order)[:, None] < order,
                    np.log(np.hypot(d[..., 0], d[..., 1]) / x), -1.0)
    w = jac * wx * wy * kern
    return np.einsum("kxy,kxya,kxyb->kab", w, phis, phit)


def galerkin_matrix(curve: Curve, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Symmetric Galerkin matrix of the single-layer operator."""
    kv = curve.knots
    dim = kv.dim
    n_el = kv.n_elements
    # below three elements some pair of a closed curve touches at both ends,
    # and the touching-pair rule, anchored at one shared node, would leave
    # the singularity at the other
    if curve.closed and n_el < 3:
        raise ValueError("closed curves need at least three elements for assembly")
    cache = element_cache(curve, order)
    p = kv.degree
    A = np.zeros((dim, dim))

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
    offsets = np.arange(p + 1)
    for m in np.unique(pair_order):
        cm = cache if m == order else element_cache(curve, int(m))
        pick = pair_order == m
        ge, gf = e[pick], f[pick]
        step = max(1, int(_FAR_BLOCK // (m * m)))
        for k0 in range(0, len(ge), step):
            ce, cf = ge[k0:k0 + step], gf[k0:k0 + step]
            d = cm.points[ce][:, :, None, :] - cm.points[cf][:, None, :, :]
            K = np.log(np.hypot(d[..., 0], d[..., 1]))
            blocks = np.matmul(cm.wbasis[ce].transpose(0, 2, 1),
                               np.matmul(K, cm.wbasis[cf]))
            rows = cm.first[ce][:, None] + offsets
            cols = cm.first[cf][:, None] + offsets
            np.add.at(A, (rows[:, :, None], cols[:, None, :]), blocks)
    A = A + A.T

    elems = kv.elements
    hs = elems[:, 1] - elems[:, 0]
    x, _ = _radial_rule(order)
    y, _ = gauss_unit(order)

    # identical pairs: the triangle s > t under s - t = h x, then its mirror
    lo = elems[:, 0][:, None, None]
    h = hs[:, None, None]
    v = (1.0 - x) * y
    B = _singular_blocks(curve, lo + h * (x + v), lo + h * v,
                         h * h * (1.0 - x), order)
    for e, block in enumerate(B + np.transpose(B, (0, 2, 1))):
        rows = cache.first[e] + offsets
        A[np.ix_(rows, rows)] += block

    # touching pairs: element et ends where element es starts, one pair per
    # node with an element on both sides, rolled so a seam pair comes last;
    # the two triangles are anchored at the shared node, and the seam pair
    # takes s one period back, in es's own parameters
    pairs = np.roll(kv.patches, -1, axis=0)
    et, es = pairs[(pairs >= 0).all(axis=1)].T
    if len(et):
        corner = elems[et, 1][:, None, None]
        s0 = corner - np.where(es == 0, kv.period, 0.0)[:, None, None]
        h1 = hs[et][:, None, None]
        h2 = hs[es][:, None, None]
        jac = h1 * h2 * x
        M = (_singular_blocks(curve, s0 + h2 * x, corner - h1 * x * y, jac, order)
             + _singular_blocks(curve, s0 + h2 * x * y, corner - h1 * x, jac, order))
        for t_el, s_el, block in zip(et, es, M):
            rows = cache.first[s_el] + offsets
            cols = cache.first[t_el] + offsets
            A[np.ix_(rows, cols)] += block
            A[np.ix_(cols, rows)] += block.T

    A /= -_TWO_PI
    return 0.5 * (A + A.T)


def _corner_graded_rule(lo: float, hi: float, at_lo: bool, at_hi: bool,
                        order: int):
    """Rule on [lo, hi] graded toward whichever endpoints are corners."""
    h = hi - lo
    levels = min(30, max(2, int(np.log2(max(h, 1e-30)) + 44.0)))
    xs, ws = graded_unit(order, levels, 0.0)
    if at_lo and at_hi:
        t = np.concatenate([lo + 0.5 * h * xs, hi - 0.5 * h * xs[::-1]])
        w = np.concatenate([0.5 * h * ws, 0.5 * h * ws[::-1]])
        return t, w
    if at_hi:
        return hi - h * xs[::-1], h * ws[::-1]
    return lo + h * xs, h * ws


def galerkin_rhs(curve: Curve, f_of_params, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Load vector <f, R_i> with f given as a function of curve parameters.

    Elements ending at a corner get a rule graded toward it: Dirichlet data
    of corner domains stays bounded there but its derivatives do not, and
    plain Gauss on those elements loses enough digits to spoil computed
    energies once the mesh is deeply refined.  All nodes go to f in one call.
    """
    kv = curve.knots
    elems = kv.elements
    hs = elems[:, 1] - elems[:, 0]
    at = np.zeros(elems.shape, dtype=bool)  # element ends on a corner
    corners = curve.corner_params()
    if corners.size:
        at = np.abs(curve.param_delta(elems[..., None], corners)).min(axis=2) < 1e-12
    plain = ~at.any(axis=1)
    xg, wg = gauss_unit(order)
    rules = [(elems[plain, 0][:, None] + hs[plain][:, None] * xg[None, :],
              hs[plain][:, None] * wg[None, :])]
    rules += [_corner_graded_rule(float(lo), float(hi), bool(a_lo), bool(a_hi), order)
              for (lo, hi), (a_lo, a_hi) in zip(elems[~plain], at[~plain])]
    tq = np.concatenate([t.ravel() for t, _ in rules])
    wq = np.concatenate([w.ravel() for _, w in rules])
    first, phi, _ = _phi_windows(curve, tq)  # phi carries the speed
    b = np.zeros(kv.dim)
    np.add.at(b, first[:, None] + np.arange(curve.degree + 1)[None, :],
              (np.asarray(f_of_params(tq)) * wq)[:, None] * phi)
    return b


# --------------------------------------------------------------------------
# pointwise potentials (collocation rows, residual sampling, Dirichlet data)
# --------------------------------------------------------------------------

def _graded_pair_rules(curve: Curve, params: np.ndarray, pair_i: np.ndarray,
                       pair_e: np.ndarray, order: int):
    """Group (target, element) pairs sharing a graded-rule shape.

    Yields (targets, elements, slot, t_params, t_weights) per group, the rule
    of each pair graded toward its target.  The nodes depend only on the
    element, so ``t_params`` and ``t_weights`` hold one row per distinct
    element of the group, ``elements``, and pair k reads row ``slot[k]``:
    callers evaluate geometry and data once per element and group instead
    of once per pair.
    """
    elems = curve.knots.elements
    hs = elems[:, 1] - elems[:, 0]
    d_lo = np.abs(np.asarray(
        curve.param_delta(params[pair_i], elems[pair_e, 0]), dtype=float))
    d_hi = np.abs(np.asarray(
        curve.param_delta(params[pair_i], elems[pair_e, 1]), dtype=float))
    toward = (d_lo > d_hi).astype(int)
    key = 2 * _grade_levels(hs[pair_e], np.minimum(d_lo, d_hi)) + toward
    for k in np.unique(key):
        pick = key == k
        key_lv, key_tw = int(k) // 2, float(k % 2)
        ue, slot = np.unique(pair_e[pick], return_inverse=True)
        xs, ws = graded_unit(order, key_lv, key_tw)
        tp = elems[ue, 0][:, None] + hs[ue][:, None] * xs[None, :]
        tw = hs[ue][:, None] * ws[None, :]
        yield pair_i[pick], ue, slot, tp, tw


def _node_frames(curve: Curve, ts: np.ndarray, nd: int) -> np.ndarray:
    """Curve frames at a (k, n) node array, shaped (k, n, nd + 1, 2)."""
    return curve.frame(ts.ravel(), nd).reshape(ts.shape + (nd + 1, 2))


class _SingleLayer:
    """Kernel log|gamma(x) - gamma(t)| against sum coeffs[q] R_q |gamma'| in
    one column or, without ``coeffs``, against each R_q |gamma'| in column q.

    Far elements use the element cache's Gauss grid.
    """

    nd = 1  # frame order at quadrature nodes: points, and speeds for R_q

    def __init__(self, cache: ElementCache, coeffs: np.ndarray | None = None):
        self.cache = cache
        self.grid_t = cache.params.ravel()
        self.grid_frames = cache.points.reshape(-1, 1, 2)
        cols = cache.first[:, None] + np.arange(cache.curve.degree + 1)[None, :]
        if coeffs is None:
            self.grid, self.cols = cache.wbasis, cols
            self.n_cols = cache.curve.knots.dim
            self.cw = None
        else:
            self.grid = cache.density_weights(coeffs)[..., None]
            self.cols, self.n_cols = np.zeros((len(cols), 1), dtype=int), 1
            self.cw = coeffs[cols]

    @staticmethod
    def value(x, px, t, frames):
        pts = frames[..., 0, :]
        return np.log(np.hypot(px[:, None, 0] - pts[..., 0],
                               px[:, None, 1] - pts[..., 1]) + 1e-300)

    def density(self, ts, ee, frames):
        curve = self.cache.curve
        _, R = rational_basis(curve.knots, curve.basis_weights, ts.ravel())
        d1 = frames[..., 1, :]
        phi = (R[:, 0, :].reshape(ts.shape + (-1,))
               * np.hypot(d1[..., 0], d1[..., 1])[..., None])
        if self.cw is None:
            return phi
        return np.einsum("knb,kb->kn", phi, self.cw[ee])[..., None]

    def containing(self, x, px, inside):
        """Split the element at the target: log|x - t| goes into the
        log-weight rule on each side, the analytic rest
        log(|gamma(x) - gamma(t)| / |x - t|) into plain Gauss."""
        curve = self.cache.curve
        q = self.cache.order
        elems = curve.knots.elements
        xg, wg = gauss_unit(q)
        xl, wl = gauss_log(q)
        for orient, ell in ((1.0, elems[inside, 1] - x),
                            (-1.0, x - elems[inside, 0])):
            idx = np.flatnonzero(ell > 0.0)
            if not len(idx):
                continue
            ei = ell[idx, None]
            tg = x[idx, None] + orient * ei * xg[None, :]
            tl = x[idx, None] + orient * ei * xl[None, :]
            fg = _node_frames(curve, tg, self.nd)
            sm = _smooth_log_part(px[idx, None], x[idx, None], tg, fg)
            yield idx, ei * (np.log(ei) + sm) * wg, self.density(tg, inside[idx], fg)
            yield idx, -ei * wl, self.density(tl, inside[idx],
                                              _node_frames(curve, tl, self.nd))


def _dl_frame_parts(frames: np.ndarray):
    """Split frames into point, tangent, rotated tangent and diagonal limit."""
    pt = frames[..., 0, :]
    d1 = frames[..., 1, :]
    d2 = frames[..., 2, :]
    rot = np.stack((d1[..., 1], -d1[..., 0]), axis=-1)
    diag = (np.einsum("...i,...i->...", d2, rot)
            / (2.0 * np.einsum("...i,...i->...", d1, d1)))
    return pt, d1, rot, diag


def _dl_kernel_core(x_point, pt, d1, rot, delta, diag, limit):
    """Broadcastable stable double-layer kernel.

    Kernel (gamma(x) - gamma(t)) . nu(t) |gamma'(t)| / |gamma(x) - gamma(t)|^2
    through the divided difference g = (gamma(x) - gamma(t)) / (x - t):
    (g - gamma'(t)) . rot(gamma'(t)) / ((x - t) |g|^2), exact also across
    corners since gamma' . rot(gamma') = 0.  ``diag`` carries the coincidence
    limit gamma'' . rot(gamma') / (2 |gamma'|^2), substituted where ``limit``
    holds.  Callers set ``limit`` only for pairs closer than
    ``_DL_COINCIDENT`` with a smooth arc between them: there the divided
    difference of two rounded points has lost its digits, while substituting
    the limit across a corner would erase the angle mass concentrated there.
    Other pairs that round onto the same parameter contribute 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        gx = (x_point[..., 0] - pt[..., 0]) / delta
        gy = (x_point[..., 1] - pt[..., 1]) / delta
        val = (((gx - d1[..., 0]) * rot[..., 0] + (gy - d1[..., 1]) * rot[..., 1])
               / (delta * (gx * gx + gy * gy)))
    # a target and a foreign quadrature node across a corner can round onto
    # the same parameter once elements approach ulp scale; that pair's true
    # weighted contribution is below resolution, so drop it rather than
    # poison the sum with 0/0
    return np.where(limit, diag, np.where(delta == 0.0, 0.0, val))


class _DoubleLayer:
    """Double-layer kernel against data g at boundary points, in one column.

    The kernel carries the speed.  Far elements use a Gauss grid of its own,
    whose frames reach gamma''.
    """

    nd = 2
    n_cols = 1

    def __init__(self, curve: Curve, order: int, g_of_points):
        elems = curve.knots.elements
        hs = elems[:, 1] - elems[:, 0]
        xg, wg = gauss_unit(order)
        self.curve = curve
        self.order = order
        self.g_of_points = g_of_points
        self.grid_t = (elems[:, 0][:, None] + hs[:, None] * xg[None, :]).ravel()
        self.grid_frames = curve.frame(self.grid_t, 2)
        gjac = (np.asarray(g_of_points(self.grid_frames[:, 0]))
                * (hs[:, None] * wg[None, :]).ravel())
        self.grid = gjac.reshape(len(elems), order, 1)
        self.cols = np.zeros((len(elems), 1), dtype=int)

    def value(self, x, px, t, frames):
        pt, d1, rot, diag = _dl_frame_parts(frames)
        delta = np.asarray(self.curve.param_delta(x[:, None], t), dtype=float)
        limit = np.abs(delta) < _DL_COINCIDENT
        if limit.any():
            # a node is on a smooth arc with the target only if both have
            # the same unit tangent direction
            rows = np.flatnonzero(limit.any(axis=1))
            tx = self.curve.tangent(x[rows])
            tx /= np.hypot(tx[:, 0], tx[:, 1])[:, None]
            tn = np.broadcast_to(d1, limit.shape + (2,))[rows]
            cos = (np.einsum("kni,ki->kn", tn, tx)
                   / np.hypot(tn[..., 0], tn[..., 1]))
            limit[rows] &= 1.0 - cos <= _CORNER_TOL
        return _dl_kernel_core(px[:, None], pt, d1, rot, delta, diag, limit)

    def density(self, ts, ee, frames):
        vals = self.g_of_points(frames[..., 0, :].reshape(-1, 2))
        return np.asarray(vals).reshape(ts.shape + (1,))

    def containing(self, x, px, inside):
        """The kernel is smooth inside the element containing the target, so
        the rule there is plain Gauss, i.e. the grid itself.  Nodes within
        ``_DL_CLOSE`` of the element width from the target take the kernel
        from ``_dl_kernel_close``."""
        src = inside[:, None] * self.order + np.arange(self.order)[None, :]
        t, frames = self.grid_t[src], self.grid_frames[src]
        kern = self.value(x, px, t, frames)
        elems = self.curve.knots.elements
        delta = np.asarray(self.curve.param_delta(x[:, None], t), dtype=float)
        close = (np.abs(delta)
                 < _DL_CLOSE * (elems[inside, 1] - elems[inside, 0])[:, None])
        kern[close] = _dl_kernel_close(self.curve, t[close], delta[close],
                                       frames[close][:, 1])
        yield np.arange(len(x)), kern, self.grid[inside]


def _dl_kernel_close(curve: Curve, t, delta, d1):
    """Double-layer kernel at nodes t of the target's own element, x = t + delta.

    gamma(x) = gamma(t) + delta gamma'(t) + delta^2 D with D = int_0^1
    (1 - u) gamma''(t + delta u) du, so the kernel of ``_dl_kernel_core`` is
    D . rot(gamma'(t)) / |gamma'(t) + delta D|^2, free of the difference of
    two rounded points that loses about eps |gamma| / delta^2.  On one
    element gamma is one rational piece, so Gauss over a small fraction of
    the element is exact to rounding.
    """
    xg, wg = gauss_unit(_DL_CLOSE_ORDER)
    u = t[:, None] + delta[:, None] * xg[None, :]
    d2 = curve.frame(u.ravel(), 2)[:, 2].reshape(u.shape + (2,))
    D = np.einsum("n,kni->ki", wg * (1.0 - xg), d2)
    rot = np.stack((d1[:, 1], -d1[:, 0]), axis=-1)
    g = d1 + delta[:, None] * D
    return np.einsum("ki,ki->k", D, rot) / np.einsum("ki,ki->k", g, g)


def _potential(curve: Curve, kernel, params) -> np.ndarray:
    """Integrals of ``kernel`` against its density at the target parameters.

    ``kernel`` supplies the kernel ``value`` on a Gauss grid (``grid_t``,
    ``grid_frames``) and at other quadrature nodes, its density there
    (``grid`` (n_el, q, w) times weights, ``density`` at other nodes, both
    in windows of w values), the output column ``cols[e, j]`` of slot j of
    element e's window among ``n_cols``, and the rule on the element
    containing the target.  Far elements take the grid, in blocks of
    targets; the other near elements take composite rules graded toward
    the target.  Returns an (n_targets, n_cols) array.
    """
    kv = curve.knots
    params = kv.wrap(np.atleast_1d(params))
    m = len(params)
    x_pts = curve.point(params)
    # the element containing each target, right-continuous at breakpoints
    inside = kv.locate(params)[0] >> 1
    n_el, q, w = kernel.grid.shape
    out = np.zeros((m, kernel.n_cols))

    # near: the containing element and those within NEAR_FACTOR sizes
    elems = kv.elements
    hs = elems[:, 1] - elems[:, 0]
    gap = np.abs(curve.param_delta(params[:, None], elems.mean(axis=1)[None, :]))
    near = np.maximum(gap - 0.5 * hs, 0.0) < NEAR_FACTOR * hs
    near[np.arange(m), inside] = True

    step = max(1, int(_FAR_BLOCK // (n_el * q)))
    for s0 in range(0, m, step):
        sl = slice(s0, min(s0 + step, m))
        K = kernel.value(params[sl], x_pts[sl], kernel.grid_t, kernel.grid_frames)
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

    def add(ii, ee, kw, vals):
        np.add.at(out, (ii[:, None], kernel.cols[ee]),
                  np.einsum("kn,knw->kw", kw, vals))

    for idx, kw, vals in kernel.containing(params, x_pts, inside):
        add(idx, inside[idx], kw, vals)
    pair_i, pair_e = np.nonzero(near)
    keep = pair_e != inside[pair_i]
    for ii, ue, slot, tp, tw in _graded_pair_rules(curve, params, pair_i[keep],
                                                   pair_e[keep], q):
        frames = _node_frames(curve, tp, kernel.nd)
        dens = kernel.density(tp, ue, frames)
        kern = kernel.value(params[ii], x_pts[ii], tp[slot], frames[slot])
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
