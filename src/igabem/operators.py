"""Boundary integral operators on NURBS curves.

Single-layer operator with kernel -log|x - y| / (2 pi).  Element pairs are
integrated in three regimes:

* identical pair: the parameter-difference transform turns the double
  integral of log|s - t| against a smooth factor into a one-dimensional
  integral with logarithmic weight, handled by a dedicated Gauss rule; the
  remaining kernel part log(|gamma(s) - gamma(t)| / |s - t|) is analytic on
  the element square and gets a plain tensor rule.
* pair of elements sharing one corner: two Duffy substitutions anchored at
  the corner.  Under u = h x, v = h' x y the kernel splits as
  log x + log(|gamma(s) - gamma(t)| / x) where the second term is analytic
  in (x, y) even across a geometric corner, because the Duffy map unfolds
  the direction dependence.  Each triangle needs one log-weight rule and one
  plain rule in the x direction.
* separated pair: plain tensor Gauss, assembled in vectorized blocks.  On
  the shape-regular meshes produced by the refinement driver the parameter
  distance between non-touching elements is comparable to their size, so
  plain Gauss converges geometrically.

Pointwise potentials (collocation rows, residual samples of V phi_h, and the
Dirichlet data (K + 1/2) g) go through one vectorised engine.  Per target it
integrates far elements on a plain Gauss grid in blocks of targets, and the
other elements near the target on composite rules graded toward it.  The
element containing the target takes the kernel's own rule: for V a split at
the target with the log-weight rule on each side, for K plain Gauss with the
kernel's coincidence limit, since K is smooth along an arc.  The engine
returns the density contracted with coefficients, the raw basis windows
(one column per basis function), or the integral of data g.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .geometry import Curve
from .quadrature import gauss_log, gauss_unit, graded_unit
from .splines import rational_basis

logger = logging.getLogger(__name__)

DEFAULT_ORDER = 16
NEAR_FACTOR = 0.75  # parameter-distance/size ratio below which grading kicks in
GRADE_MAX_LEVELS = 48
_TWO_PI = 2.0 * np.pi

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
    """Gauss data on every element: parameters, points, speeds, basis."""

    curve: Curve
    order: int
    params: np.ndarray  # (n_el, q)
    points: np.ndarray  # (n_el, q, 2)
    speeds: np.ndarray  # (n_el, q)
    first: np.ndarray  # (n_el,) first basis index per element
    basis: np.ndarray  # (n_el, q, p+1) rational basis values
    wbasis: np.ndarray  # basis * speed * gauss weight * element length

    @property
    def n_elements(self) -> int:
        return self.params.shape[0]

    def flat_points(self) -> np.ndarray:
        return self.points.reshape(-1, 2)

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
    return ElementCache(curve, order, params, pts, sp, first, basis, wbasis)


# --------------------------------------------------------------------------
# kernel helpers
# --------------------------------------------------------------------------


def _phi_windows(curve: Curve, ts: np.ndarray):
    """Rational basis windows times speed at the given parameters, and the
    curve points there."""
    first, R = rational_basis(curve.knots, curve.basis_weights, ts)
    fr = curve.frame(ts, 1)
    return first, R[:, 0, :] * np.hypot(fr[:, 1, 0], fr[:, 1, 1])[:, None], fr[:, 0]


def _smooth_log_part(curve: Curve, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """log(|gamma(s) - gamma(t)| / |s - t|) with diagonal limit log|gamma'|.

    Callers pass parameter values whose plain difference is already the
    minimal periodic image.
    """
    d = np.abs(s - t)
    ps = curve.point(s)
    pt = curve.point(t)
    dist = np.hypot(ps[:, 0] - pt[:, 0], ps[:, 1] - pt[:, 1])
    ratio = np.empty_like(dist)
    tiny = d < 1e-14
    np.divide(dist, d, out=ratio, where=~tiny)
    if tiny.any():
        ratio[tiny] = curve.speed(np.asarray(t)[tiny])
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


def _identical_blocks(cache: ElementCache) -> np.ndarray:
    """Element matrices of the full log kernel over each element squared,
    shaped (n_el, p + 1, p + 1)."""
    curve = cache.curve
    order = cache.order
    n_el = cache.n_elements
    elems = curve.knots.elements
    lo = elems[:, 0][:, None, None]
    h = (elems[:, 1] - elems[:, 0])[:, None, None]
    xg, wg = gauss_unit(order)
    xl, wl = gauss_log(order)

    # analytic kernel part on the plain tensor grid: the cache holds the
    # points, speeds (the diagonal limit) and basis there
    pts = cache.points
    dist = np.hypot(pts[:, :, None, 0] - pts[:, None, :, 0],
                    pts[:, :, None, 1] - pts[:, None, :, 1])
    d = np.abs(cache.params[:, :, None] - cache.params[:, None, :])
    tiny = d < 1e-14
    ratio = np.empty_like(dist)
    np.divide(dist, d, out=ratio, where=~tiny)
    ratio[tiny] = np.broadcast_to(cache.speeds[:, None, :], ratio.shape)[tiny]
    smooth = np.log(ratio)
    wphi = cache.basis * cache.speeds[..., None] * (h * wg[None, :, None])
    blocks = np.einsum("eij,eia,ejb->eab", smooth, wphi, wphi)

    # log|s - t| part through the difference transform: with w = h x,
    #   int int log|s-t| F = h [ log h Gauss_x(G) - LogRule_x(G) ],
    #   G(hx) = int F(t + hx, t) + F(t, t + hx) dt over the shrunken strip.
    xall = np.concatenate([xg, xl])
    span = h[..., 0] * (1.0 - xall)[None, :]
    tpar = lo + span[:, :, None] * xg[None, None, :]
    spar = tpar + (h[..., 0] * xall[None, :])[:, :, None]
    _, phis, _ = _phi_windows(curve, spar.ravel())
    _, phit, _ = _phi_windows(curve, tpar.ravel())
    nb = phis.shape[1]
    phis = phis.reshape(n_el, 2 * order, order, nb)
    phit = phit.reshape(n_el, 2 * order, order, nb)
    G = np.einsum("ekq,ekqa,ekqb->ekab", span[:, :, None] * wg[None, None, :],
                  phis, phit)
    G = G + np.transpose(G, (0, 1, 3, 2))
    blocks += h * (np.log(h) * np.einsum("k,ekab->eab", wg, G[:, :order])
                   - np.einsum("k,ekab->eab", wl, G[:, order:]))
    return blocks


def _adjacent_pair_matrices(curve: Curve, t_lo: np.ndarray, t_hi: np.ndarray,
                            s_len: np.ndarray, order: int,
                            basis_shift: np.ndarray) -> np.ndarray:
    """Element matrices over {s in [t_hi, t_hi + s_len]} x {t in [t_lo, t_hi]}.

    Each pair of elements shares the corner t_hi in contiguous coordinates;
    ``basis_shift`` is subtracted from s before basis evaluation (one period
    for the seam pair of a closed curve, else zero).  Returns M[k, a, b]
    pairing pair k's s-element basis window against its t-element window.
    """
    h1 = (t_hi - t_lo)[:, None]
    h2 = s_len[:, None]
    corner = t_hi[:, None]
    shift = basis_shift[:, None]
    xg, wg = gauss_unit(order)
    xl, wl = gauss_log(order)
    nb = curve.degree + 1
    M = np.zeros((len(t_lo), nb, nb))

    for swap in (False, True):
        for xs, ws, is_log in ((xg, wg, False), (xl, wl, True)):
            X, Y = np.meshgrid(xs, xg, indexing="ij")
            WX, WY = np.meshgrid(ws, wg, indexing="ij")
            xf, yf = X.ravel()[None, :], Y.ravel()[None, :]
            if swap:
                s = corner + h2 * xf * yf
                t = corner - h1 * xf
            else:
                s = corner + h2 * xf
                t = corner - h1 * xf * yf
            # s - shift is the curve's own wrap of s (exactly so for a = 0)
            _, phis, ps = _phi_windows(curve, (s - shift).ravel())
            _, phit, pt = _phi_windows(curve, t.ravel())
            if is_log:
                wcomb = np.broadcast_to(-(WX * WY).ravel() * xf, s.shape)
            else:
                dist = np.hypot(ps[:, 0] - pt[:, 0],
                                ps[:, 1] - pt[:, 1]).reshape(s.shape)
                wcomb = (WX * WY).ravel() * xf * np.log(dist / xf)
            M += (h1 * h2)[:, :, None] * np.einsum(
                "kq,kqa,kqb->kab", wcomb, phis.reshape(s.shape + (nb,)),
                phit.reshape(t.shape + (nb,)))
    return M


def galerkin_matrix(curve: Curve, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Symmetric Galerkin matrix of the single-layer operator."""
    kv = curve.knots
    dim = kv.dim
    n_el = kv.n_elements
    if curve.closed and n_el < 3:
        raise ValueError("closed curves need at least three elements for assembly")
    cache = element_cache(curve, order)
    p = kv.degree
    A = np.zeros((dim, dim))

    # separated pairs, vectorized row-element by row-element (upper triangle)
    offsets = np.arange(p + 1)
    for e in range(n_el):
        exclude = {e, e + 1}
        if curve.closed:
            exclude |= {(e - 1) % n_el, (e + 1) % n_el}
        cols_keep = np.array(
            [f for f in range(e + 1, n_el) if f not in exclude], dtype=int
        )
        if len(cols_keep) == 0:
            continue
        pe = cache.points[e]
        pk = cache.points[cols_keep].reshape(-1, 2)
        dx = pe[:, None, 0] - pk[None, :, 0]
        dy = pe[:, None, 1] - pk[None, :, 1]
        K = np.log(np.hypot(dx, dy)).reshape(order, len(cols_keep), order)
        tmp = np.einsum("qfr,frb->qfb", K, cache.wbasis[cols_keep])
        blocks = np.einsum("qa,qfb->afb", cache.wbasis[e], tmp)
        rows = cache.first[e] + offsets
        cols = cache.first[cols_keep][:, None] + offsets[None, :]
        np.add.at(A, (rows[:, None, None], cols[None, :, :]), blocks)
    A = A + A.T

    # identical pairs
    for e, block in enumerate(_identical_blocks(cache)):
        rows = cache.first[e] + offsets
        A[np.ix_(rows, rows)] += block

    # touching pairs: t element, s element, parameter shift for s
    et = np.arange(n_el - 1 + curve.closed)
    es = (et + 1) % n_el
    shift = np.where(es == 0, kv.period if curve.closed else 0.0, 0.0)
    elems = kv.elements
    Ms = (_adjacent_pair_matrices(curve, elems[et, 0], elems[et, 1],
                                  elems[es, 1] - elems[es, 0], order, shift)
          if len(et) else [])
    for t_el, s_el, M in zip(et, es, Ms):
        rows = cache.first[s_el] + offsets
        cols = cache.first[t_el] + offsets
        A[np.ix_(rows, cols)] += M
        A[np.ix_(cols, rows)] += M.T

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
    energies once the mesh is deeply refined.
    """
    cache = element_cache(curve, order)
    kv = curve.knots
    p = curve.degree
    b = np.zeros(kv.dim)
    plain = np.ones(cache.n_elements, dtype=bool)
    corners = curve.corner_params()
    if corners.size:
        elems = kv.elements
        gap_lo = np.abs(curve.param_delta(
            elems[:, 0][:, None], corners[None, :])).min(axis=1)
        gap_hi = np.abs(curve.param_delta(
            elems[:, 1][:, None], corners[None, :])).min(axis=1)
        at_lo = gap_lo < 1e-12
        at_hi = gap_hi < 1e-12
        plain = ~(at_lo | at_hi)
        for e in np.flatnonzero(~plain):
            lo, hi = elems[e]
            tq, wq = _corner_graded_rule(float(lo), float(hi),
                                         bool(at_lo[e]), bool(at_hi[e]), order)
            vals = np.asarray(f_of_params(tq))
            first, phi, _ = _phi_windows(curve, tq)  # phi carries the speed
            np.add.at(b, first[:, None] + np.arange(p + 1)[None, :],
                      (vals * wq)[:, None] * phi)
    if plain.any():
        vals = np.asarray(f_of_params(cache.params[plain].ravel()))
        contrib = np.einsum("eq,eqb->eb", vals.reshape(-1, cache.order),
                            cache.wbasis[plain])
        cols = cache.first[plain][:, None] + np.arange(p + 1)[None, :]
        np.add.at(b, cols, contrib)
    return b


# --------------------------------------------------------------------------
# pointwise potentials (collocation rows, residual sampling, Dirichlet data)
# --------------------------------------------------------------------------

_FAR_BLOCK = 2e6  # far-field kernel entries evaluated per block of targets


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
            sm = _smooth_log_part(curve, np.repeat(x[idx], q),
                                  tg.ravel()).reshape(tg.shape)
            for ts, kw in ((tg, ei * (np.log(ei) + sm) * wg), (tl, -ei * wl)):
                frames = _node_frames(curve, ts, self.nd)
                yield idx, kw, self.density(ts, inside[idx], frames)


def _dl_frame_parts(frames: np.ndarray):
    """Split frames into point, tangent, rotated tangent and diagonal limit."""
    pt = frames[..., 0, :]
    d1 = frames[..., 1, :]
    d2 = frames[..., 2, :]
    rot = np.stack((d1[..., 1], -d1[..., 0]), axis=-1)
    diag = (np.einsum("...i,...i->...", d2, rot)
            / (2.0 * np.einsum("...i,...i->...", d1, d1)))
    return pt, d1, rot, diag


def _dl_kernel_core(x_point, pt, d1, rot, delta, diag, diag_eps=0.0):
    """Broadcastable stable double-layer kernel.

    Kernel (gamma(x) - gamma(t)) . nu(t) |gamma'(t)| / |gamma(x) - gamma(t)|^2
    through the divided difference g = (gamma(x) - gamma(t)) / (x - t):
    (g - gamma'(t)) . rot(gamma'(t)) / ((x - t) |g|^2), exact also across
    corners since gamma' . rot(gamma') = 0.  ``diag`` carries the coincidence
    limit gamma'' . rot(gamma') / (2 |gamma'|^2), substituted where |delta| <
    ``diag_eps``.  Only the element containing the target may pass a nonzero
    ``diag_eps``: the limit assumes a smooth arc between the two points, and
    substituting it for pairs that straddle a corner erases the angle mass
    concentrated there.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        gx = (x_point[..., 0] - pt[..., 0]) / delta
        gy = (x_point[..., 1] - pt[..., 1]) / delta
        val = (((gx - d1[..., 0]) * rot[..., 0] + (gy - d1[..., 1]) * rot[..., 1])
               / (delta * (gx * gx + gy * gy)))
    if diag_eps == 0.0:
        # a target and a foreign quadrature node can round onto the same
        # parameter once elements approach ulp scale; that pair's true
        # weighted contribution is below resolution, so drop it rather
        # than poison the sum with 0/0
        return np.where(delta == 0.0, 0.0, val)
    return np.where(np.abs(delta) < diag_eps, diag, val)


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

    def value(self, x, px, t, frames, diag_eps=0.0):
        pt, d1, rot, diag = _dl_frame_parts(frames)
        delta = np.asarray(self.curve.param_delta(x[:, None], t), dtype=float)
        return _dl_kernel_core(px[:, None], pt, d1, rot, delta, diag, diag_eps)

    def density(self, ts, ee, frames):
        vals = self.g_of_points(frames[..., 0, :].reshape(-1, 2))
        return np.asarray(vals).reshape(ts.shape + (1,))

    def containing(self, x, px, inside):
        """The kernel is smooth inside the element containing the target, so
        the rule there is plain Gauss, i.e. the grid itself."""
        src = inside[:, None] * self.order + np.arange(self.order)[None, :]
        kern = self.value(x, px, self.grid_t[src], self.grid_frames[src],
                          diag_eps=1e-9)
        yield np.arange(len(x)), kern, self.grid[inside]


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
    params = np.atleast_1d(np.asarray(params, dtype=float))
    if kv.periodic:
        params = kv.a + np.mod(params - kv.a, kv.period)
        params[params >= kv.b] = kv.a  # the reduction can round onto b
    m = len(params)
    x_pts = curve.point(params)
    # the element containing each target, as in KnotVector.element_of
    inside = np.clip(np.searchsorted(np.asarray(kv.breakpoints), params,
                                     side="right") - 1, 0, kv.n_elements - 1)
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
            out[sl, 0] = K.reshape(len(K), -1) @ kernel.grid.ravel()
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
                        order: int = DEFAULT_ORDER,
                        cache: ElementCache | None = None) -> np.ndarray:
    """Evaluate V phi_h on the curve at the given parameters.

    phi_h = sum coeffs[q] R_q, contracted on the quadrature grids, so no
    (targets x dim) array is built.
    """
    if cache is None or cache.order != order:
        cache = element_cache(curve, order)
    kernel = _SingleLayer(cache, np.asarray(coeffs, dtype=float))
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
