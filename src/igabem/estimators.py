"""A-posteriori error estimation for the single-layer equation.

Both estimators work on the boundary residual r = f - V phi_h, sampled once
per element at a Gauss grid and carried around as a per-element polynomial
interpolant.  f takes the grid's parameters; V phi_h takes the samples as
element-local targets, (element, Gauss coordinate), so that its near field
is computed once per distinct element and neighbour content
(``operators.single_layer_values`` with ``local``).  Indicators live on mesh nodes z and their patches omega(z),
read from the knot vector's ``patches`` table (see ``splines``): the
elements left and right of each node, -1 where an open end of the curve has
no element on that side.  Both indicators are reductions over that table:
per-element integrals summed over the patch, plus, for the Faermann
indicator, one cross term per node with an element on both sides, from one
graded rule per side shared by all those nodes.  Element squares and cross
terms are both sums of one blocked seminorm kernel (``_seminorm``).

* Faermann indicator: squared H^(1/2) seminorm of the residual on the patch,

      eta(z)^2 = int int_(omega x omega)
                 (r(s) - r(t))^2 |gamma'(s)| |gamma'(t)| / |x_s - x_t|^2,

  evaluated in parameters with physical distances.  The integrand extends
  continuously to the diagonal with value (dr/dt)^2.
* weighted-residual indicator: mu(z)^2 = weight(z) * int_omega (r')^2 with
  the arclength derivative r'; the weight is the parameter patch length for
  driving mesh refinement and the arclength patch length in estimates that
  compare against eta.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import Curve
from .operators import DEFAULT_ORDER, single_layer_values
from .quadrature import gauss_unit, graded_unit
from .splines import nearer_end
from .splines import rational_basis  # noqa: F401  (wrapped here by perfbench/tracing.py)

__all__ = [
    "ResidualData",
    "sample_residual",
    "faermann_indicators",
    "residual_indicators",
    "partition_quality",
    "PartitionCheck",
]

_RULE = 16  # quadrature order inside the patch integrals
_CROSS_LEVELS = 2  # dyadic grading toward the shared node in cross terms
# rows (elements or nodes) per block of the seminorm kernel: bounds each
# (rows, m, m) temporary of the integrand at a few MB, whatever the mesh size
_CROSS_BLOCK = 128


# --------------------------------------------------------------------------
# residual sampling and interpolation
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _bary_data(q: int):
    """Gauss nodes on [0, 1] with barycentric weights and diff matrix."""
    x, _ = gauss_unit(q)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / np.prod(diff, axis=1)
    w = w / np.max(np.abs(w))
    D = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    for arr in (x, w, D):
        arr.flags.writeable = False
    return x, w, D


def _bary_matrix(q: int, xs: np.ndarray) -> np.ndarray:
    """Evaluation matrix from values at the q Gauss nodes to points xs."""
    nodes, w, _ = _bary_data(q)
    diff = xs[:, None] - nodes[None, :]
    hit = diff == 0.0
    diff[hit] = 1.0
    C = w[None, :] / diff
    M = C / C.sum(axis=1, keepdims=True)
    rows = hit.any(axis=1)
    if rows.any():
        M[rows] = hit[rows].astype(float)
    return M


@dataclass
class ResidualData:
    """Residual samples on a per-element Gauss grid plus interpolants."""

    curve: Curve
    q_int: int
    params: np.ndarray  # (n_el, q) parameter grid
    values: np.ndarray  # (n_el, q) residual samples
    deriv_nodes: np.ndarray  # (n_el, q) interpolant derivative, unit coords

    @classmethod
    def from_function(cls, curve: Curve, func, q_int: int):
        kv = curve.knots
        xg, _ = gauss_unit(q_int)
        params = kv.elements[:, :1] + kv.widths[:, None] * xg
        values = np.asarray(func(params.ravel()), dtype=float).reshape(params.shape)
        _, _, D = _bary_data(q_int)
        return cls(curve, q_int, params, values, values @ D.T)


def sample_residual(curve: Curve, coeffs: np.ndarray, f_of_params,
                    order: int = DEFAULT_ORDER) -> ResidualData:
    """Sample r = f - V phi_h on every element's interior Gauss grid of
    max(p + 2, 6) points.  f takes the grid's parameters; V phi_h takes its
    nodes as element-local targets, (element, Gauss coordinate), with near
    blocks from the curve's lineage store (``single_layer_values``)."""
    q_int = max(curve.degree + 2, 6)
    xg, _ = gauss_unit(q_int)
    return ResidualData.from_function(
        curve,
        lambda ts: np.asarray(f_of_params(ts)) - single_layer_values(
            curve, coeffs, ts.reshape(-1, q_int), order=order, local=xg).ravel(),
        q_int,
    )


def _patch_sums(per_element: np.ndarray, patches: np.ndarray) -> np.ndarray:
    """Sum of a per-element quantity over each node's patch."""
    return np.where(patches >= 0, per_element[patches], 0.0).sum(axis=1)


# --------------------------------------------------------------------------
# Faermann indicator
# --------------------------------------------------------------------------


def _side(res: ResidualData, e: np.ndarray, xs: np.ndarray):
    """Residual, points and speeds of elements e at local coordinates xs."""
    fr = res.curve.at_nodes(e[:, None], *nearer_end(xs), absolute=True)[0]
    return (res.values[e] @ _bary_matrix(res.q_int, xs).T, fr[..., 0, :],
            np.hypot(fr[..., 1, 0], fr[..., 1, 1]))


def _seminorm(a, b, wa: np.ndarray, wb: np.ndarray, diag=None) -> np.ndarray:
    """Per row k of the sides a and b, each from ``_side``:

        sum_ij wa_i wb_j (r_i - r_j)^2 s_i s_j / |x_i - x_j|^2,

    block by block of rows.  With ``diag`` the two sides coincide, and the
    diagonal i = j takes the integrand's limit diag[k, i] = (dr/dt)^2.
    """
    (ra, pa, sa), (rb, pb, sb) = a, b
    i = np.arange(ra.shape[1])
    out = np.empty(len(ra))
    for start in range(0, len(ra), _CROSS_BLOCK):
        k = slice(start, start + _CROSS_BLOCK)
        dr = ra[k, :, None] - rb[k, None, :]
        dx = pa[k, :, None, 0] - pb[k, None, :, 0]
        dy = pa[k, :, None, 1] - pb[k, None, :, 1]
        # |x_i - x_j|^2 in dx, then the integrand in dr, both in place
        dx *= dx
        dy *= dy
        dx += dy
        if diag is not None:
            dx[:, i, i] = 1.0
        dr *= dr
        dr *= sa[k, :, None] * sb[k, None, :]
        dr /= dx
        if diag is not None:
            dr[:, i, i] = diag[k]
        out[k] = np.einsum("kij,i,j->k", dr, wa, wb)
    return out


def faermann_indicators(res: ResidualData) -> np.ndarray:
    """Squared Faermann indicators on the mesh nodes.

    Each element square T x T is split at the midpoint of T: the two mixed
    halves are mirror images, and the two same-half blocks meet the diagonal.
    The cross term over T_left x T_right of a node with an element on both
    sides takes one rule per side graded toward the node.  The integrand
    only sees physical distances, so the seam pair of a closed curve needs
    no special casing beyond picking the right two elements.
    """
    kv = res.curve.knots
    hs = kv.widths
    xg, wg = gauss_unit(_RULE)
    halves = []
    for xs in (0.5 * xg, 0.5 + 0.5 * xg):
        dr = res.deriv_nodes @ _bary_matrix(res.q_int, xs).T / hs[:, None]
        halves.append((_side(res, np.arange(kv.n_elements), xs), dr * dr))
    (lo, dlo), (hi, dhi) = halves
    squares = 0.25 * hs**2 * (2.0 * _seminorm(lo, hi, wg, wg)
                              + _seminorm(lo, lo, wg, wg, dlo)
                              + _seminorm(hi, hi, wg, wg, dhi))
    out = _patch_sums(squares, kv.patches)

    x, w = graded_unit(_RULE, _CROSS_LEVELS)  # distances from the node
    left, right = kv.patches[kv.touching].T
    out[kv.touching] += 2.0 * hs[left] * hs[right] * _seminorm(
        _side(res, left, 1.0 - x[::-1]), _side(res, right, x), w[::-1], w)
    return out


# --------------------------------------------------------------------------
# weighted-residual indicator
# --------------------------------------------------------------------------


def _element_derivative_integrals(res: ResidualData) -> np.ndarray:
    """int_T (r')^2 per element, r' the arclength derivative of the residual."""
    curve = res.curve
    kv = curve.knots
    xg, wg = gauss_unit(_RULE)
    dv = res.deriv_nodes @ _bary_matrix(res.q_int, xg).T  # d/dx on unit coords
    d1 = curve.at_nodes(np.arange(kv.n_elements)[:, None], *nearer_end(xg))[0][..., 1, :]
    sp = np.hypot(d1[..., 0], d1[..., 1])
    # int (R'(t)/|gamma'|)^2 |gamma'| dt = (1/h) int (dR/dx)^2 / |gamma'| dx
    return (dv * dv / sp) @ wg / kv.widths


def residual_indicators(res: ResidualData, weight: str = "parameter") -> np.ndarray:
    """Squared weighted-residual indicators on the mesh nodes.

    weight="parameter" scales by the parameter patch length (used for
    marking); weight="arclength" by the physical patch length (used when
    comparing against the Faermann indicator).
    """
    kv = res.curve.knots
    if weight == "parameter":
        lens = kv.widths
    elif weight == "arclength":
        lens = res.curve.element_lengths
    else:
        raise ValueError(f"unknown weight {weight!r}")
    patches = kv.patches
    return (_patch_sums(lens, patches)
            * _patch_sums(_element_derivative_integrals(res), patches))


# --------------------------------------------------------------------------
# partition-of-unity quality of the discrete space
# --------------------------------------------------------------------------


@dataclass
class PartitionCheck:
    q_min: float
    contained: bool
    q_per_element: np.ndarray


def partition_quality(curve: Curve, order: int = 16) -> PartitionCheck:
    """Per element: pick the basis function of smallest support containing
    it and measure how close that function is to the constant one on its
    support,

        q_T = 1 - ||1 - psi_T||^2_{L2(supp)} / |supp|,

    both in arclength.  Candidates whose support stays inside the
    ceil(p/2)-layer element patch around T are preferred (ties break toward
    the smallest parameter support, then smallest arclength, then index);
    ``contained`` reports whether every element found such a candidate.
    Positive q_min together with containment is what the weighted-residual
    reliability argument needs from the space.
    """
    kv = curve.knots
    p = kv.degree
    n_el = kv.n_elements
    xg, wg = gauss_unit(order)
    hs = kv.widths
    e = np.arange(n_el)
    first = kv.element_table[0]
    # (element, window slot, node), so the node sums below run contiguously
    frames, basis = curve.at_nodes(e[:, None], *nearer_end(xg))
    basis = basis.transpose(0, 2, 1)
    sp = np.hypot(frames[..., 1, 0], frames[..., 1, 1])[:, None, :]

    # element e's window holds basis first[e] + r; clamped vectors give
    # each basis q the contiguous support lo[q]..hi[q]
    cols = first[:, None] + np.arange(p + 1)
    q_all = np.arange(kv.dim)
    lo = np.searchsorted(first, q_all - p)
    hi = np.searchsorted(first, q_all, side="right") - 1

    def support_sums(per_slot):
        """Sum over each basis support, element by element in order."""
        return np.bincount(cols.ravel(), np.broadcast_to(per_slot, cols.shape).ravel(),
                           kv.dim)

    width = support_sums(hs[:, None])
    supp_arc = support_sums(curve.element_lengths[:, None])
    err = support_sums(hs[:, None] * (wg * (1.0 - basis) ** 2 * sp).sum(axis=-1))

    # candidates inside the m-layer patch first, then by smallest parameter
    # support and arclength; the sort is stable, so ties go to the lower index
    m_layers = (p + 1) // 2
    fits = ((lo[cols] >= e[:, None] - m_layers)
            & (hi[cols] <= e[:, None] + m_layers))
    pick = e, np.lexsort((supp_arc[cols], width[cols], ~fits), axis=-1)[:, 0]
    q_best = cols[pick]
    q_per_element = 1.0 - err[q_best] / supp_arc[q_best]
    return PartitionCheck(float(q_per_element.min()), bool(fits[pick].all()),
                          q_per_element)
