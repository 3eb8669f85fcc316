"""B-spline and NURBS spline spaces on an interval or a closed parameter loop.

Two layers live here.  The low-level engine (``find_span``,
``bspline_derivatives``) works on raw expanded knot arrays and is a
vectorized transcription of the classical basis-function recurrences
(Piegl & Tiller, algorithms A2.2/A2.3): all branch bounds depend only on the
degree and derivative order, never on the evaluation point, so whole batches
of points are processed with numpy at once.

The high-level :class:`KnotVector` describes a spline space by breakpoints and
multiplicities.  Every vector is clamped, with multiplicity ``p + 1`` at both
ends.  A periodic vector is a clamped one whose two ends are identified: a
closed curve is a clamped curve whose first and last control points coincide
(Piegl & Tiller), and its discrete space may jump at the seam like at any
interior knot of multiplicity ``p + 1``.

The identification is the only topology a vector adds to its breakpoints,
and it lives in two tables every other module reads: ``KnotVector.nodes``,
the mesh nodes (the seam counted once), and ``KnotVector.patches``, the
elements left and right of each node, with ``KnotVector.touching`` marking
the nodes that have both.

Pointwise evaluation goes through element tables.  On each element the
nonzero basis window is one polynomial of degree p, so its derivatives
0..p at the two element ends determine it; ``KnotVector.element_table``
holds them, built once by the recurrence at 2 n_el points.  A point is
evaluated by Horner's rule about the nearer end of its element, which
returns element-end values exactly as the recurrence gives them; the offset
from that end comes from ``locate`` for a parameter, and from ``local`` for
a quadrature node (element, u), which never rounds the node to a parameter.
The recurrence itself only builds the element tables.

Knot insertion transports coefficient rows in homogeneous form by one
Boehm step per knot on the expanded array, builds the refined
``KnotVector`` once per call, and never changes the represented function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "find_span",
    "bspline_derivatives",
    "KnotVector",
    "rational_basis",
    "quotient_derivatives",
    "insert_knot",
]


# --------------------------------------------------------------------------
# low-level engine on raw expanded knot arrays
# --------------------------------------------------------------------------


def find_span(knots: np.ndarray, degree: int, ts: np.ndarray, side: str = "right") -> np.ndarray:
    """Locate the knot span index for each evaluation point.

    Returns indices ``s`` with ``knots[s] <= t < knots[s+1]`` for
    ``side='right'`` (right limits at interior knots) or
    ``knots[s] < t <= knots[s+1]`` for ``side='left'`` (left limits).
    Only nonempty spans with full basis windows are returned; points at or
    beyond the ends are clamped into the outermost such span, which yields
    one-sided extension values there.
    """
    knots = np.asarray(knots, dtype=float)
    ts = np.asarray(ts, dtype=float)
    lo, hi = degree, len(knots) - degree - 2
    starts = np.arange(lo, hi + 1)
    starts = starts[knots[starts] < knots[starts + 1]]
    if len(starts) == 0:
        raise ValueError("knot array has no nonempty span with a full basis window")
    idx = np.searchsorted(knots[starts], ts, side=side) - 1
    return starts[np.clip(idx, 0, len(starts) - 1)]


def _derivative_windows(knots, degree, spans, ts, nd):
    """Nonzero basis values and derivatives: shape (npts, nd + 1, degree + 1)."""
    m = len(ts)
    p = degree
    ndu = np.zeros((m, p + 1, p + 1))
    ndu[:, 0, 0] = 1.0
    left = np.zeros((m, p + 1))
    right = np.zeros((m, p + 1))
    for j in range(1, p + 1):
        left[:, j] = ts - knots[spans + 1 - j]
        right[:, j] = knots[spans + j] - ts
        saved = np.zeros(m)
        for r in range(j):
            ndu[:, j, r] = right[:, r + 1] + left[:, j - r]
            temp = ndu[:, r, j - 1] / ndu[:, j, r]
            ndu[:, r, j] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        ndu[:, j, j] = saved

    ders = np.zeros((m, nd + 1, p + 1))
    ders[:, 0, :] = ndu[:, :, p]
    a = np.zeros((m, 2, p + 1))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[:, 0, :] = 0.0
        a[:, 1, :] = 0.0
        a[:, s1, 0] = 1.0
        for k in range(1, nd + 1):
            d = np.zeros(m)
            rk = r - k
            pk = p - k
            if r >= k:
                a[:, s2, 0] = a[:, s1, 0] / ndu[:, pk + 1, rk]
                d = a[:, s2, 0] * ndu[:, rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[:, s2, j] = (a[:, s1, j] - a[:, s1, j - 1]) / ndu[:, pk + 1, rk + j]
                d = d + a[:, s2, j] * ndu[:, rk + j, pk]
            if r <= pk:
                a[:, s2, k] = -a[:, s1, k - 1] / ndu[:, pk + 1, r]
                d = d + a[:, s2, k] * ndu[:, r, pk]
            ders[:, k, r] = d
            s1, s2 = s2, s1

    fac = 1.0
    for k in range(1, nd + 1):
        fac *= p - k + 1
        ders[:, k, :] *= fac
    return ders


def bspline_derivatives(knots, degree, ts, nd, side="right"):
    """Evaluate the nonzero B-spline basis window and its derivatives 0..nd.

    ``knots`` is an expanded (repeated) nondecreasing knot array.  Returns
    ``(first, ders)``: ``first[i]`` is the index of the first nonzero basis
    function at ``ts[i]``, and ``ders[i, k, r]`` is the k-th derivative of
    basis ``first[i] + r`` there (one-sided limits per ``side``, 'right' or
    'left', at knots of reduced smoothness).
    """
    knots = np.asarray(knots, dtype=float)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    spans = find_span(knots, degree, ts, side)
    return spans - degree, _derivative_windows(knots, degree, spans, ts, nd)


def _taylor_sum(derivs, tau, nd):
    """Derivatives 0..nd at offsets ``tau`` of polynomials given by their
    derivatives 0..p at the expansion point, ``derivs[k]`` of shape
    tau.shape + (...).

    Horner's rule on sum_k derivs[k] tau^k / k!, once per derivative: at
    ``tau = 0`` it returns ``derivs[j]`` unchanged, and derivatives above p
    are zero.  Returns a list of nd + 1 arrays.
    """
    p = len(derivs) - 1
    tau = tau.reshape(tau.shape + (1,) * (derivs[0].ndim - tau.ndim))
    steps = [tau / (i + 1) for i in range(p)]
    out = []
    for j in range(nd + 1):
        if j > p:
            out.append(np.zeros_like(derivs[0]))
            continue
        acc = derivs[p]
        for k in range(p - 1, j - 1, -1):
            acc = derivs[k] + steps[k - j] * acc
        out.append(acc)
    return out


# --------------------------------------------------------------------------
# knot vectors
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class KnotVector:
    """Breakpoint/multiplicity description of a univariate spline space.

    Parameters
    ----------
    degree : int
    breakpoints : tuple of float
        Strictly increasing, including both interval ends.
    multiplicities : tuple of int
        One entry per breakpoint, each in ``[1, degree + 1]``, and exactly
        ``degree + 1`` at both ends (clamped).
    periodic : bool
        Whether the two ends are identified, making the parameter domain a
        loop of period ``b - a``.  This only changes the topology (``wrap``
        and its callers), not the spline space.
    """

    degree: int
    breakpoints: tuple[float, ...]
    multiplicities: tuple[int, ...]
    periodic: bool = False

    def __post_init__(self):
        p = self.degree
        bp = tuple(float(z) for z in self.breakpoints)
        mult = tuple(int(m) for m in self.multiplicities)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "multiplicities", mult)
        if p < 0:
            raise ValueError("degree must be nonnegative")
        if len(bp) < 2:
            raise ValueError("need at least two breakpoints")
        if len(bp) != len(mult):
            raise ValueError("breakpoints and multiplicities length mismatch")
        if any(z1 <= z0 for z0, z1 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(m < 1 or m > p + 1 for m in mult):
            raise ValueError(f"multiplicities must lie in [1, {p + 1}]")
        if mult[0] != p + 1 or mult[-1] != p + 1:
            raise ValueError("knot vector must be clamped with end multiplicity degree + 1")

    # -- basic geometry of the parameter domain ----------------------------

    @property
    def a(self) -> float:
        return self.breakpoints[0]

    @property
    def b(self) -> float:
        return self.breakpoints[-1]

    @property
    def period(self) -> float:
        return self.b - self.a

    @property
    def n_elements(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def elements(self) -> np.ndarray:
        """Array of shape (n_elements, 2) with element endpoints."""
        bp = self.breakpoint_array
        return np.column_stack((bp[:-1], bp[1:]))

    @cached_property
    def widths(self) -> np.ndarray:
        """Element widths, read-only."""
        bp = self.breakpoint_array
        arr = bp[1:] - bp[:-1]
        arr.flags.writeable = False
        return arr

    @property
    def dim(self) -> int:
        return int(sum(self.multiplicities)) - self.degree - 1

    # -- expanded arrays ----------------------------------------------------

    @cached_property
    def eval_knots(self) -> np.ndarray:
        """Expanded knot array consumed by the evaluation engine.

        Basis function ``q`` (0-based, ``q < dim``) has support knots
        ``eval_knots[q : q + degree + 2]``.
        """
        arr = np.repeat(np.asarray(self.breakpoints), np.asarray(self.multiplicities))
        arr.flags.writeable = False
        return arr

    # -- element tables -------------------------------------------------------

    @cached_property
    def breakpoint_array(self) -> np.ndarray:
        arr = np.asarray(self.breakpoints)
        arr.flags.writeable = False
        return arr

    @cached_property
    def _split_points(self) -> np.ndarray:
        """Breakpoints interleaved with element midpoints: the boundaries
        between nearer element ends."""
        bp = self.breakpoint_array
        z = np.empty(2 * len(bp) - 1)
        z[0::2] = bp
        z[1::2] = 0.5 * (bp[:-1] + bp[1:])
        return z

    @cached_property
    def element_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Each element's nonzero basis window as derivatives at both ends.

        On an element the window is one polynomial of degree p, so these
        determine it.  Returns ``(first, table)``: ``first[e]`` is the first
        basis index on element e, and ``table[k, 2 e + end, r]`` is the k-th
        derivative (k <= degree) of basis ``first[e] + r`` at the element's
        start (``end`` 0, right limit) or end (``end`` 1, left limit).  The
        derivative order leads, so Horner's rule reads contiguous slices.
        Both arrays are read-only.
        """
        p = self.degree
        bp = self.breakpoint_array
        first, lo = bspline_derivatives(self.eval_knots, p, bp[:-1], p, "right")
        _, hi = bspline_derivatives(self.eval_knots, p, bp[1:], p, "left")
        table = np.stack((lo, hi), axis=1).reshape(-1, p + 1, p + 1)
        table = np.ascontiguousarray(table.transpose(1, 0, 2))
        first.flags.writeable = False
        table.flags.writeable = False
        return first, table

    # -- mesh topology ---------------------------------------------------------

    @cached_property
    def nodes(self) -> np.ndarray:
        """Node parameters: the breakpoints, with the seam of a periodic
        vector counted once (at a).  Node z is breakpoint z.  Read-only."""
        return self.breakpoint_array[: len(self.breakpoints) - self.periodic]

    @cached_property
    def patches(self) -> np.ndarray:
        """(n_nodes, 2) elements left and right of each node, aligned with
        ``nodes``; -1 where an open end has no element on that side.  At the
        seam of a periodic vector node 0 pairs the last element with the
        first.  Rows with both entries set are the touching element pairs.
        Read-only."""
        n = self.n_elements
        right = np.arange(len(self.nodes))
        left = right - 1
        if self.periodic:
            left %= n
        else:
            right[-1] = -1
        arr = np.stack([left, right], axis=1)
        arr.flags.writeable = False
        return arr

    @cached_property
    def touching(self) -> np.ndarray:
        """Mask of the nodes with an element on both sides, the rows of
        ``patches`` that are touching element pairs.  Read-only."""
        mask = (self.patches >= 0).all(axis=1)
        mask.flags.writeable = False
        return mask

    def locate(self, ts, side: str = "right"):
        """Nearer element end of each parameter and the offset from it.

        Returns ``(row, tau)``.  Element ``row // 2`` contains t: at a
        breakpoint the one to its right (``side='right'``) or left
        (``side='left'``), outside [a, b] the outermost one.  ``row % 2`` is
        the nearer end (0 start, 1 end) and ``tau`` is t minus that end.
        One search over breakpoints and element midpoints gives all three.
        """
        ts = np.asarray(ts, dtype=float)
        z = self._split_points
        row = np.clip(np.searchsorted(z, ts, side=side) - 1, 0, len(z) - 2)
        return row, ts - self.breakpoint_array[(row + 1) >> 1]

    def local(self, e, u):
        """``locate`` for local coordinates u of elements e, broadcast, with
        no search: row 2 e + end and tau = h (u - end), u - end being exact."""
        s, end = nearer_end(u)
        return 2 * e + end, self.widths[e] * s

    # -- queries ------------------------------------------------------------

    def wrap(self, ts) -> np.ndarray:
        """Reduce parameters into [a, b) for periodic vectors.

        Parameters already inside come back bitwise unchanged, so exact
        breakpoint comparisons stay reliable; a reduction that rounds onto b
        maps to a.  Open vectors return ``ts`` as given.
        """
        ts = np.asarray(ts, dtype=float)
        if not self.periodic:
            return ts
        outside = (ts < self.a) | (ts >= self.b)
        if not outside.any():
            return ts
        ts = ts.copy()
        r = self.a + (ts[outside] - self.a) % self.period
        r[r >= self.b] = self.a
        ts[outside] = r
        return ts

    def collocation_points(self) -> np.ndarray:
        """One point per basis function: the mean of its support knots.

        Support-knot averages are strictly increasing (consecutive windows
        differ by a positive knot difference), so the points are distinct
        and lie in [a, b).
        """
        E = self.eval_knots
        p = self.degree
        window = np.lib.stride_tricks.sliding_window_view(E, p + 2)[: self.dim]
        return window.mean(axis=1)


# --------------------------------------------------------------------------
# rational (NURBS) basis windows
# --------------------------------------------------------------------------


def nearer_end(u):
    """Offsets s = u - end of local coordinates u from their nearer element
    end, and that end (0 the start, 1 the end of the element)."""
    u = np.asarray(u, dtype=float)
    end = (u >= 0.5).astype(int)
    return u - end, end


def quotient_derivatives(num, den, shift=None) -> np.ndarray:
    """Derivatives 0..nd of num / den + shift from those of num and den.

    ``num[k]`` (shape (..., c)) and ``den[k]`` (shape (...)) are k-th
    derivatives, k = 0..nd, and ``shift`` broadcasts against num[0].  Returns
    a (..., nd + 1, c) array from the Leibniz expansion of (num / den) * den.
    """
    out = [num[0] / den[0][..., None]]
    for k in range(1, len(num)):
        acc = num[k]
        binom = 1.0
        for j in range(1, k + 1):
            binom = binom * (k - j + 1) / j
            acc = acc - binom * out[k - j] * den[j][..., None]
        out.append(acc / den[0][..., None])
    if shift is not None:
        out[0] += shift
    return np.stack(out, axis=-2)


def rational_basis(kv: KnotVector, basis_weights: np.ndarray, ts, nd: int = 0, side: str = "right"):
    """Weighted (rational) basis window values and derivatives.

    ``basis_weights`` has one positive entry per basis function (length
    ``kv.dim``).  Returns ``(first, R)`` with ``R`` of shape
    ``(npts, nd + 1, degree + 1)``, evaluated from the element table;
    derivatives come from the Leibniz expansion of ``R * W = w * B``.
    """
    first, table = kv.element_table
    w = np.asarray(basis_weights)[first[:, None] + np.arange(kv.degree + 1)[None, :]]
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    row, tau = kv.locate(ts, side)
    num = _taylor_sum(np.take(table * np.repeat(w, 2, axis=0), row, axis=1), tau, nd)
    return first[row >> 1], quotient_derivatives(num, [v.sum(axis=1) for v in num])


# --------------------------------------------------------------------------
# knot insertion
# --------------------------------------------------------------------------


def _boehm(knots, degree, coeffs, t):
    """One Boehm insertion into a raw expanded array.

    ``coeffs`` has one row per basis function of ``knots``.  Returns the new
    expanded array and coefficient rows; the represented spline is unchanged
    wherever full basis windows exist.
    """
    p = degree
    k = int(find_span(knots, p, np.array([t]), "right")[0])
    new_knots = np.insert(knots, k + 1, t)
    n_new = coeffs.shape[0] + 1
    out = np.empty((n_new, coeffs.shape[1]))
    out[: k - p + 1] = coeffs[: k - p + 1]
    out[k + 1 :] = coeffs[k:]
    for i in range(k - p + 1, k + 1):
        alpha = (t - knots[i]) / (knots[i + p] - knots[i])
        out[i] = alpha * coeffs[i] + (1.0 - alpha) * coeffs[i - 1]
    return new_knots, out


def insert_knot(kv: KnotVector, coeffs: np.ndarray, ts) -> tuple[KnotVector, np.ndarray]:
    """Insert one knot or several, transporting coefficient rows.

    ``coeffs`` has one row per basis function (shape ``(kv.dim, d)``), moved
    linearly, so rational data goes in homogeneous coordinates.  The knots
    are wrapped and inserted in ascending order by one Boehm step each on
    the expanded array, repeats raising multiplicities, and the refined
    vector is built once (Piegl & Tiller, section 5.3).  A knot outside
    (a, b), or past multiplicity ``degree + 1``, raises ``ValueError``
    before its step.  Returns the refined vector and the new rows.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim == 1:
        coeffs = coeffs[:, None]
    if coeffs.shape[0] != kv.dim:
        raise ValueError(f"expected {kv.dim} coefficient rows, got {coeffs.shape[0]}")
    p = kv.degree
    knots = kv.eval_knots
    for t in np.sort(kv.wrap(np.atleast_1d(np.asarray(ts, dtype=float)))).tolist():
        if not kv.a < t < kv.b:
            raise ValueError(f"knot {t} outside the open parameter interval")
        if np.count_nonzero(knots == t) > p:
            raise ValueError(f"multiplicity at {t} already maximal")
        knots, coeffs = _boehm(knots, p, coeffs, t)
    bp, mult = np.unique(knots, return_counts=True)
    return KnotVector(p, tuple(bp), tuple(mult), kv.periodic), coeffs
