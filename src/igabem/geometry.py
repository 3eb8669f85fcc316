"""NURBS boundary curves: evaluation and benchmark geometries.

A :class:`Curve` couples a :class:`~igabem.splines.KnotVector` with one
control point and weight per basis function.  All kinematic quantities
(points, tangents, normals, speeds) are evaluated through homogeneous
coordinates, so circles and circular arcs are exact.

A closed curve is a clamped curve over a periodic knot vector whose first and
last control points and weights are equal.  Closed curves are parametrized
counterclockwise; the outward unit normal is then the clockwise rotation of
the unit tangent.

``frame`` and its relatives take parameters; quadrature nodes are
(element, local coordinate) pairs.  Each element's Taylor coefficients are
stored about both its ends with the control points measured from that end,
so ``displacement`` gives gamma(t) - gamma(end) and ``chord`` divided
differences without subtracting two rounded points.

Two paths evaluate those coefficients, and each caller names its own.  A
node set shared by all elements (quadrature rules, element grids, rules
graded toward a fixed end) goes through ``at_nodes``: each element end's
coefficients, scaled to the unit offset s = u - end, form one small table
(``_end_tables``), and all nodes of an element come from one matrix
product of that table with the powers of s, formed once per rule, which
gives the frames and the basis windows together.  Where the offset differs
per node (targets given by parameter, the split at a target inside its
element, ``splines.rational_basis``) Horner's rule sums the derivatives at
the element end node by node (``displacement``, ``basis``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial

import numpy as np

from .quadrature import gauss_unit
from .splines import KnotVector, _taylor_sum, insert_knot, nearer_end, quotient_derivatives

__all__ = [
    "Curve",
    "slit",
    "square",
    "pacman",
]

_LENGTH_RULE = 16  # Gauss points per element for arclength integrals
_CORNER_TOL = 1e-8  # angular tolerance for tangent jumps


@dataclass(frozen=True)
class Curve:
    """NURBS curve over a knot vector.

    Parameters
    ----------
    knots : KnotVector
        A periodic vector makes the curve closed.
    controls : ndarray, shape (dim, 2)
    weights : ndarray, shape (dim,)
        Strictly positive NURBS weights.  A closed curve needs its first and
        last control points and weights exactly equal.
    """

    knots: KnotVector
    controls: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.controls, dtype=float))
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "controls", c)
        object.__setattr__(self, "weights", w)
        n = self.knots.dim
        if c.shape != (n, 2):
            raise ValueError(f"controls must have shape ({n}, 2), got {c.shape}")
        if w.shape != (n,):
            raise ValueError(f"weights must have shape ({n},), got {w.shape}")
        if not np.all(np.isfinite(c)) or not np.all(np.isfinite(w)):
            raise ValueError("controls and weights must be finite")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        if self.closed and not (np.array_equal(c[0], c[-1]) and w[0] == w[-1]):
            raise ValueError("a closed curve needs equal first and last control rows")

    # -- basic facts ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self.knots.periodic

    @property
    def degree(self) -> int:
        return self.knots.degree

    @property
    def basis_weights(self) -> np.ndarray:
        """Weights in basis order (length ``knots.dim``)."""
        return self.weights

    @cached_property
    def _hom(self) -> np.ndarray:
        """Homogeneous rows (w x, w y, w), one per basis function."""
        return np.column_stack((self.weights[:, None] * self.controls, self.weights))

    @cached_property
    def _windows(self) -> np.ndarray:
        """Basis indices of the window at element end 2 e + end."""
        first = self.knots.element_table[0]
        return np.repeat(first[:, None] + np.arange(self.degree + 1), 2, axis=0)

    @cached_property
    def end_points(self) -> np.ndarray:
        """gamma at every element end, row 2 e + end: (2 n_el, 2)."""
        A = np.einsum("or,orj->oj", self.knots.element_table[1][0],
                      self._hom[self._windows])
        return A[:, :2] / A[:, 2:]

    @cached_property
    def _frame_table(self) -> np.ndarray:
        """Derivatives at element ends of (N - gamma(end) W, W), (N, W) the
        homogeneous curve, laid out like ``KnotVector.element_table``.  Its
        rows are w_r (P_r - gamma(end), 1) and its constant N term is zero,
        so Taylor sums give displacements from the end to full relative
        accuracy, also where large basis derivatives of small elements meet
        control points far from the element."""
        table = self.knots.element_table[1]
        w = self.weights[self._windows]
        P = self.controls[self._windows] - self.end_points[:, None, :]
        A = np.einsum("kor,orj->koj", table,
                      np.concatenate([w[..., None] * P, w[..., None]], axis=2))
        A[0, :, :2] = 0.0
        return A

    @cached_property
    def _basis_table(self) -> np.ndarray:
        """The element table of the weighted basis windows w_r B_r."""
        return self.knots.element_table[1] * self.weights[self._windows]

    @cached_property
    def _end_tables(self) -> np.ndarray:
        """``_frame_table`` and ``_basis_table`` side by side, row k scaled
        by h^k / k!: ``[e, j, end * (p + 1) + k]`` is the coefficient of
        s^k, s = u - end, in column j of (N - gamma(end) W, W, w_r B_r)
        about that end of element e.  Shape (n_el, p + 4, 2 p + 2),
        read-only."""
        k = np.arange(self.degree + 1)
        scale = (np.repeat(self.knots.widths, 2) ** k[:, None]
                 / np.array([factorial(i) for i in k])[:, None])
        T = np.concatenate([self._frame_table, self._basis_table], axis=2)
        T = (T * scale[..., None]).reshape(len(k), -1, 2, T.shape[-1])
        T = np.ascontiguousarray(T.transpose(1, 3, 2, 0))
        T = T.reshape(len(T), T.shape[1], -1)
        T.flags.writeable = False
        return T

    @cached_property
    def _grids(self) -> dict:
        """Gauss grids by quadrature order, filled by ``operators._grids``,
        and double-layer kernels by data and order, filled by
        ``operators.dirichlet_rhs``; the curve never changes, so
        neither do they."""
        return {}

    @cached_property
    def _blocks(self) -> dict:
        """Singular and near-field blocks by content key, filled by
        ``operators._stored`` and shared with every curve ``refined`` from
        this one: a key holds all its block's inputs."""
        return {}

    # -- evaluation ----------------------------------------------------------

    def displacement(self, row, tau, nd: int = 0) -> np.ndarray:
        """gamma(end + tau) - gamma(end), exact to its last digits, and the
        derivatives 1..nd of gamma at offsets ``tau`` from the element end
        ``row`` (2 e + end), both broadcasting: shape (..., nd + 1, 2)."""
        return self._frames(row, tau, nd, absolute=False)

    def _frames(self, row, tau, nd: int, absolute: bool = True) -> np.ndarray:
        A = _taylor_sum(np.take(self._frame_table, row, axis=1), tau, nd)
        origin = np.take(self.end_points, row, axis=0) if absolute else None
        return quotient_derivatives([a[..., :2] for a in A], [a[..., 2] for a in A], origin)

    def frame(self, ts, nd: int = 0) -> np.ndarray:
        """Curve point and derivatives: array of shape (npts, nd + 1, 2).

        ``frame(ts, 2)[:, k]`` is the k-th parameter derivative of γ.  Closed
        curves accept any real parameter (periodic extension); derivatives at
        breakpoints are right limits, and t = b of a closed curve is t = a.
        """
        kv = self.knots
        ts = kv.wrap(np.atleast_1d(np.asarray(ts, dtype=float)))
        return self._frames(*kv.locate(ts), nd)

    def basis(self, row, tau) -> np.ndarray:
        """Rational basis windows at offsets ``tau`` from the element end
        ``row`` (2 e + end), node by node: shape (..., degree + 1), element
        e's window starting at basis ``knots.element_table[0][e]``."""
        wb = _taylor_sum(np.take(self._basis_table, row, axis=1), tau, 0)[0]
        return wb / wb.sum(axis=-1, keepdims=True)

    def at_nodes(self, e, s, end, absolute: bool = False):
        """Frames and basis windows of elements e at unit offsets s from
        element end ``end`` (one end, or one per offset), s shared by all
        elements and e broadcast against it.

        Each element's row of ``_end_tables`` is gathered once and taken
        times the powers of s, formed once; a node's powers fill the block
        of its end and zeros that of the other.  One product gives the frame
        columns (D, W) = (N - gamma(end) W, W) and their s-derivatives,
        another the basis columns.  Returns the frames, shape (..., 2, 2):
        the displacement gamma - gamma(end), or with ``absolute`` the point,
        then gamma' = (D' - (D / W) W') / (h W); and the basis windows,
        shape (..., degree + 1), as ``basis`` gives them.
        """
        shape = np.shape(e)[:np.ndim(e) - np.ndim(s)] + np.shape(s)
        e, s = np.ravel(e), np.ravel(s)
        p = self.degree
        V = np.zeros((2, p + 1, len(s)))  # the powers of s, then their derivatives
        V[0, 0] = 1.0
        for k in range(1, p + 1):
            V[0, k] = V[0, k - 1] * s
        V[1, 1:] = V[0, :-1] * np.arange(1, p + 1)[:, None]
        at_end = np.ravel(end) == 1
        V = np.concatenate([V * ~at_end, V * at_end], axis=1)
        T = self._end_tables[e]
        A = np.matmul(T[:, None, :3], V)
        W = A[:, 0, 2:]
        frames = np.empty((len(e), 2, 2, len(s)))
        g = np.divide(A[:, 0, :2], W, out=frames[:, 0])
        d1 = np.multiply(g, A[:, 1, 2:], out=frames[:, 1])
        np.subtract(A[:, 1, :2], d1, out=d1)
        d1 /= self.knots.widths[e][:, None, None] * W
        del A, W  # the frame product goes before the basis product is made
        if absolute:
            ends = self.end_points.reshape(-1, 2, 2)[e].transpose(0, 2, 1)
            g += np.where(at_end, ends[..., 1:], ends[..., :1])
        wb = np.matmul(T[:, 3:], V[0])
        wb /= wb.sum(axis=1, keepdims=True)
        return (frames.transpose(0, 3, 1, 2).reshape(shape + (2, 2)),
                wb.transpose(0, 2, 1).reshape(shape + (p + 1,)))

    def chord(self, row, sa, sb, second: bool = False):
        """Divided differences of γ at offsets ``sa``, ``sb`` from the end
        ``row`` (2 e + end) of one element, all three broadcasting.

        Synthetic division of the element's A = (N, W) by z - a gives
        A[a, b] with no difference of rounded values; Leibniz's rule for
        N = γ W then gives γ[a, b] = (N[a, b] - γ(a) W[a, b]) / W(b) and
        γ[a, a, b] = (N[a, a, b] - γ(a) W[a, a, b] - γ'(a) W[a, b]) / W(b).
        Returns γ[a, b], or with ``second`` (γ[a, b], γ'(a), γ[a, a, b]).
        """
        A = np.take(self._frame_table, row, axis=1)
        c = [A[k] / factorial(k) for k in range(len(A))]
        if second:  # a zero top coefficient keeps A[a, a, b] defined at p = 1
            c.append(np.zeros_like(c[0]))
        sa = np.asarray(sa)[..., None]
        sb = np.asarray(sb)[..., None]
        Aa, *qa = _divide(c, sa)  # A(z) = A(a) + (z - a) Q(z)
        ab = _divide(qa, sb)[0]  # A[a, b] = Q(b)
        Wb = _divide(c, sb)[0][..., 2:]
        ga = Aa[..., :2] / Aa[..., 2:]
        g1 = (ab[..., :2] - ga * ab[..., 2:]) / Wb
        if not second:
            return g1
        da, *qaa = _divide(qa, sa)  # A'(a) = Q(a), A[a, a, b] = Q[a, b]
        aab = _divide(qaa, sb)[0]
        gp = (da[..., :2] - ga * da[..., 2:]) / Aa[..., 2:]
        return g1, gp, (aab[..., :2] - ga * aab[..., 2:] - gp * ab[..., 2:]) / Wb

    def point(self, ts) -> np.ndarray:
        return self.frame(ts)[:, 0]

    def tangent(self, ts) -> np.ndarray:
        return self.frame(ts, 1)[:, 1]

    def speed(self, ts) -> np.ndarray:
        d = self.tangent(ts)
        return np.hypot(d[:, 0], d[:, 1])

    def normal(self, ts) -> np.ndarray:
        """Unit normal (outward for counterclockwise closed curves)."""
        d = self.tangent(ts)
        sp = np.hypot(d[:, 0], d[:, 1])
        return np.column_stack((d[:, 1], -d[:, 0])) / sp[:, None]

    # -- parameter bookkeeping ------------------------------------------------

    def param_delta(self, s, t) -> np.ndarray:
        """Signed parameter difference s - t, wrapped to the minimal image
        for closed curves."""
        d = np.asarray(s, dtype=float) - np.asarray(t, dtype=float)
        if self.closed:
            P = self.knots.period
            d = (d + 0.5 * P) % P - 0.5 * P
        return d

    # -- arclength ------------------------------------------------------------

    @cached_property
    def element_lengths(self) -> np.ndarray:
        xs, ws = gauss_unit(_LENGTH_RULE)
        kv = self.knots
        d1 = self.at_nodes(np.arange(kv.n_elements)[:, None], *nearer_end(xs))[0][..., 1, :]
        return kv.widths * (np.hypot(d1[..., 0], d1[..., 1]) @ ws)

    # -- corners ---------------------------------------------------------------

    def corner_params(self) -> np.ndarray:
        """Parameters of geometric corners (tangent direction jumps).

        The candidates are the nodes with an element on both sides: the
        interior breakpoints, and on a closed curve the seam, reported at
        ``a``.  The one-sided tangents are those of the two elements of each
        touching row of ``patches``, at the end and the start.
        """
        kv = self.knots
        z = kv.nodes[kv.touching]
        if not len(z):
            return z
        left, right = kv.patches[kv.touching].T
        tau = np.zeros(len(z))
        tl = self._frames(2 * left + 1, tau, 1)[:, 1]
        tr = self._frames(2 * right, tau, 1)[:, 1]
        tl = tl / np.hypot(tl[:, 0], tl[:, 1])[:, None]
        tr = tr / np.hypot(tr[:, 0], tr[:, 1])[:, None]
        return np.sort(z[1.0 - np.einsum("ij,ij->i", tl, tr) > _CORNER_TOL])

    # -- refinement --------------------------------------------------------------

    def refined(self, new_knots) -> "Curve":
        """Insert knots (repeats raise multiplicities); geometry and ``_blocks`` carry over."""
        kv, hom = insert_knot(self.knots, self._hom, new_knots)
        w = hom[:, 2]
        curve = Curve(kv, hom[:, :2] / w[:, None], w)
        curve.__dict__["_blocks"] = self._blocks
        return curve


def _divide(c, a):
    """Horner's rule for P(z) = sum_k c[k] z^k at a, keeping its partial
    sums: returns [P(a), q_0, q_1, ...] with (P(z) - P(a)) / (z - a) =
    sum_k q_k z^k."""
    out = [c[-1]]
    for ck in c[-2::-1]:
        out.insert(0, ck + a * out[0])
    return out


# ---------------------------------------------------------------------------
# benchmark geometries
# ---------------------------------------------------------------------------


def slit() -> Curve:
    """The straight slit [-1, 1] x {0}, parametrized affinely on [0, 1]."""
    kv = KnotVector(1, (0.0, 1.0), (2, 2))
    controls = np.array([[-1.0, 0.0], [1.0, 0.0]])
    return Curve(kv, controls, np.ones(2))


def square() -> Curve:
    """Boundary of [0, 1/2]^2, counterclockwise from the origin."""
    kv = KnotVector(1, (0.0, 0.25, 0.5, 0.75, 1.0), (2, 1, 1, 1, 2), periodic=True)
    controls = np.array([[0, 0], [0.5, 0], [0.5, 0.5], [0, 0.5], [0, 0]], dtype=float)
    return Curve(kv, controls, np.ones(5))


def pacman() -> Curve:
    """Circular sector of radius 0.1 with a reentrant corner at the origin.

    The sector spans the angle 7/4 pi (an opening of pi/4) symmetrically
    about the positive x axis; the parametrization runs counterclockwise,
    starting and closing at the reentrant corner, with the two straight
    edges on the first and last sixth of the parameter interval and the
    circular part split into three equal rational arcs.
    """
    r = 0.1
    half = 0.875 * np.pi  # edge angle magnitude
    angles = np.linspace(-half, half, 4)  # arc junctions, three equal arcs
    delta = 0.5 * (angles[1] - angles[0])
    wa = np.cos(delta)

    def on_circle(alpha):
        return [r * np.cos(alpha), r * np.sin(alpha)]

    def arc_mid(a0, a1):
        m = 0.5 * (a0 + a1)
        return [r / np.cos(0.5 * (a1 - a0)) * np.cos(m), r / np.cos(0.5 * (a1 - a0)) * np.sin(m)]

    p1 = on_circle(angles[0])
    p2 = on_circle(angles[3])
    controls = np.array(
        [
            [0.0, 0.0],
            [0.5 * p1[0], 0.5 * p1[1]],
            p1,
            arc_mid(angles[0], angles[1]),
            on_circle(angles[1]),
            arc_mid(angles[1], angles[2]),
            on_circle(angles[2]),
            arc_mid(angles[2], angles[3]),
            p2,
            [0.5 * p2[0], 0.5 * p2[1]],
            [0.0, 0.0],
        ]
    )
    weights = np.array([1, 1, 1, wa, 1, wa, 1, wa, 1, 1, 1], dtype=float)
    kv = KnotVector(
        2,
        (0.0, 1 / 6, 7 / 18, 11 / 18, 5 / 6, 1.0),
        (3, 2, 2, 2, 2, 3),
        periodic=True,
    )
    return Curve(kv, controls, weights)

