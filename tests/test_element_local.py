"""Element-local evaluation against mpmath.

On each element the curve is one rational polynomial, stored as Taylor
coefficients of the homogeneous curve (w x, w y, w) and of the weighted
basis window about both element ends (``Curve._frame_table``,
``Curve._basis_table``).  The references below take those coefficients as
exact and evaluate them in mpmath at the exact offsets of the code's nodes,
from the same element end.  They check that divided differences of the
curve and the Duffy-type blocks of identical and touching element pairs
lose nothing to rounding, on elements of width 1e-12 to 1e-1 next to
t = 0, inside and next to t = 1; the quadrature rules themselves are
checked against other orders in ``test_operators``.  The tangent check
goes further back and takes the stored knots, control points and weights
as exact, so it also covers how the coefficients are formed.
"""

import mpmath as mp
import numpy as np
import pytest

from igabem.geometry import pacman, slit, square
from igabem.operators import _radial_rule, _singular_pairs
from igabem.quadrature import gauss_unit

WIDTHS = (1e-12, 1e-9, 1e-6, 1e-3, 1e-1)
STARTS = (lambda h: 0.0, lambda h: 0.45, lambda h: 1.0 - h)
ORDER = 6
TOL = 1e-13


def _small_elements(curve):
    """The curve refined to hold one element of each width at each
    position, with that element's index."""
    for h in WIDTHS:
        for start in STARTS:
            t0 = start(h)
            refined = curve.refined([t for t in (t0, t0 + h) if 0.0 < t < 1.0])
            bp = refined.knots.breakpoint_array
            yield refined, int(np.searchsorted(bp, t0, side="right")) - 1


def _mp_frame(curve, row, s):
    """gamma and gamma' at offset s from the element end ``row``."""
    table = curve._frame_table
    A = [mp.mpf(0)] * 3
    dA = [mp.mpf(0)] * 3
    for k in range(len(table)):
        for j in range(3):
            a = mp.mpf(float(table[k, row, j])) / mp.factorial(k)
            A[j] += a * s**k
            if k:
                dA[j] += a * k * s ** (k - 1)
    g = [A[0] / A[2], A[1] / A[2]]
    return g, [(dA[i] - g[i] * dA[2]) / A[2] for i in range(2)]


def _mp_phi(curve, e, u):
    """Basis window times speed at the node (e, u), from the row the code
    evaluates it from."""
    kv = curve.knots
    row, _ = kv.local(e, u)
    s = mp.mpf(float(kv.widths[e])) * (mp.mpf(float(u)) - (row & 1))
    table = curve._basis_table
    wb = [sum(mp.mpf(float(table[k, row, r])) / mp.factorial(k) * s**k
              for k in range(len(table))) for r in range(table.shape[-1])]
    speed = mp.sqrt(sum(d * d for d in _mp_frame(curve, row, s)[1]))
    return [b / sum(wb) * speed for b in wb]


def _close(got, want):
    """Relative agreement; the floor only matters where the reference is
    zero up to its own rounding, as gamma[a, a, b] on straight edges."""
    got = np.asarray(got, dtype=float)
    want = np.array([float(w) for w in np.ravel(want)]).reshape(got.shape)
    return np.max(np.abs(got - want)) <= TOL * max(np.max(np.abs(want)), 1e-50)


@pytest.mark.parametrize("make", [slit, square, pacman])
def test_chords_match_mpmath(make):
    with mp.workdps(120):
        _check_chords(make)


def _check_chords(make):
    for curve, e in _small_elements(make()):
        h = float(curve.knots.widths[e])
        for end in (0, 1):
            row = 2 * e + end
            for ua, ub in ((0.3, 0.7), (0.9, 0.05), (float(end), 0.5), (0.4, 0.4 + 1e-9)):
                sa, sb = h * (ua - end), h * (ub - end)
                g1, gp, g2 = curve.chord(row, sa, sb, second=True)
                ga, dga = _mp_frame(curve, row, mp.mpf(sa))
                gb, _ = _mp_frame(curve, row, mp.mpf(sb))
                d = mp.mpf(sb) - mp.mpf(sa)
                first = [(gb[i] - ga[i]) / d for i in range(2)]
                second = [(first[i] - dga[i]) / d for i in range(2)]
                case = (make.__name__, e, h, row, ua, ub)
                assert _close(g1, first), case
                assert _close(gp, dga), case
                assert _close(g2, second), case
                assert _close(curve.chord(row, sa, sb), first), case


def _mp_block(curve, es, us, et, ut, kern, jac):
    """sum over the (x, y) rule of jac w_x w_y kern phi(s) phi(t)^T."""
    x, wx = _radial_rule(ORDER)
    _, wy = gauss_unit(ORDER)
    p = curve.degree
    out = mp.matrix(p + 1, p + 1)
    for i in range(2 * ORDER):
        for j in range(ORDER):
            w = jac(i, j) * float(wx[i, 0]) * float(wy[j]) * kern(i, j)
            phis = _mp_phi(curve, es, us[i, j])
            phit = _mp_phi(curve, et, ut[i, j])
            for a in range(p + 1):
                for b in range(p + 1):
                    out[a, b] += w * phis[a] * phit[b]
    return out


def _mp_identical(curve, e):
    x, _ = _radial_rule(ORDER)
    y, _ = gauss_unit(ORDER)
    v = (1.0 - x) * y
    u = x + v
    h = mp.mpf(float(curve.knots.widths[e]))

    def kern(i, j):
        if i >= ORDER:
            return -1  # log x, carried by the log-weight rule
        gs = _mp_frame(curve, 2 * e, h * mp.mpf(float(u[i, j])))[0]
        gt = _mp_frame(curve, 2 * e, h * mp.mpf(float(v[i, j])))[0]
        return mp.log(mp.hypot(gs[0] - gt[0], gs[1] - gt[1]) / float(x[i, 0]))

    return _mp_block(curve, e, u, e, v, kern,
                     lambda i, j: h * h * (1 - mp.mpf(float(x[i, 0]))))


def _mp_touching(curve, et, es):
    """Both triangles of the pair whose element et ends where es starts."""
    x, _ = _radial_rule(ORDER)
    y, _ = gauss_unit(ORDER)
    kv = curve.knots
    h1, h2 = mp.mpf(float(kv.widths[et])), mp.mpf(float(kv.widths[es]))
    ones = np.ones_like(x * y)
    out = 0
    for a, b in ((ones, ones * y), (ones * y, ones)):
        us, ut = x * a, 1.0 - x * b

        def kern(i, j, a=a, b=b):
            if i >= ORDER:
                return -1
            xi = mp.mpf(float(x[i, 0]))
            gs = _mp_frame(curve, 2 * es, h2 * xi * float(a[i, j]))[0]
            gs0 = _mp_frame(curve, 2 * es, 0)[0]
            gt = _mp_frame(curve, 2 * et + 1, -h1 * xi * float(b[i, j]))[0]
            gt0 = _mp_frame(curve, 2 * et + 1, 0)[0]
            d = [gs[k] - gs0[k] + gt0[k] - gt[k] for k in range(2)]
            return mp.log(mp.hypot(*d) / xi)

        out = out + _mp_block(curve, es, us, et, ut, kern,
                              lambda i, j: h1 * h2 * float(x[i, 0]))
    return out


@pytest.mark.parametrize("make", [slit, square, pacman])
def test_singular_blocks_match_mpmath(make):
    with mp.workdps(50):
        _check_blocks(make)


def _check_blocks(make):
    for curve, e in _small_elements(make()):
        s_el, t_el, blocks = _singular_pairs(curve, ORDER)
        pairs = {(int(s), int(t)): k for k, (s, t) in enumerate(zip(s_el, t_el))}
        case = (make.__name__, e, float(curve.knots.widths[e]))
        assert _close(blocks[pairs[e, e]], _mp_identical(curve, e).tolist()), case
        # the pairs at the small element's two nodes, the seam included
        for et, es in curve.knots.patches[[e, (e + 1) % len(curve.knots.nodes)]]:
            if et >= 0 and es >= 0:
                want = _mp_touching(curve, int(et), int(es))
                assert _close(blocks[pairs[es, et]], want.tolist()), case + (et, es)


def _mp_nurbs_tangent(curve, t):
    """gamma'(t) of the NURBS defined by the curve's stored knots, control
    points and weights, by the Cox-de Boor recurrence in mpmath at a t
    inside an element."""
    K = [mp.mpf(float(k)) for k in curve.knots.eval_knots]
    p = curve.degree
    t = mp.mpf(t)

    def part(num, den, b):
        return num / den * b if den else mp.mpf(0)

    B = [mp.mpf(K[i] <= t < K[i + 1]) for i in range(len(K) - 1)]
    for d in range(1, p + 1):
        lower = B
        B = [part(t - K[i], K[i + d] - K[i], lower[i])
             + part(K[i + d + 1] - t, K[i + d + 1] - K[i + 1], lower[i + 1])
             for i in range(len(lower) - 1)]
    dB = [p * (part(1, K[i + p] - K[i], lower[i])
               - part(1, K[i + p + 1] - K[i + 1], lower[i + 1]))
          for i in range(len(B))]
    w = [mp.mpf(float(v)) for v in curve.weights]
    hom = [[w[i] * float(c[0]), w[i] * float(c[1]), w[i]]
           for i, c in enumerate(curve.controls)]
    A = [sum(b * r[j] for b, r in zip(B, hom)) for j in range(3)]
    dA = [sum(b * r[j] for b, r in zip(dB, hom)) for j in range(3)]
    return [(dA[j] - A[j] / A[2] * dA[2]) / A[2] for j in range(2)]


def test_tangent_on_small_elements_matches_mpmath():
    # an element of width 1e-12 on either side of every pacman breakpoint
    # and at 0.45.  Its large basis derivatives once met the homogeneous
    # rows w P themselves, and gamma' lost up to 4.4e-5 of itself
    h = 1e-12
    curve0 = pacman()
    bps = curve0.knots.breakpoints
    for t0 in [b + s for b in bps[:-1] for s in (0.0, -h)] + [0.45]:
        t0 = t0 % 1.0
        curve = curve0.refined([t for t in (t0, t0 + h) if t not in bps])
        ts = t0 + h * np.array([0.0, 0.1, 0.3, 0.5, 0.7, 0.9])
        got = curve.frame(ts, 1)[:, 1]
        with mp.workdps(60):
            for t, g in zip(ts, got):
                want = _mp_nurbs_tangent(curve, t)
                err = mp.hypot(g[0] - want[0], g[1] - want[1]) / mp.hypot(*want)
                assert err <= 1e-13, (t0, t, float(err))
