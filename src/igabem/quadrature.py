"""Gaussian quadrature rules for smooth and logarithmically singular integrands.

Everything in here is plain numerics on the reference intervals [-1, 1] and
[0, 1].  Rules are returned as ``(nodes, weights)`` pairs of read-only arrays
and are cached per order (and grading) and argument type, so repeated
requests are cheap and bitwise reproducible.  Orders are integers: a float
raises, even where the equal integer order is cached.

Three families are provided, and one order rule:

* ``gauss_legendre`` / ``gauss_unit``: classical Gauss-Legendre rules,
  computed by Newton iteration on the Legendre recurrence.
* ``gauss_log``: Gauss rules for the weight log(1/x) on [0, 1], built with
  the modified Chebyshev algorithm (shifted-Legendre modified moments) and
  the Golub-Welsch eigenvalue step.
* ``graded_unit``: composite Gauss rules on dyadically graded partitions of
  [0, 1], used near integrable endpoint singularities; the nodes are
  distances from the end the panels accumulate at.  ``graded_union`` gives
  the nodes of a range of gradings as one set, with each one's indices.
* ``separated_order``: the least Gauss order in ``SEPARATED_ORDERS`` whose
  error bound meets ``SEPARATED_TOL`` for an integrand singular at a real
  point beyond the ends of [-1, 1].
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "gauss_legendre",
    "gauss_unit",
    "gauss_log",
    "graded_unit",
    "graded_union",
    "separated_order",
]

_NEWTON_TOL = 1e-15
_NEWTON_MAXIT = 100

# Gauss orders ``separated_order`` chooses from, and the error bound they
# must meet; far below double precision, since the bound is taken with the
# integrand's maximum on the ellipse as 1
SEPARATED_ORDERS = (4, 6, 8, 10, 12)
SEPARATED_TOL = 1e-20


def _legendre_with_derivative(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate P_n and P_n' at the points x via the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    # derivative from the standard identity; |x| < 1 at all Newton iterates
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


@lru_cache(maxsize=None, typed=True)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on [-1, 1]: read-only nodes, ascending,
    and weights, summing to 2."""
    if n < 1:
        raise ValueError(f"rule order must be >= 1, got {n}")
    k = np.arange(n, dtype=float)
    x = np.cos(np.pi * (k + 0.75) / (n + 0.5))
    for _ in range(_NEWTON_MAXIT):
        p, dp = _legendre_with_derivative(n, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    _, dp = _legendre_with_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    x, w = x[order], w[order]
    # enforce exact symmetry about the origin
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@lru_cache(maxsize=None, typed=True)
def gauss_unit(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule mapped to [0, 1] (weights sum to 1)."""
    x, w = gauss_legendre(n)
    xu = 0.5 * (x + 1.0)
    wu = 0.5 * w
    xu.flags.writeable = False
    wu.flags.writeable = False
    return xu, wu


@lru_cache(maxsize=None, typed=True)
def gauss_log(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for integrals of the form ∫_0^1 f(x) log(1/x) dx.

    The rule is exact for polynomial f up to degree 2n - 1 and has positive
    weights summing to 1.  Apply it to plain f; the log factor is built into
    the weights.
    """
    if n < 1:
        raise ValueError(f"rule order must be >= 1, got {n}")
    nmom = 2 * n
    # Modified moments of log(1/x) against monic shifted Legendre polynomials:
    #   m_0 = 1,   m_k = (-1)^k / (k (k+1)) * (k!)^2 / (2k)!
    # computed with a ratio recursion to avoid factorial overflow.
    m = np.empty(nmom)
    m[0] = 1.0
    c = 1.0
    for k in range(1, nmom):
        c *= k / (2.0 * (2 * k - 1))
        m[k] = (-1.0) ** k / (k * (k + 1.0)) * c
    # Recurrence coefficients of the auxiliary (monic shifted Legendre) family.
    a = np.full(nmom, 0.5)
    ell = np.arange(nmom, dtype=float)
    b = np.zeros(nmom)
    b[1:] = ell[1:] ** 2 / (4.0 * (4.0 * ell[1:] ** 2 - 1.0))

    # Modified Chebyshev algorithm: shear the mixed-moment table row by row
    # until the diagonal yields the recurrence coefficients of the log weight.
    alpha = np.empty(n)
    beta = np.empty(n)
    alpha[0] = a[0] + m[1] / m[0]
    beta[0] = m[0]
    sig_prev = np.zeros(nmom + 1)
    sig_cur = np.zeros(nmom + 1)
    sig_cur[:nmom] = m
    for k in range(1, n):
        sig_new = np.zeros(nmom + 1)
        for j in range(k, nmom - k):
            sig_new[j] = (
                sig_cur[j + 1]
                - (alpha[k - 1] - a[j]) * sig_cur[j]
                - beta[k - 1] * sig_prev[j]
                + b[j] * sig_cur[j - 1]
            )
        alpha[k] = a[k] + sig_new[k + 1] / sig_new[k] - sig_cur[k] / sig_cur[k - 1]
        beta[k] = sig_new[k] / sig_cur[k - 1]
        sig_prev, sig_cur = sig_cur, sig_new

    if n == 1:
        nodes = alpha.copy()
        weights = beta.copy()
    else:
        # imported here, so that only a program that builds a rule loads
        # scipy, once per order since the rules are cached
        from scipy.linalg import eigh_tridiagonal

        vals, vecs = eigh_tridiagonal(alpha, np.sqrt(beta[1:]))
        nodes = vals
        weights = beta[0] * vecs[0, :] ** 2
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@lru_cache(maxsize=None, typed=True)
def graded_unit(n: int, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite n-point Gauss rule on [0, 1], dyadically graded toward 0.

    The interval is split at 2^-levels, ..., 1/4, 1/2 (so ``levels + 1``
    panels) with the panels accumulating geometrically at 0.  Suitable for
    integrands with an integrable singularity at an endpoint, e.g. log or
    weak algebraic blow-up: the nodes are distances from that endpoint, and
    a rule graded toward 1 is ``1 - x[::-1]`` with weights ``w[::-1]``.
    """
    if levels < 0:
        raise ValueError(f"levels must be >= 0, got {levels}")
    edges = np.concatenate(([0.0], 0.5 ** np.arange(levels, -1, -1, dtype=float)))
    xs, ws = gauss_unit(n)
    parts_x = []
    parts_w = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        parts_x.append(lo + (hi - lo) * xs)
        parts_w.append((hi - lo) * ws)
    x = np.concatenate(parts_x)
    w = np.concatenate(parts_w)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@lru_cache(maxsize=None)
def graded_union(n: int, lowest: int, levels: int) -> tuple[np.ndarray, tuple]:
    """Every node of ``graded_unit(n, L)`` for lowest <= L <= levels as one
    set: the inner panel [0, 2^-L] of each level, then the outer panels
    [2^-k, 2^-(k-1)], k = levels, ..., 1.  An outer panel's ends and width
    are powers of two, so it has the same nodes at every level that has
    it.  Returns the nodes and, per L, read-only indices into them (entry
    L - lowest) that give ``graded_unit(n, L)``'s nodes in order, bit for
    bit.
    """
    inner = [graded_unit(n, L)[0][:n] for L in range(lowest, levels + 1)]
    x = np.concatenate(inner + [graded_unit(n, levels)[0][n:]])
    index = tuple(np.r_[i * n:(i + 1) * n, len(x) - L * n:len(x)]
                  for i, L in enumerate(range(lowest, levels + 1)))
    for a in (x, *index):
        a.flags.writeable = False
    return x, index


def separated_order(a, cap: int) -> np.ndarray:
    """Least Gauss order for integrands on [-1, 1] singular at the point a.

    Gauss-Legendre with n points integrates a function analytic inside the
    Bernstein ellipse of parameter rho (foci -1 and 1), and bounded by M
    there, to within (64/15) M rho^(-2n) / (rho^2 - 1) (Trefethen,
    *Approximation Theory and Approximation Practice*, Thm 19.3).  For a
    singularity at the real point a >= 1, as log(a - y) has, the largest
    such ellipse passes through a: rho = a + sqrt(a^2 - 1).  Returns per
    entry of ``a`` the least order in ``SEPARATED_ORDERS`` whose bound with
    M = 1 is at most ``SEPARATED_TOL``, or ``cap`` when none is; ``cap``
    also bounds the order.  The order does not increase with a.
    """
    a = np.asarray(a, dtype=float)
    rho = a + np.sqrt(a * a - 1.0)
    order = np.full(a.shape, int(cap))
    for n in reversed(SEPARATED_ORDERS):
        # the bound times (rho^2 - 1): no division at rho = 1, and rho^(-2n)
        # underflows to 0 rather than overflowing for far pairs
        ok = 64.0 / 15.0 * rho ** (-2.0 * n) <= SEPARATED_TOL * (rho * rho - 1.0)
        order[ok & (n < cap)] = n
    return order
