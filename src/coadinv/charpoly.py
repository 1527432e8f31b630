"""Characteristic coefficients, their gradient matrices, exact directional
derivatives and the bordered-matrix coefficient identities.

Sign convention, fixed once and used everywhere:

    det(t*I - x) = t^n - p_1(x) t^(n-1) - p_2(x) t^(n-2) - ... - p_n(x)

The gradient matrices B_k are taken with respect to the trace form, so
tr(B_k(x) y) is the first-order coefficient of t -> p_{k+1}(x + t y).
Closed form: B_0 = I and B_k = x^k - p_1 x^(k-1) - ... - p_k I.  Both p and
B come out of one trace recursion, p_k = tr(x B_{k-1}) / k and
B_k = x B_{k-1} - p_k I, which is self-checking: the recursion ends on the
Cayley-Hamilton residue x B_{n-1} = p_n I, checked on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .exactmat import ExactnessError, Mat, Rat, inverse, scalar


@dataclass(frozen=True)
class CharData:
    """Coefficients p_1..p_n and gradients B_0..B_{n-1} of one matrix.

    p[k-1] holds p_k; B[k] holds B_k.  coeff(k) additionally returns 0 for
    k > n, the convention the bordered identities rely on.
    """

    n: int
    p: tuple
    B: tuple

    def coeff(self, k: int) -> Rat:
        if k < 1:
            raise ValueError("coefficient index starts at 1")
        if k > self.n:
            return Fraction(0)
        return self.p[k - 1]


def char_data(x: Mat) -> CharData:
    """Run the trace recursion on a square matrix."""
    if not x.is_square():
        raise ValueError("char_data needs a square matrix")
    n = x.rows
    ident = Mat.identity(n)
    p = []
    B = [ident]
    acc = x  # x * B_{k-1}
    for k in range(1, n + 1):
        pk = acc.trace() / k
        p.append(pk)
        if k <= n - 1:
            Bk = acc - pk * ident
            B.append(Bk)
            acc = x * Bk
    # Cayley-Hamilton residue; a failure here means broken arithmetic.
    if acc != p[-1] * ident:
        raise ExactnessError("characteristic recursion lost exactness")
    return CharData(n, tuple(p), tuple(B))


# -- exact interpolation ----------------------------------------------------

_VAND_INV_CACHE: dict = {}


def _vandermonde_inverse(d: int):
    rows = _VAND_INV_CACHE.get(d)
    if rows is None:
        v = Mat([[Fraction(t) ** j for j in range(d + 1)] for t in range(d + 1)])
        rows = inverse(v).to_lists()
        _VAND_INV_CACHE[d] = rows
    return rows


def interp_coeffs(values: Sequence[Rat]) -> tuple:
    """Monomial coefficients c_0..c_D of the polynomial taking the given
    values at the integer nodes t = 0, 1, ..., D (D = len(values) - 1)."""
    d = len(values) - 1
    if d < 0:
        raise ValueError("need at least one value")
    inv = _vandermonde_inverse(d)
    return tuple(sum((r * v for r, v in zip(row, values)), Fraction(0)) for row in inv)


def directional_coeff(F: Callable, base, direction, order: int, degree_bound: int) -> Rat:
    """Exact coefficient of t**order in t -> F(base + t * direction).

    Evaluates at t = 0..degree_bound and solves the Vandermonde system
    exactly, so the answer is an identity, not an approximation.  The bound
    must be at least the true degree of the restriction; a bound that is
    too small silently corrupts the result, so callers pass a documented
    worst case (deg p_k = k; downstream generators document theirs).
    base and direction only need + and scalar *.
    """
    if order < 0 or order > degree_bound:
        raise ValueError("order must lie in 0..degree_bound")
    values = [F(base) if t == 0 else F(base + Fraction(t) * direction)
              for t in range(degree_bound + 1)]
    inv = _vandermonde_inverse(degree_bound)
    row = inv[order]
    return sum((r * v for r, v in zip(row, values)), Fraction(0))


# -- bordered matrices -------------------------------------------------------

def bordered(y: Mat, v: Mat, wstar: Mat, a) -> Mat:
    """Assemble the (n+1) x (n+1) matrix [[y, v], [wstar, a]]."""
    n = y.rows
    if not y.is_square():
        raise ValueError("bordered needs a square core")
    if v.rows != n or v.cols != 1:
        raise ValueError("bordered needs an n x 1 column")
    if wstar.rows != 1 or wstar.cols != n:
        raise ValueError("bordered needs a 1 x n row")
    rows = [list(y.row_tuple(i)) + [v[i, 0]] for i in range(n)]
    rows.append(list(wstar.row_tuple(0)) + [Fraction(a)])
    return Mat(rows)


def bordered_char_identities(y: Mat, v: Mat, wstar: Mat, a):
    """Check all characteristic coefficients of X = [[y, v], [wstar, a]]
    against the closed forms in terms of y:

        p_1(X)     = p_1(y) + a
        p_{k+2}(X) = p_{k+2}(y) - a p_{k+1}(y) + wstar B_k(y) v   (0 <= k <= n-2)
        p_{n+1}(X) = -a p_n(y) + wstar B_{n-1}(y) v

    Returns (True, None) on success, otherwise (False, (j, lhs, rhs)) where
    j is the index of the first failing coefficient of X.
    """
    n = y.rows
    cx = char_data(bordered(y, v, wstar, a))
    cy = char_data(y)
    a = Fraction(a)
    pairs = [(1, cx.coeff(1), cy.coeff(1) + a)]
    for k in range(n - 1):
        rhs = cy.coeff(k + 2) - a * cy.coeff(k + 1) + scalar(wstar * cy.B[k] * v)
        pairs.append((k + 2, cx.coeff(k + 2), rhs))
    pairs.append((n + 1, cx.coeff(n + 1), -a * cy.coeff(n) + scalar(wstar * cy.B[n - 1] * v)))
    for j, lhs, rhs in pairs:
        if lhs != rhs:
            return False, (j, lhs, rhs)
    return True, None
