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

For x = A / d with integer A, p_k and B_k are homogeneous of degree k, so
the recursion runs on A alone, in integers: p_k(x) = p_k(A) / d^k and
B_k(x) = B_k(A) / d^k.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import cache
from math import lcm
from operator import mul

from .exactmat import (ExactnessError, Mat, Rat, Record, _normal, int_mat_mul, inverse,
                       scalar)


class CharData(Record):
    """Coefficients p_1..p_n and gradients B_0..B_{n-1} of one matrix.

    p[k-1] holds p_k; B[k] holds B_k.  coeff(k) additionally returns 0 for
    k > n, the convention the bordered identities rely on.
    """

    __slots__ = ("n", "p", "B")

    def __init__(self, n: int, p: tuple, B: tuple):
        self._set(n, p, B)

    def coeff(self, k: int) -> Rat:
        if k < 1:
            raise ValueError("coefficient index starts at 1")
        if k > self.n:
            return Fraction(0)
        return self.p[k - 1]


def _char_int(a: tuple) -> tuple:
    """Trace recursion on integer rows A: ([p_1(A), ..., p_n(A)], [B_0(A), ..., B_{n-1}(A)])."""
    n = len(a)
    p = []
    B = [tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))]
    acc = a  # A * B_{k-1}(A)
    for k in range(1, n + 1):
        pk, rem = divmod(sum([row[i] for i, row in enumerate(acc)]), k)
        if rem:
            raise ExactnessError("trace recursion: %d does not divide tr(A B_%d)" % (k, k - 1))
        p.append(pk)
        if k < n:
            Bk = tuple(row[:i] + (row[i] - pk,) + row[i + 1:] for i, row in enumerate(acc))
            B.append(Bk)
            acc = int_mat_mul(a, Bk)
    # Cayley-Hamilton residue A B_{n-1} = p_n I: each row has p_n on the
    # diagonal and absolute sum |p_n|.  A failure means broken arithmetic.
    pn = p[-1]
    if any(row[i] != pn or sum(map(abs, row)) != abs(pn) for i, row in enumerate(acc)):
        raise ExactnessError("characteristic recursion lost exactness")
    return p, B


def char_data(x: Mat) -> CharData:
    """Run the trace recursion on the integer numerator of a square matrix."""
    if not x.is_square():
        raise ValueError("char_data needs a square matrix")
    n = x.rows
    a, d = x.num_den()
    p, B = _char_int(a)
    # the rows of each B_k are fresh n-wide tuples: reduced, never copied
    return CharData(n, tuple(Fraction(pk, d ** k) for k, pk in enumerate(p, start=1)),
                    tuple(_normal(n, n, Bk, d ** k) for k, Bk in enumerate(B)))


# -- exact interpolation ----------------------------------------------------

@cache
def _vandermonde_inverse(deg: int):
    """Inverse of the Vandermonde matrix at the nodes t = 0..deg, as
    integer rows over one common denominator."""
    v = Mat([[t ** j for j in range(deg + 1)] for t in range(deg + 1)])
    return inverse(v).num_den()


def interp_coeffs(values: Sequence[Rat]) -> tuple:
    """Monomial coefficients c_0..c_D of the polynomial taking the given
    values at the integer nodes t = 0, 1, ..., D (D = len(values) - 1)."""
    deg = len(values) - 1
    if deg < 0:
        raise ValueError("need at least one value")
    rows, e = _vandermonde_inverse(deg)
    den = lcm(*[v.denominator for v in values])
    nums = [v.numerator * (den // v.denominator) for v in values]
    return tuple(Fraction(sum(map(mul, row, nums)), e * den) for row in rows)


def directional_coeff(F: Callable, base, direction, order: int, degree_bound: int) -> Rat:
    """Exact coefficient of t**order in t -> F(base + t * direction).

    Evaluates at t = 0..degree_bound + 1 and solves the Vandermonde system
    exactly, so the answer is an identity, not an approximation.  The bound
    must be at least the true degree of the restriction; callers pass a
    documented worst case (deg p_k = k; downstream generators document
    theirs).  The one node past the bound is a check: the interpolant's
    coefficient of t**(degree_bound + 1) must vanish, otherwise the bound
    was too small and ExactnessError is raised.  base and direction only
    need + and scalar *.
    """
    if order < 0 or order > degree_bound:
        raise ValueError("order must lie in 0..degree_bound")
    coeffs = interp_coeffs([F(base) if t == 0 else F(base + Fraction(t) * direction)
                            for t in range(degree_bound + 2)])
    if coeffs[-1]:
        raise ExactnessError("restriction has degree above the bound %d" % degree_bound)
    return coeffs[order]


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
    return Mat.block([[y, v], [wstar, Mat([[a]])]])


def bordered_gradients(y: Mat, v: Mat, wstar: Mat, a=0, cy: CharData = None) -> tuple:
    """The pairings wstar B_k(y) v, k = 0..n-1, from one recursion on
    X = [[y, v], [wstar, a]] and one on y (or the caller's cy, the
    char_data of y), never reading B_k(y):

        p_{k+2}(X) = p_{k+2}(y) - a p_{k+1}(y) + wstar B_k(y) v

    with p_{n+1}(y) read as zero.  Both recursions run on integer
    numerators, and no B_k is normalized."""
    ax, dx = bordered(y, v, wstar, a).num_den()
    px = _char_int(ax)[0]  # p_k(X) = px[k-1] / dx^k
    if cy is None:
        ay, dy = y.num_den()
        py = [Fraction(pk, dy ** k) for k, pk in enumerate(_char_int(ay)[0], start=1)]
    else:
        py = list(cy.p)
    py.append(Fraction(0))
    return tuple(Fraction(px[k + 1], dx ** (k + 2)) - py[k + 1] + a * py[k]
                 for k in range(y.rows))


def bordered_char_identities(y: Mat, v: Mat, wstar: Mat, a):
    """Check the coefficients p_2..p_{n+1} of X = [[y, v], [wstar, a]]:
    each bordered_gradients value must equal wstar B_k(y) v.

    Returns (True, None) on success, otherwise (False, (j, lhs, rhs)) where
    j = k + 2 is the index of the first failing coefficient of X.
    """
    cy = char_data(y)
    for k, lhs in enumerate(bordered_gradients(y, v, wstar, a, cy)):
        rhs = scalar(wstar * cy.B[k] * v)
        if lhs != rhs:
            return False, (k + 2, lhs, rhs)
    return True, None
