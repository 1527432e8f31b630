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
B_k(x) = B_k(A) / d^k.  Each row of B_k(A) is held as one integer, its
entries in slots of s bits, so a product A B_{k-1} is n big-integer sums;
_char_int proves that s leaves every entry room in its slot.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import cache, lru_cache
from itertools import repeat
from math import lcm
from operator import add, mul

from .exactmat import ExactnessError, Mat, Rat, Record, _exact, _normal, inverse, scalar


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


def _packed_mul(a: tuple, rows: list) -> list:
    """Packed rows of A B from those of B: row i is sum_l A_il row_l(B)."""
    return [sum(map(mul, row, rows)) for row in a]


def _char_int(a: tuple, w: tuple = ()) -> tuple:
    """Trace recursion on integer rows A: (p, B, s) with p = [p_1(A), ...,
    p_n(A)] and B[k] the packed rows of B_k(A), row i being the integer
    sum_j B_k(A)_ij 2^(s j).

    Slot width: with R the largest absolute row sum of A and of the rows w
    the caller will project, s = n R.bit_length() + n + 2.  Every entry of
    B_k(A), A B_k(A) and w B_k(A) is below 2^n R^n < 2^(s-2): |(A^m)_ij| <=
    R^m and |p_j| <= C(n, j) R^j, so B_k = A^k - p_1 A^(k-1) - ... - p_k I
    has entries at most 2^n R^k, and one more factor A or w multiplies that
    by at most R, with k + 1 <= n.  So a packed row determines its entries
    (_unpack reads them), and packed rows are equal when their entries are.

    p_k is the trace of A B_{k-1} over k, an exact division, and B_k
    subtracts p_k 2^(s i) from row i.  The Cayley-Hamilton residue
    A B_{n-1} = p_n I ends the recursion: packed row i must be p_n 2^(s i).
    Both checks run on every call; a failure means broken arithmetic.
    """
    n = len(a)
    s = n * max([sum(map(abs, row)) for row in a + w]).bit_length() + n + 2
    shifts, mask, half, bias, unit = _layout(n, s)
    p = []
    B = [unit]
    for k in range(1, n + 1):
        acc = _packed_mul(a, B[-1])  # A B_{k-1}(A)
        trace = sum([x + bias >> sh & mask for x, sh in zip(acc, shifts)]) - n * half
        pk, rem = divmod(trace, k)
        if rem:
            raise ExactnessError("trace recursion: %d does not divide tr(A B_%d)" % (k, k - 1))
        p.append(pk)
        if k < n:
            B.append([x - (pk << sh) for x, sh in zip(acc, shifts)])
    if acc != [pk << sh for sh in shifts]:
        raise ExactnessError("characteristic recursion lost exactness")
    return p, B, s


@lru_cache(maxsize=256)
def _layout(n: int, s: int) -> tuple:
    """n slots of s bits: the slot offsets, the slot mask, half a slot, the
    bias with half a slot in every slot (added to a packed row, it keeps
    each slot from borrowing from the next) and the packed identity rows."""
    shifts = range(0, n * s, s)
    mask = (1 << s) - 1
    return (shifts, mask, 1 << (s - 1), ((1 << n * s) - 1) // mask << (s - 1),
            tuple([1 << sh for sh in shifts]))


def _unpack(rows, n: int, s: int) -> tuple:
    """The entries of packed rows of n slots of s bits, each below 2^(s-1)."""
    shifts, mask, half, bias, _ = _layout(n, s)
    entries = iter([(x >> sh & mask) - half for x in map(add, rows, repeat(bias))
                    for sh in shifts])
    return tuple(zip(*[entries] * n))


def char_data(x: Mat) -> CharData:
    """Run the trace recursion on the integer numerator of a square matrix."""
    if not x.is_square():
        raise ValueError("char_data needs a square matrix")
    n = x.rows
    a, d = x.num_den()
    p, B, s = _char_int(a)
    # B_0 = I; the other B_k unpacked at once into fresh n-wide tuples:
    # reduced, never copied
    rows = iter(_unpack([r for Bk in B[1:] for r in Bk], n, s))
    return CharData(n, tuple(Fraction(pk, d ** k) for k, pk in enumerate(p, start=1)),
                    (Mat.identity(n), *[_normal(n, n, Bk, d ** k)
                                        for k, Bk in enumerate(zip(*[rows] * n), start=1)]))


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
    values = list(map(_exact, values))
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
    documented worst case (deg p_k = k; invariants.GENERATORS holds the
    generators').  The one node past the bound is a check: the
    interpolant's coefficient of t**(degree_bound + 1) must vanish,
    otherwise the bound was too small and ExactnessError is raised.  base
    and direction only need + and scalar *.
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


def bordered_gradients(y: Mat, v: Mat, wstar: Mat) -> tuple:
    """The pairings wstar B_k(y) v, k = 0..n-1, read off the coefficients
    of X = [[y, v], [wstar, 0]] without reading B_k(y):

        wstar B_k(y) v = p_{k+2}(X) - p_{k+2}(y)

    with p_{n+1}(y) read as zero.  One recursion on X and one on y, both on
    integer numerators, and no B_k is normalized."""
    ax, dx = bordered(y, v, wstar, 0).num_den()
    ay, dy = y.num_den()
    px, py = _char_int(ax)[0], _char_int(ay)[0] + [0]
    return tuple(Fraction(px[k + 1], dx ** (k + 2)) - Fraction(py[k + 1], dy ** (k + 2))
                 for k in range(y.rows))


def bordered_char_identities(y: Mat, v: Mat, wstar: Mat, a):
    """Check the coefficients p_2..p_{n+1} of X = [[y, v], [wstar, a]]
    against the gradients of y:

        p_{k+2}(X) = p_{k+2}(y) - a p_{k+1}(y) + wstar B_k(y) v

    Returns (True, None) on success, otherwise (False, (j, lhs, rhs)) where
    j = k + 2 is the index of the first failing coefficient of X.
    """
    cx, cy = char_data(bordered(y, v, wstar, a)), char_data(y)
    for k in range(y.rows):
        lhs = cx.coeff(k + 2)
        rhs = cy.coeff(k + 2) - a * cy.coeff(k + 1) + scalar(wstar * cy.B[k] * v)
        if lhs != rhs:
            return False, (k + 2, lhs, rhs)
    return True, None
