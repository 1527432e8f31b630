"""Sparse polynomials over the integers, and the generators on the
parameter slices as polynomials.

A polynomial in m variables is a dict from exponent tuples of length m to
nonzero ints; the zero polynomial is the empty dict.  Every operation is
exact: dividing by an integer that does not divide every coefficient
raises ExactnessError.  A matrix of polynomials is a list of rows.

The slice functions take the slice parameters of the invariants module as
the variables, in its order (a_1, ..., b) or (a_1, ..., a_ell, a0), and
build each generator on the slice the way its evaluator defines it, next
to the closed slice polynomial (which the invariants module evaluates); the
verify module compares the two term by term, proving the frozen signs.
"""

from __future__ import annotations

from itertools import combinations
from math import prod
from operator import add as _plus

from .exactmat import ExactnessError


def const(c: int, m: int) -> dict:
    """The constant c in m variables."""
    return {(0,) * m: c} if c else {}


def var(i: int, m: int) -> dict:
    """The variable x_i of m."""
    return {tuple(int(j == i) for j in range(m)): 1}


def add(p: dict, q: dict, c: int = 1) -> dict:
    """p + c q."""
    out = dict(p)
    for e, v in q.items():
        s = out.get(e, 0) + c * v
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def mul(p: dict, q: dict) -> dict:
    out = {}
    for e, u in p.items():
        for f, v in q.items():
            g = tuple(map(_plus, e, f))
            out[g] = out.get(g, 0) + u * v
    return {e: v for e, v in out.items() if v}


def divexact(p: dict, d: int) -> dict:
    """p / d, which must divide every coefficient."""
    out = {}
    for e, v in p.items():
        q, r = divmod(v, d)
        if r:
            raise ExactnessError("polynomial division: %d does not divide %d" % (d, v))
        out[e] = q
    return out


def value(p: dict, point) -> int:
    """p evaluated at the point, exactly."""
    return sum(c * prod(map(pow, point, e)) for e, c in p.items())


def _dot(xs, ys) -> dict:
    out = {}
    for x, y in zip(xs, ys):
        if x and y:
            out = add(out, mul(x, y))
    return out


def mat_mul(a: list, b: list) -> list:
    """a b, row by row: each nonzero entry of a adds a multiple of a row of b."""
    out = []
    for row in a:
        acc = [{}] * len(b[0])
        for x, b_row in zip(row, b):
            if x:
                acc = [add(s, mul(x, v)) if v else s for s, v in zip(acc, b_row)]
        out.append(acc)
    return out


def char_recursion(a: list, m: int) -> tuple:
    """The trace recursion of charpoly._char_int on a square matrix of
    polynomials in m variables: ([p_1, ..., p_n], [B_0, ..., B_{n-1}]).

    Each p_k = tr(A B_{k-1}) / k is an exact division, and the recursion
    ends on the Cayley-Hamilton residue A B_{n-1} = p_n I, checked entry by
    entry."""
    n = len(a)
    p = []
    B = [[[const(1, m) if i == j else {} for j in range(n)] for i in range(n)]]
    acc = a  # A B_{k-1}
    for k in range(1, n + 1):
        trace = {}
        for i in range(n):
            trace = add(trace, acc[i][i])
        pk = divexact(trace, k)
        p.append(pk)
        if k < n:
            Bk = [[add(v, pk, -1) if i == j else v for j, v in enumerate(row)]
                  for i, row in enumerate(acc)]
            B.append(Bk)
            acc = mat_mul(a, Bk)
    if any(v != (p[-1] if i == j else {}) for i, row in enumerate(acc)
           for j, v in enumerate(row)):
        raise ExactnessError("characteristic recursion lost exactness")
    return p, B


def det(a: list) -> dict:
    """Determinant of a square matrix of polynomials (n >= 1) by Laplace
    expansion along the top row, memoized over the set of columns left to
    the rows below it."""
    n = len(a)
    memo = {}

    def minor(cols: int) -> dict:  # bit j set: column j is left
        if cols not in memo:
            i = n - bin(cols).count("1")
            out, sign = {}, 1
            for j in range(n):
                if cols >> j & 1:
                    rest = cols ^ 1 << j
                    if a[i][j]:
                        out = add(out, a[i][j] if not rest else mul(a[i][j], minor(rest)), sign)
                    sign = -sign
            memo[cols] = out
        return memo[cols]
    return minor((1 << n) - 1)


def pfaffian(a: list) -> dict:
    """Pfaffian of an even skew matrix of polynomials (n >= 2) by expansion
    along the first row, memoized over the set of indices left, with the
    convention of exactmat.pfaffian: Pf([[0, a], [-a, 0]]) = a."""
    memo = {}

    def pf(idx: tuple) -> dict:
        if idx not in memo:
            i, rest = idx[0], idx[1:]
            out = {}
            for k, j in enumerate(rest):
                if a[i][j]:
                    left = rest[:k] + rest[k + 1:]
                    out = add(out, mul(a[i][j], pf(left)) if left else a[i][j],
                              -1 if k % 2 else 1)
            memo[idx] = out
        return memo[idx]
    return pf(tuple(range(len(a))))


# -- the slices -------------------------------------------------------------------

def _neg(p: dict) -> dict:
    return {e: -v for e, v in p.items()}


def fbar_on_slice(n: int) -> dict:
    """fbar on slice_isl in (a_1, ..., a_{n-1}, b): the determinant of the
    rows wstar B_k(y), highest k on top."""
    y = [[var(j, n) if i == j + 1 else {} for j in range(n)] for i in range(n)]
    w = [{}] * (n - 1) + [var(n - 1, n)]
    return det([mat_mul([w], b)[0] for b in reversed(char_recursion(y, n)[1])])


def t_slice(n: int) -> dict:
    """(prod a_k^k) b^n."""
    return {tuple(range(1, n + 1)): 1}


def _slice_so(n: int) -> tuple:
    """y and wstar of slice_so at size n in (a_1, ..., a_ell, a0), and m."""
    ell = (n - 1) // 2
    y = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(ell):
        y[2 * i][2 * i + 1], y[2 * i + 1][2 * i] = var(i, ell + 1), _neg(var(i, ell + 1))
    return y, [{}] * (n - 1) + [var(ell, ell + 1)], ell + 1


def psi_on_slice(n: int) -> list:
    """All psi_k = -wstar B_2k(y) wstar^T on slice_so, k = 0..ell."""
    y, w, m = _slice_so(n)
    return [_neg(_dot(mat_mul([w], b)[0], w)) for b in char_recursion(y, m)[1][::2]]


def exotic_phi_on_slice(n: int) -> dict:
    """The exotic generator on slice_so (odd n): the Pfaffian of
    [[y, -wstar^T], [wstar, 0]]."""
    y, w, _ = _slice_so(n)
    return pfaffian([row + [_neg(v)] for row, v in zip(y, w)] + [w + [{}]])


def phi_slice(n: int, k: int) -> dict:
    """a0^2 sigma_k(a_1^2, ..., a_ell^2)."""
    ell = (n - 1) // 2
    return {tuple(2 * (i in s) for i in range(ell)) + (2,): 1
            for s in combinations(range(ell), k)}


def exotic_slice(n: int) -> dict:
    """a0 a_1 ... a_ell."""
    return {(1,) * ((n - 1) // 2 + 1): 1}
