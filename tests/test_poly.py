"""The integer polynomials of coadinv.poly against independent oracles:
the exact matrix kernels at constant matrices, and sympy on the slices."""

import itertools
from math import prod

import pytest

from coadinv import poly
from coadinv.charpoly import _char_int, _unpack
from coadinv.exactmat import ExactnessError, det, pfaffian
from coadinv.liealg import Rng, sample_int_mat, sample_skew


def constants(a):
    """The integer matrix a as a matrix of constant polynomials."""
    rows, d = a.num_den()
    assert d == 1
    return [[poly.const(v, 0) for v in row] for row in rows]


def test_ring_operations():
    x, y = poly.var(0, 2), poly.var(1, 2)
    s = poly.add(x, y)
    assert poly.mul(s, s) == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert poly.add(s, x, -1) == y and poly.add(s, s, -1) == {}
    assert poly.mul(s, {}) == {} and poly.const(0, 2) == {}
    assert poly.divexact({(1, 0): 6, (0, 0): -4}, 2) == {(1, 0): 3, (0, 0): -2}
    assert poly.value(poly.mul(s, s), (3, -5)) == 4


def test_an_inexact_division_raises():
    with pytest.raises(ExactnessError, match="2 does not divide 3"):
        poly.divexact({(1,): 4, (0,): 3}, 2)


def test_kernels_at_constant_matrices():
    rng = Rng(29).child("poly-constants")
    for n in range(1, 7):
        for _ in range(5):
            a = sample_int_mat(rng, n, n, 3)
            assert poly.value(poly.det(constants(a)), ()) == det(a), a
            p, B = poly.char_recursion(constants(a), 0)
            ip, iB, width = _char_int(a.num_den()[0])
            assert [poly.value(pk, ()) for pk in p] == ip
            assert [[[poly.value(v, ()) for v in row] for row in b] for b in B] \
                == [[list(row) for row in _unpack(b, n, width)] for b in iB]
            if n % 2 == 0:
                s = sample_skew(rng, n, 3)
                assert poly.value(poly.pfaffian(constants(s)), ()) == pfaffian(s), s


def test_slice_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")

    def to_sympy(p, xs):
        return sum(c * prod(x ** e for x, e in zip(xs, es)) for es, c in p.items())

    def gradients(y):
        # B_k = sum_j c_j y^(k-j) off det(tI - y) = sum_j c_j t^(n-j)
        n = y.shape[0]
        t = sympy.Symbol("t")
        c = sympy.Poly((t * sympy.eye(n) - y).det(), t).all_coeffs()
        return [sum((c[j] * y ** (k - j) for j in range(k + 1)), sympy.zeros(n, n))
                for k in range(n)]

    def pfaffian_by_matchings(a):
        # the permutation sum 1/(2^m m!) sum sgn(s) prod a[s(2i), s(2i+1)]
        size = a.shape[0]
        m = size // 2
        total = 0
        for perm in itertools.permutations(range(size)):
            inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
            total += (-1) ** inversions * prod(a[perm[2 * i], perm[2 * i + 1]]
                                              for i in range(m))
        return total / (2 ** m * sympy.factorial(m))

    for n in range(1, 5):
        # the subdiagonal slice in (a_1, ..., a_{n-1}, b)
        xs = sympy.symbols("x0:%d" % n)
        y = sympy.Matrix(n, n, lambda i, j: xs[j] if i == j + 1 else 0)
        w = sympy.Matrix(1, n, lambda i, j: xs[-1] if j == n - 1 else 0)
        rows = sympy.Matrix.vstack(*[w * b for b in reversed(gradients(y))])
        assert sympy.expand(to_sympy(poly.fbar_on_slice(n), xs) - rows.det()) == 0, n
        assert to_sympy(poly.t_slice(n), xs) == prod(x ** k for k, x in enumerate(xs, 1))

        # the block slice in (a_1, ..., a_ell, a0)
        ell = (n - 1) // 2
        xs = sympy.symbols("x0:%d" % (ell + 1))
        y = sympy.zeros(n, n)
        for i in range(ell):
            y[2 * i, 2 * i + 1], y[2 * i + 1, 2 * i] = xs[i], -xs[i]
        w = sympy.Matrix(1, n, lambda i, j: xs[-1] if j == n - 1 else 0)
        B = gradients(y)
        psi = poly.psi_on_slice(n)
        assert len(psi) == ell + 1
        for k in range(ell + 1):
            assert sympy.expand(to_sympy(psi[k], xs) + (w * B[2 * k] * w.T)[0, 0]) == 0, (n, k)
            sigma = sum(prod(xs[i] ** 2 for i in s) for s in itertools.combinations(range(ell), k))
            assert sympy.expand(to_sympy(poly.phi_slice(n, k), xs) - xs[-1] ** 2 * sigma) == 0
        if n % 2:
            bordered = sympy.Matrix(sympy.BlockMatrix([[y, -w.T], [w, sympy.zeros(1, 1)]]))
            assert sympy.expand(to_sympy(poly.exotic_phi_on_slice(n), xs)
                                - pfaffian_by_matchings(bordered)) == 0, n
            assert to_sympy(poly.exotic_slice(n), xs) == prod(xs)
