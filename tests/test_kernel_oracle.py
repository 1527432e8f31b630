"""Differential oracle for the integer kernels of exactmat and charpoly.

Every kernel runs on integer numerators over one common denominator; here
each one is matched against a textbook reference written on plain
Fractions, on seeded random rational matrices (n <= 6) that mix
denominators and include zero and negative entries:

    det           Leibniz expansion
    p_k, B_k      Faddeev-LeVerrier on lists of Fractions
    pfaffian      expansion along the first row (pfaffian_expand)
    rank, inverse Fraction Gauss-Jordan

det, rank and inverse share one Bareiss elimination, so they also meet the
references on the inputs that elimination is most likely to get wrong: a
row swap at every pivot, a defect that shows only at the last pivot,
entries up to +-2^70 at n <= 9, and wide matrices behind zero columns.
There det is also taken by Laplace expansion (laplace_det), which reaches
n = 9.

sympy, when installed, cross-checks det, p_k and the Pfaffian for n <= 4.
The canonical form (d > 0, gcd(d, A) = 1) is asserted on every result, and
equal matrices built by different paths compare and hash equal.
"""

import functools
import itertools
from fractions import Fraction as F
from math import gcd, lcm
from operator import mul

import pytest

from coadinv.charpoly import _char_int, char_data
from coadinv.exactmat import (Mat, _sparse_rank, det, inverse, mat_from_json, mat_mul,
                              mat_to_json, pfaffian, rank)
from coadinv.invariants import _covariants
from coadinv.liealg import DualPoint, Rng
from test_exactmat import pfaffian_expand

DENOMINATORS = (1, 1, 2, 3, 4, 6, 7, 9)


def rand_rat(rng):
    if rng.int_between(0, 3) == 0:
        return F(0)
    return F(rng.int_between(-9, 9), DENOMINATORS[rng.int_between(0, len(DENOMINATORS) - 1)])


def nonzero_rat(rng):
    return F(rng.int_between(1, 9) * (1 if rng.coin() else -1),
             DENOMINATORS[rng.int_between(0, len(DENOMINATORS) - 1)])


def rand_rows(rng, rows, cols):
    return [[rand_rat(rng) for _ in range(cols)] for _ in range(rows)]


def rand_skew_rows(rng, n):
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = rand_rat(rng)
            m[j][i] = -m[i][j]
    return m


def low_rank_rows(rng, rows, cols, r):
    """A rows x cols product of random rational factors of inner size r."""
    left = rand_rows(rng, rows, r)
    right = rand_rows(rng, r, cols)
    return [[sum((left[i][k] * right[k][j] for k in range(r)), F(0)) for j in range(cols)]
            for i in range(rows)]


def cases(seed, count=12):
    """(n, rows) pairs for n = 1..6: full random, a zero row, a repeated row."""
    rng = Rng(seed)
    for n in range(1, 7):
        for c in range(count if n < 6 else 4):
            rows = rand_rows(rng, n, n)
            if c == 1:
                rows[rng.int_between(0, n - 1)] = [F(0)] * n
            elif c == 2 and n > 1:
                rows[n - 1] = [F(-3, 2) * v for v in rows[0]]
            yield n, rows


def assert_canonical(m):
    a, d = m.num_den()
    assert type(d) is int and d > 0
    assert all(type(v) is int for row in a for v in row)
    assert gcd(d, *[v for row in a for v in row]) == 1
    assert len(a) == m.rows and all(len(row) == m.cols for row in a)
    assert m.to_lists() == [[F(v, d) for v in row] for row in a]


# -- references on plain Fractions -------------------------------------------------

def leibniz_det(rows):
    n = len(rows)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = F(-1) ** inversions
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def fraction_matmul(x, y):
    return [[sum((x[i][k] * y[k][j] for k in range(len(y))), F(0)) for j in range(len(y[0]))]
            for i in range(len(x))]


def faddeev_leverrier(rows):
    """p_1..p_n and B_0..B_{n-1} with det(tI - x) = t^n - p_1 t^(n-1) - ... - p_n."""
    n = len(rows)
    ident = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    p, B = [], [ident]
    for k in range(1, n + 1):
        acc = fraction_matmul(rows, B[-1])
        pk = sum((acc[i][i] for i in range(n)), F(0)) / k
        p.append(pk)
        if k < n:
            B.append([[acc[i][j] - (pk if i == j else 0) for j in range(n)] for i in range(n)])
    return p, B


def gauss_jordan(rows):
    """(rank, reduced row echelon form) over the rationals."""
    m = [list(r) for r in rows]
    nr, nc = len(m), len(m[0])
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r, m


def gauss_jordan_inverse(rows):
    n = len(rows)
    r, m = gauss_jordan([list(row) + [F(int(i == j)) for j in range(n)]
                         for i, row in enumerate(rows)])
    if any(m[i][i] != 1 for i in range(n)) or r < n:
        return None
    return [row[n:] for row in m]


# -- the kernels against the references -------------------------------------------------

# square inputs that steer the shared Bareiss elimination off its plain
# path: (rows, det, rank)
PIVOT_CASES = [
    # the (1, 1) pivot vanishes only after the first step: one swap mid-way
    ([[1, 2, 3], [2, 4, 5], [3, 7, 1]], F(1), 3),
    # cyclic shifts: three row swaps (odd) at n = 4, four (even) at n = 5
    ([[0, 0, 0, 2], [3, 0, 0, 0], [0, 5, 0, 0], [0, 0, 7, F(1, 2)]], F(-210), 4),
    ([[0, 0, 0, 0, 1], [F(2, 3), 0, 0, 0, 0], [0, 3, 0, 0, 0], [0, 0, -4, 0, 0],
      [0, 0, 0, 5, 1]], F(-40), 5),
    # a leading all-zero column
    ([[0, 1, 2], [0, 3, F(4, 9)], [0, 5, 6]], F(0), 2),
    # a zero pivot mid-way with no row to swap in
    ([[1, 2, 3], [2, 4, 6], [0, 0, 1]], F(0), 2),
]

# tall and wide, rank-deficient: (rows, rank)
SHAPED_CASES = [
    ([[0, 0], [1, 2], [F(1, 2), 1], [-3, -6], [0, 0]], 1),
    ([[0, 1, 2, 0, F(1, 3)], [0, 2, 4, 0, F(2, 3)]], 1),
    ([[1, 0, 1], [0, 1, 1], [1, 1, 2], [2, -1, 1]], 2),
    ([[0, 0, 1, 2, 3, 4], [0, 0, 0, 0, 1, 1], [0, 0, 2, 4, 7, 9]], 2),
]


def test_det_against_leibniz():
    for _, rows in cases(31):
        assert det(Mat(rows)) == leibniz_det(rows)
    for rows, value, _ in PIVOT_CASES:
        assert det(Mat(rows)) == leibniz_det(rows) == value


def test_char_data_against_faddeev_leverrier():
    for n, rows in cases(32):
        got_p, got_B = char_data(Mat(rows))
        p, B = faddeev_leverrier(rows)
        assert list(got_p) == p
        for k in range(n):
            assert_canonical(got_B[k])
            assert got_B[k].to_lists() == B[k]


def extreme_cases(seed):
    """(A, w) integer pairs for n = 1..9 at the edges of the slot bound of
    the packed recursion: entries up to +-2^70, +-M times the all-ones
    matrix, +-M sign patterns, zero and nilpotent matrices, and rows w
    whose absolute sum dwarfs A's."""
    rng = Rng(seed)
    big = 1 << 70

    def wide():
        return rng.int_between(-(1 << 32), 1 << 32) << 38

    def sign():
        return big if rng.int_between(0, 1) else -big

    for n in range(1, 10):
        def rows(draw):
            return [[draw() for _ in range(n)] for _ in range(n)]

        small = rows(lambda: rng.int_between(-3, 3))
        for a in (rows(wide), rows(sign), [[big] * n] * n, [[-3] * n] * n, [[0] * n] * n,
                  [[wide() if j > i else 0 for j in range(n)] for i in range(n)], small):
            yield a, [wide() for _ in range(n)]
        yield small, [sign() << 70 for _ in range(n)]
        yield [[0] * n] * n, [sign() for _ in range(n)]


def integer_recursion(a):
    """The trace recursion entry by entry on integer lists, as it ran before
    rows were packed: (p, B, [A B_0, ..., A B_{n-1}])."""
    n = len(a)
    p, B, products = [], [[[int(i == j) for j in range(n)] for i in range(n)]], []
    for k in range(1, n + 1):
        acc = [[sum(map(mul, row, col)) for col in zip(*B[-1])] for row in a]
        pk, rem = divmod(sum(acc[i][i] for i in range(n)), k)
        assert rem == 0
        p.append(pk)
        products.append(acc)
        B.append([[v - pk * (i == j) for j, v in enumerate(row)] for i, row in enumerate(acc)])
    assert B.pop() == [[0] * n] * n  # Cayley-Hamilton
    return p, B, products


def test_packed_recursion_at_the_bound():
    # p, every B_k and every w B_k against the unpacked recursion, and the
    # slot bound of the packed rows: every entry of B_k, A B_k and w B_k
    # stays below 2^(s - 2)
    for a, w in extreme_cases(33):
        n = len(a)
        p, B, products = integer_recursion(a)
        wB = [[sum(map(mul, w, col)) for col in zip(*b)] for b in B]
        got_p, got_B = char_data(Mat(a))
        assert list(got_p) == p
        assert [b.to_lists() for b in got_B] == B
        rows, pint = _covariants(DualPoint(Mat(a), Mat.row(w), Mat.col([0] * n)))
        assert pint == p
        assert [list(r) for r, e in rows] == wB and {e for _, e in rows} == {1}
        s = _char_int(tuple(map(tuple, a)), (tuple(w),))[2]
        entries = [v for m in (*B, *products, wB) for row in m for v in row]
        assert max(map(abs, entries)) < 1 << (s - 2)


def test_rank_against_gauss_jordan():
    rng = Rng(33)
    for _ in range(120):
        nr, nc = rng.int_between(1, 6), rng.int_between(1, 6)
        r = rng.int_between(0, min(nr, nc))
        rows = low_rank_rows(rng, nr, nc, r) if r else [[F(0)] * nc for _ in range(nr)]
        assert rank(Mat(rows)) == gauss_jordan(rows)[0]
    for _, rows in cases(34):
        assert rank(Mat(rows)) == gauss_jordan(rows)[0]
    for rows, expected in [(rows, r) for rows, _, r in PIVOT_CASES] + SHAPED_CASES:
        assert rank(Mat(rows)) == gauss_jordan(rows)[0] == expected


def test_inverse_against_gauss_jordan():
    singular = 0
    for n, rows in cases(35):
        expected = gauss_jordan_inverse(rows)
        if expected is None:
            singular += 1
            with pytest.raises(ValueError, match="singular"):
                inverse(Mat(rows))
            continue
        got = inverse(Mat(rows))
        assert_canonical(got)
        assert got.to_lists() == expected
    assert singular >= 10  # the zero-row and repeated-row cases


# -- the cases the shared elimination is most likely to break ---------------------------

def laplace_det(rows):
    """Leibniz's sum grouped by expansion along the rows, each minor on the
    remaining columns computed once: n 2^n terms, so n = 9 stays quick."""
    n = len(rows)

    @functools.cache
    def minor(i, cols):  # rows i.. on the columns of the bit set cols
        if i == n:
            return F(1)
        total, sign = F(0), 1
        for j in range(n):
            if cols >> j & 1:
                total += sign * rows[i][j] * minor(i + 1, cols & ~(1 << j))
                sign = -sign
        return total

    return minor(0, (1 << n) - 1)


def swaps(rows):
    """The pivots of a first-nonzero-row echelon form on Fractions that
    needed a row swap."""
    m = [list(r) for r in rows]
    r, swapped = 0, []
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            swapped.append(c)
            m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return swapped


def swap_cases(seed):
    """(rows, det) for n = 2..8 that need a row swap at every pivot but the
    last: a first row zero but for its last entry x, above n - 1 dense rows
    [L U | c] with L unit lower and U upper triangular of nonzero diagonal.
    The first row sinks one place at each pivot, and expanding along it
    gives det = (-1)^(n-1) x prod diag U."""
    rng = Rng(seed)
    for n in range(2, 9):
        for _ in range(3):
            u = [[rand_rat(rng) if j > i else F(0) for j in range(n - 1)] for i in range(n - 1)]
            value = F((-1) ** (n - 1))
            for i in range(n - 1):
                u[i][i] = nonzero_rat(rng)
                value *= u[i][i]
            lower = [[F(int(i == j)) if j >= i else rand_rat(rng) for j in range(n - 1)]
                     for i in range(n - 1)]
            x = nonzero_rat(rng)
            rows = [[F(0)] * (n - 1) + [x]]
            rows += [row + [rand_rat(rng)] for row in fraction_matmul(lower, u)]
            yield rows, value * x


def late_defect_cases(seed):
    """n x n rows for n = 1..8 of rank n - 1 whose leading k x k minors are
    nonzero for k < n: L U with a dense unit lower L and an upper U whose
    last diagonal entry alone is zero."""
    rng = Rng(seed)
    for n in range(1, 9):
        for _ in range(3):
            u = [[rand_rat(rng) if j > i else F(0) for j in range(n)] for i in range(n)]
            for i in range(n - 1):
                u[i][i] = nonzero_rat(rng)
            lower = [[F(int(i == j)) if j >= i else rand_rat(rng) for j in range(n)]
                     for i in range(n)]
            yield fraction_matmul(lower, u)


def test_a_row_swap_at_every_pivot():
    for rows, value in swap_cases(40):
        n = len(rows)
        assert swaps(rows) == list(range(n - 1))
        m = Mat(rows)
        assert det(m) == laplace_det(rows) == value
        if n <= 5:
            assert det(m) == leibniz_det(rows)
        assert rank(m) == gauss_jordan(rows)[0] == n
        got = inverse(m)
        assert_canonical(got)
        assert got.to_lists() == gauss_jordan_inverse(rows)


def test_a_defect_at_the_last_pivot():
    for rows in late_defect_cases(41):
        n = len(rows)
        assert swaps(rows) == []
        m = Mat(rows)
        assert det(m) == laplace_det(rows) == 0
        assert rank(m) == gauss_jordan(rows)[0] == n - 1
        assert gauss_jordan_inverse(rows) is None
        with pytest.raises(ValueError, match="^singular$"):
            inverse(m)


def test_extreme_entries_against_the_references():
    # entries up to +-2^70 at n = 1..9; each A also ranks with w as an extra
    # column (more columns than rows) and behind two zero columns
    for a, w in extreme_cases(42):
        rows = [[F(v) for v in row] for row in a]
        m = Mat(a)
        assert det(m) == laplace_det(rows)
        assert rank(m) == gauss_jordan(rows)[0]
        expected = gauss_jordan_inverse(rows)
        if expected is None:
            with pytest.raises(ValueError, match="^singular$"):
                inverse(m)
        else:
            assert inverse(m).to_lists() == expected
        for wide in ([row + [F(v)] for row, v in zip(rows, w)],
                     [[F(0), F(0)] + row for row in rows]):
            assert rank(Mat(wide)) == gauss_jordan(wide)[0]


def test_wide_ranks_behind_zero_columns():
    rng = Rng(43)
    for _ in range(60):
        nr = rng.int_between(1, 5)
        nc, zeros = rng.int_between(nr + 1, 8), rng.int_between(1, 3)
        r = rng.int_between(0, nr)
        rows = low_rank_rows(rng, nr, nc, r) if r else [[F(0)] * nc for _ in range(nr)]
        rows = [[F(0)] * zeros + row for row in rows]
        assert rank(Mat(rows)) == gauss_jordan(rows)[0]


# -- the sparse rank of the commutator form ---------------------------------------------

def sparse_rows(rows):
    """Rational rows as the {column: nonzero integer} dicts _sparse_rank
    takes: each row is cleared of its denominators, which keeps the rank."""
    out = []
    for row in rows:
        d = lcm(*[F(v).denominator for v in row])
        out.append({j: int(F(v) * d) for j, v in enumerate(row) if v})
    return out


def test_sparse_rank_against_gauss_jordan():
    # the dense rank's cases and references, plus the zero matrix, zero
    # and repeated rows, wide and tall shapes and entries up to +-2^70
    rng = Rng(44)
    inputs = [rows for _, rows in cases(45)]
    inputs += [rows for rows, _, _ in PIVOT_CASES] + [rows for rows, _ in SHAPED_CASES]
    inputs += [[[F(0)] * 4] * 3, [[F(0)] * 2] * 5, [[F(6), F(4)], [F(-9), F(-6)]],
               [[F(0), F(3), F(0)], [F(0), F(3), F(0)], [F(2), F(0), F(0)], [F(0)] * 3]]
    for _ in range(120):
        nr, nc = rng.int_between(1, 9), rng.int_between(1, 9)
        r = rng.int_between(0, min(nr, nc))
        inputs.append(low_rank_rows(rng, nr, nc, r) if r else [[F(0)] * nc] * nr)
    for a, w in extreme_cases(46):
        rows = [[F(v) for v in row] for row in a]
        inputs += [rows, [row + [F(v)] for row, v in zip(rows, w)],
                   [[F(0), F(0)] + row for row in rows], rows + [[F(v) for v in w]] + rows[:1]]
    for rows in inputs:
        assert _sparse_rank(sparse_rows(rows)) == gauss_jordan(rows)[0] == rank(Mat(rows))
    assert _sparse_rank([]) == _sparse_rank([{}, {}]) == 0


def test_refusals_keep_their_type_and_text():
    for call, text in ((det, "determinant of a non-square matrix"),
                       (inverse, "inverse of a non-square matrix")):
        with pytest.raises(ValueError, match="^%s$" % text):
            call(Mat.zero(2, 3))
    with pytest.raises(ValueError, match="^singular$"):
        inverse(Mat.zero(3, 3))


def test_pfaffian_against_expansion():
    rng = Rng(36)
    for n in (2, 4, 6):
        for _ in range(25 if n < 6 else 10):
            m = Mat(rand_skew_rows(rng, n))
            assert pfaffian(m) == pfaffian_expand(m)
            assert pfaffian(m) ** 2 == det(m)


# -- the canonical form -----------------------------------------------------------------

def test_every_result_is_canonical():
    rng = Rng(37)
    for n in range(1, 6):
        x, y = Mat(rand_rows(rng, n, n)), Mat(rand_rows(rng, n, n))
        c = rand_rat(rng)
        for m in (x, y, x * y, x + y, x - y, -x, c * x, x * c, F(0) * x, x.transpose(),
                  x - x, x * Mat.basis_col(n, 0), Mat.zero(n, n), Mat.identity(n),
                  Mat.block([[x, y], [y, x]])):
            assert_canonical(m)
        # blocks over 4 and 6, an integer block and a zero block: the grid
        # keeps the canonical form of its blocks, over the lcm 12
        quarter, sixth = Mat([[F(v, 4) for v in (1, 2, 3)]]), Mat([[F(v, 6) for v in (1, 4, 5)]])
        grids = ([[quarter, sixth], [Mat([[2, 4, 6]]), Mat.zero(1, 3)]],
                 [[Mat.zero(n, n), c * x], [Mat.identity(n), y]], [[sixth], [quarter]])
        for grid in grids:
            m = Mat.block(grid)
            assert_canonical(m)
            assert m == Mat([[v for b in band for v in b.to_lists()[i]]
                             for band in grid for i in range(band[0].rows)])
        assert Mat.block(grids[0]).num_den()[1] == 12
        assert Mat.block([[x, y]]).to_lists() == [rx + ry for rx, ry in
                                                   zip(x.to_lists(), y.to_lists())]


def test_equal_matrices_by_different_paths():
    literal = Mat([[F(1, 2), F(-1, 3)], [0, F(5, 6)]])
    product = mat_mul(Mat.diag([F(1, 2), F(1, 6)]), Mat([[1, F(-2, 3)], [0, 5]]))
    half = F(1, 2) * literal
    total = half + half
    difference = Mat([[1, 0], [F(2, 3), 1]]) - Mat([[F(1, 2), F(1, 3)], [F(2, 3), F(1, 6)]])
    from_json = mat_from_json({"rows": 2, "cols": 2, "entries": [["2/4", "-1/3"], [0, "10/12"]]})
    scaled = Mat.from_num_den([[-6, 4], [0, -10]], -12)
    for m in (product, total, difference, from_json, scaled,
              mat_from_json(mat_to_json(literal))):
        assert m == literal and hash(m) == hash(literal)
        assert m.num_den() == (((3, -2), (0, 5)), 6)


def test_constructors_validate():
    with pytest.raises(ValueError):
        Mat.block([[Mat.identity(2), Mat.identity(3)]])
    with pytest.raises(ValueError):
        Mat.block([[Mat.identity(2)], [Mat.identity(3)]])
    with pytest.raises(ValueError):
        Mat.block([])
    with pytest.raises(ZeroDivisionError):
        Mat.from_num_den([[1]], 0)
    with pytest.raises(ValueError):
        Mat.from_num_den([[1, 2], [3]], 1)
    with pytest.raises(ValueError):
        Mat.from_num_den([], 1)


# -- sympy cross-check, n <= 4 ------------------------------------------------------------

def _sympy():
    return pytest.importorskip("sympy")


def _to_sympy(sp, rows):
    return sp.Matrix([[sp.Rational(v.numerator, v.denominator) for v in row] for row in rows])


def _from_sympy(value):
    return F(int(value.p), int(value.q))


def test_sympy_det_and_coefficients():
    sp = _sympy()
    t = sp.Symbol("t")
    for n, rows in cases(38, count=6):
        if n > 4:
            break
        m = _to_sympy(sp, rows)
        assert det(Mat(rows)) == _from_sympy(m.det())
        # det(tI - x) = t^n + c_1 t^(n-1) + ... + c_n, so p_k = -c_k
        coeffs = m.charpoly(t).all_coeffs()
        assert list(char_data(Mat(rows))[0]) == [-_from_sympy(c) for c in coeffs[1:]]


def _generic_pfaffian(sp, n):
    """The Pfaffian polynomial of a generic n x n skew matrix, as the square
    root of its determinant, signed so that Pf(blockdiag [[0, a], [-a, 0]])
    is the product of the block entries."""
    a = {(i, j): sp.Symbol("a%d_%d" % (i, j)) for i in range(n) for j in range(i + 1, n)}
    generic = sp.Matrix(n, n, lambda i, j: a[i, j] if i < j else -a[j, i] if i > j else 0)
    base, exp = sp.factor(generic.det()).as_base_exp()
    assert exp == 2
    blocks = sp.Mul(*[a[2 * i, 2 * i + 1] for i in range(n // 2)])
    if sp.Poly(base, *a.values()).coeff_monomial(blocks) < 0:
        base = -base
    return base, a


def test_sympy_pfaffian():
    sp = _sympy()
    rng = Rng(39)
    for n in (2, 4):
        poly, a = _generic_pfaffian(sp, n)
        for _ in range(15):
            rows = rand_skew_rows(rng, n)
            value = poly.subs({s: sp.Rational(rows[i][j].numerator, rows[i][j].denominator)
                               for (i, j), s in a.items()})
            assert pfaffian(Mat(rows)) == _from_sympy(value)
