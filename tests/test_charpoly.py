from fractions import Fraction as F
from math import factorial

import pytest

from coadinv import charpoly, invariants
from coadinv.charpoly import _taylor, bordered, bordered_gradients, char_data, interp_coeffs
from coadinv.exactmat import ExactnessError, Mat, det, rank, scalar
from coadinv.invariants import F_all
from coadinv.liealg import DualPoint, Rng
from coadinv.verify import SuiteConfig, run_suite

import oracles


def rand_mat(rng, n, bound=3):
    return Mat([[rng.int_between(-bound, bound) for _ in range(n)] for _ in range(n)])


def rand_skew(rng, n, bound=3):
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = F(rng.int_between(-bound, bound))
            m[i][j] = v
            m[j][i] = -v
    return Mat(m)


def coeffs_by_lagrange_det(x):
    """Independent oracle: interpolate det(tI - x) with plain Lagrange
    accumulation, then read the coefficients off the monic expansion
    t^n - p_1 t^(n-1) - ... - p_n."""
    n = x.rows
    nodes = list(range(n + 1))
    values = [det(F(t) * Mat.identity(n) - x) for t in nodes]
    total = [F(0)] * (n + 1)
    for i, ti in enumerate(nodes):
        num = [F(1)]
        denom = F(1)
        for j, tj in enumerate(nodes):
            if j == i:
                continue
            new = [F(0)] * (len(num) + 1)
            for d, c in enumerate(num):
                new[d] -= c * tj
                new[d + 1] += c
            num = new
            denom *= ti - tj
        w = values[i] / denom
        for d, c in enumerate(num):
            total[d] += w * c
    assert total[n] == 1
    return tuple(-total[n - k] for k in range(1, n + 1))


# -- frozen examples -----------------------------------------------------------

def test_nilpotent():
    x = Mat([[0, 1], [0, 0]])
    p, B = char_data(x)
    assert p == (F(0), F(0))
    assert B[1] == x


def test_diag_two_three():
    p, B = char_data(Mat.diag([2, 3]))
    assert p == (F(5), F(-6))
    assert B[1] == Mat.diag([-3, -2])


def test_identity_two():
    assert char_data(Mat.identity(2))[0] == (F(2), F(-1))


def test_coeff_convention():
    # p[k-1] holds p_k for k = 1..n, and B[k] holds B_k for k = 0..n-1
    p, B = char_data(Mat.diag([2, 3, 4]))
    assert p == (F(9), F(-26), F(24))
    assert B == (Mat.identity(3), Mat.diag([-7, -6, -5]), Mat.diag([12, 8, 6]))


def test_char_data_rejects_nonsquare():
    with pytest.raises(ValueError):
        char_data(Mat([[1, 2, 3], [4, 5, 6]]))


def test_against_lagrange_oracle():
    rng = Rng(21)
    for n in range(1, 6):
        for _ in range(10):
            x = rand_mat(rng, n)
            assert char_data(x)[0] == coeffs_by_lagrange_det(x)


def test_cayley_hamilton_residue():
    rng = Rng(22)
    for n in range(1, 7):
        for _ in range(35):
            x = rand_mat(rng, n)
            p, B = char_data(x)
            assert x * B[n - 1] == p[n - 1] * Mat.identity(n)


def _plant(monkeypatch, step, delta):
    # product number `step` of the next recursion, A B_step, comes back with
    # the {(i, j): v} entries of delta added to its packed rows; the first
    # product is A B_0, whose packed rows 2^(s i) give the slot width s
    real, calls, width = charpoly._packed_mul, [], []

    def planted(a, rows):
        if not calls:
            width.append(rows[1].bit_length() - 1)
        out = real(a, rows)
        if len(calls) == step:
            for (i, j), v in delta.items():
                out[i] += v << (width[0] * j)
        calls.append(None)
        return out

    monkeypatch.setattr(charpoly, "_packed_mul", planted)


def test_a_planted_entry_fails_the_cayley_hamilton_check(monkeypatch):
    # a multiple of n! keeps every later division by k exact, so only the
    # residue check can see the planted entry, in any step; char_data and
    # F_all (which runs the recursion with wstar's row) must both refuse
    singular = Mat([[1, 2, 3], [2, 4, 6], [0, 1, -1]])
    ys = [Mat([[1, 2], [3, -1]]), Mat([[1, 2, 0], [3, -1, 4], [2, 2, 5]]),
          F(1, 2) * Mat([[2, -1, 0, 1], [1, 3, 1, 0], [0, 2, -2, 1], [1, 0, 1, 1]]), singular]
    plans = [(y, step, {(0, y.rows - 1): factorial(y.rows)})
             for y in ys for step in range(y.rows)]
    # p_n = 0, and garbage in the last product that cancels in its row's
    # signed sum: the residue compares whole rows, so it sees it
    plans += [(singular, 2, {(0, 1): 5, (0, 2): -5}), (singular, 2, {(2, 0): -3, (2, 1): 3})]
    for y, step, delta in plans:
        n = y.rows
        l = DualPoint(y, Mat.row(range(1, n + 1)), Mat.col([1] * n))
        for run in (lambda: char_data(y), lambda: F_all(l)):
            _plant(monkeypatch, step, delta)
            with pytest.raises(ExactnessError, match="^characteristic recursion lost exactness$"):
                run()
    monkeypatch.undo()
    for y in ys:
        assert char_data(y)[0][y.rows - 1] == det(y) * (-1) ** (y.rows + 1)
    assert char_data(singular)[0][2] == 0


def test_gradient_recursion_closed_form():
    rng = Rng(23)
    for n in range(2, 6):
        x = rand_mat(rng, n)
        p, B = char_data(x)
        acc = Mat.identity(n)
        power = Mat.identity(n)
        for k in range(1, n):
            power = power * x
            acc = power - sum((p[j - 1] * _mat_pow(x, k - j) for j in range(1, k + 1)),
                              start=Mat.zero(n, n))
            assert B[k] == acc


def _mat_pow(x, e):
    out = Mat.identity(x.rows)
    for _ in range(e):
        out = out * x
    return out


# -- directional derivatives -----------------------------------------------------

def _along(k, x, y, nodes):
    """p_k(x + t y) at the explicit nodes t = 0..nodes-1, as _taylor reads them."""
    return [char_data(x + t * y)[0][k - 1] for t in range(nodes)]


def test_directional_trace():
    for n in range(1, 5):
        assert _taylor(_along(1, Mat.zero(n, n), Mat.identity(n), 3), 1)[1] == n


def test_directional_second_coeff():
    assert _taylor(_along(2, Mat.zero(2, 2), Mat.identity(2), 4), 2)[2] == -1


def test_gradient_property():
    rng = Rng(24)
    for n in range(1, 6):
        for _ in range(10):
            x = rand_mat(rng, n)
            y = rand_mat(rng, n)
            B = char_data(x)[1]
            for k in range(n):
                expected = _taylor(_along(k + 1, x, y, k + 3), k + 1)[1]
                assert (B[k] * y).trace() == expected


def test_interp_coeffs():
    # 2 - 3t + t^3 at t = 0..3
    values = [F(2), F(0), F(4), F(20)]
    assert interp_coeffs(values) == (F(2), F(-3), F(0), F(1))


def test_interp_refuses_inexact_values():
    # the kernel's TypeError, also through _taylor
    for values in ([0.5, 1], [F(1), "2"], [1, None]):
        with pytest.raises(TypeError, match="exact entries are int or Fraction"):
            interp_coeffs(values)
    with pytest.raises(TypeError, match="exact entries are int or Fraction"):
        _taylor([0.5 * t for t in range(3)], 1)


def test_taylor_is_interp_coeffs_within_the_bound():
    # 2 - 3t + t^3 at t = 0..5: bound 3 and bound 4 both hold
    values = [2 - 3 * t + t ** 3 for t in range(6)]
    for bound in (3, 4):
        assert _taylor(values, bound) == interp_coeffs(values)
    assert _taylor(values, 4)[:4] == (F(2), F(-3), F(0), F(1))


def test_taylor_refuses_a_coefficient_past_the_bound():
    # t^3 read at bound 2: its t^3 coefficient does not vanish
    values = [t ** 3 for t in range(5)]
    for bound in (2, 1, 0):
        with pytest.raises(ExactnessError, match="degree above the bound %d" % bound):
            _taylor(values, bound)


def test_taylor_needs_one_node_past_the_bound():
    # bound + 1 values fit a polynomial of that degree: nothing is checked
    for bound in range(4):
        with pytest.raises(ValueError, match="degree_bound \\+ 2 values"):
            _taylor([F(t) ** bound for t in range(bound + 1)], bound)
        assert _taylor([F(t) ** bound for t in range(bound + 2)], bound)[bound] == 1


def test_oversized_bound_is_harmless():
    assert _taylor(_along(1, Mat.zero(3, 3), Mat.identity(3), 8), 6)[1] == 3


def test_directional_refuses_a_bound_below_the_degree():
    # p_2 of [[1, 2 + t], [3 + t, 4]] is 2 + 5t + t^2: with bound 1 the two
    # nodes alone would give the secant slope 6, not the coefficient 5
    x, y = Mat([[1, 2], [3, 4]]), Mat([[0, 1], [1, 0]])
    with pytest.raises(ExactnessError, match="degree above the bound 1"):
        _taylor(_along(2, x, y, 3), 1)
    assert _taylor(_along(2, x, y, 4), 2)[1] == 5


# -- shift lemma -------------------------------------------------------------------

def test_shift_lemma_row_spans_and_det():
    rng = Rng(25)
    for n in range(1, 6):
        for _ in range(10):
            y = rand_mat(rng, n)
            v = Mat([[rng.int_between(-3, 3) for _ in range(n)]])
            B = char_data(y)[1]
            brows = []
            krows = [v]
            for k in range(1, n):
                krows.append(krows[-1] * y)
            for k in range(n):
                brows.append(v * B[k])
            for k in range(n):
                span_b = Mat([r.to_lists()[0] for r in brows[:k + 1]])
                span_k = Mat([r.to_lists()[0] for r in krows[:k + 1]])
                stacked = Mat([r.to_lists()[0] for r in brows[:k + 1] + krows[:k + 1]])
                assert rank(span_b) == rank(span_k) == rank(stacked)
            det_b = det(Mat([r.to_lists()[0] for r in reversed(brows)]))
            det_k = det(Mat([r.to_lists()[0] for r in reversed(krows)]))
            assert det_b == det_k


def test_gradient_rows_blind_to_rank_one_shift():
    # v B_k(y + u v) = v B_k(y) for any column u, and the transposed
    # statement B_k(y + xi v) xi = B_k(y) xi for any row v
    rng = Rng(26)
    for n in range(1, 5):
        for _ in range(15):
            y = rand_mat(rng, n)
            u = Mat([[rng.int_between(-3, 3)] for _ in range(n)])
            v = Mat([[rng.int_between(-3, 3) for _ in range(n)]])
            B = char_data(y)[1]
            b_row = char_data(y + u * v)[1]
            for k in range(n):
                assert v * b_row[k] == v * B[k]
            xi = Mat([[rng.int_between(-3, 3)] for _ in range(n)])
            b_col = char_data(y + xi * v)[1]
            for k in range(n):
                assert b_col[k] * xi == B[k] * xi


def test_skew_parity():
    rng = Rng(27)
    for n in range(1, 7):
        for _ in range(10):
            y = rand_skew(rng, n)
            p, B = char_data(y)
            for k in range(1, n + 1, 2):
                assert p[k - 1] == 0
            for k in range(1, n, 2):
                assert B[k].transpose() == -B[k]


# -- bordered identities --------------------------------------------------------------

def test_bordered_one_by_one():
    y = Mat([[4]])
    v = Mat([[2]])
    w = Mat([[3]])
    a = F(5)
    px = char_data(bordered(y, v, w, a))[0]
    assert px == (4 + 5, -a * 4 + 3 * 2)
    assert px[1:] == oracles.bordered_coefficients(y, v, w, a)


def test_bordered_random():
    # the recursion on X against the identity read off powers of y; a
    # rational y or corner gives X and y different denominators
    rng = Rng(28)
    for n in range(1, 6):
        for i in range(20):
            y = F(1, rng.int_between(1, 3) if i % 2 else 1) * rand_mat(rng, n)
            v = Mat([[rng.int_between(-3, 3)] for _ in range(n)])
            w = Mat([[rng.int_between(-3, 3) for _ in range(n)]])
            a = F(rng.int_between(-3, 3), rng.int_between(1, 2))
            px = char_data(bordered(y, v, w, a))[0]
            assert px[0] == y.trace() + a
            assert px[1:] == oracles.bordered_coefficients(y, v, w, a)


def test_bordered_zero_corner_gives_generators():
    rng = Rng(29)
    for n in range(1, 5):
        for _ in range(10):
            y = rand_mat(rng, n)
            xi = Mat([[rng.int_between(-3, 3)] for _ in range(n)])
            w = Mat([[rng.int_between(-3, 3) for _ in range(n)]])
            px = char_data(bordered(y, xi, w, 0))[0]
            py, B = char_data(y)
            py += (0,)  # p_{n+1}(y)
            for k in range(n):
                direct = scalar(w * B[k] * xi)
                assert px[k + 1] - py[k + 1] == direct


def test_bordered_gradients_are_the_pairings():
    # n = 1 included, where the only step is the top coefficient; a
    # rational y gives X and y different denominators
    rng = Rng(30)
    for n in range(1, 7):
        for _ in range(10):
            y = F(1, rng.int_between(1, 3)) * rand_mat(rng, n)
            v = Mat([[rng.int_between(-3, 3)] for _ in range(n)])
            w = Mat([[rng.int_between(-3, 3) for _ in range(n)]])
            B = char_data(y)[1]
            expected = tuple(scalar(w * B[k] * v) for k in range(n))
            assert bordered_gradients(y, v, w) == expected


def test_glvv_dual_path_sample_runs_five_recursions(monkeypatch):
    # one glvv dual-path sample: F_all reads y; F_bordered_all reads X and y;
    # the bordered identity reads the cornered X and y through char_data
    sizes = []
    real = charpoly._char_int

    def counted(a, *rows):
        sizes.append(len(a))
        return real(a, *rows)

    for module in (charpoly, invariants):
        monkeypatch.setattr(module, "_char_int", counted)
    config = SuiteConfig(algebra="glvv", n_lo=4, n_hi=4, samples=1, seed=31)
    assert run_suite("dual-path", config).passed
    assert sorted(sizes) == [4, 4, 4, 5, 5]


def test_bordered_canonical_pair_reads_off_coordinates():
    from coadinv.invariants import lower_shift
    for n in range(1, 6):
        j = lower_shift(n)
        enstar = Mat.basis_row(n, n - 1)
        xi = Mat([[i + 1] for i in range(n)])
        px = char_data(bordered(j, xi, enstar, 0))[0]
        for k in range(n):
            # coefficient k+2 of the bordered matrix picks out entry n-k
            assert px[k + 1] == xi[n - 1 - k, 0]


def test_bordered_shape_errors():
    with pytest.raises(ValueError):
        bordered(Mat.identity(2), Mat.col([1, 2, 3]), Mat.row([1, 2]), 0)
