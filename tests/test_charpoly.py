from fractions import Fraction as F
from math import factorial

import pytest

from coadinv import charpoly, invariants
from coadinv.charpoly import (CharData, _taylor, bordered, bordered_char_identities,
                              bordered_gradients, char_data, interp_coeffs)
from coadinv.exactmat import ExactnessError, Mat, det, rank, scalar
from coadinv.invariants import F_all
from coadinv.liealg import Algebra, DualPoint, Rng, sample_dual


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
    cd = char_data(x)
    assert cd.p == (F(0), F(0))
    assert cd.B[1] == x


def test_diag_two_three():
    cd = char_data(Mat.diag([2, 3]))
    assert cd.p == (F(5), F(-6))
    assert cd.B[1] == Mat.diag([-3, -2])


def test_identity_two():
    cd = char_data(Mat.identity(2))
    assert cd.p == (F(2), F(-1))


def test_coeff_convention():
    cd = char_data(Mat.diag([2, 3]))
    assert cd.coeff(1) == 5
    assert cd.coeff(2) == -6
    assert cd.coeff(3) == 0  # beyond the size
    with pytest.raises(ValueError):
        cd.coeff(0)


def test_char_data_rejects_nonsquare():
    with pytest.raises(ValueError):
        char_data(Mat([[1, 2, 3], [4, 5, 6]]))


def test_against_lagrange_oracle():
    rng = Rng(21)
    for n in range(1, 6):
        for _ in range(10):
            x = rand_mat(rng, n)
            assert char_data(x).p == coeffs_by_lagrange_det(x)


def test_cayley_hamilton_residue():
    rng = Rng(22)
    for n in range(1, 7):
        for _ in range(35):
            x = rand_mat(rng, n)
            cd = char_data(x)
            assert x * cd.B[n - 1] == cd.p[n - 1] * Mat.identity(n)


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
        assert char_data(y).p[y.rows - 1] == det(y) * (-1) ** (y.rows + 1)
    assert char_data(singular).p[2] == 0


def test_gradient_recursion_closed_form():
    rng = Rng(23)
    for n in range(2, 6):
        x = rand_mat(rng, n)
        cd = char_data(x)
        acc = Mat.identity(n)
        power = Mat.identity(n)
        for k in range(1, n):
            power = power * x
            acc = power - sum((cd.p[j - 1] * _mat_pow(x, k - j) for j in range(1, k + 1)),
                              start=Mat.zero(n, n))
            assert cd.B[k] == acc


def _mat_pow(x, e):
    out = Mat.identity(x.rows)
    for _ in range(e):
        out = out * x
    return out


# -- directional derivatives -----------------------------------------------------

def _along(k, x, y, nodes):
    """p_k(x + t y) at the explicit nodes t = 0..nodes-1, as _taylor reads them."""
    return [char_data(x + t * y).coeff(k) for t in range(nodes)]


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
            cd = char_data(x)
            for k in range(n):
                expected = _taylor(_along(k + 1, x, y, k + 3), k + 1)[1]
                assert (cd.B[k] * y).trace() == expected


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
            cd = char_data(y)
            brows = []
            krows = [v]
            for k in range(1, n):
                krows.append(krows[-1] * y)
            for k in range(n):
                brows.append(v * cd.B[k])
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
            cd = char_data(y)
            cd_row = char_data(y + u * v)
            for k in range(n):
                assert v * cd_row.B[k] == v * cd.B[k]
            xi = Mat([[rng.int_between(-3, 3)] for _ in range(n)])
            cd_col = char_data(y + xi * v)
            for k in range(n):
                assert cd_col.B[k] * xi == cd.B[k] * xi


def test_skew_parity():
    rng = Rng(27)
    for n in range(1, 7):
        for _ in range(10):
            y = rand_skew(rng, n)
            cd = char_data(y)
            for k in range(1, n + 1, 2):
                assert cd.coeff(k) == 0
            for k in range(1, n, 2):
                assert cd.B[k].transpose() == -cd.B[k]


# -- bordered identities --------------------------------------------------------------

def test_bordered_one_by_one():
    y = Mat([[4]])
    v = Mat([[2]])
    w = Mat([[3]])
    a = F(5)
    x = bordered(y, v, w, a)
    cx = char_data(x)
    assert cx.coeff(1) == 4 + 5
    assert cx.coeff(2) == -a * 4 + 3 * 2
    ok, witness = bordered_char_identities(y, v, w, a)
    assert ok and witness is None


def test_bordered_random():
    rng = Rng(28)
    for n in range(1, 6):
        for _ in range(20):
            y = rand_mat(rng, n)
            v = Mat([[rng.int_between(-3, 3)] for _ in range(n)])
            w = Mat([[rng.int_between(-3, 3) for _ in range(n)]])
            a = F(rng.int_between(-3, 3))
            ok, witness = bordered_char_identities(y, v, w, a)
            assert ok, witness


def test_bordered_zero_corner_gives_generators():
    rng = Rng(29)
    for n in range(1, 5):
        for _ in range(10):
            y = rand_mat(rng, n)
            xi = Mat([[rng.int_between(-3, 3)] for _ in range(n)])
            w = Mat([[rng.int_between(-3, 3) for _ in range(n)]])
            cx = char_data(bordered(y, xi, w, 0))
            cy = char_data(y)
            for k in range(n):
                direct = scalar(w * cy.B[k] * xi)
                assert cx.coeff(k + 2) - cy.coeff(k + 2) == direct


def test_bordered_gradients_are_the_pairings():
    # n = 1 included, where the only step is the top coefficient; a
    # rational y gives X and y different denominators
    rng = Rng(30)
    for n in range(1, 7):
        for _ in range(10):
            y = F(1, rng.int_between(1, 3)) * rand_mat(rng, n)
            v = Mat([[rng.int_between(-3, 3)] for _ in range(n)])
            w = Mat([[rng.int_between(-3, 3) for _ in range(n)]])
            cy = char_data(y)
            expected = tuple(scalar(w * cy.B[k] * v) for k in range(n))
            assert bordered_gradients(y, v, w) == expected


def test_glvv_dual_path_sample_runs_five_recursions(monkeypatch):
    # F_all reads y; F_bordered_all reads X and y; bordered_char_identities
    # reads the cornered X and y through char_data
    sizes = []
    real = charpoly._char_int

    def counted(a, *rows):
        sizes.append(len(a))
        return real(a, *rows)

    for module in (charpoly, invariants):
        monkeypatch.setattr(module, "_char_int", counted)
    l = sample_dual(Algebra("glvv", 4), Rng(31), 3)
    assert invariants.F_all(l) == invariants.F_bordered_all(l)
    assert bordered_char_identities(l.y, l.xi, l.wstar, F(2)) == (True, None)
    assert sorted(sizes) == [4, 4, 4, 5, 5]


def test_bordered_identities_report_the_first_failing_coefficient(monkeypatch):
    # p_3 and p_4 of the bordered matrix are off by one: j = 3 is reported
    y, v, w = Mat([[1, 2, 0], [3, 4, 1], [0, 1, 1]]), Mat.col([1, 1, 0]), Mat.row([1, -1, 2])
    x = bordered(y, v, w, 2)
    real = charpoly.char_data
    good = real(x)
    planted = CharData(4, good.p[:2] + (good.p[2] + 1, good.p[3] + 1), good.B)
    monkeypatch.setattr(charpoly, "char_data", lambda m: planted if m == x else real(m))
    assert bordered_char_identities(y, v, w, 2) == (False, (3, good.p[2] + 1, good.p[2]))


def test_bordered_canonical_pair_reads_off_coordinates():
    from coadinv.invariants import lower_shift
    for n in range(1, 6):
        j = lower_shift(n)
        enstar = Mat.basis_row(n, n - 1)
        xi = Mat([[i + 1] for i in range(n)])
        cx = char_data(bordered(j, xi, enstar, 0))
        for k in range(n):
            # coefficient k+2 of the bordered matrix picks out entry n-k
            assert cx.coeff(k + 2) == xi[n - 1 - k, 0]


def test_bordered_shape_errors():
    with pytest.raises(ValueError):
        bordered(Mat.identity(2), Mat.col([1, 2, 3]), Mat.row([1, 2]), 0)
