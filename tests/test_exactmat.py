import sys
from fractions import Fraction as F

import pytest

from coadinv.exactmat import (Mat, _int_str, _str_int, det, inverse, mat_from_json,
                              mat_mul, mat_to_json, pfaffian, rank, rat, rat_str)
from coadinv.liealg import Rng


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


def pfaffian_expand(a):
    """Independent oracle: recursive expansion along the first row."""
    n = a.rows
    if n == 0:
        return F(1)
    rows = a.to_lists()

    def rec(idx):
        if not idx:
            return F(1)
        i0 = idx[0]
        total = F(0)
        for pos, j in enumerate(idx[1:], start=1):
            if rows[i0][j] != 0:
                rest = [r for r in idx[1:] if r != j]
                total += (-1) ** (pos - 1) * rows[i0][j] * rec(rest)
        return total

    return rec(list(range(n)))


# -- frozen examples ---------------------------------------------------------

def test_identity_product():
    i2 = Mat.identity(2)
    assert mat_mul(i2, i2) == i2


def test_nilpotent_square_is_zero():
    n = Mat([[0, 1], [0, 0]])
    assert n * n == Mat.zero(2, 2)


def test_shift_row_action():
    j = Mat([[0, 0], [1, 0]])
    assert Mat.basis_row(2, 1) * j == Mat.basis_row(2, 0)


def test_det_examples():
    assert det(Mat.identity(3)) == 1
    assert det(Mat([[0, 1], [1, 0]])) == -1
    assert det(Mat([[2, 0], [0, F(1, 2)]])) == 1


def test_rank_examples():
    assert rank(Mat.zero(3, 3)) == 0
    assert rank(Mat.identity(4)) == 4
    assert rank(Mat([[1, 0, 0], [1, 0, 0]])) == 1


def test_inverse_examples():
    assert inverse(Mat.identity(4)) == Mat.identity(4)
    assert inverse(Mat.diag([2, 3])) == Mat.diag([F(1, 2), F(1, 3)])
    assert inverse(Mat([[1, 1], [0, 1]])) == Mat([[1, -1], [0, 1]])


def test_inverse_singular():
    with pytest.raises(ValueError, match="singular"):
        inverse(Mat([[1, 2], [2, 4]]))


def test_pfaffian_two_by_two_convention():
    assert pfaffian(Mat([[0, 5], [-5, 0]])) == 5
    assert pfaffian(Mat([[0, -7], [7, 0]])) == -7


def test_pfaffian_zero():
    assert pfaffian(Mat.zero(4, 4)) == 0


def test_pfaffian_block_diag():
    a, b = F(3), F(-2)
    m = Mat([[0, a, 0, 0], [-a, 0, 0, 0], [0, 0, 0, b], [0, 0, -b, 0]])
    expected = pfaffian_expand(m)
    assert expected == a * b
    assert pfaffian(m) == expected
    assert pfaffian(m) ** 2 == det(m)


def test_pfaffian_rejects_bad_input():
    with pytest.raises(ValueError):
        pfaffian(Mat([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))  # odd size
    with pytest.raises(ValueError):
        pfaffian(Mat([[0, 1], [1, 0]]))  # not skew


def test_shape_errors():
    with pytest.raises(ValueError):
        mat_mul(Mat.identity(2), Mat.identity(3))
    with pytest.raises(ValueError):
        det(Mat([[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(ValueError):
        Mat([[1, 2], [3]])


# -- properties ---------------------------------------------------------------

def test_det_is_multiplicative():
    rng = Rng(11)
    for n in range(1, 6):
        for _ in range(200):
            a = rand_mat(rng, n)
            b = rand_mat(rng, n)
            assert det(a * b) == det(a) * det(b)


def test_pfaffian_squares_to_det():
    rng = Rng(12)
    for n in (2, 4, 6, 8):
        for _ in range(25):
            s = rand_skew(rng, n)
            assert pfaffian(s) ** 2 == det(s)


def test_pfaffian_matches_expansion():
    rng = Rng(13)
    for n in (2, 4, 6):
        for _ in range(30):
            s = rand_skew(rng, n)
            assert pfaffian(s) == pfaffian_expand(s)


def test_inverse_roundtrip():
    rng = Rng(14)
    done = 0
    while done < 100:
        n = rng.int_between(1, 5)
        a = rand_mat(rng, n)
        if det(a) == 0:
            continue
        assert inverse(a) * a == Mat.identity(n)
        assert a * inverse(a) == Mat.identity(n)
        done += 1


def test_rank_bounded_by_det():
    rng = Rng(15)
    for _ in range(50):
        n = rng.int_between(1, 5)
        a = rand_mat(rng, n)
        if det(a) != 0:
            assert rank(a) == n
        else:
            assert rank(a) < n


# -- JSON ----------------------------------------------------------------------

def test_json_roundtrip():
    m = Mat([[F(1, 2), -3], [0, F(-7, 5)]])
    encoded = mat_to_json(m)
    assert encoded == {"rows": 2, "cols": 2, "entries": [["1/2", "-3"], ["0", "-7/5"]]}
    assert mat_from_json(encoded) == m


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        mat_from_json({"rows": 2, "cols": 2, "entries": [["1", "2"]]})
    with pytest.raises(ValueError):
        mat_from_json({"rows": 1, "cols": 1, "entries": [["x"]]})
    with pytest.raises(ValueError):
        mat_from_json([1, 2])
    # entries must be a list of row lists; strings and dicts are not rows
    for entries in ([5], ["12"], {"12": 0}, "1", [[1], "2"]):
        with pytest.raises(ValueError, match="list of rows"):
            mat_from_json({"rows": 1, "cols": 2, "entries": entries})


def test_rat_str():
    assert rat_str(F(3)) == "3"
    assert rat_str(F(-3, 4)) == "-3/4"


def test_only_exact_values_enter_the_kernel():
    # Fraction(0.1) is 3602879701896397/36028797018963968, and a decimal or
    # exponent string such as "1e1000000" parses to an unbounded integer
    for entry in (0.1, 1.0, "1", "1e1000000", None):
        with pytest.raises(TypeError, match="int or Fraction"):
            Mat([[1, entry]])
        with pytest.raises(TypeError, match="int or Fraction"):
            Mat.col([entry])
    for value in (0.1, 1.0, None, [1]):
        with pytest.raises(TypeError, match="int or Fraction"):
            rat(value)
    for text in ("1e1000000", "0.1", "1/0", " 1", "1/-2", ""):
        with pytest.raises(ValueError):
            rat(text)
    assert [rat(v) for v in (5, F(1, 2), "-3/4", "7", "2/4")] == [
        F(5), F(1, 2), F(-3, 4), F(7), F(1, 2)]
    assert Mat([[1, F(1, 2)]]) == Mat.from_num_den([[2, 1]], 2)


def digits(text: str) -> int:
    """The integer a decimal string names, read in chunks far below the
    interpreter's digit limit, so the check does not lean on str()."""
    sign, text = (-1, text[1:]) if text.startswith("-") else (1, text)
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def test_rendering_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    big = 7 ** 12000 + 1  # 10,141 digits
    for value in (F(big), F(-big, 3), F(3, big)):
        num, _, den = rat_str(value).partition("/")
        assert F(digits(num), digits(den or "1")) == value
    a = Mat([[F(big, 2), 1], [0, -big]])
    entries = mat_to_json(a)["entries"]
    assert [[F(*map(digits, e.split("/"))) if "/" in e else digits(e) for e in row]
            for row in entries] == a.to_lists()
    # the process-wide limit stays in force, and what is written reads back
    assert sys.get_int_max_str_digits() == limit
    assert mat_from_json(mat_to_json(a)) == a
    assert [rat(rat_str(value)) for value in (F(big), F(-big, 3), F(3, big))] \
        == [F(big), F(-big, 3), F(3, big)]


def test_the_reader_takes_any_length():
    # lengths around the 640-digit split and past the digit limit, with a
    # minus and leading zeros, against the chunked reader above
    rng = Rng(88)
    for size in (1, 2, 639, 640, 641, 642, 1281, 4300, 4301, 10141, 30000):
        text = "".join(str(rng.int_between(0, 9)) for _ in range(size))
        for s in (text, "-" + text, "000" + text, "-0" + text):
            assert _str_int(s) == digits(s), (size, s[:8])
    for v in (7 ** 12000 + 1, -(10 ** 5000), 10 ** 640, 3 ** 1400):
        assert _str_int(_int_str(v)) == v
