"""Exact rational scalars and dense rational matrices.

Everything downstream evaluates polynomials at rational points, so this is
the only module where arithmetic happens: every entry is a
fractions.Fraction and every operation is exact.  There is no floating
point anywhere.  Matrices are immutable and hashable, so values can be
shared freely across threads.

JSON encoding used repo-wide:
    {"rows": r, "cols": c, "entries": [["p/q", ...], ...]}
with rationals rendered as "p/q" strings ("p" alone when q = 1).  Reading
also takes JSON integers as entries; sizes must be JSON integers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

Rat = Fraction


class ExactnessError(ArithmeticError):
    """An internal exact identity failed: a bug, never a property of the input."""


def rat(value) -> Rat:
    """Coerce an int, a Fraction or a "p/q" string to an exact rational."""
    return Fraction(value)


def rat_str(value: Rat) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


class Mat:
    """Dense rows x cols matrix of exact rationals, stored row-major.

    Instances are immutable; arithmetic returns new matrices.  Scalar
    multiplication accepts int or Fraction on either side.
    """

    __slots__ = ("rows", "cols", "_m")

    def __init__(self, entries: Sequence[Sequence]):
        m = tuple(tuple(Fraction(v) for v in row) for row in entries)
        if not m or not m[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(m[0])
        if any(len(row) != width for row in m):
            raise ValueError("ragged rows")
        self.rows = len(m)
        self.cols = width
        self._m = m

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(rows: int, cols: int) -> "Mat":
        return Mat([[0] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def diag(values: Sequence) -> "Mat":
        vals = list(values)
        n = len(vals)
        return Mat([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def row(values: Sequence) -> "Mat":
        return Mat([list(values)])

    @staticmethod
    def col(values: Sequence) -> "Mat":
        return Mat([[v] for v in values])

    @staticmethod
    def basis_row(n: int, i: int) -> "Mat":
        """1 x n row with a single 1 in (0-based) position i."""
        return Mat([[1 if j == i else 0 for j in range(n)]])

    @staticmethod
    def basis_col(n: int, i: int) -> "Mat":
        return Mat([[1] if j == i else [0] for j in range(n)])

    @staticmethod
    def unit(n: int, i: int, j: int) -> "Mat":
        """n x n matrix unit with a single 1 in (0-based) position (i, j)."""
        m = [[0] * n for _ in range(n)]
        m[i][j] = 1
        return Mat(m)

    # -- basic accessors ---------------------------------------------------

    def __getitem__(self, ij) -> Rat:
        i, j = ij
        return self._m[i][j]

    def row_tuple(self, i: int) -> tuple:
        return self._m[i]

    def col_mat(self, j: int) -> "Mat":
        return Mat([[self._m[i][j]] for i in range(self.rows)])

    def to_lists(self) -> list:
        return [list(row) for row in self._m]

    def transpose(self) -> "Mat":
        return Mat([[self._m[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def trace(self) -> Rat:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((self._m[i][i] for i in range(self.rows)), Fraction(0))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_skew(self) -> bool:
        if not self.is_square():
            return False
        m = self._m
        return all(m[i][j] == -m[j][i] for i in range(self.rows) for j in range(i, self.cols))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in add: %dx%d vs %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        return Mat([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._m, other._m)])

    def __sub__(self, other) -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in sub: %dx%d vs %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        return Mat([[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self._m, other._m)])

    def __neg__(self) -> "Mat":
        return Mat([[-v for v in row] for row in self._m])

    def __mul__(self, other):
        if isinstance(other, Mat):
            return mat_mul(self, other)
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return Mat([[c * v for v in row] for row in self._m])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return Mat([[c * v for v in row] for row in self._m])
        return NotImplemented

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._m == other._m

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._m))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(rat_str(v) for v in row) for row in self._m)
        return "Mat[%dx%d: %s]" % (self.rows, self.cols, body)


def mat_mul(a: Mat, b: Mat) -> Mat:
    """Exact matrix product."""
    if a.cols != b.rows:
        raise ValueError("dimension mismatch in mul: %dx%d by %dx%d"
                         % (a.rows, a.cols, b.rows, b.cols))
    bt = b.transpose()
    return Mat([[sum((x * y for x, y in zip(row, col)), Fraction(0))
                 for col in bt._m] for row in a._m])


def scalar(a: Mat) -> Rat:
    """Extract the entry of a 1 x 1 matrix."""
    if a.rows != 1 or a.cols != 1:
        raise ValueError("expected a 1x1 matrix, got %dx%d" % (a.rows, a.cols))
    return a[0, 0]


def det(a: Mat) -> Rat:
    """Exact determinant, fraction-free Bareiss elimination with pivoting."""
    if not a.is_square():
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    m = a.to_lists()
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) / prev
            row_i[k] = Fraction(0)
        prev = pivot
    return m[n - 1][n - 1] if sign == 1 else -m[n - 1][n - 1]


def rank(a: Mat) -> int:
    """Exact rank over the rationals (Gaussian elimination)."""
    m = a.to_lists()
    nr, nc = a.rows, a.cols
    r = 0
    for c in range(nc):
        pivot_row = None
        for i in range(r, nr):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        for i in range(r + 1, nr):
            if m[i][c] != 0:
                f = m[i][c] / pv
                row_i = m[i]
                row_r = m[r]
                for j in range(c, nc):
                    row_i[j] -= f * row_r[j]
        r += 1
        if r == nr:
            break
    return r


def inverse(a: Mat) -> Mat:
    """Exact inverse by Gauss-Jordan elimination; raises on singular input."""
    if not a.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = a.rows
    m = a.to_lists()
    inv = Mat.identity(n).to_lists()
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            raise ValueError("singular")
        m[c], m[pivot_row] = m[pivot_row], m[c]
        inv[c], inv[pivot_row] = inv[pivot_row], inv[c]
        pv = m[c][c]
        m[c] = [v / pv for v in m[c]]
        inv[c] = [v / pv for v in inv[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [v - f * w for v, w in zip(m[i], m[c])]
                inv[i] = [v - f * w for v, w in zip(inv[i], inv[c])]
    return Mat(inv)


def pfaffian(a: Mat) -> Rat:
    """Exact Pfaffian of an even skew-symmetric matrix.

    Convention: Pf([[0, a], [-a, 0]]) = a, so pfaffian(a)**2 == det(a).
    Computed by congruence elimination (adding multiples of rows together
    with the matching columns preserves the Pfaffian; swapping a row/column
    pair flips its sign).
    """
    if not a.is_square():
        raise ValueError("pfaffian of a non-square matrix")
    n = a.rows
    if n % 2 != 0:
        raise ValueError("pfaffian needs even size, got %d" % n)
    if not a.is_skew():
        raise ValueError("pfaffian of a non-skew matrix")
    m = a.to_lists()
    result = Fraction(1)
    for i in range(0, n, 2):
        k = None
        for j in range(i + 1, n):
            if m[i][j] != 0:
                k = j
                break
        if k is None:
            return Fraction(0)
        if k != i + 1:
            for r in range(n):
                m[r][k], m[r][i + 1] = m[r][i + 1], m[r][k]
            m[k], m[i + 1] = m[i + 1], m[k]
            result = -result
        pivot = m[i][i + 1]
        result *= pivot
        for j in range(i + 2, n):
            # clear m[i+1][j] with row/col i, then m[i][j] with row/col i+1
            c = m[i + 1][j] / pivot
            if c != 0:
                for r in range(n):
                    m[r][j] += c * m[r][i]
                for s in range(n):
                    m[j][s] += c * m[i][s]
            d = m[i][j] / pivot
            if d != 0:
                for r in range(n):
                    m[r][j] -= d * m[r][i + 1]
                for s in range(n):
                    m[j][s] -= d * m[i + 1][s]
    return result


# -- JSON ------------------------------------------------------------------

def mat_to_json(a: Mat) -> dict:
    return {
        "rows": a.rows,
        "cols": a.cols,
        "entries": [[rat_str(v) for v in a.row_tuple(i)] for i in range(a.rows)],
    }


def json_size(obj: dict, key: str) -> int:
    """A size field of a JSON document: a JSON integer, never a bool,
    float or string (1.9 and true are not 1)."""
    value = obj[key]
    if type(value) is not int:
        raise ValueError("JSON %r must be an integer, got %r" % (key, value))
    return value


_RAT_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _json_rat(value) -> Rat:
    # decimal and exponent forms are refused: "1e200000" alone would be a
    # 664,386-bit integer
    if type(value) is int or isinstance(value, str) and _RAT_RE.fullmatch(value):
        return Fraction(value)
    raise ValueError("%r is not an integer or a \"p\"/\"p/q\" string" % (value,))


def mat_from_json(obj) -> Mat:
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    try:
        rows = json_size(obj, "rows")
        cols = json_size(obj, "cols")
        entries = obj["entries"]
    except KeyError as exc:
        raise ValueError("matrix JSON needs rows, cols and entries") from exc
    if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
        raise ValueError("matrix JSON entries must be a list of rows")
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise ValueError("matrix JSON entries do not match rows x cols")
    try:
        return Mat([[_json_rat(v) for v in row] for row in entries])
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("matrix JSON has a malformed rational: %s" % exc) from exc
