"""Exact rational scalars and dense rational matrices.

Everything downstream evaluates polynomials at rational points, so this is
the only module where matrix arithmetic happens.  Every value is an exact
rational; there is no floating point anywhere.  Matrices are immutable and
hashable, so values can be shared freely across threads.

A matrix is stored the way FLINT stores an fmpq_mat: integer rows A over
one positive common denominator d, in lowest terms (gcd(d, all entries of
A) = 1).  The form is canonical, so equality and hashing compare (A, d)
directly, and all arithmetic is integer arithmetic: a product is one
integer matmul over d_a d_b, and the elimination kernels run fraction-free
(Bareiss) on A with exact division by the previous pivot.  Entries read
back through the accessors are fractions.Fraction values.

JSON encoding used repo-wide:
    {"rows": r, "cols": c, "entries": [["p/q", ...], ...]}
with rationals rendered as "p/q" strings ("p" alone when q = 1).  Reading
also takes JSON integers as entries; sizes must be JSON integers.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, mul, sub

Rat = Fraction


class ExactnessError(ArithmeticError):
    """An internal exact identity failed: a bug, never a property of the input."""


def rat(value) -> Rat:
    """Coerce an int, a Fraction or a "p"/"p/q" string to an exact rational;
    floats, decimal and exponent strings and all else are refused."""
    if isinstance(value, str):
        return Fraction(*_json_num_den(value))
    return Fraction(_exact(value))


def rat_str(value: Rat) -> str:
    return _entry_str(value.numerator, value.denominator)


def _exact(v):
    """An int or Fraction as it is; a float, a string or any other type
    would bring inexact or unbounded input into the kernel."""
    if isinstance(v, (int, Fraction)):
        return v
    raise TypeError("exact entries are int or Fraction, got %r" % (v,))


def _frac(v: int, d: int) -> Rat:
    return Fraction(v) if d == 1 else Fraction(v, d)


class Mat:
    """Dense rows x cols matrix of exact rationals: integer rows over one
    positive denominator, in lowest terms.

    Instances are immutable; arithmetic returns new matrices.  Entries are
    int or Fraction, anything else raises TypeError.  Scalar
    multiplication accepts int or Fraction on either side.
    """

    __slots__ = ("rows", "cols", "_a", "_d")

    def __init__(self, entries: Sequence[Sequence]):
        m = [[v if type(v) is int else _exact(v) for v in row] for row in entries]
        if not m or not m[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(m[0])
        if any(len(row) != width for row in m):
            raise ValueError("ragged rows")
        # the lcm of reduced denominators leaves the numerators coprime to it
        d = lcm(*[v.denominator for row in m for v in row])
        self.rows = len(m)
        self.cols = width
        self._a = tuple(tuple([v.numerator * (d // v.denominator) for v in row])
                        for row in m)
        self._d = d

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_num_den(a: Sequence[Sequence[int]], d: int) -> "Mat":
        """The matrix A / d for integer rows A and a nonzero integer d."""
        a = tuple(tuple(row) for row in a)
        if not a or not a[0]:
            raise ValueError("matrix needs at least one row and one column")
        if any(len(row) != len(a[0]) for row in a):
            raise ValueError("ragged rows")
        if d == 0:
            raise ZeroDivisionError("denominator is zero")
        return _normal(len(a), len(a[0]), a, d)

    @staticmethod
    def block(grid: Sequence[Sequence["Mat"]]) -> "Mat":
        """The matrix assembled from a grid of blocks: each band of grid is
        a row of blocks of one height, and every band has the same width."""
        blocks = [b for band in grid for b in band]
        if not blocks:
            raise ValueError("block needs at least one block")
        d = lcm(*[b._d for b in blocks])
        rows = []
        for band in grid:
            if not band or any(b.rows != band[0].rows for b in band):
                raise ValueError("blocks of one band need one height")
            scaled = [(b._a, d // b._d) for b in band]
            for i in range(band[0].rows):
                rows.append(tuple([v * s for a, s in scaled for v in a[i]]))
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("bands of blocks need one width")
        return _normal(len(rows), len(rows[0]), tuple(rows), d)

    @staticmethod
    def zero(rows: int, cols: int) -> "Mat":
        if rows < 1 or cols < 1:
            raise ValueError("matrix needs at least one row and one column")
        return _make(rows, cols, ((0,) * cols,) * rows, 1)

    @staticmethod
    @lru_cache(maxsize=64)
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

    def num_den(self) -> tuple:
        """(A, d): the integer rows and the positive common denominator,
        with gcd(d, all entries of A) = 1."""
        return self._a, self._d

    @property
    def _m(self) -> tuple:
        # read-only Fraction rows, built on demand and never kept; read only
        # by perfbench/tracer.py, which tests hasattr(value, "_m"), and goes
        # when the tracer scans num_den() instead
        d = self._d
        return tuple(tuple(_frac(v, d) for v in row) for row in self._a)

    def __getitem__(self, ij) -> Rat:
        i, j = ij
        return _frac(self._a[i][j], self._d)

    def to_lists(self) -> list:
        d = self._d
        return [[_frac(v, d) for v in row] for row in self._a]

    def transpose(self) -> "Mat":
        return _make(self.cols, self.rows, tuple(zip(*self._a)), self._d)

    def trace(self) -> Rat:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        a = self._a
        return _frac(sum(a[i][i] for i in range(self.rows)), self._d)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_skew(self) -> bool:
        if not self.is_square():
            return False
        a = self._a
        return all(a[i][j] == -a[j][i] for i in range(self.rows) for j in range(i, self.cols))

    # -- arithmetic --------------------------------------------------------

    def _combine(self, other, op, what: str) -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in %s: %dx%d vs %dx%d"
                             % (what, self.rows, self.cols, other.rows, other.cols))
        da, db = self._d, other._d
        if da == db:
            rows = tuple(tuple(map(op, r1, r2)) for r1, r2 in zip(self._a, other._a))
        else:
            g = gcd(da, db)
            sa, sb = db // g, da // g
            rows = tuple(tuple([op(x * sa, y * sb) for x, y in zip(r1, r2)])
                         for r1, r2 in zip(self._a, other._a))
            da *= sa
        return _normal(self.rows, self.cols, rows, da)

    def __add__(self, other) -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        return self._combine(other, add, "add")

    def __sub__(self, other) -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        return self._combine(other, sub, "sub")

    def __neg__(self) -> "Mat":
        return _make(self.rows, self.cols,
                     tuple(tuple([-v for v in row]) for row in self._a), self._d)

    def _scaled(self, c) -> "Mat":
        num, den = c.numerator, c.denominator
        return _normal(self.rows, self.cols,
                       tuple(tuple([num * v for v in row]) for row in self._a),
                       den * self._d)

    def __mul__(self, other):
        if isinstance(other, Mat):
            return mat_mul(self, other)
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        return NotImplemented

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self._d == other._d and self._a == other._a)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._d, self._a))

    def __repr__(self) -> str:
        d = self._d
        body = "; ".join(" ".join(_entry_str(v, d) for v in row) for row in self._a)
        return "Mat[%dx%d: %s]" % (self.rows, self.cols, body)


def _make(rows: int, cols: int, a: tuple, d: int) -> Mat:
    """A matrix from rows already in canonical form, unchecked."""
    m = object.__new__(Mat)
    m.rows = rows
    m.cols = cols
    m._a = a
    m._d = d
    return m


def _normal(rows: int, cols: int, a: tuple, d: int) -> Mat:
    """A matrix from integer rows over a nonzero d, brought to lowest terms."""
    if d < 0:
        a = tuple(tuple([-v for v in row]) for row in a)
        d = -d
    if d != 1:
        g = d
        for row in a:
            g = gcd(g, *row)
            if g == 1:
                break
        else:
            a = tuple(tuple([v // g for v in row]) for row in a)
            d //= g
    return _make(rows, cols, a, d)


def mat_mul(a: Mat, b: Mat) -> Mat:
    """Exact matrix product: (A_a A_b) / (d_a d_b), reduced once."""
    if a.cols != b.rows:
        raise ValueError("dimension mismatch in mul: %dx%d by %dx%d"
                         % (a.rows, a.cols, b.rows, b.cols))
    bt = tuple(zip(*b._a))
    rows = tuple([tuple([sum(map(mul, row, col)) for col in bt]) for row in a._a])
    return _normal(a.rows, b.cols, rows, a._d * b._d)


def scalar(a: Mat) -> Rat:
    """Extract the entry of a 1 x 1 matrix."""
    if a.rows != 1 or a.cols != 1:
        raise ValueError("expected a 1x1 matrix, got %dx%d" % (a.rows, a.cols))
    return a[0, 0]


def _bareiss(a: Mat) -> tuple:
    """(rank, sign, pivot) of A by fraction-free Bareiss elimination to row
    echelon form: row pivoting, and exact division by the previous pivot,
    which keeps every entry a minor of A.  sign is the parity of the row
    swaps and pivot the last pivot, so a square A of full rank has
    det(A) = sign * pivot."""
    m = [list(row) for row in a._a]
    nr, nc = a.rows, a.cols
    r = 0
    sign = 1
    prev = 1
    for c in range(nc):
        for i in range(r, nr):
            if m[i][c] != 0:
                break
        else:
            continue
        if i != r:
            m[r], m[i] = m[i], m[r]
            sign = -sign
        row_r = m[r]
        pivot = row_r[c]
        for i in range(r + 1, nr):
            row_i = m[i]
            f = row_i[c]
            for j in range(c + 1, nc):
                row_i[j] = (row_i[j] * pivot - f * row_r[j]) // prev
        prev = pivot
        r += 1
        if r == nr:
            break
    return r, sign, prev


def det(a: Mat) -> Rat:
    """Exact determinant det(A) / d^n, with det(A) the signed last pivot
    of the Bareiss elimination, and 0 below full rank."""
    if not a.is_square():
        raise ValueError("determinant of a non-square matrix")
    r, sign, pivot = _bareiss(a)
    return Fraction(sign * pivot, a._d ** a.rows) if r == a.rows else Fraction(0)


def rank(a: Mat) -> int:
    """Exact rank over the rationals: rank(A), by the Bareiss elimination."""
    return _bareiss(a)[0]


def inverse(a: Mat) -> Mat:
    """Exact inverse; raises on singular input.

    Fraction-free Gauss-Jordan on [A | I]: each step updates every other
    row as (p row_i - f row_pivot) / p_prev, exactly.  It ends on [p I | R]
    with A^-1 = R / p, so (A / d)^-1 = d R / p.
    """
    if not a.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = a.rows
    m = [list(row) + [1 if j == i else 0 for j in range(n)] for i, row in enumerate(a._a)]
    prev = 1
    for c in range(n):
        for i in range(c, n):
            if m[i][c] != 0:
                m[c], m[i] = m[i], m[c]
                break
        else:
            raise ValueError("singular")
        row_c = m[c]
        pivot = row_c[c]
        for i in range(n):
            if i != c:
                row_i = m[i]
                f = row_i[c]
                m[i] = [(pivot * x - f * y) // prev for x, y in zip(row_i, row_c)]
        prev = pivot
    d = a._d
    return _normal(n, n, tuple(tuple([d * v for v in row[n:]]) for row in m), prev)


def pfaffian(a: Mat) -> Rat:
    """Exact Pfaffian of an even skew-symmetric matrix: Pf(A) / d^(n/2).

    Convention: Pf([[0, a], [-a, 0]]) = a, so pfaffian(a)**2 == det(a).
    Pf(A) comes from fraction-free elimination, the Pfaffian analogue of
    Bareiss: after the pivot block (i, i+1) every remaining entry (j, l)
    becomes the Pfaffian of the principal submatrix on the pivot indices
    so far plus {j, l}, updated by the four-index Pfaffian identity

        Pf_{S+ijkl} Pf_S = Pf_{S+ij} Pf_{S+kl} - Pf_{S+ik} Pf_{S+jl}
                           + Pf_{S+il} Pf_{S+jk},

    so the division by the previous pivot is exact.  Swapping a
    row/column pair flips the sign.
    """
    if not a.is_square():
        raise ValueError("pfaffian of a non-square matrix")
    n = a.rows
    if n % 2 != 0:
        raise ValueError("pfaffian needs even size, got %d" % n)
    if not a.is_skew():
        raise ValueError("pfaffian of a non-skew matrix")
    m = [list(row) for row in a._a]
    sign = 1
    prev = 1
    for i in range(0, n, 2):
        for k in range(i + 1, n):
            if m[i][k] != 0:
                break
        else:
            return Fraction(0)
        if k != i + 1:
            for row in m:
                row[k], row[i + 1] = row[i + 1], row[k]
            m[k], m[i + 1] = m[i + 1], m[k]
            sign = -sign
        ri, rj = m[i], m[i + 1]
        pivot = ri[i + 1]
        for j in range(i + 2, n):
            rowj = m[j]
            for l in range(j + 1, n):
                v = (pivot * rowj[l] - ri[j] * rj[l] + ri[l] * rj[j]) // prev
                rowj[l] = v
                m[l][j] = -v
        prev = pivot
    return Fraction(sign * prev, a._d ** (n // 2))


# -- JSON ------------------------------------------------------------------

def _int_str(v: int) -> str:
    """Decimal digits of v, however long: str() refuses integers past the
    interpreter's digit limit, which stays in force for parsing, and the
    decimal module renders those exactly."""
    try:
        return str(v)
    except ValueError:
        return str(Decimal(v))


def _entry_str(v: int, d: int) -> str:
    """rat_str of v / d."""
    g = gcd(v, d)
    return _int_str(v // g) if g == d else _int_str(v // g) + "/" + _int_str(d // g)


def mat_to_json(a: Mat) -> dict:
    d = a._d
    return {
        "rows": a.rows,
        "cols": a.cols,
        "entries": [[_entry_str(v, d) for v in row] for row in a._a],
    }


def json_size(obj: dict, key: str) -> int:
    """A size field of a JSON document: a JSON integer, never a bool,
    float or string (1.9 and true are not 1)."""
    value = obj[key]
    if type(value) is not int:
        raise ValueError("JSON %r must be an integer, got %r" % (key, value))
    return value


_RAT_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")
# entries joined by commas
_RATS_RE = re.compile("{0}(,{0})*".format(_RAT_RE.pattern))


def _json_num_den(value) -> tuple:
    # decimal and exponent forms are refused: "1e200000" alone would be a
    # 664,386-bit integer
    if type(value) is int:
        return value, 1
    if isinstance(value, str) and _RAT_RE.fullmatch(value):
        num, _, den = value.partition("/")
        den = int(den) if den else 1
        if den == 0:
            raise ValueError("zero denominator in %r" % (value,))
        return int(num), den
    raise ValueError("%r is not an integer or a \"p\"/\"p/q\" string" % (value,))


def _strings_mat(rows: int, cols: int, entries: list) -> Mat:
    """The matrix of rows x cols entries that are all "p"/"p/q" strings,
    validated by one match over the entries joined by commas: an entry
    holding a comma would read as two, so the commas are counted too.
    Raises TypeError or ValueError on anything else."""
    text = ",".join([",".join(row) for row in entries])
    if text.count(",") != rows * cols - 1 or not _RATS_RE.fullmatch(text):
        raise ValueError("not a matrix of rational strings")
    if "/" not in text:
        return _make(rows, cols, tuple([tuple(map(int, row)) for row in entries]), 1)
    parts = [v.partition("/") for v in text.split(",")]
    dens = {q: int(q or 1) for _, _, q in parts}
    d = lcm(*dens.values())
    if d == 0:
        raise ValueError("zero denominator")
    scale = {q: d // v for q, v in dens.items()}
    flat = [int(p) * scale[q] for p, _, q in parts]
    return _normal(rows, cols, tuple([tuple(flat[i:i + cols])
                                      for i in range(0, rows * cols, cols)]), d)


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
    if rows < 1 or cols < 1:
        raise ValueError("matrix needs at least one row and one column")
    try:
        return _strings_mat(rows, cols, entries)
    except (TypeError, ValueError):
        pass  # the per-entry parse reads the rest, or refuses it by entry
    try:
        parsed = [[_json_num_den(v) for v in row] for row in entries]
    except ValueError as exc:
        raise ValueError("matrix JSON has a malformed rational: %s" % exc) from exc
    d = lcm(*[den for row in parsed for _, den in row])
    return _normal(rows, cols, tuple(tuple([num * (d // den) for num, den in row])
                                     for row in parsed), d)


# -- immutable records ------------------------------------------------------

class Record:
    """Base of the immutable value types: a subclass names its fields in
    __slots__ and sets them once, in __init__, through _set.  Records are
    equal by type and fields, hash and print by their fields, refuse
    assignment, and pickle and copy through their constructor."""

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value=None):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))

    def __reduce__(self):
        return type(self), self._fields()
