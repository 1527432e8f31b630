"""The five inhomogeneous algebras as constrained views of one triple.

Families (the "n" is the matrix size everywhere):

    aff   gl(n) acting on column vectors
    isl   the traceless subalgebra of aff
    glvv  gl(n) acting on V + V*
    io    so(n) acting on V, full orthogonal group upstairs
    iso   same algebra, special orthogonal group upstairs

Every family lives inside glvv, so there is one dual-point type, one
group-element type and one coadjoint action.  A DualPoint (y, wstar, xi)
and a GroupElem (g, u, vstar) are glvv triples tagged with a family, whose
constraints they check when built.  One rule, _third, fixes the third
component of both and of the algebra basis: free on glvv, minus the
second's transpose on io/iso (the triples fixed by the involution theta)
and zero on aff/isl.  The bracket and the commutator form are glvv's.

Group elements abbreviate the fixed factorization
(e, u, 0) * (e, 0, vstar) * (g, 0, 0), and the action flows through it.
The product law (g1, u1, v1) (g2, u2, v2) = (g1 g2, u1 + g1 u2,
v1 + v2 g1^-1), the pairing and the adjoint action are the tests'
independent checks of it (tests/oracles.py).

The module also provides the base pair (J, e_n*), deterministic seeded
sampling, the commutator-form index at the base pair, the minus-transpose
involution of the glvv algebra and its bordered-matrix embedding into
gl(n+1).
"""

from __future__ import annotations

from collections import Counter
from functools import cache

from .charpoly import bordered
from .exactmat import (ExactnessError, Mat, Record, _make, _solve, _sparse_rank, det, inverse,
                       json_size, mat_from_json, mat_to_json)

FAMILIES = ("aff", "isl", "glvv", "io", "iso")

# rejection-sampling attempts before a random stream counts as degenerate
_RETRY_CAP = 64


class Algebra(Record):
    """One of the supported families at a fixed size n."""

    __slots__ = ("family", "n")

    def __init__(self, family: str, n: int):
        if family not in FAMILIES:
            raise ValueError("unknown algebra family %r" % (family,))
        if n < 1:
            raise ValueError("algebra size must be >= 1")
        self._set(family, n)

    @property
    def ell(self) -> int:
        """Block count of the orthogonal families: n = 2*ell+1 or 2*ell+2."""
        if self.family not in ("io", "iso"):
            raise ValueError("ell is only defined for io/iso")
        return (self.n - 1) // 2

    @property
    def dim(self) -> int:
        n = self.n
        gl = {"aff": n * n, "isl": n * n - 1, "glvv": n * n + n}
        return gl.get(self.family, n * (n - 1) // 2) + n


# -- dual points and group elements -----------------------------------------

def _want_shape(m: Mat, rows: int, cols: int, what: str):
    if m.rows != rows or m.cols != cols:
        raise ValueError("%s must be %dx%d, got %dx%d"
                         % (what, rows, cols, m.rows, m.cols))


def _third(family: str, second: Mat, third, record) -> Mat:
    """The third component of a record's triple: a missing one is the
    family's fill, -second^T on io/iso and zero otherwise; a supplied one
    is shape-checked and, off glvv, must equal the fill."""
    _, name2, name3, _ = record.__slots__
    if third is not None:
        _want_shape(third, second.cols, second.rows, name3)
        if family == "glvv":
            return third
    orth = family in ("io", "iso")
    fill = -second.transpose() if orth else Mat.zero(second.cols, second.rows)
    if third is not None and third != fill:
        raise ValueError("%s %s needs %s = %s"
                         % (family, record._noun, name3, "-%s^T" % name2 if orth else "0"))
    return fill


class DualPoint(Record):
    """A value (y, wstar, xi) of the glvv dual, with no arithmetic -- y is
    n x n, wstar 1 x n, xi n x 1 -- tagged with its family and checked once:
    tr(y) = 0 for isl, y skew for io/iso, then xi by _third."""

    __slots__ = ("y", "wstar", "xi", "family")
    _noun, _doc, _kind = "point", "point", "point"  # the names messages use

    def __init__(self, y: Mat, wstar: Mat, xi: Mat = None, family: str = "glvv"):
        if family not in FAMILIES:
            raise ValueError("unknown algebra family %r" % (family,))
        if not y.is_square():
            raise ValueError("y must be square")
        _want_shape(wstar, 1, y.rows, "wstar")
        if family == "isl" and y.trace() != 0:
            raise ValueError("isl point needs tr(y) = 0")
        if family in ("io", "iso") and not y.is_skew():
            raise ValueError("y must be skew-symmetric")
        self._set(y, wstar, _third(family, wstar, xi, DualPoint), family)

    @property
    def n(self) -> int:
        return self.y.rows


def lower_shift(n: int) -> Mat:
    """The principal nilpotent J with ones on the first subdiagonal, so the
    row action shifts basis covectors down by one index."""
    return Mat([[int(i == j + 1) for j in range(n)] for i in range(n)])


class CanonicalPair(Record):
    """The base point (J, e_n*) of the open affine orbit."""

    __slots__ = ("J", "enstar")

    def __init__(self, J: Mat, enstar: Mat):
        self._set(J, enstar)

    @staticmethod
    @cache
    def of_size(n: int) -> "CanonicalPair":
        return CanonicalPair(lower_shift(n), Mat.basis_row(n, n - 1))


class GroupElem(Record):
    """Element (g, u, vstar) of the glvv group tagged with the family whose
    group it lies in.  Checked here, once: g orthogonal for io/iso,
    det g != 0 and det g = 1 for isl/iso, then vstar by _third."""

    __slots__ = ("g", "u", "vstar", "family")
    _noun, _doc, _kind = "element", "group", "group element"

    def __init__(self, g: Mat, u: Mat, vstar: Mat = None, family: str = "glvv"):
        if family not in FAMILIES:
            raise ValueError("unknown algebra family %r" % (family,))
        if not g.is_square():
            raise ValueError("g must be square")
        n = g.rows
        _want_shape(u, n, 1, "u")
        if family in ("io", "iso") and g.transpose() * g != Mat.identity(n):
            raise ValueError("non-orthogonal")
        d = det(g)
        if d == 0:
            raise ValueError("singular")
        if family in ("isl", "iso") and d != 1:
            raise ValueError("an %s group element needs det g = 1" % family)
        self._set(g, u, _third(family, u, vstar, GroupElem), family)

    @property
    def n(self) -> int:
        return self.g.rows


def _g_inverse(b: GroupElem) -> Mat:
    # g^T on io/iso, whose constructor checked g^T g = I
    return b.g.transpose() if b.family in ("io", "iso") else inverse(b.g)


# -- deterministic splittable randomness ------------------------------------

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # the stream's counter step


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class Rng:
    """Deterministic splittable integer stream (splitmix64).

    Pure 64-bit integer arithmetic, so the same seed yields the same
    sequence on every platform and Python version.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        return self._draws(1, 0, _MASK64)[0]  # a span of 2^64 rejects no draw

    def _draws(self, count: int, lo: int, hi: int) -> list:
        """count uniform integers in the inclusive range [lo, hi]: the
        values, order and final state of count int_between calls, with the
        range checked and the rejection limit found once, before any draw."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        if span > 1 << 64:  # one 64-bit draw cannot cover it
            raise ValueError("range wider than 2^64")
        limit = (1 << 64) - ((1 << 64) % span)
        out, state = [], self._state
        while len(out) < count:
            state = (state + _GAMMA) & _MASK64
            u = _mix64(state)
            if u < limit:
                out.append(lo + u % span)
        self._state = state
        return out

    def int_between(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        return self._draws(1, lo, hi)[0]

    def coin(self) -> bool:
        return self.next_u64() & 1 == 1

    def child(self, *tags) -> "Rng":
        """Derive an independent stream keyed by the given tags."""
        h = self.next_u64()
        for tag in tags:
            if isinstance(tag, str):
                for byte in tag.encode("utf-8"):
                    h = _mix64(h ^ byte)
            else:
                h = _mix64(h ^ (int(tag) & _MASK64))
        return Rng(h)


# -- sampling ----------------------------------------------------------------

def _entries(rng: Rng, count: int, bound: int) -> list:
    # one batch of entries in [-bound, bound]; a bound below 1 is refused
    if bound < 1:
        raise ValueError("bound must be >= 1")
    return rng._draws(count, -bound, bound)


def _int_mat(flat: list, cols: int) -> Mat:
    """The matrix of integer entries in row-major order, cols to a row,
    built straight into Mat's canonical form: integer rows over 1."""
    if not flat or cols < 1:
        raise ValueError("matrix needs at least one row and one column")
    return _make(len(flat) // cols, cols, tuple(zip(*[iter(flat)] * cols)), 1)


def sample_int_mat(rng: Rng, rows: int, cols: int, bound: int) -> Mat:
    return _int_mat(_entries(rng, rows * cols, bound), cols)


def sample_skew(rng: Rng, n: int, bound: int) -> Mat:
    """Skew integer matrix; the entries above the diagonal are drawn row by row."""
    draws = iter(_entries(rng, n * (n - 1) // 2, bound))
    m = [0] * (n * n)
    for i in range(n):
        for j in range(i + 1, n):
            m[i * n + j] = v = next(draws)
            m[j * n + i] = -v
    return _int_mat(m, n)


def sample_gl(rng: Rng, n: int, bound: int) -> Mat:
    """Random integer matrix with nonzero determinant (rejection)."""
    for _ in range(_RETRY_CAP):
        g = sample_int_mat(rng, n, n, bound)
        if det(g) != 0:
            return g
    raise RuntimeError("degenerate rng")


def sample_sl(rng: Rng, n: int, bound: int) -> Mat:
    """Product of 2n random transvections I + c E_ij; determinant exactly 1.
    Each factor multiplies on the right, adding c times column i of the
    integer rows to column j."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if n == 1:
        return Mat.identity(1)
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i = rng.int_between(0, n - 1)
        j = rng.int_between(0, n - 2)
        if j >= i:
            j += 1
        c = rng.int_between(-bound, bound)
        for row in g:
            row[j] += c * row[i]
    return _int_mat([v for row in g for v in row], n)


def cayley(s: Mat) -> Mat:
    """Cayley transform (I - S)(I + S)^-1 of a skew matrix, as the one
    solve (I + S)^-1 (I - S): the two factors commute.

    Always defined over the rationals (det(I + S) >= 1 for skew S) and
    returns a special orthogonal matrix, exactly.
    """
    if not s.is_skew():
        raise ValueError("cayley needs a skew matrix")
    ident = Mat.identity(s.rows)
    return _solve(ident + s, ident - s)


def reflection(n: int) -> Mat:
    """diag(1, ..., 1, -1): the determinant -1 coset representative."""
    return Mat.diag([1] * (n - 1) + [-1])


def sample_orthogonal(rng: Rng, n: int, bound: int, det_sign: int = 1) -> Mat:
    """Random orthogonal matrix: Cayley of a random skew, times the
    reflection when det_sign = -1.  Orthogonality is exact."""
    if det_sign not in (1, -1):  # refused before any draw
        raise ValueError("det_sign must be +1 or -1")
    q = cayley(sample_skew(rng, n, bound))
    return q * reflection(n) if det_sign == -1 else q


def sample_group(alg: Algebra, rng: Rng, bound: int) -> GroupElem:
    """Random group element of the family; bound caps integer parameters."""
    n = alg.n
    fam = alg.family
    u = sample_int_mat(rng, n, 1, bound)
    if fam in ("io", "iso"):
        sign = -1 if fam == "io" and rng.coin() else 1
        return GroupElem(sample_orthogonal(rng, n, bound, sign), u, family=fam)
    if fam == "glvv":
        return GroupElem(sample_gl(rng, n, bound), u, sample_int_mat(rng, 1, n, bound))
    g = sample_sl(rng, n, bound) if fam == "isl" else sample_gl(rng, n, bound)
    return GroupElem(g, u, family=fam)


def sample_dual(alg: Algebra, rng: Rng, bound: int) -> DualPoint:
    """Random dual point of the family with integer coordinates."""
    n = alg.n
    fam = alg.family
    if fam in ("io", "iso"):
        return DualPoint(sample_skew(rng, n, bound), sample_int_mat(rng, 1, n, bound), family=fam)
    y = _entries(rng, n * n, bound)
    if fam == "isl":  # the last diagonal entry cancels the trace
        y[-1] = -sum(y[:-1:n + 1])
    wstar = sample_int_mat(rng, 1, n, bound)
    xi = sample_int_mat(rng, n, 1, bound) if fam == "glvv" else None
    return DualPoint(_int_mat(y, n), wstar, xi, fam)


# -- the coadjoint action -----------------------------------------------------

def _traceless(y: Mat) -> Mat:
    # project_traceless on y alone, so that coad builds one isl image
    return y - (y.trace() / y.rows) * Mat.identity(y.rows)


def project_traceless(l: DualPoint) -> DualPoint:
    """Projection onto the isl dual: y -> y - (tr(y)/n) I.

    The determinant semi-invariant does not see scalar shifts of y, so
    this is the well-defined quotient representative; a traceless point
    is left as it is."""
    return DualPoint(_traceless(l.y), l.wstar, l.xi, "isl")


def coad(b: GroupElem, l: DualPoint) -> DualPoint:
    """Composite of the three factor actions, in the fixed factorization:

        (g, 0, 0):  (y, w, xi) -> (g y g^-1, w g^-1, g xi)
        (e, 0, v):  (y, w, xi) -> (y - xi v, w, xi)
        (e, u, 0):  (y, w, xi) -> (y + u w, w, xi)

    The image is a point of l's family.  For isl the trace is projected
    out of the aff image's y, which is the isl coadjoint action.  The
    element's group is not tested, but an image that leaves the family's
    dual (a non-orthogonal g on an io point, say) fails the point's checks.
    """
    if b.n != l.n:
        raise ValueError("size mismatch between element and point")
    gi = _g_inverse(b)
    w = l.wstar * gi
    y = b.g * l.y * gi + b.u * w
    xi = None  # aff/isl: _third fills the zero xi
    if l.family not in ("aff", "isl"):
        xi = b.g * l.xi
        y = y - xi * b.vstar
    return DualPoint(_traceless(y) if l.family == "isl" else y, w, xi, l.family)


# the per-family names, still imported by the benchmark harness
GroupElemB = GroupElem
coad_A = coad_B = coad_C = coad


# -- triples, brackets, the involution and the embedding ---------------------

def triple_zero(n: int):
    return (Mat.zero(n, n), Mat.zero(n, 1), Mat.zero(1, n))


def sample_triple(rng: Rng, n: int, bound: int):
    return (sample_int_mat(rng, n, n, bound), sample_int_mat(rng, n, 1, bound),
            sample_int_mat(rng, 1, n, bound))


def bracket_b(t1, t2):
    """Bracket of the glvv algebra on (x, u, vstar) triples:

        [(x1,u1,v1), (x2,u2,v2)] = ([x1,x2], x1 u2 - x2 u1, -v2 x1 + v1 x2)

    The aff family is the sub-case vstar = 0 and the orthogonal ones the
    theta-fixed triples (skew x, vstar = -u^T), so it is the only bracket.
    """
    x1, u1, v1 = t1
    x2, u2, v2 = t2
    return (x1 * x2 - x2 * x1, x1 * u2 - x2 * u1, -(v2 * x1) + v1 * x2)


def theta(t):
    """The involution (x, u, vstar) -> (-x^T, -vstar^T, -u^T).

    Order 2, a bracket automorphism; its fixed set is exactly the embedded
    orthogonal algebra {(x, u, -u^T) : x skew}.
    """
    x, u, v = t
    return (-x.transpose(), -v.transpose(), -u.transpose())


def embed_M(t) -> Mat:
    """Bordered-matrix embedding (x, u, vstar) -> [[x, u], [vstar, 0]]."""
    x, u, v = t
    return bordered(x, u, v, 0)


def k_bracket(p: Mat, q: Mat) -> Mat:
    """Contracted bracket on gl(n+1) split into block-diagonal and border
    parts (the last column and row off the corner): the full commutator
    minus the border-border commutator, so the border brackets to zero."""
    if p.rows != q.rows or not p.is_square() or not q.is_square():
        raise ValueError("k_bracket needs equal square matrices")
    m = p.rows - 1

    def border(x):  # x with its block-diagonal part and its corner zeroed
        a, d = x.num_den()
        return Mat.from_num_den([[v if (i == m) != (j == m) else 0 for j, v in enumerate(row)]
                                 for i, row in enumerate(a)], d)
    p1, q1 = border(p), border(q)
    return (p * q - q * p) - (p1 * q1 - q1 * p1)


# -- algebra bases, the commutator form and the index -------------------------

def algebra_basis(alg: Algebra):
    """Fixed ordered basis as triples (x, u, vstar): matrix part (units in
    row-major order; traceless units plus consecutive-diagonal differences
    for isl; E_ij - E_ji, i < j, lexicographic for io/iso), then the V part
    (0, e_i, vstar) with GroupElem's vstar rule _third, so it spans the Lie
    algebra of the family's group (theta-fixed on io/iso), then V* for glvv."""
    n, unit, fam = alg.n, Mat.unit, alg.family
    col, row, sq = Mat.zero(n, 1), Mat.zero(1, n), Mat.zero(n, n)
    if fam in ("aff", "glvv"):
        xs = [unit(n, i, j) for i in range(n) for j in range(n)]
    elif fam == "isl":
        xs = ([unit(n, i, j) for i in range(n) for j in range(n) if i != j]
              + [unit(n, i, i) - unit(n, i + 1, i + 1) for i in range(n - 1)])
    else:
        xs = [unit(n, i, j) - unit(n, j, i) for i in range(n) for j in range(i + 1, n)]
    vs = [Mat.basis_col(n, i) for i in range(n)]
    out = [(x, col, row) for x in xs] + [(sq, e, _third(fam, e, None, GroupElem)) for e in vs]
    if fam == "glvv":
        out += [(sq, col, Mat.basis_row(n, i)) for i in range(n)]
    return out


@cache
def _structure_table(alg: Algebra) -> tuple:
    """(dim, table): table[c] holds each nonzero coefficient of coordinate c
    of a point in <l, [b_i, b_j]>, i < j, as (i, j, integer), built once
    per family and size, so a form is gathered from the nonzero
    coordinates of its point alone.

    Through embed_M, glvv is gl(n+1) with e_k = E_kn, e^k = E_nk (0-based)
    and V, V* commuting, so its constants are [E_ij, E_kl] = d_jk E_il -
    d_li E_kj unless both units lie on the border; this gives
    [E_ij, e_k] = d_jk e_i and [E_ij, e^k] = -d_ki e^j.  A point pairs as
    tr(L X) with L = embed_M((y, xi, wstar)), so E_ab reads L[b][a], the
    coordinate b (n + 1) + a."""
    n, m = alg.n, alg.n + 1
    units = []
    for t in algebra_basis(alg):
        a, d = embed_M(t).num_den()
        if d != 1:
            raise ExactnessError("algebra basis entries must be integers")
        units.append([(i, j, c) for i, row in enumerate(a) for j, c in enumerate(row) if c])
    table = [[] for _ in range(m * m)]
    for p, up in enumerate(units):
        for q in range(p + 1, len(units)):
            acc = Counter()
            for i, j, cp in up:
                for k, l, cq in units[q]:
                    if n in (i, j) and n in (k, l):
                        continue  # V and V* commute
                    if j == k:
                        acc[l * m + i] += cp * cq
                    if l == i:
                        acc[j * m + k] -= cp * cq
            for c, v in acc.items():
                if v:
                    table[c].append((p, q, v))
    return len(units), tuple(map(tuple, table))


def _form_rows(alg: Algebra, point: DualPoint):
    """(dim, D, rows): M(l)_ij = <l, [b_i, b_j]> over the fixed basis as
    rows of {j: nonzero integer} over one denominator D, summed over the
    structure table at the nonzero coordinates of l."""
    if point.n != alg.n:
        raise ValueError("size mismatch between algebra and point")
    d, table = _structure_table(alg)
    a, den = embed_M((point.y, point.xi, point.wstar)).num_den()
    acc = {}
    for x, terms in zip([v for row in a for v in row], table):
        if x:
            for i, j, v in terms:
                acc[i, j] = acc.get((i, j), 0) + v * x
    rows = [{} for _ in range(d)]
    for (i, j), s in acc.items():
        if s:
            rows[i][j] = s
            rows[j][i] = -s
    return d, den, rows


def commutator_form(alg: Algebra, point: DualPoint) -> Mat:
    """Skew matrix M(l)_ij = <l, [b_i, b_j]> over the fixed basis: the
    gathered rows, filled in."""
    d, den, rows = _form_rows(alg, point)
    return Mat.from_num_den([[row.get(j, 0) for j in range(d)] for row in rows], den)


def _form_rank(alg: Algebra, point: DualPoint) -> int:
    """rank M(l) by the sparse elimination of the gathered rows: no dense
    matrix is built, and D scales every entry alike."""
    return _sparse_rank(_form_rows(alg, point)[2])


def index_of(alg: Algebra) -> int:
    """dim minus the rank of the commutator form at one point: the family's
    view of the base pair (J, e_n*), with y = J - J^T on io/iso and
    xi = e_1 on glvv.  The rank at any point bounds the generic rank from
    below, so the value bounds the index from above; at this point it
    reaches the index of every family."""
    n, fam = alg.n, alg.family
    base = CanonicalPair.of_size(n)
    y = base.J - base.J.transpose() if fam in ("io", "iso") else base.J
    xi = Mat.basis_col(n, 0) if fam == "glvv" else None
    return alg.dim - _form_rank(alg, DualPoint(y, base.enstar, xi, fam))


# -- JSON codecs --------------------------------------------------------------

@cache
def _json_keys(record, family: str) -> tuple:
    """(read, refused): the record's JSON keys on the family -- its fields,
    the third on glvv alone, an aff/isl point's covector as vstar -- and the
    other fields and vstar, which the reader refuses as it would drop them."""
    fields = record.__slots__[:3]
    read = fields if family == "glvv" else fields[:2]
    if record is DualPoint and family in ("aff", "isl"):
        read = (fields[0], "vstar")
    return read, tuple(key for key in dict.fromkeys(fields[::-1] + ("vstar",))
                       if key not in read)


def _to_json(alg: Algebra, value) -> dict:
    if (value.family, value.n) != (alg.family, alg.n):
        raise ValueError("the %s is no %s %s of size %d"
                         % (value._noun, alg.family, value._kind, alg.n))
    read, _ = _json_keys(type(value), alg.family)
    return {"algebra": alg.family, "n": alg.n,
            **{key: mat_to_json(m) for key, m in zip(read, value._fields())}}


def _from_json(record, obj):
    try:
        alg = Algebra(str(obj["algebra"]), json_size(obj, "n"))
    except (KeyError, TypeError) as exc:
        raise ValueError("%s JSON needs an algebra family and a size n" % record._doc) from exc
    read, refused = _json_keys(record, alg.family)
    for key in refused:
        if key in obj:
            raise ValueError("%s %s JSON takes no %r component" % (alg.family, record._doc, key))
    try:
        value = record(*[mat_from_json(obj[key]) for key in read], family=alg.family)
    except KeyError as exc:
        raise ValueError("%s JSON is missing a component" % record._doc) from exc
    if value.n != alg.n:
        raise ValueError("%s size does not match n" % record._kind)
    return alg, value


def dual_to_json(alg: Algebra, point: DualPoint) -> dict:
    """JSON of a point of the algebra's family and size, without a filled xi."""
    return _to_json(alg, point)


def dual_from_json(obj):
    """Parse a dual point; returns (Algebra, DualPoint)."""
    return _from_json(DualPoint, obj)


def group_to_json(alg: Algebra, elem: GroupElem) -> dict:
    """JSON of an element of the algebra's group and size, without a filled vstar."""
    return _to_json(alg, elem)


def group_from_json(obj):
    """Parse a group element; returns (Algebra, GroupElem)."""
    return _from_json(GroupElem, obj)
