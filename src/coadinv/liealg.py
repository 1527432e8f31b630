"""The five inhomogeneous algebras as constrained views of one triple.

Families (the "n" is the matrix size everywhere):

    aff   gl(n) acting on column vectors
    isl   the traceless subalgebra of aff
    glvv  gl(n) acting on V + V*
    io    so(n) acting on V, full orthogonal group upstairs
    iso   same algebra, special orthogonal group upstairs

Every family lives inside glvv, so there is one dual-point type, one
group-element type and one coadjoint action.  A DualPoint is a glvv dual
triple (y, wstar, xi) tagged with its family, whose constraints it checks
when built: xi = 0 for aff and isl, also tr(y) = 0 for isl, and y skew with
xi = -wstar^T for io and iso (the points fixed by the involution theta).
A GroupElem is a glvv element (g, u, vstar): vstar = 0 for aff and isl,
and (g, u, -u^T) with g orthogonal for io and iso.  The bracket, the
pairing and the commutator form are those of glvv throughout.

Group elements abbreviate the fixed factorization
(e, u, 0) * (e, 0, vstar) * (g, 0, 0); the action and the adjoint flow
through it, and the product law is
(g1, u1, v1) (g2, u2, v2) = (g1 g2, u1 + g1 u2, v1 + v2 g1^-1).

The module also provides deterministic seeded sampling, the
commutator-form index, the minus-transpose involution of the glvv algebra
and its bordered-matrix embedding into gl(n+1).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache

from .charpoly import bordered
from .exactmat import (ExactnessError, Mat, Rat, Record, det, inverse, json_size,
                       mat_from_json, mat_to_json, rank, scalar)

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


class DualPoint(Record):
    """A value (y, wstar, xi) of the glvv dual, with no arithmetic -- y is
    n x n, wstar 1 x n, xi n x 1 -- tagged with the family whose dual it
    lies in.  A missing xi is the family's fill, -wstar^T for io/iso and
    zero otherwise.  The family's constraints are checked here, once."""

    __slots__ = ("y", "wstar", "xi", "family")

    def __init__(self, y: Mat, wstar: Mat, xi: Mat = None, family: str = "glvv"):
        if family not in FAMILIES:
            raise ValueError("unknown algebra family %r" % (family,))
        if not y.is_square():
            raise ValueError("y must be square")
        n = y.rows
        _want_shape(wstar, 1, n, "wstar")
        orth = family in ("io", "iso")
        # the fill is right by construction; only a supplied xi is checked
        supplied = xi is not None
        if supplied:
            _want_shape(xi, n, 1, "xi")
        else:
            xi = -wstar.transpose() if orth else Mat.zero(n, 1)
        if supplied and family in ("aff", "isl") and xi != Mat.zero(n, 1):
            raise ValueError("%s point needs xi = 0" % family)
        if family == "isl" and y.trace() != 0:
            raise ValueError("isl point needs tr(y) = 0")
        if orth:
            if not y.is_skew():
                raise ValueError("y must be skew-symmetric")
            if supplied and xi != -wstar.transpose():
                raise ValueError("%s point needs xi = -wstar^T" % family)
        self._set(y, wstar, xi, family)

    @property
    def n(self) -> int:
        return self.y.rows


class GroupElem(Record):
    """Element (g, u, vstar) of the glvv group, g invertible.  The aff and
    isl groups are the elements with vstar = 0 (det g = 1 for isl); the
    orthogonal groups are the elements built by orthogonal()."""

    __slots__ = ("g", "u", "vstar")

    def __init__(self, g: Mat, u: Mat, vstar: Mat):
        if not g.is_square():
            raise ValueError("g must be square")
        n = g.rows
        _want_shape(u, n, 1, "u")
        _want_shape(vstar, 1, n, "vstar")
        if det(g) == 0:
            raise ValueError("singular")
        self._set(g, u, vstar)

    @staticmethod
    def orthogonal(g: Mat, u: Mat) -> "GroupElem":
        """The io/iso element (g, u), embedded as (g, u, -u^T); needs g^T g = I."""
        if g.transpose() * g != Mat.identity(g.rows):
            raise ValueError("non-orthogonal")
        return GroupElem(g, u, -u.transpose())

    @property
    def n(self) -> int:
        return self.g.rows


def compose(b1: GroupElem, b2: GroupElem) -> GroupElem:
    return GroupElem(b1.g * b2.g, b1.u + b1.g * b2.u,
                     b1.vstar + b2.vstar * inverse(b1.g))


# -- deterministic splittable randomness ------------------------------------

_MASK64 = (1 << 64) - 1


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
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        return _mix64(self._state)

    def int_between(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        if span > 1 << 64:  # one 64-bit draw cannot cover it
            raise ValueError("range wider than 2^64")
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + (u % span)

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

def sample_int_mat(rng: Rng, rows: int, cols: int, bound: int) -> Mat:
    if bound < 1:
        raise ValueError("bound must be >= 1")
    return Mat.from_num_den([[rng.int_between(-bound, bound) for _ in range(cols)]
                             for _ in range(rows)], 1)


def sample_skew(rng: Rng, n: int, bound: int) -> Mat:
    if bound < 1:
        raise ValueError("bound must be >= 1")
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = v = rng.int_between(-bound, bound)
            m[j][i] = -v
    return Mat.from_num_den(m, 1)


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
    return Mat.from_num_den(g, 1)


def cayley(s: Mat) -> Mat:
    """Cayley transform (I - S)(I + S)^-1 of a skew matrix.

    Always defined over the rationals (det(I + S) >= 1 for skew S) and
    returns a special orthogonal matrix, exactly.
    """
    if not s.is_skew():
        raise ValueError("cayley needs a skew matrix")
    ident = Mat.identity(s.rows)
    return (ident - s) * inverse(ident + s)


def reflection(n: int) -> Mat:
    """diag(1, ..., 1, -1): the determinant -1 coset representative."""
    return Mat.diag([1] * (n - 1) + [-1])


def sample_orthogonal(rng: Rng, n: int, bound: int, det_sign: int = 1) -> Mat:
    """Random orthogonal matrix: Cayley of a random skew, times the
    reflection when det_sign = -1.  Orthogonality is exact."""
    q = cayley(sample_skew(rng, n, bound))
    if det_sign == -1:
        q = q * reflection(n)
    elif det_sign != 1:
        raise ValueError("det_sign must be +1 or -1")
    return q


def sample_group(alg: Algebra, rng: Rng, bound: int) -> GroupElem:
    """Random group element of the family; bound caps integer parameters."""
    n = alg.n
    fam = alg.family
    u = sample_int_mat(rng, n, 1, bound)
    if fam in ("io", "iso"):
        sign = -1 if fam == "io" and rng.coin() else 1
        return GroupElem.orthogonal(sample_orthogonal(rng, n, bound, sign), u)
    if fam == "glvv":
        return GroupElem(sample_gl(rng, n, bound), u, sample_int_mat(rng, 1, n, bound))
    g = sample_sl(rng, n, bound) if fam == "isl" else sample_gl(rng, n, bound)
    return GroupElem(g, u, Mat.zero(1, n))


def sample_dual(alg: Algebra, rng: Rng, bound: int) -> DualPoint:
    """Random dual point of the family with integer coordinates."""
    n = alg.n
    fam = alg.family
    if fam in ("io", "iso"):
        return DualPoint(sample_skew(rng, n, bound), sample_int_mat(rng, 1, n, bound), family=fam)
    y = sample_int_mat(rng, n, n, bound)
    if fam == "isl":
        a = [list(row) for row in y.num_den()[0]]
        a[n - 1][n - 1] = -sum(a[i][i] for i in range(n - 1))
        y = Mat.from_num_den(a, 1)
    wstar = sample_int_mat(rng, 1, n, bound)
    xi = sample_int_mat(rng, n, 1, bound) if fam == "glvv" else None
    return DualPoint(y, wstar, xi, fam)


# -- the coadjoint action -----------------------------------------------------

def project_traceless(l: DualPoint) -> DualPoint:
    """Projection onto the isl dual: y -> y - (tr(y)/n) I.

    The determinant semi-invariant does not see scalar shifts of y, so
    this is the well-defined quotient representative; a traceless point
    is left as it is."""
    n = l.n
    return DualPoint(l.y - (l.y.trace() / n) * Mat.identity(n), l.wstar, l.xi, "isl")


def coad(b: GroupElem, l: DualPoint) -> DualPoint:
    """Composite of the three factor actions, in the fixed factorization:

        (g, 0, 0):  (y, w, xi) -> (g y g^-1, w g^-1, g xi)
        (e, 0, v):  (y, w, xi) -> (y - xi v, w, xi)
        (e, u, 0):  (y, w, xi) -> (y + u w, w, xi)

    The image is a point of l's family.  For isl the aff image is
    projected onto the isl dual, which is the isl coadjoint action.  The
    element's group is not tested, but an image that leaves the family's
    dual (a non-orthogonal g on an io point, say) fails the point's checks.
    """
    if b.n != l.n:
        raise ValueError("size mismatch between element and point")
    gi = inverse(b.g)
    w = l.wstar * gi
    xi = b.g * l.xi
    y = b.g * l.y * gi - xi * b.vstar + b.u * w
    if l.family == "isl":
        return project_traceless(DualPoint(y, w, xi, "aff"))
    return DualPoint(y, w, xi, l.family)


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

    The aff and orthogonal families are the sub-cases with vstar = 0
    (and skew x for the latter), so this is the only bracket needed.
    """
    x1, u1, v1 = t1
    x2, u2, v2 = t2
    return (x1 * x2 - x2 * x1, x1 * u2 - x2 * u1, -(v2 * x1) + v1 * x2)


def pairing(l: DualPoint, t) -> Rat:
    """<(y, wstar, xi), (x, u, vstar)> = tr(y x) + wstar u + vstar xi."""
    x, u, v = t
    return (l.y * x).trace() + scalar(l.wstar * u) + scalar(v * l.xi)


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
    core, edge = Mat.diag([1] * (p.rows - 1) + [0]), Mat.unit(p.rows, p.rows - 1, p.rows - 1)
    p1, q1 = (core * x * edge + edge * x * core for x in (p, q))
    return (p * q - q * p) - (p1 * q1 - q1 * p1)


# -- algebra bases, the commutator form and the index -------------------------

def algebra_basis(alg: Algebra):
    """Fixed ordered basis as triples: matrix part (units in row-major
    order; traceless units plus consecutive-diagonal differences for isl;
    E_ij - E_ji, i < j, lexicographic for the orthogonal families), then
    the V part e_1..e_n, then the V* part for glvv."""
    n, unit = alg.n, Mat.unit
    col, row, sq = Mat.zero(n, 1), Mat.zero(1, n), Mat.zero(n, n)
    if alg.family in ("aff", "glvv"):
        xs = [unit(n, i, j) for i in range(n) for j in range(n)]
    elif alg.family == "isl":
        xs = ([unit(n, i, j) for i in range(n) for j in range(n) if i != j]
              + [unit(n, i, i) - unit(n, i + 1, i + 1) for i in range(n - 1)])
    else:
        xs = [unit(n, i, j) - unit(n, j, i) for i in range(n) for j in range(i + 1, n)]
    out = [(x, col, row) for x in xs] + [(sq, Mat.basis_col(n, i), row) for i in range(n)]
    if alg.family == "glvv":
        out += [(sq, col, Mat.basis_row(n, i)) for i in range(n)]
    return out


@cache
def _structure_table(alg: Algebra) -> tuple:
    """(dim, entries): each nonzero <l, [b_i, b_j]>, i < j, as (i, j, terms)
    with integer (coordinate, coefficient) terms, built once per family
    and size.

    Through embed_M, glvv is gl(n+1) with e_k = E_kn, e^k = E_nk (0-based)
    and V, V* commuting, so its constants are [E_ij, E_kl] = d_jk E_il -
    d_li E_kj unless both units lie on the border; this gives
    [E_ij, e_k] = d_jk e_i and [E_ij, e^k] = -d_ki e^j.  A point pairs as
    tr(L X) with L = embed_M((y, xi, wstar)), so E_ab reads L[b][a]."""
    n, m = alg.n, alg.n + 1
    units = []
    for t in algebra_basis(alg):
        a, d = embed_M(t).num_den()
        if d != 1:
            raise ExactnessError("algebra basis entries must be integers")
        units.append([(i, j, c) for i, row in enumerate(a) for j, c in enumerate(row) if c])
    entries = []
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
            terms = tuple((c, v) for c, v in acc.items() if v)
            if terms:
                entries.append((p, q, terms))
    return len(units), tuple(entries)


def commutator_form(alg: Algebra, point: DualPoint) -> Mat:
    """Skew matrix M(l)_ij = <l, [b_i, b_j]> over the fixed basis: each
    entry is an integer sum over the structure table, gathered from the
    coordinates of l over one denominator."""
    if point.n != alg.n:
        raise ValueError("size mismatch between algebra and point")
    d, entries = _structure_table(alg)
    a, den = embed_M((point.y, point.xi, point.wstar)).num_den()
    coords = [v for row in a for v in row]
    m = [[0] * d for _ in range(d)]
    for i, j, terms in entries:
        m[i][j] = s = sum([v * coords[c] for c, v in terms])
        m[j][i] = -s
    return Mat.from_num_den(m, den)


def index_of(alg: Algebra, samples: int, rng: Rng, bound: int = 3) -> int:
    """dim minus the maximal rank of the commutator form over random
    integer dual points."""
    if samples < 1:
        raise ValueError("need at least one sample")
    best = 0
    dim = alg.dim
    for _ in range(samples):
        point = sample_dual(alg, rng, bound)
        best = max(best, rank(commutator_form(alg, point)))
        if dim - best == 0:
            break
    return dim - best


# -- adjoint action on triples (independent check of the coadjoint) ----------

def ad_translation(u: Mat, vstar: Mat, t):
    """Ad of the translation (e, u, vstar) on a triple: exact nilpotent
    series id + ad Z + (1/2) ad Z ad Z for Z = (0, u, vstar)."""
    z = (Mat.zero(u.rows, u.rows), u, vstar)
    first = bracket_b(z, t)
    second = bracket_b(z, first)
    return tuple(a + b + Fraction(1, 2) * c for a, b, c in zip(t, first, second))


def Ad(b: GroupElem, t):
    """Adjoint action of (g, u, vstar) through the fixed factorization."""
    gi = inverse(b.g)
    x, uu, vv = t
    t = (b.g * x * gi, b.g * uu, vv * gi)
    t = ad_translation(Mat.zero(b.n, 1), b.vstar, t)
    return ad_translation(b.u, Mat.zero(1, b.n), t)


# -- JSON codecs --------------------------------------------------------------

def algebra_from_json(obj) -> Algebra:
    try:
        return Algebra(str(obj["algebra"]), json_size(obj, "n"))
    except (KeyError, TypeError) as exc:
        raise ValueError("point JSON needs an algebra family and a size n") from exc


def _covector_key(family: str) -> str:
    # the aff/isl covector keeps its historical JSON name
    return "vstar" if family in ("aff", "isl") else "wstar"


def dual_to_json(alg: Algebra, point: DualPoint) -> dict:
    """JSON of a point of the algebra's family and size; the filled xi of
    aff/isl/io/iso is left out."""
    if (point.family, point.n) != (alg.family, alg.n):
        raise ValueError("the point is no %s point of size %d" % (alg.family, alg.n))
    out = {"algebra": alg.family, "n": alg.n, "y": mat_to_json(point.y),
           _covector_key(alg.family): mat_to_json(point.wstar)}
    if alg.family == "glvv":
        out["xi"] = mat_to_json(point.xi)
    return out


def dual_from_json(obj):
    """Parse a dual point; returns (Algebra, DualPoint)."""
    alg = algebra_from_json(obj)
    fam = alg.family
    # a component the family fills, or its covector under the other name,
    # would be dropped unread
    read = ("wstar", "xi") if fam == "glvv" else (_covector_key(fam),)
    for key in ("xi", "wstar", "vstar"):
        if key in obj and key not in read:
            raise ValueError("%s point JSON takes no %r component" % (fam, key))
    try:
        y = mat_from_json(obj["y"])
        wstar = mat_from_json(obj[_covector_key(fam)])
        xi = mat_from_json(obj["xi"]) if fam == "glvv" else None
        point = DualPoint(y, wstar, xi, fam)
    except KeyError as exc:
        raise ValueError("point JSON is missing a component") from exc
    if point.n != alg.n:
        raise ValueError("point size does not match n")
    return alg, point


def group_to_json(alg: Algebra, elem: GroupElem) -> dict:
    """JSON of an element of the algebra's group, refused as group_from_json
    refuses it.  Outside glvv its vstar must be the family's fill, which is
    left out: -u^T for io/iso, else 0."""
    fill = -elem.u.transpose() if alg.family in ("io", "iso") else Mat.zero(1, elem.n)
    if elem.n != alg.n or alg.family != "glvv" and elem.vstar != fill:
        raise ValueError("the element is no %s group element of size %d" % (alg.family, alg.n))
    out = {"algebra": alg.family, "n": alg.n,
           "g": mat_to_json(elem.g), "u": mat_to_json(elem.u)}
    if alg.family == "glvv":
        out["vstar"] = mat_to_json(elem.vstar)
    group_from_json(out)  # the reader's checks of group membership
    return out


def group_from_json(obj):
    alg = algebra_from_json(obj)
    if alg.family != "glvv" and "vstar" in obj:
        raise ValueError("%s group JSON takes no 'vstar' component" % alg.family)
    try:
        g = mat_from_json(obj["g"])
        u = mat_from_json(obj["u"])
        if alg.family == "glvv":
            elem = GroupElem(g, u, mat_from_json(obj["vstar"]))
        elif alg.family in ("io", "iso"):
            elem = GroupElem.orthogonal(g, u)
        else:
            elem = GroupElem(g, u, Mat.zero(1, g.rows))
    except KeyError as exc:
        raise ValueError("group JSON is missing a component") from exc
    if elem.n != alg.n:
        raise ValueError("group element size does not match n")
    if alg.family in ("isl", "iso") and det(g) != 1:
        raise ValueError("an %s group element needs det g = 1" % alg.family)
    return alg, elem
