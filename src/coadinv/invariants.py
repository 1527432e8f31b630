"""Generator polynomials of the coadjoint invariant algebras, the
parameter slices used to identify them, the open-orbit normal form and the
fiber projection.

Degree facts callers of exact interpolation rely on: the determinant
semi-invariant has degree n(n+1)/2, the glvv generators have degree k + 2,
the orthogonal generators degree 2k + 2, and the odd-size exotic generator
degree ell + 1.

Sign conventions are never assumed: every slice comparison and the square
of the exotic generator carry a frozen sign constant, pinned once by the
grid oracle in the verify module and locked by regression tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import mul

from .charpoly import _char_int, bordered, bordered_gradients
from .exactmat import ExactnessError, Mat, Rat, Record, det, pfaffian
# project_traceless is re-exported: it is part of this module's interface
from .liealg import (_RETRY_CAP, Algebra, DualPoint, GroupElem, Rng, coad,
                     project_traceless, sample_dual)

# Frozen sign conventions, resolved by verify.resolve_sign over dense
# integer grids and locked by regression tests.  All four are forced by
# the Pfaffian convention Pf([[0, a], [-a, 0]]) = a together with the
# leading minus in the orthogonal generators.
F_SLICE_SIGN = 1        # determinant semi-invariant vs the slice monomial
PSI_SLICE_SIGN = -1     # psi_k on the block slice vs a0^2 sigma_k, every (n, k)
EXOTIC_SLICE_SIGN = -1  # exotic generator on the block slice vs a0 a_1 ... a_l
EXOTIC_SQUARE_SIGN = -1  # exotic generator squared vs psi_ell


class NotInOpenOrbit(ValueError):
    """Raised when a point with vanishing determinant semi-invariant is
    handed to the open-orbit normal form."""


# -- canonical pair -----------------------------------------------------------

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
    def of_size(n: int) -> "CanonicalPair":
        return CanonicalPair(lower_shift(n), Mat.basis_row(n, n - 1))


# -- affine covariants and the determinant semi-invariant ---------------------

def _entry(values, k: int, what: str = "generator"):
    """Entry k of an all-index tuple: the one range check of every
    single-index generator and covariant."""
    if not 0 <= k < len(values):
        raise ValueError("%s index out of range" % what)
    return values[k]


def _covariants(l: DualPoint) -> tuple:
    """The row covariants off one integer trace recursion.  For y = A / d
    and wstar = w / dw: the pairs (w B_k(A), d^k dw), k = 0..n-1, whose
    quotients are wstar B_k(y), the integers p_k(A) = d^k p_k(y), and d.
    It runs on A^T: B_k(A^T) = B_k(A)^T, so w B_k(A) is B_k(A^T) w^T."""
    a, d = l.y.num_den()
    (w,), dw = l.wstar.num_den()
    p, B = _char_int(tuple(zip(*a)))
    return [(tuple([sum(map(mul, row, w)) for row in b]), d ** k * dw)
            for k, b in enumerate(B)], p, d


def phi_rows(l: DualPoint) -> list:
    """All row covariants from one characteristic recursion, top index first."""
    return [Mat.from_num_den([r], e) for r, e in _covariants(l)[0][::-1]]


def phi_covariant(k: int, l: DualPoint) -> Mat:
    """Row covariant wstar B_k(y), 0 <= k <= n-1: a view of phi_rows."""
    return _entry(phi_rows(l)[::-1], k, "covariant")


def f_invariant(l: DualPoint) -> Rat:
    """Determinant of the stacked row covariants, highest index on top.

    Degree n(n+1)/2.  Multiplying by det(g) undoes the coadjoint action:
    f(coad(g,u) l) * det(g) = f(l).
    """
    rows = _covariants(l)[0][::-1]
    # each row's denominator factors out of the determinant
    return det(Mat.from_num_den([r for r, _ in rows], 1)) / prod(e for _, e in rows)


def krylov_rows(l: DualPoint) -> tuple:
    """The raw rows wstar, wstar y, ..., wstar y^(n-1)."""
    rows = [l.wstar]
    for _ in range(l.n - 1):
        rows.append(rows[-1] * l.y)
    return tuple(rows)


def f_krylov(l: DualPoint) -> Rat:
    """Same value through the raw rows wstar y^(n-1), ..., wstar y, wstar.

    The change of basis between the two row families is unitriangular, so
    the determinants agree exactly; keeping both paths makes the identity
    checkable.
    """
    return det(Mat.block([[r] for r in reversed(krylov_rows(l))]))


def f_bar(l: DualPoint) -> Rat:
    """Restriction of the determinant semi-invariant to traceless y."""
    if l.y.trace() != 0:
        raise ValueError("f_bar needs tr(y) = 0")
    return f_invariant(l)


# -- glvv generators -----------------------------------------------------------

def F_all(l: DualPoint) -> tuple:
    """All n generators wstar B_k(y) xi from one characteristic recursion,
    index 0 first; F_k has degree k + 2."""
    (x,), dx = l.xi.transpose().num_den()
    return tuple(Fraction(sum(map(mul, r, x)), e * dx) for r, e in _covariants(l)[0])


def F_bordered_all(l: DualPoint) -> tuple:
    """The same generators through the bordered coefficients: p_{k+2} of
    [[y, xi], [wstar, 0]] minus p_{k+2}(y); never reads B_k(y)."""
    return bordered_gradients(l.y, l.xi, l.wstar)


def F_invariant(k: int, l: DualPoint) -> Rat:
    """Generator F_k, 0 <= k <= n-1: a view of F_all."""
    return _entry(F_all(l), k)


def F_bordered(k: int, l: DualPoint) -> Rat:
    """Generator F_k through the bordered path: a view of F_bordered_all."""
    return _entry(F_bordered_all(l), k)


def pi_projection(l: DualPoint) -> Mat:
    """Fiber projection: the column whose (n-k)-th coordinate is the k-th
    generator, i.e. entries (F_{n-1}, ..., F_0) top to bottom."""
    return Mat.col(F_all(l)[::-1])


# -- orthogonal generators ------------------------------------------------------

def psi_all(l: DualPoint) -> tuple:
    """Generators psi_k = -wstar B_{2k}(y) wstar^T, k = 0..ell (2k <= n-1),
    from one characteristic recursion; psi_k has degree 2k + 2."""
    (w,), dw = l.wstar.num_den()
    return tuple(Fraction(-sum(map(mul, r, w)), e * dw) for r, e in _covariants(l)[0][::2])


def psi_bordered_all(l: DualPoint) -> tuple:
    """The same generators through the bordered coefficients: p_{2k+2} of
    [[y, -wstar^T], [wstar, 0]] minus p_{2k+2}(y); never reads B_k(y)."""
    return bordered_gradients(l.y, -l.wstar.transpose(), l.wstar)[::2]


def psi_invariant(k: int, l: DualPoint) -> Rat:
    """Generator psi_k, 0 <= 2k <= n-1: a view of psi_all."""
    return _entry(psi_all(l), k)


def psi_bordered(k: int, l: DualPoint) -> Rat:
    """Generator psi_k, bordered path: a view of psi_bordered_all."""
    return _entry(psi_bordered_all(l), k)


def exotic_phi(l: DualPoint) -> Rat:
    """Odd-size exotic generator: the Pfaffian of the bordered skew matrix
    [[y, -wstar^T], [wstar, 0]].

    Linear in wstar, degree ell + 1 overall.  Its square is
    EXOTIC_SQUARE_SIGN times psi_ell; under the orthogonal action it picks
    up det(g)."""
    if l.n % 2 == 0:
        raise ValueError("exotic invariant only for odd n")
    return pfaffian(bordered(l.y, -l.wstar.transpose(), l.wstar, 0))


def generators(l: DualPoint) -> list:
    """The generator table of the point's family, evaluated at the point:
    [(name, k, value), ...] with k = None for f, fbar and phi.

    aff has f, isl fbar, glvv F_0..F_{n-1} and io psi_0..psi_ell.  iso
    has psi_0..psi_ell at even n; at odd n phi takes the place of psi_ell,
    which is EXOTIC_SQUARE_SIGN phi^2 there.  phi flips sign under a
    reflection, so it is no generator of io."""
    fam = l.family
    if fam == "aff":
        return [("f", None, f_invariant(l))]
    if fam == "isl":
        return [("fbar", None, f_bar(l))]
    if fam == "glvv":
        return [("F", k, v) for k, v in enumerate(F_all(l))]
    psis = [("psi", k, v) for k, v in enumerate(psi_all(l))]
    if fam == "iso" and l.n % 2 == 1:
        return psis[:-1] + [("phi", None, exotic_phi(l))]
    return psis


def pfaff_vector(y: Mat) -> Mat:
    """The column pf(y) of an odd skew matrix, defined by
    wstar pf(y) = exotic_phi(y, wstar) for every covector; computed by
    evaluating at the basis covectors.  Covariance:
    pf(g y g^-1) = det(g) g pf(y) for orthogonal g."""
    if not y.is_skew():
        raise ValueError("pfaffian vector needs a skew matrix")
    n = y.rows
    if n % 2 == 0:
        raise ValueError("pfaffian vector only for odd n")
    return Mat.col([exotic_phi(DualPoint(y, Mat.basis_row(n, i), family="iso"))
                    for i in range(n)])


# -- parameter slices ------------------------------------------------------------

def _sparse(rows: int, cols: int, entries: dict) -> Mat:
    """The rows x cols matrix with the given {(i, j): value} entries and
    zeros elsewhere, built over the entries' common denominator."""
    vals = {ij: Fraction(v) for ij, v in entries.items()}
    d = lcm(*[v.denominator for v in vals.values()])
    a = [[0] * cols for _ in range(rows)]
    for (i, j), v in vals.items():
        a[i][j] = int(v * d)
    return Mat.from_num_den(a, d)


def slice_isl(a, b) -> DualPoint:
    """Slice point of the subdiagonal entries a = (a_1, ..., a_{n-1}) and
    the covector coefficient b: y = a_1 E_21 + ... + a_{n-1} E_{n,n-1},
    wstar = b e_n*."""
    n = len(a) + 1
    y = _sparse(n, n, {(k + 1, k): v for k, v in enumerate(a)})
    return DualPoint(y, _sparse(1, n, {(0, n - 1): b}), family="isl")


def t_slice(a, b) -> Rat:
    """Closed slice polynomial (prod_k a_k^k) b^n."""
    return Fraction(b) ** (len(a) + 1) * prod(v ** k for k, v in enumerate(a, 1))


def slice_so(a, a0, alg: Algebra) -> DualPoint:
    """Block-diagonal slice point of the block coefficients
    a = (a_1, ..., a_ell) and the covector coefficient a0: 2x2 rotation
    blocks [[0, a_i], [-a_i, 0]] padded by one zero row/column
    (n = 2 ell + 1) or two (n = 2 ell + 2), with covector a0 e_n*."""
    if alg.family not in ("io", "iso"):
        raise ValueError("orthogonal slice needs an io/iso algebra")
    if len(a) != alg.ell:
        raise ValueError("slice needs %d block parameters, got %d" % (alg.ell, len(a)))
    n = alg.n
    blocks = {}
    for i, v in enumerate(a):
        blocks[2 * i, 2 * i + 1] = v
        blocks[2 * i + 1, 2 * i] = -v
    return DualPoint(_sparse(n, n, blocks), _sparse(1, n, {(0, n - 1): a0}), family=alg.family)


def _elementary_symmetric(values, k: int) -> Rat:
    out = [Fraction(0)] * (k + 1)
    out[0] = Fraction(1)
    for v in values:
        for j in range(min(k, len(out) - 1), 0, -1):
            out[j] += v * out[j - 1]
    return out[k]


def phi_slice(k: int, a, a0) -> Rat:
    """Closed slice polynomial a0^2 sigma_k(a_1^2, ..., a_ell^2), 0 <= k <= ell;
    at k = ell it is exotic_slice(a, a0)^2."""
    if not 0 <= k <= len(a):
        raise ValueError("slice polynomial index out of range")
    return Fraction(a0) ** 2 * _elementary_symmetric([v * v for v in a], k)


def exotic_slice(a, a0) -> Rat:
    """Closed slice polynomial of the exotic generator: a0 a_1 ... a_ell."""
    return Fraction(a0) * prod(a)


# -- open-orbit machinery ----------------------------------------------------------

def sample_open_b(rng: Rng, n: int, bound: int) -> DualPoint:
    """Random glvv dual point with nonvanishing determinant semi-invariant."""
    alg = Algebra("glvv", n)
    for _ in range(_RETRY_CAP):
        l = sample_dual(alg, rng, bound)
        if f_invariant(l) != 0:
            return l
    raise RuntimeError("degenerate rng")


def orbit_normalize(l: DualPoint):
    """Normalize a point of the open set to the base pair.

    Returns (elem, normal) where elem = (g, u, 0) has rows
    g = (wstar B_{n-1}(y); ...; wstar) and normal = coad(elem, l) equals
    (J, e_n*, g xi).  The translation is u = -(p_n(y), ..., p_1(y))^T in
    closed form: e_n* g = wstar, and B_k y = B_{k+1} + p_{k+1} I with B_n = 0
    gives J g - g y = u wstar, so g y g^-1 = J - u e_n* is the companion
    matrix of y; coad's landing on (J, e_n*) checks it.  Raises
    NotInOpenOrbit when the semi-invariant vanishes.
    """
    n = l.n
    rows, p, d = _covariants(l)
    g = Mat.block([[Mat.from_num_den([r], e)] for r, e in rows[::-1]])
    if det(g) == 0:
        raise NotInOpenOrbit("not in open orbit")
    u = Mat.col([-Fraction(p[k - 1], d ** k) for k in range(n, 0, -1)])
    elem = GroupElem(g, u, Mat.zero(1, n))
    normal = coad(elem, l)
    if CanonicalPair(normal.y, normal.wstar) != CanonicalPair.of_size(n):
        raise ExactnessError("normal form did not land on the base pair")
    return elem, normal
