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

from dataclasses import dataclass
from fractions import Fraction

from .charpoly import bordered, char_data
from .exactmat import ExactnessError, Mat, Rat, det, inverse, pfaffian, scalar
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
    m = [[0] * n for _ in range(n)]
    for i in range(1, n):
        m[i][i - 1] = 1
    return Mat(m)


@dataclass(frozen=True)
class CanonicalPair:
    """The base point (J, e_n*) of the open affine orbit."""

    J: Mat
    enstar: Mat

    @staticmethod
    def of_size(n: int) -> "CanonicalPair":
        return CanonicalPair(lower_shift(n), Mat.basis_row(n, n - 1))


# -- affine covariants and the determinant semi-invariant ---------------------

def phi_covariant(k: int, l: DualPoint) -> Mat:
    """Row covariant wstar B_k(y), 0 <= k <= n-1."""
    n = l.n
    if not 0 <= k <= n - 1:
        raise ValueError("covariant index out of range")
    return l.wstar * char_data(l.y).B[k]


def phi_rows(l: DualPoint) -> list:
    """All row covariants from one characteristic recursion, top index first."""
    cd = char_data(l.y)
    return [l.wstar * cd.B[k] for k in range(l.n - 1, -1, -1)]


def f_invariant(l: DualPoint) -> Rat:
    """Determinant of the stacked row covariants, highest index on top.

    Degree n(n+1)/2.  Multiplying by det(g) undoes the coadjoint action:
    f(coad(g,u) l) * det(g) = f(l).
    """
    rows = phi_rows(l)
    return det(Mat([r.row_tuple(0) for r in rows]))


def f_krylov(l: DualPoint) -> Rat:
    """Same value through the raw rows wstar y^(n-1), ..., wstar y, wstar.

    The change of basis between the two row families is unitriangular, so
    the determinants agree exactly; keeping both paths makes the identity
    checkable.
    """
    rows = [l.wstar]
    for _ in range(l.n - 1):
        rows.append(rows[-1] * l.y)
    return det(Mat([r.row_tuple(0) for r in reversed(rows)]))


def f_bar(l: DualPoint) -> Rat:
    """Restriction of the determinant semi-invariant to traceless y."""
    if l.y.trace() != 0:
        raise ValueError("f_bar needs tr(y) = 0")
    return f_invariant(l)


# -- glvv generators -----------------------------------------------------------

def F_invariant(k: int, l: DualPoint) -> Rat:
    """Generator wstar B_k(y) xi, 0 <= k <= n-1; degree k + 2."""
    n = l.n
    if not 0 <= k <= n - 1:
        raise ValueError("generator index out of range")
    return scalar(l.wstar * char_data(l.y).B[k] * l.xi)


def F_all(l: DualPoint) -> tuple:
    """All n generators from one characteristic recursion, index 0 first."""
    cd = char_data(l.y)
    return tuple(scalar(l.wstar * cd.B[k] * l.xi) for k in range(l.n))


def F_bordered(k: int, l: DualPoint) -> Rat:
    """Same generator through the bordered characteristic coefficients:
    p_{k+2} of [[y, xi], [wstar, 0]] minus p_{k+2}(y), with coefficients
    beyond the size of y read as zero."""
    n = l.n
    if not 0 <= k <= n - 1:
        raise ValueError("generator index out of range")
    cx = char_data(bordered(l.y, l.xi, l.wstar, 0))
    cy = char_data(l.y)
    return cx.coeff(k + 2) - cy.coeff(k + 2)


def pi_projection(l: DualPoint) -> Mat:
    """Fiber projection: the column whose (n-k)-th coordinate is the k-th
    generator, i.e. entries (F_{n-1}, ..., F_0) top to bottom."""
    vals = F_all(l)
    return Mat.col(list(reversed(vals)))


# -- orthogonal generators ------------------------------------------------------

def psi_invariant(k: int, l: DualPoint) -> Rat:
    """Generator -wstar B_{2k}(y) wstar^T, valid while 2k <= n-1;
    degree 2k + 2."""
    n = l.n
    if k < 0 or 2 * k > n - 1:
        raise ValueError("generator index out of range")
    return -scalar(l.wstar * char_data(l.y).B[2 * k] * l.wstar.transpose())


def psi_all(l: DualPoint) -> tuple:
    """Generators psi_0..psi_ell from one characteristic recursion."""
    cd = char_data(l.y)
    wt = l.wstar.transpose()
    ell = (l.n - 1) // 2
    return tuple(-scalar(l.wstar * cd.B[2 * k] * wt) for k in range(ell + 1))


def psi_bordered(k: int, l: DualPoint) -> Rat:
    """Same generator through the bordered coefficients: p_{2k+2} of
    [[y, -wstar^T], [wstar, 0]] minus p_{2k+2}(y) (zero beyond size n)."""
    n = l.n
    if k < 0 or 2 * k > n - 1:
        raise ValueError("generator index out of range")
    cx = char_data(bordered(l.y, -l.wstar.transpose(), l.wstar, 0))
    cy = char_data(l.y)
    return cx.coeff(2 * k + 2) - cy.coeff(2 * k + 2)


def exotic_phi(l: DualPoint) -> Rat:
    """Odd-size exotic generator: the Pfaffian of the bordered skew matrix
    [[y, -wstar^T], [wstar, 0]].

    Linear in wstar, degree ell + 1 overall.  Its square is
    EXOTIC_SQUARE_SIGN times psi_ell; under the orthogonal action it picks
    up det(g)."""
    if l.n % 2 == 0:
        raise ValueError("exotic invariant only for odd n")
    return pfaffian(bordered(l.y, -l.wstar.transpose(), l.wstar, 0))


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
    return Mat.col([exotic_phi(DualPoint.of("iso", y, Mat.basis_row(n, i)))
                    for i in range(n)])


# -- parameter slices ------------------------------------------------------------

@dataclass(frozen=True)
class SlicePointISL:
    """Slice parameters: subdiagonal entries a_1..a_{n-1} and the covector
    coefficient b."""

    a: tuple
    b: Rat

    @staticmethod
    def of(a_values, b) -> "SlicePointISL":
        return SlicePointISL(tuple(Fraction(v) for v in a_values), Fraction(b))


def slice_isl(s: SlicePointISL) -> DualPoint:
    """Slice point: y = a_1 E_21 + ... + a_{n-1} E_{n,n-1}, wstar = b e_n*."""
    n = len(s.a) + 1
    m = [[Fraction(0)] * n for _ in range(n)]
    for k, v in enumerate(s.a):
        m[k + 1][k] = v
    return DualPoint.of("isl", Mat(m), s.b * Mat.basis_row(n, n - 1))


def t_slice(s: SlicePointISL) -> Rat:
    """Closed slice polynomial (prod_k a_k^k) b^n."""
    n = len(s.a) + 1
    out = Fraction(s.b) ** n
    for k, v in enumerate(s.a, start=1):
        out *= Fraction(v) ** k
    return out


@dataclass(frozen=True)
class SlicePointSO:
    """Slice parameters for the orthogonal families: block coefficients
    a_1..a_ell and the covector coefficient a0."""

    a: tuple
    a0: Rat

    @staticmethod
    def of(a_values, a0) -> "SlicePointSO":
        return SlicePointSO(tuple(Fraction(v) for v in a_values), Fraction(a0))


def slice_so(s: SlicePointSO, alg: Algebra) -> DualPoint:
    """Block-diagonal slice point: 2x2 rotation blocks [[0, a_i], [-a_i, 0]]
    padded by one zero row/column (n = 2 ell + 1) or two (n = 2 ell + 2),
    with covector a0 e_n*."""
    if alg.family not in ("io", "iso"):
        raise ValueError("orthogonal slice needs an io/iso algebra")
    ell = alg.ell
    if len(s.a) != ell:
        raise ValueError("slice needs %d block parameters, got %d" % (ell, len(s.a)))
    n = alg.n
    m = [[Fraction(0)] * n for _ in range(n)]
    for i, v in enumerate(s.a):
        m[2 * i][2 * i + 1] = Fraction(v)
        m[2 * i + 1][2 * i] = -Fraction(v)
    return DualPoint.of(alg.family, Mat(m), s.a0 * Mat.basis_row(n, n - 1))


def _elementary_symmetric(values, k: int) -> Rat:
    out = [Fraction(0)] * (k + 1)
    out[0] = Fraction(1)
    for v in values:
        for j in range(min(k, len(out) - 1), 0, -1):
            out[j] += v * out[j - 1]
    return out[k]


def phi_slice(k: int, s: SlicePointSO, alg: Algebra) -> Rat:
    """Closed slice polynomials: a0^2 sigma_k(a_1^2, ..., a_ell^2) for
    k < ell and for the top index at even n; a0 a_1 ... a_ell for the top
    index at odd n."""
    ell = alg.ell
    if not 0 <= k <= ell:
        raise ValueError("slice polynomial index out of range")
    squares = [Fraction(v) ** 2 for v in s.a]
    if k == ell and alg.n % 2 == 1:
        out = Fraction(s.a0)
        for v in s.a:
            out *= Fraction(v)
        return out
    return Fraction(s.a0) ** 2 * _elementary_symmetric(squares, k)


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
    (J, e_n*, g xi).  The translation u solves the rank-one equation
    u e_n* = J - g y g^-1, whose right side is checked to live in the last
    column only.  Raises NotInOpenOrbit when the semi-invariant vanishes.
    """
    n = l.n
    rows = phi_rows(l)
    g = Mat([r.row_tuple(0) for r in rows])
    if det(g) == 0:
        raise NotInOpenOrbit("not in open orbit")
    pair = CanonicalPair.of_size(n)
    residue = pair.J - g * l.y * inverse(g)
    for j in range(n - 1):
        for i in range(n):
            if residue[i, j] != 0:
                raise ExactnessError("rank-one solve inconsistent")
    elem = GroupElem(g, residue.col_mat(n - 1), Mat.zero(1, n))
    normal = coad(elem, l)
    if normal.y != pair.J or normal.wstar != pair.enstar:
        raise ExactnessError("normal form did not land on the base pair")
    return elem, normal
