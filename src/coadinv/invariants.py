"""Generator polynomials of the coadjoint invariant algebras, the
parameter slices used to identify them, the open-orbit normal form and the
fiber projection.

Degree facts callers of exact interpolation rely on: the determinant
semi-invariant has degree n(n+1)/2, the glvv generators have degree k + 2,
the orthogonal generators degree 2k + 2, and the odd-size exotic generator
degree ell + 1.

Sign conventions are never assumed: every slice comparison and the square
of the exotic generator carry a frozen sign constant, proved by an identity
of integer polynomials in the verify module and locked by regression tests.
The closed slice forms the slice points are compared with are stated once,
in module poly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import prod
from operator import mul

from .charpoly import _char_int, _unpack, bordered, bordered_gradients
from .exactmat import ExactnessError, Mat, Rat, Record, _exact, det, pfaffian
# project_traceless is re-exported: it is part of this module's interface
from .liealg import (_RETRY_CAP, Algebra, DualPoint, GroupElem, Rng, project_traceless,
                     sample_dual)

# Frozen sign conventions, proved by the verify module as identities of
# integer polynomials in the slice parameters and locked by regression
# tests.  All four are forced by the Pfaffian convention
# Pf([[0, a], [-a, 0]]) = a together with the leading minus in the
# orthogonal generators.
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
    @cache
    def of_size(n: int) -> "CanonicalPair":
        return CanonicalPair(lower_shift(n), Mat.basis_row(n, n - 1))


# -- affine covariants and the determinant semi-invariant ---------------------

def _entry(values, k: int):
    """Entry k of an all-index tuple: the one range check of every
    single-index generator."""
    if not 0 <= k < len(values):
        raise ValueError("generator index out of range")
    return values[k]


def _covariants(l: DualPoint) -> tuple:
    """The row covariants off one integer trace recursion.  For y = A / d
    and wstar = w / dw: the pairs (w B_k(A), d^k dw), k = 0..n-1, whose
    quotients are wstar B_k(y), the integers p_k(A) = d^k p_k(y), and d.
    w B_0(A) = w, and each later w B_k(A) = sum_i w_i row_i(B_k(A)) is one
    sum of packed rows."""
    a, d = l.y.num_den()
    (w,), dw = l.wstar.num_den()
    p, B, s = _char_int(a, (w,))
    rows = (w, *_unpack([sum(map(mul, w, Bk)) for Bk in B[1:]], len(a), s))
    return [(r, d ** k * dw) for k, r in enumerate(rows)], p, d


def phi_rows(l: DualPoint) -> list:
    """All row covariants from one characteristic recursion, top index first."""
    return [Mat.from_num_den([r], e) for r, e in _covariants(l)[0][::-1]]


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


# -- parameter slices ------------------------------------------------------------

def slice_isl(a, b) -> DualPoint:
    """Slice point of the subdiagonal entries a = (a_1, ..., a_{n-1}) and
    the covector coefficient b: y = a_1 E_21 + ... + a_{n-1} E_{n,n-1},
    wstar = b e_n*."""
    n = len(a) + 1
    y = Mat([[a[j] if i == j + 1 else 0 for j in range(n)] for i in range(n)])
    return DualPoint(y, Mat.row([0] * (n - 1) + [b]), family="isl")


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
    y = [[0] * n for _ in range(n)]
    for i, v in enumerate(a):
        # the kernel refuses v before the minus could fail with another message
        y[2 * i][2 * i + 1], y[2 * i + 1][2 * i] = v, -_exact(v)
    return DualPoint(Mat(y), Mat.row([0] * (n - 1) + [a0]), family=alg.family)


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

    Returns (elem, normal): elem = (g, u, 0) with rows
    g = (wstar B_{n-1}(y); ...; wstar) and the closed-form translation
    u = -(p_n(y), ..., p_1(y))^T, and normal = coad(elem, l), which is
    (J, e_n*, g xi) in l's family (an io/iso point is refused as coad
    refuses it: (J, e_n*) is not in its dual).

    coad sends (y, wstar) to (g y g^-1 + u wstar g^-1, wstar g^-1), so for
    invertible g it lands on (J, e_n*) exactly when J g = g y + u wstar and
    e_n* g = wstar.  Both are checked, and no inverse of g is formed.  They
    hold by construction: the last row of g is wstar, and
    B_k y = B_{k+1} + p_{k+1} I with B_n = 0 gives the first row by row, so
    g y g^-1 = J - u e_n* is the companion matrix of y.  Raises
    NotInOpenOrbit when the semi-invariant vanishes, that is det g = 0,
    which the GroupElem constructor computes once.
    """
    n = l.n
    rows, p, d = _covariants(l)
    # wstar B_k(y) = w B_k(A) / (d^k dw), and d^k dw divides d^(n-1) dw
    g = Mat.from_num_den([[v * d ** (n - 1 - k) for v in rows[k][0]]
                          for k in reversed(range(n))], rows[-1][1])
    u = Mat.from_num_den([[-p[k - 1] * d ** (n - k)] for k in range(n, 0, -1)], d ** n)
    try:
        elem = GroupElem(g, u, Mat.zero(1, n))
    except ValueError:  # the shapes hold, so g is singular
        raise NotInOpenOrbit("not in open orbit") from None
    base = CanonicalPair.of_size(n)
    if base.J * g != g * l.y + u * l.wstar or base.enstar * g != l.wstar:
        raise ExactnessError("normal form did not land on the base pair")
    return elem, DualPoint(base.J, base.enstar, g * l.xi, l.family)
