"""Generator polynomials of the coadjoint invariant algebras, the
parameter slices used to identify them, the open-orbit normal form and the
fiber projection.

GENERATORS is the generator table: each family's generators, their
counts, degrees and characters are stated there and nowhere else.

Sign conventions are never assumed: every slice comparison and the square
of the exotic generator carry a frozen sign constant, proved by an identity
of integer polynomials in the verify module and locked by regression tests.
The closed slice forms the slice points are compared with are stated once,
in module poly.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import mul

from .charpoly import _char_int, bordered, bordered_gradients
from .exactmat import ExactnessError, Mat, Rat, _exact, det, pfaffian
# lower_shift and project_traceless are re-exported: they are part of this
# module's interface
from .liealg import (_RETRY_CAP, Algebra, CanonicalPair, DualPoint, GroupElem, Rng, _third,
                     lower_shift, project_traceless, sample_dual)

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
    quotients are wstar B_k(y), and the integers p_k(A) = d^k p_k(y)."""
    a, d = l.y.num_den()
    (w,), dw = l.wstar.num_den()
    p, *_, rows = _char_int(a, (w,))
    return [(r, d ** k * dw) for k, r in enumerate(rows)], p


def phi_rows(l: DualPoint) -> list:
    """All row covariants from one characteristic recursion, top index first."""
    return [Mat.from_num_den([r], e) for r, e in _covariants(l)[0][::-1]]


def f_invariant(l: DualPoint) -> Rat:
    """Determinant of the stacked row covariants, highest index on top."""
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
    index 0 first."""
    (x,), dx = l.xi.transpose().num_den()
    return tuple(Fraction(sum(map(mul, r, x)), e * dx) for r, e in _covariants(l)[0])


def F_bordered_all(l: DualPoint) -> tuple:
    """The same generators through the bordered coefficients: p_{k+2} of
    [[y, xi], [wstar, 0]] minus p_{k+2}(y); never reads B_k(y)."""
    return bordered_gradients(l.y, l.xi, l.wstar)


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
    from one characteristic recursion."""
    (w,), dw = l.wstar.num_den()
    return tuple(Fraction(-sum(map(mul, r, w)), e * dw) for r, e in _covariants(l)[0][::2])


def psi_bordered_all(l: DualPoint) -> tuple:
    """The same generators through the bordered coefficients: p_{2k+2} of
    [[y, xi], [wstar, 0]], xi = -wstar^T, minus p_{2k+2}(y); never reads B_k(y)."""
    return bordered_gradients(l.y, _third("io", l.wstar, None, DualPoint), l.wstar)[::2]


def psi_bordered(k: int, l: DualPoint) -> Rat:
    """Generator psi_k, bordered path: a view of psi_bordered_all."""
    return _entry(psi_bordered_all(l), k)


def exotic_phi(l: DualPoint) -> Rat:
    """Odd-size exotic generator: the Pfaffian of the bordered skew matrix
    [[y, xi], [wstar, 0]], xi = -wstar^T; its square is EXOTIC_SQUARE_SIGN
    times psi_ell."""
    if l.n % 2 == 0:
        raise ValueError("exotic invariant only for odd n")
    return pfaffian(bordered(l.y, l.xi, l.wstar, 0))


# The generator table: family -> one row (name, indexed, count(n),
# degree(n, k), character, evaluator) per generator id.  At size n a row
# holds count(n) generators, the k-th homogeneous of degree degree(n, k)
# (k = 0 when unindexed).  The character is an integer exponent e: under
# the family's group a generator picks up det(g)^e, so f has e = -1, phi
# e = 1 and every other generator e = 0.  phi flips sign under a
# reflection, so it is no generator of io; at odd n it takes the place of
# iso's psi_ell, which is EXOTIC_SQUARE_SIGN phi^2 there.  The evaluator
# returns the row's all-index tuple, which may run past count(n), and
# looks its function up when called, so a patched module attribute is
# what runs.
GENERATORS = {
    "aff": (("f", False, lambda n: 1, lambda n, k: n * (n + 1) // 2, -1,
             lambda l: (f_invariant(l),)),),
    "isl": (("fbar", False, lambda n: 1, lambda n, k: n * (n + 1) // 2, 0,
             lambda l: (f_bar(l),)),),
    "glvv": (("F", True, lambda n: n, lambda n, k: k + 2, 0, lambda l: F_all(l)),),
    "io": (("psi", True, lambda n: (n + 1) // 2, lambda n, k: 2 * k + 2, 0,
            lambda l: psi_all(l)),),
    "iso": (("psi", True, lambda n: n // 2, lambda n, k: 2 * k + 2, 0, lambda l: psi_all(l)),
            ("phi", False, lambda n: n % 2, lambda n, k: (n + 1) // 2, 1,
             lambda l: (exotic_phi(l),))),
}


def generators(l: DualPoint) -> list:
    """The point's rows of GENERATORS, evaluated: [(name, k, value), ...]
    with k = None for an unindexed generator."""
    return [(name, k if indexed else None, v)
            for name, indexed, count, _, _, evaluate in GENERATORS[l.family] if count(l.n)
            for k, v in enumerate(evaluate(l)[:count(l.n)])]


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
    return _open_normal(rng, n, bound)[0]


def _open_normal(rng: Rng, n: int, bound: int) -> tuple:
    """(l, elem, normal): a random glvv dual point of the open set and its
    orbit_normalize.  The rows of g are the row covariants, so det g is
    f(l) and the normal form's refusal is the open-set test: each draw
    runs one recursion and one determinant."""
    alg = Algebra("glvv", n)
    for _ in range(_RETRY_CAP):
        l = sample_dual(alg, rng, bound)
        try:
            return (l, *orbit_normalize(l))
        except NotInOpenOrbit:
            pass
    raise RuntimeError("degenerate rng")


def orbit_normalize(l: DualPoint):
    """Normalize a point of the open set to the base pair.

    Returns (elem, normal): the aff element elem = (g, u, 0) with rows
    g = (wstar B_{n-1}(y); ...; wstar) and u = -(p_n(y), ..., p_1(y))^T, and
    normal = coad(elem, l) = (J, e_n*, g xi) in l's family (an io/iso point
    is refused as coad refuses it: (J, e_n*) is not in its dual).

    coad sends (y, wstar) to (g y g^-1 + u wstar g^-1, wstar g^-1), so for
    invertible g it lands on (J, e_n*) exactly when J g = g y + u wstar and
    e_n* g = wstar.  For y = A / d and wstar = w / dw, read off l itself,
    g = G / (d^(n-1) dw) and u = U / d^n with G_i = w B_{n-1-i}(A) d^i and
    U_i = -p_{n-i}(A) d^i, so times d^n dw the two are the integer rows
    d (0; G) = (G A + U w; d^n w), checked with no product of matrices and no
    inverse of g.  B_k y = B_{k+1} + p_{k+1} I and B_n = 0 make them hold.
    det g = 0 (f = 0) raises NotInOpenOrbit; GroupElem computes det g once.
    """
    cols, d = l.y.transpose().num_den()
    (w,), dw = l.wstar.num_den()
    rows, p = _covariants(l)
    dk = [d ** i for i in range(l.n + 1)]
    G = [[v * e for v in r] for (r, _), e in zip(rows[::-1], dk)]
    U = [-c * e for c, e in zip(p[::-1], dk)]
    g, u = Mat.from_num_den(G, dk[-2] * dw), Mat.from_num_den([[c] for c in U], dk[-1])
    try:
        elem = GroupElem(g, u, family="aff")
    except ValueError:  # the shapes hold, so g is singular
        raise NotInOpenOrbit("not in open orbit") from None
    landed = [[sum(map(mul, r, c)) + x * v for c, v in zip(cols, w)] for r, x in zip(G, U)]
    if [[0] * l.n] + [[d * v for v in r] for r in G] != landed + [[dk[-1] * v for v in w]]:
        raise ExactnessError("normal form did not land on the base pair")
    base = CanonicalPair.of_size(l.n)
    return elem, DualPoint(base.J, base.enstar, g * l.xi, l.family)
