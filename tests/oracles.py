"""Independent checks kept beside the tests that use them: the group
product law, the pairing of the dual with the algebra, the adjoint action
on triples built from the bracket alone, the Jacobian of the generator
table by exact interpolation, and the bordered coefficients from powers of
the core.  The package never calls them."""

from fractions import Fraction

from coadinv import invariants as inv
from coadinv.charpoly import _taylor, char_data
from coadinv.exactmat import Mat, scalar
from coadinv.liealg import (DualPoint, GroupElem, _g_inverse, algebra_basis, bracket_b,
                            embed_M)


def compose(b1: GroupElem, b2: GroupElem) -> GroupElem:
    """The product law; each group is closed under it, so keeps a shared family."""
    return GroupElem(b1.g * b2.g, b1.u + b1.g * b2.u, b1.vstar + b2.vstar * _g_inverse(b1),
                     b1.family if b1.family == b2.family else "glvv")


def pairing(l: DualPoint, t) -> Fraction:
    """<(y, wstar, xi), (x, u, vstar)> = tr(y x) + wstar u + vstar xi."""
    x, u, v = t
    return (l.y * x).trace() + scalar(l.wstar * u) + scalar(v * l.xi)


def ad_translation(u: Mat, vstar: Mat, t):
    """Ad of the translation (e, u, vstar) on a triple: exact nilpotent
    series id + ad Z + (1/2) ad Z ad Z for Z = (0, u, vstar)."""
    z = (Mat.zero(u.rows, u.rows), u, vstar)
    first = bracket_b(z, t)
    second = bracket_b(z, first)
    return tuple(a + b + Fraction(1, 2) * c for a, b, c in zip(t, first, second))


def Ad(b: GroupElem, t):
    """Adjoint action of (g, u, vstar) through the fixed factorization."""
    gi = _g_inverse(b)
    x, uu, vv = t
    t = (b.g * x * gi, b.g * uu, vv * gi)
    t = ad_translation(Mat.zero(b.n, 1), b.vstar, t)
    return ad_translation(b.u, Mat.zero(1, b.n), t)


def directions(alg):
    """The coordinate directions (dy, dw, dxi) of the family's dual, in the
    order the independence suite reads its moves: the basis triples
    (x, u, vstar), reversed, as (x, u^T, vstar^T)."""
    return [(x, u.transpose(), v.transpose()) for x, u, v in reversed(algebra_basis(alg))]


def interpolated_jacobian(point, dirs) -> list:
    """The Jacobian of the point's generator table, one row per direction
    (dy, dw, dxi), every direction read: each derivative by _taylor off the
    nodes point + t d, t = 0..bound + 1, each built once as a point of the
    family.

    A direction's bound is the number of entries of [[y, xi], [wstar, 0]]
    it moves: every glvv, io and iso generator is a signed sum of principal
    minors, or the Pfaffian, of that matrix, so it is multilinear in the
    entries; _taylor's node past the bound raises ExactnessError on a
    generator of higher degree."""
    def values(p):
        return [value for _, _, value in inv.generators(p)]
    y, w, xi, fam = point.y, point.wstar, point.xi, point.family
    at_point = values(point)
    rows = []
    for dy, dw, dxi in dirs:
        moved, _ = embed_M((dy, dxi, dw)).num_den()
        bound = sum(1 for row in moved for c in row if c)
        nodes = (DualPoint(y + t * dy, w + t * dw, xi + t * dxi, fam) for t in range(1, bound + 2))
        samples = [at_point] + [values(p) for p in nodes]
        rows.append([_taylor([s[i] for s in samples], bound)[1] for i in range(len(at_point))])
    return rows


def bordered_coefficients(y: Mat, v: Mat, wstar: Mat, a) -> tuple:
    """p_2..p_{n+1} of X = [[y, v], [wstar, a]] off y alone, by the bordered
    identity p_{k+2}(X) = p_{k+2}(y) - a p_{k+1}(y) + wstar B_k(y) v with
    p_{n+1}(y) = 0.  Each B_k(y) = y^k - p_1 y^(k-1) - ... - p_k I is summed
    from powers of y: no gradient matrix of the recursion is read."""
    n = y.rows
    p = char_data(y)[0] + (Fraction(0),)
    powers = [Mat.identity(n)]
    for _ in range(n - 1):
        powers.append(powers[-1] * y)
    out = []
    for k in range(n):
        bk = powers[k] - sum((p[j - 1] * powers[k - j] for j in range(1, k + 1)),
                             start=Mat.zero(n, n))
        out.append(p[k + 1] - a * p[k] + scalar(wstar * bk * v))
    return tuple(out)
