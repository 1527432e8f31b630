"""Independent checks of the coadjoint action, kept beside the tests that
use them: the group product law, the pairing of the dual with the algebra,
and the adjoint action on triples built from the bracket alone.  The
package never calls them."""

from fractions import Fraction

from coadinv.exactmat import Mat, scalar
from coadinv.liealg import DualPoint, GroupElem, _g_inverse, bracket_b


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
