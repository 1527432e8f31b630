import itertools
import sys
from fractions import Fraction as F

import pytest

from coadinv import invariants as inv_module
from coadinv import poly
from coadinv.exactmat import ExactnessError, Mat, det, inverse, pfaffian, scalar
from coadinv.charpoly import bordered, char_data
from coadinv.invariants import (CanonicalPair, EXOTIC_SLICE_SIGN,
                                EXOTIC_SQUARE_SIGN, F_SLICE_SIGN, F_all,
                                F_bordered, F_bordered_all,
                                GENERATORS, NotInOpenOrbit, PSI_SLICE_SIGN, exotic_phi,
                                f_bar, f_invariant,
                                f_krylov, generators, krylov_rows, lower_shift,
                                orbit_normalize, phi_rows, pi_projection,
                                project_traceless, psi_all, psi_bordered,
                                psi_bordered_all, sample_open_b,
                                slice_isl, slice_so)
from coadinv.liealg import (FAMILIES, Algebra, DualPoint, GroupElem, Rng, coad,
                            reflection, sample_dual, sample_group,
                            sample_int_mat, sample_orthogonal, sample_skew)


def canonical_b(n, xi_entries):
    pair = CanonicalPair.of_size(n)
    return DualPoint(pair.J, pair.enstar, Mat.col(xi_entries))


# -- determinant semi-invariant -----------------------------------------------

def test_f_at_canonical_pair():
    for n in range(1, 7):
        pair = CanonicalPair.of_size(n)
        assert f_invariant(DualPoint(pair.J, pair.enstar, family="aff")) == 1


def test_f_one_dimensional():
    assert f_invariant(DualPoint(Mat([[9]]), Mat([[F(-5, 3)]]), family="aff")) == F(-5, 3)


def test_f_krylov_agrees():
    rng = Rng(61)
    for n in range(1, 6):
        alg = Algebra("aff", n)
        for _ in range(20):
            l = sample_dual(alg, rng, 3)
            assert f_invariant(l) == f_krylov(l)


def test_krylov_rows_at_canonical_pair():
    # e_n* J^j = e_{n-j}*: the raw rows walk the basis up from the bottom
    for n in range(1, 6):
        pair = CanonicalPair.of_size(n)
        l = DualPoint(pair.J, pair.enstar, family="aff")
        assert krylov_rows(l) == tuple(Mat.basis_row(n, n - 1 - j) for j in range(n))


def test_f_semi_invariance():
    rng = Rng(62)
    for n in range(1, 5):
        alg = Algebra("aff", n)
        for _ in range(30):
            l = sample_dual(alg, rng, 3)
            a = sample_group(alg, rng, 3)
            assert f_invariant(coad(a, l)) * det(a.g) == f_invariant(l)


def test_f_blind_to_scalar_shift():
    rng = Rng(63)
    for n in range(1, 5):
        alg = Algebra("aff", n)
        for _ in range(25):
            l = sample_dual(alg, rng, 3)
            c = F(rng.int_between(-3, 3))
            shifted = DualPoint(l.y + c * Mat.identity(n), l.wstar, family="aff")
            assert f_invariant(shifted) == f_invariant(l)


def test_f_bar_requires_traceless():
    with pytest.raises(ValueError):
        f_bar(DualPoint(Mat.identity(2), Mat.row([1, 0]), family="aff"))


def test_f_bar_invariant_under_special_action():
    rng = Rng(64)
    for n in range(1, 5):
        alg = Algebra("isl", n)
        for _ in range(25):
            l = sample_dual(alg, rng, 3)
            a = sample_group(alg, rng, 3)
            image = coad(a, l)
            assert image.family == "isl" and project_traceless(image) == image
            assert f_bar(image) == f_bar(l)


# -- row covariants ---------------------------------------------------------------

def test_phi_zero_is_the_covector():
    rng = Rng(65)
    l = sample_dual(Algebra("aff", 4), rng, 3)
    assert phi_rows(l)[-1] == l.wstar


def test_phi_at_canonical_pair():
    for n in range(2, 6):
        pair = CanonicalPair.of_size(n)
        l = DualPoint(pair.J, pair.enstar, family="aff")
        assert phi_rows(l) == [Mat.basis_row(n, i) for i in range(n)]


def test_phi_covariance():
    rng = Rng(66)
    for n in range(1, 5):
        alg = Algebra("aff", n)
        for _ in range(25):
            l = sample_dual(alg, rng, 3)
            a = sample_group(alg, rng, 3)
            gi = inverse(a.g)
            moved = coad(a, l)
            assert phi_rows(moved) == [r * gi for r in phi_rows(l)]


# -- glvv generators ------------------------------------------------------------------

def test_F_at_canonical_pair_exhaustive():
    for n in range(1, 7):
        for i in range(n):
            l = canonical_b(n, [1 if j == i else 0 for j in range(n)])
            for k in range(n):
                expected = 1 if n - 1 - k == i else 0
                assert F_all(l)[k] == expected


def test_F_zero_is_the_pairing():
    rng = Rng(67)
    l = sample_dual(Algebra("glvv", 4), rng, 3)
    assert F_all(l)[0] == (l.wstar * l.xi)[0, 0]


def test_F_bordered_path():
    # n = 1 is the case where the bordered loop is only the top coefficient
    rng = Rng(68)
    for n in range(1, 7):
        alg = Algebra("glvv", n)
        for _ in range(20):
            l = sample_dual(alg, rng, 3)
            for k in range(n):
                assert F_all(l)[k] == F_bordered(k, l)
            assert F_all(l) == F_bordered_all(l)
            assert len(F_all(l)) == n


def test_F_invariance_under_full_action():
    rng = Rng(69)
    for n in range(1, 5):
        alg = Algebra("glvv", n)
        for _ in range(30):
            l = sample_dual(alg, rng, 3)
            b = sample_group(alg, rng, 3)
            assert F_all(coad(b, l)) == F_all(l)


def test_F_rejects_bad_index():
    l = canonical_b(2, [1, 0])
    for k in (-1, 2):
        with pytest.raises(ValueError, match="generator index out of range"):
            F_bordered(k, l)


# -- orthogonal generators -------------------------------------------------------------

def test_psi_zero_formula():
    l = DualPoint(Mat.zero(3, 3), Mat.row([1, 2, 3]), family="io")
    assert psi_all(l)[0] == -(1 + 4 + 9)


def test_psi_index_range():
    l = DualPoint(sample_skew(Rng(70), 4, 3), Mat.row([1, 0, 0, 0]), family="io")
    assert len(psi_all(l)) == 2  # 2k = 2 <= 3, fine
    assert psi_bordered(1, l) == psi_all(l)[1]
    for k in (-1, 2):  # 2k = 4 > n-1
        with pytest.raises(ValueError, match="generator index out of range"):
            psi_bordered(k, l)


def test_restriction_of_odd_generators_vanishes():
    # embedding the orthogonal dual into the glvv dual kills odd indices
    rng = Rng(71)
    for n in range(1, 6):
        alg = Algebra("io", n)
        for _ in range(20):
            l = sample_dual(alg, rng, 3)
            lb = DualPoint(l.y, l.wstar, -l.wstar.transpose())
            assert (lb.y, lb.wstar, lb.xi) == (l.y, l.wstar, l.xi)
            for k in range(1, n, 2):
                assert F_all(lb)[k] == 0
            for k in range((n - 1) // 2 + 1):
                assert psi_all(l)[k] == F_all(lb)[2 * k]


def test_psi_bordered_path():
    # both paths read the point's y and wstar alone, xi = -wstar^T, so they
    # agree on every family's points, not only on io/iso's
    for family in FAMILIES:
        rng = Rng(72).child(family)
        for n in range(1, 7):
            alg = Algebra(family, n)
            for _ in range(20):
                l = sample_dual(alg, rng, 3)
                for k in range((n - 1) // 2 + 1):
                    assert psi_all(l)[k] == psi_bordered(k, l)
                assert psi_all(l) == psi_bordered_all(l), (family, l)
                assert len(psi_all(l)) == (n - 1) // 2 + 1
    l = sample_dual(Algebra("glvv", 4), Rng(5), 3)
    assert psi_bordered_all(l) == psi_all(l) == (-15, -124)


def test_psi_invariance():
    rng = Rng(73)
    for n in range(1, 6):
        alg = Algebra("io", n)
        for _ in range(25):
            l = sample_dual(alg, rng, 3)
            a = sample_group(alg, rng, 3)
            assert psi_all(coad(a, l)) == psi_all(l)


# -- exotic generator ---------------------------------------------------------------------

def test_exotic_one_dimensional():
    l = DualPoint(Mat.zero(1, 1), Mat([[F(4)]]), family="iso")
    assert exotic_phi(l) == -4


def test_exotic_three_dimensional_block():
    a1, a = F(2), F(5)
    l = slice_so((a1,), a, Algebra("iso", 3))
    # frozen by the expansion oracle for the 4x4 bordered Pfaffian
    assert exotic_phi(l) == -a * a1
    y = bordered(l.y, -l.wstar.transpose(), l.wstar, 0)
    assert det(y) == (a * a1) ** 2


def test_exotic_rejects_even():
    with pytest.raises(ValueError, match="odd"):
        exotic_phi(DualPoint(Mat.zero(2, 2), Mat.row([1, 0]), family="iso"))


def test_exotic_square_and_det():
    rng = Rng(74)
    for n in (1, 3, 5):
        alg = Algebra("iso", n)
        ell = alg.ell
        for _ in range(20):
            l = sample_dual(alg, rng, 3)
            phi = exotic_phi(l)
            assert phi * phi == EXOTIC_SQUARE_SIGN * psi_all(l)[ell]
            y = bordered(l.y, -l.wstar.transpose(), l.wstar, 0)
            assert pfaffian(y) ** 2 == det(y)


def test_exotic_character():
    rng = Rng(75)
    for n in (1, 3, 5):
        alg = Algebra("iso", n)
        for _ in range(15):
            l = sample_dual(alg, rng, 3)
            u = sample_int_mat(rng, n, 1, 3)
            q = sample_orthogonal(rng, n, 3, 1)
            assert exotic_phi(coad(GroupElem(q, u, family="iso"), l)) == exotic_phi(l)
            r = GroupElem(q * reflection(n), u, family="io")
            assert exotic_phi(coad(r, l)) == -exotic_phi(l)


# -- the generator table ---------------------------------------------------------------

def table_ids(fam, n):
    """The paper's generators of each family, written out by hand."""
    ell, odd = (n - 1) // 2, n % 2
    return {"aff": ["f"], "isl": ["fbar"], "glvv": ["F%d" % k for k in range(n)],
            "io": ["psi%d" % k for k in range(ell + 1)],
            "iso": ["psi%d" % k for k in range(ell + 1 - odd)] + ["phi"] * odd}[fam]


@pytest.mark.parametrize("fam", FAMILIES)
def test_generators_table(fam):
    single = {"f": f_invariant, "fbar": f_bar, "phi": exotic_phi,
              "F": lambda k, l: F_all(l)[k], "psi": lambda k, l: psi_all(l)[k]}
    for n in range(1, 7):
        l = sample_dual(Algebra(fam, n), Rng(4).child(fam, n), 3)
        table = generators(l)
        ids = [name + ("" if k is None else str(k)) for name, k, _ in table]
        assert ids == table_ids(fam, n), n
        for name, k, value in table:
            assert value == (single[name](l) if k is None else single[name](k, l))


GENERATOR_ROWS = [(fam, row) for fam, rows in GENERATORS.items() for row in rows]


def _scaled(l, c):
    return DualPoint(c * l.y, c * l.wstar, c * l.xi, l.family)


@pytest.mark.parametrize("fam, row", GENERATOR_ROWS,
                         ids=["%s-%s" % (fam, row[0]) for fam, row in GENERATOR_ROWS])
def test_generator_degrees_by_homogeneity(fam, row):
    # F(c l) = c^degree F(l) at points where every generator of the row is
    # nonzero, so a declared degree off by one fails
    _, _, count, degree, _, evaluate = row
    for n in range(1, 7):
        if not count(n):
            continue
        rng = Rng(6).child(fam, row[0], n)
        for _ in range(20):
            l = sample_dual(Algebra(fam, n), rng, 3)
            values = evaluate(l)[:count(n)]
            if all(values):
                break
        assert all(values), (n, values)
        for c in (2, 3):
            assert evaluate(_scaled(l, c))[:count(n)] == tuple(
                c ** degree(n, k) * v for k, v in enumerate(values)), (n, c)


@pytest.mark.parametrize("fam", FAMILIES)
def test_generator_characters(fam):
    # each generator picks up det(g)^e, e its declared exponent, under the
    # group; an orthogonal element is also tried times a reflection, where
    # phi flips
    for n in range(1, 5):
        rng = Rng(7).child(fam, n)
        for _ in range(3):
            l, a = sample_dual(Algebra(fam, n), rng, 3), sample_group(Algebra(fam, n), rng, 3)
            elems = [a]
            if fam in ("io", "iso"):
                elems.append(GroupElem(a.g * reflection(n), a.u, family="io"))
            for b in elems:
                image, d = coad(b, l), det(b.g)
                for _, _, count, _, e, evaluate in GENERATORS[fam]:
                    m = count(n)
                    assert not m or evaluate(image)[:m] == tuple(
                        d ** e * v for v in evaluate(l)[:m]), (n, e)


# -- slices ------------------------------------------------------------------------------

def test_t_slice_values():
    assert poly.value(poly.t_slice(3), [1, 1, 1]) == 1
    assert poly.value(poly.t_slice(2), [F(3), F(2)]) == 3 * 4
    assert poly.value(poly.t_slice(3), [2, 3, 1]) == 2 * 9


def test_isl_slice_matches_t():
    for n in range(1, 5):
        for a1 in (-2, 1, 2):
            for b in (-2, -1, 1, 2):
                a = (a1,) * (n - 1)
                t = poly.value(poly.t_slice(n), [*a, b])
                assert f_bar(slice_isl(a, b)) == F_SLICE_SIGN * t


def test_so_slice_shapes_and_values():
    alg = Algebra("io", 5)
    l = slice_so((2, 3), 7, alg)
    assert l.y.is_skew()
    assert l.wstar == 7 * Mat.basis_row(5, 4)
    assert poly.value(poly.phi_slice(5, 0), [2, 3, 7]) == 49
    assert poly.value(poly.phi_slice(5, 1), [2, 3, 7]) == 49 * (4 + 9)
    assert poly.value(poly.exotic_slice(5), [2, 3, 7]) == 7 * 2 * 3
    # the top index is the square of the product form at every n
    assert poly.value(poly.phi_slice(5, 2), [2, 3, 7]) == 49 * 36


def test_psi_slice_sign():
    for n in range(2, 6):
        alg = Algebra("io", n)
        ell = alg.ell
        a = (2,) * ell
        l = slice_so(a, 3, alg)
        for k in range(ell + 1):
            phi = poly.value(poly.phi_slice(n, k), [*a, 3])
            assert psi_all(l)[k] == PSI_SLICE_SIGN * phi


def test_exotic_slice_sign():
    for n in (1, 3, 5):
        alg = Algebra("iso", n)
        a = (2,) * alg.ell
        exotic = poly.value(poly.exotic_slice(n), [*a, 3])
        assert exotic_phi(slice_so(a, 3, alg)) == EXOTIC_SLICE_SIGN * exotic


def test_top_slice_polynomial_is_the_square_of_the_exotic_one():
    for n in (1, 3, 5, 7):
        ell = (n - 1) // 2
        for params in itertools.product((-2, -1, 1, 2), repeat=ell + 1):
            assert poly.value(poly.phi_slice(n, ell), params) \
                == poly.value(poly.exotic_slice(n), params) ** 2


def test_slice_so_validates():
    with pytest.raises(ValueError):
        slice_so((1,), 1, Algebra("glvv", 3))
    with pytest.raises(ValueError):
        slice_so((1, 2), 1, Algebra("io", 3))


def test_slices_refuse_inexact_parameters():
    # a float, a string or anything else raises the kernel's TypeError in
    # every slice point; exact rationals stay exact
    alg = Algebra("iso", 5)
    for make in (slice_isl, lambda a, a0: slice_so(a, a0, alg)):
        for bad in (0.5, 0.1, "1", None):
            for a, a0 in (((1, bad), 2), ((bad, 1), 2), ((1, 2), bad)):
                with pytest.raises(TypeError, match="exact entries are int or Fraction"):
                    make(a, a0)
    assert slice_isl((F(1, 10),), 1).y == Mat([[0, 0], [F(1, 10), 0]])


# -- orbit machinery ------------------------------------------------------------------------

def test_orbit_normalize_already_normal():
    for n in range(1, 5):
        l = canonical_b(n, list(range(1, n + 1)))
        elem, normal = orbit_normalize(l)
        assert elem.g == Mat.identity(n)
        assert elem.u == Mat.zero(n, 1)
        assert elem.family == "aff" and elem.vstar == Mat.zero(1, n)
        assert normal == l


def test_orbit_normal_third_component():
    rng = Rng(77)
    for n in range(1, 6):
        for _ in range(15):
            l = sample_open_b(rng, n, 3)
            _, normal = orbit_normalize(l)
            assert normal.y == lower_shift(n)
            assert normal.wstar == Mat.basis_row(n, n - 1)
            assert normal.xi == pi_projection(l)
            assert F_all(normal) == F_all(l)


def test_open_draws_are_the_semi_invariant_draws():
    # sample_open_b tests each draw by normalizing it, since det g = f(l):
    # it keeps the first draw with f != 0, leaves the stream where that
    # draw left it, and the suites' _open_normal returns the draw's normal
    # form alongside
    for n in range(1, 6):
        for seed in range(12):
            rng, ref = Rng(seed).child("open", n), Rng(seed).child("open", n)
            l = sample_dual(Algebra("glvv", n), ref, 1)
            while f_invariant(l) == 0:
                l = sample_dual(Algebra("glvv", n), ref, 1)
            got, elem, normal = inv_module._open_normal(rng, n, 1)
            assert got == l and rng.next_u64() == ref.next_u64()
            assert (elem, normal) == orbit_normalize(l)
            assert det(elem.g) == f_invariant(l)


@pytest.mark.parametrize("bound", (0, -1))
def test_sample_open_b_refuses_a_bound_below_one(bound):
    rng = Rng(79)
    for n in (1, 3):
        with pytest.raises(ValueError, match="bound must be >= 1"):
            sample_open_b(rng, n, bound)
    assert rng.next_u64() == Rng(79).next_u64()


def test_orbit_roundtrip():
    rng = Rng(78)
    for n in range(1, 5):
        aalg = Algebra("aff", n)
        for _ in range(20):
            l = sample_open_b(rng, n, 3)
            _, normal = orbit_normalize(l)
            a = sample_group(aalg, rng, 3)
            moved = coad(GroupElem(a.g, a.u, Mat.zero(1, n)), l)
            _, normal2 = orbit_normalize(moved)
            assert normal2 == normal


def test_orbit_translation_is_the_closed_form():
    # u = -(p_n(y), ..., p_1(y))^T is what the rank-one solve read off the
    # last column of J - g y g^-1, whose other columns vanish
    rng = Rng(80)
    for n in range(1, 7):
        aalg = Algebra("aff", n)
        for _ in range(6):
            l = sample_open_b(rng, n, 3)
            a = sample_group(aalg, rng, 3)
            for point in (l, coad(GroupElem(a.g, a.u, Mat.zero(1, n)), l)):
                elem, _ = orbit_normalize(point)
                residue = lower_shift(n) - elem.g * point.y * inverse(elem.g)
                assert all(residue[i, j] == 0 for i in range(n) for j in range(n - 1))
                assert elem.u == Mat.col([residue[i, n - 1] for i in range(n)])
                assert elem.u == Mat.col([-c for c in reversed(char_data(point.y)[0])])


def test_orbit_rejects_degenerate():
    l = DualPoint(Mat.zero(2, 2), Mat.row([1, 0]), Mat.col([1, 1]))
    with pytest.raises(NotInOpenOrbit):
        orbit_normalize(l)


def _open_points(rng, n):
    # an integer point of the open set, two rational multiples of it (the
    # second with y and wstar over distinct denominators) and its image
    # under a sampled affine element, whose g^-1 brings denominators
    l = sample_open_b(rng, n, 3)
    a = sample_group(Algebra("aff", n), rng, 3)
    c = F(-2, 7)
    return (l, DualPoint(c * l.y, c * l.wstar, c * l.xi),
            DualPoint(c * l.y, F(3, 5) * l.wstar, l.xi), coad(a, l))


def _denominators(l):
    return l.y.num_den()[1], l.wstar.num_den()[1]


def test_orbit_normal_form_is_coads_image():
    # the landing identity stands for coad's landing: coad, which inverts g,
    # is the oracle of the normal form, and the rational identities on the
    # returned g and u, through Mat products, are the oracle of the integer
    # check on G and U
    rng = Rng(81)
    seen = set()
    for n in range(1, 9):
        for _ in range(2):
            for l in _open_points(rng, n):
                elem, normal = orbit_normalize(l)
                g, u = elem.g, elem.u
                assert det(g) != 0
                assert lower_shift(n) * g == g * l.y + u * l.wstar
                assert Mat.basis_row(n, n - 1) * g == l.wstar
                assert elem.vstar == Mat.zero(1, n)
                assert normal == coad(elem, l)
                assert (normal.y, normal.wstar) == (lower_shift(n), Mat.basis_row(n, n - 1))
                seen.add(_denominators(l))
    assert (1, 1) in seen and (7, 5) in seen
    assert any(d != 1 and w != 1 and d != w for d, w in seen - {(7, 5)})


def test_orbit_normalize_keeps_aff_and_isl_points_in_their_family():
    rng = Rng(82)
    for n in range(1, 6):
        for fam in ("aff", "isl"):
            alg = Algebra(fam, n)
            for _ in range(4):
                l = sample_dual(alg, rng, 3)
                if f_invariant(l) == 0:
                    continue
                elem, normal = orbit_normalize(l)
                assert normal.family == fam
                assert normal == coad(elem, l)


@pytest.mark.parametrize("fam", ["io", "iso"])
def test_orbit_normalize_refuses_orthogonal_points_as_coad_does(fam):
    # (J, e_n*, g xi) is no point of an orthogonal dual: J is not skew for
    # n >= 2, and at n = 1 g xi = -wstar^2 is -e_1*^T only for wstar = +-1
    cases = [(DualPoint(Mat([[0, 2], [-2, 0]]), Mat.row([1, 3]), family=fam),
              "y must be skew-symmetric"),
             (DualPoint(Mat([[0]]), Mat([[2]]), family=fam),
              "%s point needs xi = -wstar^T" % fam)]
    for l, message in cases:
        g = Mat.block([[r] for r in phi_rows(l)])
        u = Mat.col([-c for c in reversed(char_data(l.y)[0])])
        with pytest.raises(ValueError) as want:
            coad(GroupElem(g, u, Mat.zero(1, l.n)), l)
        with pytest.raises(ValueError) as got:
            orbit_normalize(l)
        assert type(got.value) is ValueError
        assert str(got.value) == str(want.value) == message
    l = DualPoint(Mat([[0]]), Mat([[-1]]), family=fam)
    elem, normal = orbit_normalize(l)
    assert normal == coad(elem, l) == DualPoint(Mat([[0]]), Mat([[1]]), family=fam)


@pytest.mark.parametrize("fault", ["u reversed", "one entry of g", "g and u doubled"])
def test_orbit_normalize_catches_a_planted_fault(monkeypatch, fault):
    # a wrong translation or a wrong entry of g fails J g = g y + u wstar;
    # 2g and 2u still satisfy it, and fail e_n* g = wstar.  The points are
    # integer and rational, some with y and wstar over distinct
    # denominators, so each fault must show at d, dw != 1 as well
    real = inv_module._covariants

    def planted(l):
        rows, p = real(l)
        if fault == "u reversed":
            assert p != p[::-1]
            return rows, p[::-1]
        if fault == "one entry of g":
            (r0, *rest), e = rows[-1]
            return rows[:-1] + [((r0 + 1, *rest), e)], p
        return [(tuple(2 * v for v in r), e) for r, e in rows], [2 * c for c in p]

    # the points are drawn before the fault is planted: sample_open_b
    # normalizes each draw
    points = [l for n in range(2, 6) for l in _open_points(Rng(83).child(n), n)]
    assert {(1, 1), (7, 5)} <= {_denominators(l) for l in points}
    monkeypatch.setattr(inv_module, "_covariants", planted)
    for l in points:
        with pytest.raises(ExactnessError, match="^normal form did not land on the base pair$"):
            orbit_normalize(l)


def test_orbit_normalize_computes_det_g_once(monkeypatch):
    calls = []

    def counted(a):
        calls.append(a)
        return det(a)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("coadinv")
                and getattr(module, "det", None) is det):
            monkeypatch.setattr(module, "det", counted)
    for n in range(1, 6):
        for l in _open_points(Rng(84).child(n), n):
            calls.clear()
            elem, _ = orbit_normalize(l)
            assert calls == [elem.g]
    # the group element's singular refusal is the open-set refusal
    for l in (DualPoint(Mat.zero(2, 2), Mat.row([1, 0]), Mat.col([1, 1])),
              DualPoint(Mat([[1, 0], [0, 1]]), Mat.row([3, 5]), family="aff"),
              DualPoint(Mat.zero(1, 1), Mat.zero(1, 1))):
        calls.clear()
        with pytest.raises(NotInOpenOrbit, match="^not in open orbit$"):
            orbit_normalize(l)
        assert len(calls) == 1


def test_pi_at_canonical_pair():
    for n in range(1, 6):
        xi = list(range(1, n + 1))
        l = canonical_b(n, xi)
        assert pi_projection(l) == Mat.col(xi)


def test_pi_invariance():
    rng = Rng(79)
    for n in range(1, 5):
        alg = Algebra("glvv", n)
        aalg = Algebra("aff", n)
        for _ in range(20):
            l = sample_dual(alg, rng, 3)
            a = sample_group(aalg, rng, 3)
            moved = coad(GroupElem(a.g, a.u, Mat.zero(1, n)), l)
            assert pi_projection(moved) == pi_projection(l)
            v = Mat([[rng.int_between(-3, 3) for _ in range(n)]])
            shifted = coad(GroupElem(Mat.identity(n), Mat.zero(n, 1), v), l)
            assert pi_projection(shifted) == pi_projection(l)


# -- the generators against their Mat-product formulas ---------------------------

def _oracle_points(fam, n, rng):
    # an integer point, the same point with y, wstar and xi over the
    # different denominators 2, 3 and 5, and a coadjoint image
    alg = Algebra(fam, n)
    l = sample_dual(alg, rng, 3)
    xi = F(1, 5) * l.xi if fam == "glvv" else None
    scaled = DualPoint(F(1, 2) * l.y, F(1, 3) * l.wstar, xi, fam)
    return l, scaled, coad(sample_group(alg, rng, 3), l)


@pytest.mark.parametrize("fam", FAMILIES)
def test_generators_match_the_matrix_product_formulas(fam):
    rng = Rng(81)
    for n in range(1, 8):
        for l in _oracle_points(fam, n, rng):
            B = char_data(l.y)[1]
            rows = [l.wstar * B[k] for k in range(n)]
            psi = [-scalar(rows[k] * l.wstar.transpose()) for k in range(0, n, 2)]
            assert phi_rows(l) == rows[::-1]
            assert F_all(l) == tuple(scalar(r * l.xi) for r in rows)
            assert psi_all(l) == tuple(psi)
            assert f_invariant(l) == det(Mat.block([[r] for r in reversed(rows)]))
            if fam in ("io", "iso") and n % 2 == 1:
                assert exotic_phi(l) ** 2 == EXOTIC_SQUARE_SIGN * psi[-1]
