import copy
import os
import pickle
import subprocess
import sys
from math import gcd

import pytest

from coadinv.exactmat import Mat, det, inverse, mat_to_json, rank
from coadinv.liealg import (FAMILIES, Ad, Algebra, DualPoint, GroupElem, Rng,
                            algebra_basis, bracket_b, cayley, coad,
                            commutator_form, compose, dual_from_json,
                            dual_to_json, embed_M, group_from_json,
                            group_to_json, index_of, k_bracket,
                            pairing, sample_dual, sample_gl, sample_group, sample_int_mat,
                            sample_orthogonal, sample_skew, sample_sl,
                            sample_triple, theta, triple_zero)


# -- randomness ---------------------------------------------------------------

def test_rng_reproducible():
    a = Rng(42)
    b = Rng(42)
    assert [a.next_u64() for _ in range(8)] == [b.next_u64() for _ in range(8)]


def test_rng_frozen_stream():
    # locks the cross-platform contract: pure integer arithmetic only
    rng = Rng(0)
    assert [rng.int_between(-3, 3) for _ in range(8)] == [-1, -2, -1, 1, -1, -1, -2, -1]


def test_rng_child_streams_differ():
    rng = Rng(7)
    c1 = rng.child("suite", 3)
    c2 = rng.child("suite", 3)
    assert [c1.next_u64() for _ in range(4)] != [c2.next_u64() for _ in range(4)]


def test_rng_range():
    rng = Rng(5)
    vals = {rng.int_between(0, 2) for _ in range(200)}
    assert vals == {0, 1, 2}


def test_rng_refuses_a_range_wider_than_one_draw():
    # past 2^64 values the rejection limit is 0 and no draw would ever
    # return, so the call runs in a child process that a hang cannot outlive
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "from coadinv.liealg import Rng\n"
                               "Rng(1).int_between(-2 ** 63, 2 ** 63)"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 1
    assert proc.stderr.rstrip().endswith("ValueError: range wider than 2^64")
    # the widest accepted range is one raw draw, as before
    raw, rng = Rng(1), Rng(1)
    assert [rng.int_between(0, 2 ** 64 - 1) for _ in range(4)] == \
        [raw.next_u64() for _ in range(4)]
    rng = Rng(2)
    assert abs(rng.int_between(-(2 ** 63 - 1), 2 ** 63 - 1)) < 2 ** 63


# -- types ---------------------------------------------------------------------

def test_algebra_validation():
    with pytest.raises(ValueError):
        Algebra("nope", 2)
    with pytest.raises(ValueError):
        Algebra("aff", 0)
    assert Algebra("io", 5).ell == 2
    assert Algebra("iso", 6).ell == 2
    assert Algebra("glvv", 3).dim == 15
    assert Algebra("isl", 3).dim == 11
    assert Algebra("io", 4).dim == 10


def test_group_elem_rejects_singular():
    with pytest.raises(ValueError, match="singular"):
        GroupElem(Mat([[1, 1], [1, 1]]), Mat.zero(2, 1), Mat.zero(1, 2))


def test_dual_point_c_rejects_non_skew():
    with pytest.raises(ValueError, match="skew"):
        DualPoint(Mat([[0, 1], [1, 0]]), Mat.row([1, 2]), family="io")
    # the orthogonal view also pins xi = -wstar^T
    with pytest.raises(ValueError, match="xi"):
        DualPoint(Mat.zero(2, 2), Mat.row([1, 2]), Mat.zero(2, 1), "iso")


def test_traceless_constructor():
    with pytest.raises(ValueError, match="tr"):
        DualPoint(Mat.identity(2), Mat.row([1, 0]), family="isl")
    with pytest.raises(ValueError, match="xi"):
        DualPoint(Mat.zero(2, 2), Mat.row([1, 0]), Mat.col([0, 1]), "aff")
    assert DualPoint(Mat.identity(2), Mat.row([1, 0]), family="aff").xi == Mat.zero(2, 1)


# -- samplers --------------------------------------------------------------------

def test_cayley_of_zero():
    assert cayley(Mat.zero(3, 3)) == Mat.identity(3)


def test_cayley_example():
    q = cayley(Mat([[0, 1], [-1, 0]]))
    assert q.transpose() * q == Mat.identity(2)
    assert det(q) == 1


def test_sample_sl_has_det_one():
    rng = Rng(31)
    for n in range(1, 5):
        for _ in range(10):
            e = sample_group(Algebra("isl", n), rng, 3)
            assert det(e.g) == 1


def _replayed_sl(rng, n, bound):
    g = Mat.identity(n)
    for _ in range(2 * n if n > 1 else 0):
        i = rng.int_between(0, n - 1)
        j = rng.int_between(0, n - 2)
        if j >= i:
            j += 1
        g = g * (Mat.identity(n) + rng.int_between(-bound, bound) * Mat.unit(n, i, j))
    return g


@pytest.mark.parametrize("n", range(1, 7))
def test_sample_sl_is_the_product_of_its_transvections(n):
    # the column updates on integer rows give the Mat product of the same draws
    for seed in range(8):
        rng, replay = Rng(seed), Rng(seed)
        g = sample_sl(rng, n, 3)
        assert g == _replayed_sl(replay, n, 3) and det(g) == 1
        assert rng.next_u64() == replay.next_u64()


def test_integer_samplers_equal_mat_of_their_draws():
    for seed in range(6):
        for rows, cols in ((1, 1), (1, 4), (4, 1), (3, 5)):
            rng, replay = Rng(seed), Rng(seed)
            m = sample_int_mat(rng, rows, cols, 3)
            assert m == Mat([[replay.int_between(-3, 3) for _ in range(cols)]
                             for _ in range(rows)])
            assert rng.next_u64() == replay.next_u64()
        for n in range(1, 6):
            rng, replay = Rng(seed), Rng(seed)
            upper = {(i, j): replay.int_between(-3, 3)
                     for i in range(n) for j in range(i + 1, n)}
            assert sample_skew(rng, n, 3) == Mat(
                [[upper.get((i, j), -upper.get((j, i), 0)) for j in range(n)]
                 for i in range(n)])
            assert rng.next_u64() == replay.next_u64()


def test_sample_orthogonal_exact():
    rng = Rng(32)
    for n in range(1, 6):
        q = sample_orthogonal(rng, n, 3, 1)
        assert q.transpose() * q == Mat.identity(n)
        assert det(q) == 1
        r = sample_orthogonal(rng, n, 3, -1)
        assert r.transpose() * r == Mat.identity(n)
        assert det(r) == -1


def test_sample_orthogonal_refuses_a_bad_sign_before_it_draws():
    rng = Rng(5)
    with pytest.raises(ValueError, match="det_sign must be"):
        sample_orthogonal(rng, 3, 3, 0)
    fresh = Rng(5)
    assert [rng.next_u64() for _ in range(4)] == [fresh.next_u64() for _ in range(4)]


def test_sample_dual_shapes():
    rng = Rng(33)
    l = sample_dual(Algebra("isl", 3), rng, 3)
    assert l.y.trace() == 0
    c = sample_dual(Algebra("io", 4), rng, 3)
    assert c.y.is_skew()


@pytest.mark.parametrize("bound", (0, -1))
def test_samplers_refuse_a_bound_below_one(bound):
    # every sampler draws through sample_int_mat, sample_skew or sample_sl,
    # which refuse before they draw, also at n = 1, where sample_skew and
    # sample_sl draw nothing
    rng = Rng(36)
    draws = [lambda: sample_int_mat(rng, 2, 3, bound)]
    for n in (1, 3):
        draws += [lambda n=n: sample_skew(rng, n, bound), lambda n=n: sample_sl(rng, n, bound),
                  lambda n=n: sample_gl(rng, n, bound), lambda n=n: sample_triple(rng, n, bound),
                  lambda n=n: sample_orthogonal(rng, n, bound, -1)]
        for fam in FAMILIES:
            alg = Algebra(fam, n)
            draws += [lambda alg=alg: sample_dual(alg, rng, bound),
                      lambda alg=alg: sample_group(alg, rng, bound),
                      lambda alg=alg: index_of(alg, 3, rng, bound)]
    for draw in draws:
        with pytest.raises(ValueError, match="bound must be >= 1"):
            draw()
    assert rng.next_u64() == Rng(36).next_u64()


# -- coadjoint actions --------------------------------------------------------------

def test_identity_acts_trivially():
    rng = Rng(34)
    n = 3
    ident = GroupElem(Mat.identity(n), Mat.zero(n, 1), Mat.zero(1, n))
    assert GroupElem.orthogonal(Mat.identity(n), Mat.zero(n, 1)) == ident
    for fam in ("aff", "isl", "glvv", "io", "iso"):
        l = sample_dual(Algebra(fam, n), rng, 3)
        assert coad(ident, l) == l


def test_translation_part_of_affine_action():
    rng = Rng(35)
    n = 3
    l = sample_dual(Algebra("aff", n), rng, 3)
    u = Mat.col([1, -2, 3])
    moved = coad(GroupElem(Mat.identity(n), u, Mat.zero(1, n)), l)
    assert moved.y == l.y + u * l.wstar
    assert moved.wstar == l.wstar
    assert moved.xi == Mat.zero(n, 1) and moved.family == "aff"


@pytest.mark.parametrize("fam", FAMILIES)
def test_coad_group_law(fam):
    rng = Rng(36 + FAMILIES.index(fam))
    for n in range(1, 6):
        alg = Algebra(fam, n)
        for _ in range(200):
            a1 = sample_group(alg, rng, 3)
            a2 = sample_group(alg, rng, 3)
            l = sample_dual(alg, rng, 3)
            if fam in ("aff", "isl"):
                assert a1.vstar == Mat.zero(1, n)
            lhs = coad(compose(a1, a2), l)
            assert lhs == coad(a1, coad(a2, l))
            if fam in ("io", "iso"):
                assert lhs.y.is_skew()
                assert lhs.xi == -lhs.wstar.transpose()


def test_coad_C_rejects_non_orthogonal():
    with pytest.raises(ValueError, match="orthogonal"):
        GroupElem.orthogonal(Mat.diag([2, 1]), Mat.zero(2, 1))
    # a non-orthogonal element moves an io point out of the io dual
    stretch = GroupElem(Mat.diag([2, 1]), Mat.zero(2, 1), Mat.zero(1, 2))
    with pytest.raises(ValueError, match="xi"):
        coad(stretch, DualPoint(Mat.zero(2, 2), Mat.row([1, 0]), family="io"))


def test_pairing_consistency_with_adjoint():
    # <coad(b) l, Ad(b) X> = <l, X>, with Ad built independently from
    # the bracket (translations through the exact nilpotent series)
    rng = Rng(39)
    for n in range(1, 5):
        alg = Algebra("glvv", n)
        for _ in range(15):
            b = sample_group(alg, rng, 3)
            l = sample_dual(alg, rng, 3)
            x = sample_triple(rng, n, 3)
            assert pairing(coad(b, l), Ad(b, x)) == pairing(l, x)


# -- bracket, involution, embedding ---------------------------------------------------

def test_bracket_examples():
    n = 3
    rng = Rng(41)
    x = sample_triple(rng, n, 3)[0]
    u = Mat.col([1, 2, 3])
    v = Mat.row([4, 5, 6])
    got = bracket_b((x, Mat.zero(n, 1), Mat.zero(1, n)),
                    (Mat.zero(n, n), u, Mat.zero(1, n)))
    assert got == (Mat.zero(n, n), x * u, Mat.zero(1, n))
    got = bracket_b((Mat.zero(n, n), u, v), (Mat.zero(n, n), Mat.col([7, 8, 9]), v))
    assert got == triple_zero(n)


def test_bracket_antisymmetry_and_jacobi():
    rng = Rng(42)
    for n in range(1, 5):
        for _ in range(50):
            a = sample_triple(rng, n, 2)
            b = sample_triple(rng, n, 2)
            c = sample_triple(rng, n, 2)
            minus = tuple(-m for m in bracket_b(b, a))
            assert bracket_b(a, b) == minus
            total = tuple(
                p + q + r for p, q, r in zip(bracket_b(a, bracket_b(b, c)),
                                             bracket_b(b, bracket_b(c, a)),
                                             bracket_b(c, bracket_b(a, b))))
            assert total == triple_zero(n)


def test_theta_involution():
    rng = Rng(43)
    for n in range(1, 5):
        for _ in range(40):
            s = sample_triple(rng, n, 3)
            t = sample_triple(rng, n, 3)
            assert theta(theta(s)) == s
            assert theta(bracket_b(s, t)) == bracket_b(theta(s), theta(t))


def test_theta_fixed_set():
    rng = Rng(44)
    for n in range(2, 5):
        for _ in range(30):
            x = sample_skew(rng, n, 3)
            u = Mat([[rng.int_between(-3, 3)] for _ in range(n)])
            fixed = (x, u, -u.transpose())
            assert theta(fixed) == fixed
            s = sample_triple(rng, n, 3)
            is_fixed = theta(s) == s
            belongs = s[0].is_skew() and s[2] == -s[1].transpose()
            assert is_fixed == belongs


def test_embed_M_bracket_and_codim():
    rng = Rng(45)
    for n in range(1, 5):
        for _ in range(40):
            s = sample_triple(rng, n, 3)
            t = sample_triple(rng, n, 3)
            assert embed_M(bracket_b(s, t)) == k_bracket(embed_M(s), embed_M(t))
        assert embed_M(triple_zero(n)) == Mat.zero(n + 1, n + 1)
        basis = algebra_basis(Algebra("glvv", n))
        span = Mat([[embed_M(b)[i, j] for i in range(n + 1) for j in range(n + 1)]
                    for b in basis])
        assert rank(span) == (n + 1) ** 2 - 1


def test_embedded_image_is_an_ideal():
    # bracketing the missing corner direction back into the image
    n = 3
    corner = Mat.unit(n + 1, n, n)
    rng = Rng(46)
    for _ in range(20):
        s = sample_triple(rng, n, 3)
        br = k_bracket(corner, embed_M(s))
        assert br[n, n] == 0  # lands inside the image
        for i in range(n):
            for j in range(n):
                assert br[i, j] == 0


# -- index -------------------------------------------------------------------------

def test_index_values():
    rng = Rng(47)
    for n in range(2, 5):
        assert index_of(Algebra("aff", n), 3, rng) == 0
        assert index_of(Algebra("glvv", n), 3, rng) == n
        assert index_of(Algebra("isl", n), 3, rng) == 1
    for n in range(2, 6):
        expected = (n - 1) // 2 + 1
        assert index_of(Algebra("io", n), 3, rng) == expected
        assert index_of(Algebra("iso", n), 3, rng) == expected


def test_commutator_form_is_skew():
    rng = Rng(48)
    alg = Algebra("glvv", 3)
    l = sample_dual(alg, rng, 3)
    m = commutator_form(alg, l)
    assert m.is_skew()
    assert m.rows == alg.dim


def test_commutator_form_rejects_a_size_mismatch():
    # the table's coordinates are those of an n-point; another size would
    # be read at the wrong positions
    for n, m in ((2, 3), (3, 2)):
        point = sample_dual(Algebra("glvv", m), Rng(50), 3)
        with pytest.raises(ValueError):
            commutator_form(Algebra("glvv", n), point)


def pairing_oracle_form(alg, l):
    """M(l) entry by entry as pairing(l, bracket_b(b_i, b_j)), over matrix
    products and Fractions."""
    basis = algebra_basis(alg)
    return Mat([[pairing(l, bracket_b(bi, bj)) for bj in basis] for bi in basis])


@pytest.mark.parametrize("family", FAMILIES)
def test_commutator_form_matches_the_pairing_oracle(family):
    mixed = False
    for n in range(1, 6):
        alg = Algebra(family, n)
        rng = Rng(49).child(family, n)
        for _ in range(2):
            l = sample_dual(alg, rng, 3)
            # the image's y, wstar and xi carry g^-1 denominators
            image = coad(sample_group(alg, rng, 3), l)
            for point in (l, image):
                got = commutator_form(alg, point)
                assert got == pairing_oracle_form(alg, point)
                a, d = got.num_den()
                assert d > 0 and gcd(d, *[v for row in a for v in row]) == 1
                dens = {m.num_den()[1] for m in (point.y, point.wstar, point.xi)}
                mixed = mixed or len(dens) > 1
    assert mixed


# -- JSON ----------------------------------------------------------------------------

def test_dual_json_roundtrip():
    rng = Rng(49)
    for fam in ("aff", "isl", "glvv", "io"):
        alg = Algebra(fam, 3)
        l = sample_dual(alg, rng, 3)
        alg2, l2 = dual_from_json(dual_to_json(alg, l))
        assert alg2 == alg and l2 == l


def test_group_json_roundtrip():
    rng = Rng(50)
    for fam in ("aff", "glvv", "iso"):
        alg = Algebra(fam, 2)
        e = sample_group(alg, rng, 3)
        alg2, e2 = group_from_json(group_to_json(alg, e))
        assert alg2 == alg and e2 == e


def test_json_writers_refuse_an_algebra_that_disagrees_with_the_value():
    rng = Rng(18)
    point = sample_dual(Algebra("glvv", 2), rng, 3)
    with pytest.raises(ValueError, match="no aff point of size 2"):
        dual_to_json(Algebra("aff", 2), point)  # would drop xi
    with pytest.raises(ValueError, match="no glvv point of size 3"):
        dual_to_json(Algebra("glvv", 3), point)  # would write n 3, which the reader refuses
    elem = GroupElem(Mat.identity(2), Mat.col([1, 2]), Mat.row([0, 1]))
    for fam in ("aff", "isl", "io", "iso"):  # each would drop the nonzero vstar
        with pytest.raises(ValueError, match="no %s group element of size 2" % fam):
            group_to_json(Algebra(fam, 2), elem)
    with pytest.raises(ValueError, match="no aff group element of size 2"):
        group_to_json(Algebra("aff", 2), GroupElem.orthogonal(Mat.identity(2), Mat.col([1, 2])))
    with pytest.raises(ValueError, match="no glvv group element of size 3"):
        group_to_json(Algebra("glvv", 3), elem)
    # what a writer accepts reads back equal: each family's own values, and
    # an element of a smaller group under glvv, which writes every vstar
    for fam in FAMILIES:
        for n in (1, 2, 3):
            alg = Algebra(fam, n)
            l, e = sample_dual(alg, rng, 3), sample_group(alg, rng, 3)
            assert dual_from_json(dual_to_json(alg, l)) == (alg, l)
            assert group_from_json(group_to_json(alg, e)) == (alg, e)
            glvv = Algebra("glvv", n)
            assert group_from_json(group_to_json(glvv, e)) == (glvv, e)


def test_group_json_refuses_non_members():
    zero = Mat.zero(2, 1)
    stretch = {"algebra": "isl", "n": 2, "g": mat_to_json(Mat([[2, 0], [0, 1]])),
               "u": mat_to_json(zero)}
    with pytest.raises(ValueError, match="det g = 1"):
        group_from_json(stretch)
    flip = Mat([[1, 0], [0, -1]])
    mirror = {"algebra": "iso", "n": 2, "g": mat_to_json(flip), "u": mat_to_json(zero)}
    with pytest.raises(ValueError, match="det g = 1"):
        group_from_json(mirror)
    # the reflection is an element of the full orthogonal group
    alg, elem = group_from_json(dict(mirror, algebra="io"))
    assert alg == Algebra("io", 2) and elem == GroupElem.orthogonal(flip, zero)


def test_group_json_writer_refuses_what_the_reader_refuses():
    zero = Mat.zero(2, 1)
    shear = Mat([[1, 1], [0, 1]])
    cases = [("isl", Mat([[2, 0], [0, 1]]), "det g = 1"), ("iso", Mat([[1, 0], [0, -1]]), "det g = 1"),
             ("io", shear, "non-orthogonal"), ("iso", shear, "non-orthogonal")]
    for fam, g, message in cases:
        alg = Algebra(fam, 2)
        with pytest.raises(ValueError, match=message):
            group_to_json(alg, GroupElem(g, zero, -zero.transpose()))
        with pytest.raises(ValueError, match=message):
            group_from_json({"algebra": fam, "n": 2, "g": mat_to_json(g), "u": mat_to_json(zero)})
    # sampled members of every family round trip
    rng = Rng(51)
    for fam in FAMILIES:
        for n in range(1, 5):
            alg = Algebra(fam, n)
            for _ in range(3):
                e = sample_group(alg, rng, 3)
                assert group_from_json(group_to_json(alg, e)) == (alg, e)


def test_dual_json_rejects_mismatch():
    alg = Algebra("glvv", 2)
    obj = dual_to_json(alg, DualPoint(Mat.identity(2), Mat.row([1, 0]), Mat.col([0, 1])))
    obj["n"] = 3
    with pytest.raises(ValueError):
        dual_from_json(obj)


# skew and traceless, so a point of every family's dual
SKEW_Y, ROW_W = Mat([[0, 1, -2], [-1, 0, 3], [2, -3, 0]]), Mat.row([1, -2, 3])


@pytest.mark.parametrize("family", FAMILIES)
def test_a_supplied_xi_is_checked(family):
    # only the fill is taken on trust; glvv takes any n x 1 column
    with pytest.raises(ValueError, match="xi"):
        DualPoint(SKEW_Y, ROW_W, Mat.row([1, 2, 3]), family)
    wrong = Mat.col([1, 1, 1])
    if family == "glvv":
        assert DualPoint(SKEW_Y, ROW_W, wrong, family).xi == wrong
    else:
        with pytest.raises(ValueError, match="xi"):
            DualPoint(SKEW_Y, ROW_W, wrong, family)


@pytest.mark.parametrize("family", FAMILIES)
def test_a_point_built_without_xi_gets_the_family_fill(family):
    point = DualPoint(SKEW_Y, ROW_W, family=family)
    fill = -ROW_W.transpose() if family in ("io", "iso") else Mat.zero(3, 1)
    assert point.xi == fill and point == DualPoint(SKEW_Y, ROW_W, fill, family)
    alg = Algebra(family, 3)
    assert dual_from_json(dual_to_json(alg, point)) == (alg, point)
    for twin in (pickle.loads(pickle.dumps(point)), copy.deepcopy(point)):
        assert twin == point and twin.family == family
    # the constructor is the one way to build a point
    assert not hasattr(DualPoint, "of")


@pytest.mark.parametrize("family, key", [
    ("aff", "xi"), ("isl", "xi"), ("io", "xi"), ("iso", "xi"),
    ("aff", "wstar"), ("isl", "wstar"), ("glvv", "vstar"), ("io", "vstar"), ("iso", "vstar")])
def test_dual_json_refuses_a_component_it_would_drop(family, key):
    # the family fills xi or names its covector otherwise, so the value
    # given would have been dropped unread
    obj = dual_to_json(Algebra(family, 3), DualPoint(SKEW_Y, ROW_W, family=family))
    obj[key] = mat_to_json(Mat.col([3, 3, 3]) if key == "xi" else Mat.row([7, 7, 7]))
    with pytest.raises(ValueError, match="takes no '%s' component" % key):
        dual_from_json(obj)


@pytest.mark.parametrize("family", ["aff", "isl", "io", "iso"])
def test_group_json_refuses_vstar_off_glvv(family):
    # vstar is zero for aff/isl and -u^T for io/iso, never read from JSON
    obj = {"algebra": family, "n": 2, "g": mat_to_json(Mat.identity(2)),
           "u": mat_to_json(Mat.col([1, 0]))}
    assert group_from_json(obj)[0] == Algebra(family, 2)
    with pytest.raises(ValueError, match="takes no 'vstar' component"):
        group_from_json(dict(obj, vstar=mat_to_json(Mat.row([9, 0]))))
