import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest

from coadinv.exactmat import Mat, det, inverse, mat_mul, mat_to_json, rank
from coadinv.invariants import GENERATORS, orbit_normalize, sample_open_b
from coadinv.liealg import (FAMILIES, Algebra, CanonicalPair, DualPoint, GroupElem, Rng,
                            _form_rank,
                            algebra_basis, bracket_b, cayley, coad,
                            commutator_form, dual_from_json,
                            dual_to_json, embed_M, group_from_json,
                            group_to_json, index_of, k_bracket,
                            project_traceless, sample_dual, sample_gl,
                            sample_group, sample_int_mat, sample_orthogonal,
                            sample_skew, sample_sl,
                            sample_triple, theta, triple_zero)
from oracles import Ad, compose, pairing


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


def _raw_draws(rng, count, lo, hi):
    # the rejection draw stated on next_u64, and how many raw draws it took
    span = hi - lo + 1
    limit = 2 ** 64 - 2 ** 64 % span
    out, raw = [], 0
    while len(out) < count:
        u = rng.next_u64()
        raw += 1
        if u < limit:
            out.append(lo + u % span)
    return out, raw


@pytest.mark.parametrize("lo, hi", [(5, 5), (-3, 3), (-2 ** 62, 2 ** 62),
                                    (-2 ** 63, 2 ** 63 - 1)])
@pytest.mark.parametrize("count", (0, 1, 7, 64))
def test_batched_draws_are_successive_single_draws(count, lo, hi):
    # spans 1, 7, 2^63 + 1 and 2^64: one batch gives the values, the order
    # and the final state of count int_between calls on an equal stream
    for seed in (0, 3, 2 ** 64 - 1):
        batch, single, raw = Rng(seed), Rng(seed), Rng(seed)
        values = batch._draws(count, lo, hi)
        assert values == [single.int_between(lo, hi) for _ in range(count)]
        expected, raws = _raw_draws(raw, count, lo, hi)
        assert values == expected
        assert batch._state == single._state == raw._state
        if hi - lo + 1 == 2 ** 63 + 1 and count == 64:
            assert raws > count  # about half of the raw draws are rejected


def test_batched_draws_refuse_a_bad_range_before_they_draw():
    # past 2^64 values the rejection limit is 0 and no draw would ever
    # return, so the calls run in a child process that a hang cannot outlive
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("from coadinv.liealg import Rng\n"
            "for lo, hi in ((3, 2), (-2 ** 63, 2 ** 63)):\n"
            "    rng = Rng(1)\n"
            "    try:\n"
            "        rng._draws(4, lo, hi)\n"
            "    except ValueError as exc:\n"
            "        print(exc, rng._state == Rng(1)._state)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["empty range True", "range wider than 2^64 True"]


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


def test_cayley_is_the_solve_of_its_factors():
    # the solve (I + S)^-1 (I - S) is the product (I - S)(I + S)^-1 exactly,
    # on integer and on rational skew matrices
    rng = Rng(54)
    for n in range(1, 9):
        ident = Mat.identity(n)
        for _ in range(4):
            s = sample_skew(rng, n, 3)
            for skew in (s, Fraction(2, 3) * s):
                q = cayley(skew)
                assert q == (ident - skew) * inverse(ident + skew)
                assert q.transpose() * q == ident
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


@pytest.mark.parametrize("n", range(1, 9))
def test_integer_samplers_build_canonical_rows(n):
    # each integer sampler builds its rows straight into Mat's canonical
    # form: a tuple-of-lists row or a stray denominator would slip past
    # neither the equality nor the hash of the checked constructor
    for bound in (1, 3, 2 ** 62):
        rng = Rng(100 * n + bound % 97)
        mats = [sample_int_mat(rng, n, n, bound), sample_int_mat(rng, 1, n, bound),
                sample_int_mat(rng, n, 1, bound), sample_skew(rng, n, bound),
                sample_sl(rng, n, bound), sample_gl(rng, n, bound)]
        mats += [sample_dual(Algebra(fam, n), rng, bound).y for fam in ("aff", "isl", "glvv")]
        for m in mats:
            a, d = m.num_den()
            checked = Mat.from_num_den(a, 1)
            assert d == 1 and m == checked and hash(m) == hash(checked)
            assert all(type(v) is int for row in a for v in row)


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
    # every sampler draws through one batch of entries or sample_sl, which
    # refuse before they draw, also at n = 1, where sample_skew and sample_sl
    # draw nothing
    rng = Rng(36)
    draws = [lambda: sample_int_mat(rng, 2, 3, bound)]
    for n in (1, 3):
        draws += [lambda n=n: sample_skew(rng, n, bound), lambda n=n: sample_sl(rng, n, bound),
                  lambda n=n: sample_gl(rng, n, bound), lambda n=n: sample_triple(rng, n, bound),
                  lambda n=n: sample_orthogonal(rng, n, bound, -1)]
        for fam in FAMILIES:
            alg = Algebra(fam, n)
            draws += [lambda alg=alg: sample_dual(alg, rng, bound),
                      lambda alg=alg: sample_group(alg, rng, bound)]
    for draw in draws:
        with pytest.raises(ValueError, match="bound must be >= 1"):
            draw()
    assert rng.next_u64() == Rng(36).next_u64()


# -- coadjoint actions --------------------------------------------------------------

def test_identity_acts_trivially():
    rng = Rng(34)
    n = 3
    ident = GroupElem(Mat.identity(n), Mat.zero(n, 1), Mat.zero(1, n))
    o = GroupElem(Mat.identity(n), Mat.zero(n, 1), family="io")
    assert (o.g, o.u, o.vstar) == (ident.g, ident.u, ident.vstar)
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


def test_isl_coad_builds_one_point(monkeypatch):
    # the trace is projected out of the image's y before its one DualPoint
    # is built; the image is the projected aff image of the same point
    rng = Rng(37)
    alg = Algebra("isl", 3)
    l, b = sample_dual(alg, rng, 3), sample_group(alg, rng, 3)
    projected = project_traceless(coad(b, DualPoint(l.y, l.wstar, family="aff")))
    built = []
    init = DualPoint.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DualPoint, "__init__", counted)
    image = coad(b, l)
    assert len(built) == 1
    assert image == projected and image.family == "isl"


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
            ab = compose(a1, a2)
            assert ab.family == fam  # the group is closed under the product
            lhs = coad(ab, l)
            assert lhs == coad(a1, coad(a2, l))
            if fam in ("io", "iso"):
                assert lhs.y.is_skew()
                assert lhs.xi == -lhs.wstar.transpose()



def test_group_elem_checks_its_family_once():
    # a missing vstar is the family's fill; a supplied one must equal it
    # outside glvv, and each family's group is refused when it is not met
    ident, u = Mat.identity(2), Mat.col([1, 2])
    assert GroupElem(ident, u, family="io").vstar == Mat.row([-1, -2])
    assert GroupElem(ident, u, family="aff").vstar == Mat.zero(1, 2)
    assert GroupElem(ident, u).family == "glvv"
    for fam, vstar, message in [("aff", Mat.row([1, 0]), "aff element needs vstar = 0"),
                                ("isl", Mat.row([1, 0]), "isl element needs vstar = 0"),
                                ("iso", Mat.zero(1, 2), r"iso element needs vstar = -u\^T")]:
        with pytest.raises(ValueError, match=message):
            GroupElem(ident, u, vstar, fam)
    with pytest.raises(ValueError, match="unknown algebra family"):
        GroupElem(ident, u, family="so")
    for fam in FAMILIES:
        with pytest.raises(ValueError, match="singular|non-orthogonal"):
            GroupElem(Mat.zero(2, 2), u, family=fam)

@pytest.mark.parametrize("fam", ["io", "iso"])
def test_orthogonal_elements_invert_by_transpose(fam):
    # the constructor checks g^T g = I and Mat is canonical, so the exact
    # inverse and the transpose are one value
    rng = Rng(52)
    for n in range(1, 9):
        for _ in range(3):
            b = sample_group(Algebra(fam, n), rng, 3)
            assert inverse(b.g) == b.g.transpose()


def test_coad_compose_and_ad_form_no_inverse_on_orthogonal_groups(monkeypatch):
    calls = []

    def spy(a):
        calls.append(a)
        return inverse(a)

    monkeypatch.setattr("coadinv.exactmat.inverse", spy)
    monkeypatch.setattr("coadinv.liealg.inverse", spy)
    rng = Rng(53)
    for fam in FAMILIES:
        alg = Algebra(fam, 3)
        b1, b2, l = sample_group(alg, rng, 3), sample_group(alg, rng, 3), sample_dual(alg, rng, 3)
        t = sample_triple(rng, 3, 3)
        del calls[:]
        coad(b1, l)
        compose(b1, b2)
        Ad(b1, t)
        # the spy sees the exact inverse where it is still formed
        assert len(calls) == (0 if fam in ("io", "iso") else 3), fam


def test_coad_skips_the_zero_product_on_aff_and_isl(monkeypatch):
    # an aff or isl point has xi = 0, so coad forms neither g xi nor xi
    # vstar: four matrix products where every other family takes six
    calls = []

    def spy(a, b):
        calls.append((a, b))
        return mat_mul(a, b)

    monkeypatch.setattr("coadinv.exactmat.mat_mul", spy)
    rng = Rng(55)
    for fam in FAMILIES:
        alg = Algebra(fam, 3)
        b, l = sample_group(alg, rng, 3), sample_dual(alg, rng, 3)
        del calls[:]
        coad(b, l)
        assert len(calls) == (4 if fam in ("aff", "isl") else 6), fam


def test_coad_C_rejects_non_orthogonal():
    with pytest.raises(ValueError, match="orthogonal"):
        GroupElem(Mat.diag([2, 1]), Mat.zero(2, 1), family="io")
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


def _flat(t):
    return [v for row in embed_M(t).to_lists() for v in row]


@pytest.mark.parametrize("family", FAMILIES)
def test_ad_maps_the_basis_into_its_span(family):
    # the basis spans the Lie algebra of the family's group: Ad of sampled
    # group elements, built from the bracket alone, keeps every image in it
    for n in range(1, 5):
        alg = Algebra(family, n)
        rng = Rng(47).child(family, n)
        basis = algebra_basis(alg)
        span = [_flat(t) for t in basis]
        assert rank(Mat(span)) == len(basis) == alg.dim
        for _ in range(3):
            b = sample_group(alg, rng, 3)
            images = [_flat(Ad(b, t)) for t in basis]
            assert rank(Mat(span + images)) == len(basis), (n, b)


@pytest.mark.parametrize("family", ["io", "iso"])
def test_theta_fixes_the_orthogonal_basis(family):
    for n in range(1, 6):
        for t in algebra_basis(Algebra(family, n)):
            assert theta(t) == t, (n, t)


@pytest.mark.parametrize("family", ["io", "iso"])
def test_the_orthogonal_form_is_the_vstar_zero_form_scaled(family):
    # over the old vstar = 0 basis the pairing form is M_0; the theta-fixed
    # V elements pair twice as much, so M = D M_0 D with D = 1 on so(n) and
    # 2 on V, and every rank is unchanged
    for n in range(1, 6):
        alg = Algebra(family, n)
        rng = Rng(51).child(family, n)
        basis = algebra_basis(alg)
        old = [(x, u, Mat.zero(1, n)) for x, u, _ in basis]
        scale = Mat.diag([1] * (len(basis) - n) + [2] * n)
        for _ in range(2):
            l = sample_dual(alg, rng, 3)
            for point in (l, coad(sample_group(alg, rng, 3), l)):
                m0 = Mat([[pairing(point, bracket_b(bi, bj)) for bj in old] for bi in old])
                assert commutator_form(alg, point) == scale * m0 * scale, (n, point)


# -- index -------------------------------------------------------------------------

def index_count(fam, n):
    # the rows of exponent e >= 0 (aff's semi-invariant f has e = -1)
    return sum(count(n) for _, _, count, _, e, _ in GENERATORS[fam] if e >= 0)


def test_index_values():
    # the base pair reaches the index the generator table counts
    for n in range(1, 9):
        for fam in FAMILIES:
            assert index_of(Algebra(fam, n)) == index_count(fam, n), (fam, n)


def test_index_values_at_the_top_size():
    # n = 16, the largest size a suite runs: the sparse rank keeps it quick
    for fam in FAMILIES:
        assert index_of(Algebra(fam, 16)) == index_count(fam, 16), fam


def base_pair_view(alg):
    # the point index_of ranks at, built from its docstring
    n, base = alg.n, CanonicalPair.of_size(alg.n)
    y = base.J - base.J.transpose() if alg.family in ("io", "iso") else base.J
    xi = Mat.basis_col(n, 0) if alg.family == "glvv" else None
    return DualPoint(y, base.enstar, xi, alg.family)


@pytest.mark.parametrize("family", FAMILIES)
def test_sparse_form_rank_matches_the_dense_rank(family):
    # the sparse elimination of the gathered rows against the Bareiss
    # rank of commutator_form: at the zero point, at random integer points,
    # at a coadjoint image (rational coordinates), at the base pair and, on
    # glvv, at the orbit normal form of an open-set point
    for n in range(1, 9):
        alg = Algebra(family, n)
        rng = Rng(57).child(family, n)
        points = [DualPoint(Mat.zero(n, n), Mat.zero(1, n), family=family),
                  sample_dual(alg, rng, 3), sample_dual(alg, rng, 3), base_pair_view(alg)]
        points.append(coad(sample_group(alg, rng, 3), points[1]))
        if family == "glvv":
            points.append(orbit_normalize(sample_open_b(rng, n, 3))[1])
        for point in points:
            assert _form_rank(alg, point) == rank(commutator_form(alg, point)), (n, point)


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
        group_to_json(Algebra("aff", 2), GroupElem(Mat.identity(2), Mat.col([1, 2]), family="io"))
    with pytest.raises(ValueError, match="no glvv group element of size 3"):
        group_to_json(Algebra("glvv", 3), elem)
    # what a writer accepts reads back equal: each family's own values; an
    # element of a smaller group is written under its own family only
    for fam in FAMILIES:
        for n in (1, 2, 3):
            alg = Algebra(fam, n)
            l, e = sample_dual(alg, rng, 3), sample_group(alg, rng, 3)
            assert dual_from_json(dual_to_json(alg, l)) == (alg, l)
            assert group_from_json(group_to_json(alg, e)) == (alg, e)
            if fam != "glvv":
                with pytest.raises(ValueError, match="no glvv group element of size %d" % n):
                    group_to_json(Algebra("glvv", n), e)


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
    assert alg == Algebra("io", 2) and elem == GroupElem(flip, zero, family="io")


def test_group_json_refuses_a_missing_component():
    # a glvv element reads g, u and vstar; without u it is refused by name
    obj = {"algebra": "glvv", "n": 2, "g": mat_to_json(Mat.identity(2)),
           "vstar": mat_to_json(Mat.zero(1, 2))}
    with pytest.raises(ValueError, match="^group JSON is missing a component$"):
        group_from_json(obj)
    obj["u"] = mat_to_json(Mat.zero(2, 1))
    assert group_from_json(obj)[0] == Algebra("glvv", 2)


def test_group_json_writer_refuses_what_the_reader_refuses():
    zero = Mat.zero(2, 1)
    shear = Mat([[1, 1], [0, 1]])
    cases = [("isl", Mat([[2, 0], [0, 1]]), "det g = 1"), ("iso", Mat([[1, 0], [0, -1]]), "det g = 1"),
             ("io", shear, "non-orthogonal"), ("iso", shear, "non-orthogonal")]
    for fam, g, message in cases:
        # a non-member is refused when built, so no writer ever sees one
        with pytest.raises(ValueError, match=message):
            GroupElem(g, zero, family=fam)
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


@pytest.mark.parametrize("read, doc", [(dual_from_json, "point"), (group_from_json, "group")])
def test_json_readers_name_their_document(read, doc):
    # a document without a family or without a size is refused under its own name
    for obj in ({"n": 2}, {"algebra": "aff"}, [], "aff"):
        with pytest.raises(ValueError, match="^%s JSON needs an algebra family and a size n$" % doc):
            read(obj)


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
