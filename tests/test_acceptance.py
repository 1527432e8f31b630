"""Acceptance criteria, one test per criterion, all exact (tolerance 0).

Each test prints one PASS line (visible with `pytest -s`); a failure
carries the first witness in the assertion message.
"""

import time

from coadinv.charpoly import bordered
from coadinv.exactmat import Mat, det, pfaffian
from coadinv.invariants import (CanonicalPair, EXOTIC_SLICE_SIGN,
                                EXOTIC_SQUARE_SIGN, F_SLICE_SIGN, F_all,
                                PSI_SLICE_SIGN, exotic_phi, psi_all,
                                sample_open_b)
from coadinv.liealg import (Algebra, DualPoint, GroupElem, Rng, coad,
                            commutator_form, index_of, reflection,
                            sample_dual, sample_int_mat, sample_orthogonal)
from coadinv.exactmat import rank
from coadinv.verify import SuiteConfig, _slice_signs, run_suite

SEED = 2026


def run(name, algebra, n_lo, n_hi, samples):
    cfg = SuiteConfig(algebra=algebra, n_lo=n_lo, n_hi=n_hi,
                      samples=samples, seed=SEED)
    report = run_suite(name, cfg)
    assert report.passed, (name, algebra, report.failures[:2])
    return report


def test_criterion_01_semi_invariance():
    start = time.perf_counter()
    run("semi-invariance-f", "aff", 1, 5, 200)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, "semi-invariance run took %.1fs" % elapsed
    print("\nACCEPTANCE 1 PASS: semi-invariance of the determinant generator, "
          "200 samples per n in 1..5, %.1fs" % elapsed)


def test_criterion_02_covariance_and_invariance():
    run("covariance-phi", "aff", 1, 5, 200)
    run("invariance-F", "glvv", 1, 5, 200)
    print("\nACCEPTANCE 2 PASS: row covariance and full-action invariance, "
          "200 samples per n in 1..5")


def test_criterion_03_canonical_evaluation():
    checks = 0
    for n in range(1, 7):
        pair = CanonicalPair.of_size(n)
        for i in range(n):
            l = DualPoint(pair.J, pair.enstar, Mat.basis_col(n, i))
            for k in range(n):
                expected = 1 if n - 1 - k == i else 0
                assert F_all(l)[k] == expected, (n, i, k)
                checks += 1
    print("\nACCEPTANCE 3 PASS: canonical evaluation reads off coordinates, "
          "exhaustive basis columns, n in 1..6 (%d checks)" % checks)


def test_criterion_04_algebraic_independence():
    run("independence", "glvv", 2, 5, 5)
    run("independence", "io", 2, 5, 5)
    run("independence", "iso", 2, 5, 5)
    print("\nACCEPTANCE 4 PASS: Jacobian ranks n (glvv) and ell+1 (io/iso) "
          "at 5 points each, n in 2..5")


def test_criterion_05_index_and_regularity():
    rng = Rng(SEED)
    for n in range(2, 6):
        assert index_of(Algebra("aff", n)) == 0, n
        assert index_of(Algebra("glvv", n)) == n, n
    for n in range(2, 6):
        alg = Algebra("glvv", n)
        for _ in range(20):
            l = sample_open_b(rng, n, 3)
            assert rank(commutator_form(alg, l)) == alg.dim - n, n
    print("\nACCEPTANCE 5 PASS: index 0 (aff) and n (glvv) for n in 2..5; "
          "commutator rank dim-n at 20 open-set points per n")


def test_criterion_06_dual_paths():
    run("dual-path", "glvv", 1, 5, 100)
    run("dual-path", "io", 1, 5, 100)
    run("dual-path", "aff", 1, 5, 100)
    print("\nACCEPTANCE 6 PASS: both formulas agree for every generator, "
          "100 samples per n in 1..5")


def test_criterion_07_odd_even_dichotomy():
    rng = Rng(SEED).child("criterion-7")
    for n in range(1, 6):
        alg = Algebra("io", n)
        for _ in range(100):
            l = sample_dual(alg, rng, 3)
            lb = DualPoint(l.y, l.wstar, -l.wstar.transpose())
            for k in range(1, n, 2):
                assert F_all(lb)[k] == 0, (n, k)
    for n in (3, 5):
        alg = Algebra("iso", n)
        ell = alg.ell
        for _ in range(100):
            l = sample_dual(alg, rng, 3)
            phi = exotic_phi(l)
            # the square identity holds with the frozen sign (the raw
            # generator carries a leading minus, its square cannot)
            assert phi * phi == EXOTIC_SQUARE_SIGN * psi_all(l)[ell], n
            y = bordered(l.y, -l.wstar.transpose(), l.wstar, 0)
            assert pfaffian(y) ** 2 == det(y), n
    for n in (3, 5):
        alg = Algebra("iso", n)
        for _ in range(100):
            l = sample_dual(alg, rng, 3)
            q = sample_orthogonal(rng, n, 3, 1)
            u = sample_int_mat(rng, n, 1, 3)
            assert exotic_phi(coad(GroupElem(q, u, family="iso"), l)) == exotic_phi(l)
            r = GroupElem(q * reflection(n), u, family="io")
            assert exotic_phi(coad(r, l)) == -exotic_phi(l)
    print("\nACCEPTANCE 7 PASS: odd restrictions vanish; exotic square and "
          "Pfaffian square identities; reflection flips the sign, rotations fix it")


def test_criterion_08_slice_agreement():
    for n in range(2, 7):
        assert _slice_signs(n, "isl")["f-vs-t", None] == F_SLICE_SIGN == 1, n
    for n in range(2, 7):
        ell = Algebra("io", n).ell
        signs = _slice_signs(n, "iso")
        for k in range(ell + 1):
            assert signs["psi-vs-phi", k] == PSI_SLICE_SIGN == -1, (n, k)
        if n % 2 == 1:
            assert signs["exotic-vs-slice", None] == EXOTIC_SLICE_SIGN == -1, n
    # the anticipated lowest-index sign in particular
    assert _slice_signs(3, "iso")["psi-vs-phi", 0] == -1
    print("\nACCEPTANCE 8 PASS: slice restrictions proved proportional to the closed "
          "forms as integer polynomials, n in 2..6; frozen signs +1 / -1 / -1 confirmed")


def test_criterion_09_orbit_machinery():
    run("orbit-fibration", "glvv", 2, 5, 100)
    print("\nACCEPTANCE 9 PASS: normal-form round trip and fiber projection, "
          "100 samples per n in 2..5")


def test_criterion_10_structural_checks():
    run("theta", "glvv", 2, 4, 200)
    run("embed-M", "glvv", 2, 4, 200)
    rng = Rng(SEED).child("criterion-10")
    from coadinv.liealg import bracket_b, sample_triple, triple_zero
    for n in range(2, 5):
        for _ in range(200):
            a = sample_triple(rng, n, 2)
            b = sample_triple(rng, n, 2)
            c = sample_triple(rng, n, 2)
            total = tuple(
                p + q + r for p, q, r in zip(bracket_b(a, bracket_b(b, c)),
                                             bracket_b(b, bracket_b(c, a)),
                                             bracket_b(c, bracket_b(a, b))))
            assert total == triple_zero(n), n
    print("\nACCEPTANCE 10 PASS: involution, embedding and Jacobi identity, "
          "200 samples per n in 2..4")
