import itertools
import json
from fractions import Fraction

import pytest

from coadinv import invariants as inv
from coadinv.charpoly import interp_coeffs
from coadinv.exactmat import ExactnessError, Mat, det, mat_to_json, rank, rat_str
from coadinv.invariants import (EXOTIC_SLICE_SIGN, EXOTIC_SQUARE_SIGN,
                                F_SLICE_SIGN, PSI_SLICE_SIGN)
from coadinv import poly, verify
from coadinv.liealg import (Algebra, DualPoint, GroupElem, Rng, algebra_basis, coad,
                            dual_from_json, dual_to_json, group_from_json, group_to_json,
                            reflection, sample_dual, sample_triple)
from coadinv.verify import (SUITES, SuiteConfig, VerifyReport, _Unit, default_plan,
                            resolve_sign, run_all, run_suite, suite_range)

QUICK = dict(n_lo=1, n_hi=3, samples=6, seed=9)


def quick_cfg(algebra, **overrides):
    params = dict(QUICK)
    params.update(overrides)
    return SuiteConfig(algebra=algebra, **params)


def test_every_suite_passes_quick():
    for name, fam in default_plan():
        spec = SUITES[name]
        lo = max(spec.default_range[0], 1)
        hi = min(spec.default_range[1], 3)
        report = run_suite(name, quick_cfg(fam, n_lo=lo, n_hi=hi))
        assert report.passed, (name, fam, report.failures[:1])
        assert report.checks_run > 0
        assert report.claim


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope", quick_cfg("glvv"))


def test_unsupported_pair():
    with pytest.raises(ValueError, match="does not support"):
        run_suite("invariance-F", quick_cfg("aff"))
    with pytest.raises(ValueError, match="does not support"):
        run_suite("covariance-phi", quick_cfg("io"))


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(samples=0)
    with pytest.raises(ValueError):
        SuiteConfig(n_lo=3, n_hi=2)
    with pytest.raises(ValueError):
        SuiteConfig(n_hi=9)
    with pytest.raises(ValueError, match="bound must be >= 1"):
        SuiteConfig(coeff_bound=0)
    # [-bound, bound] must fit one 64-bit draw
    with pytest.raises(ValueError, match="bound must be <= 2\\^63 - 1"):
        SuiteConfig(coeff_bound=2 ** 63)
    assert SuiteConfig(coeff_bound=2 ** 63 - 1).coeff_bound == 2 ** 63 - 1
    # Rng reduces its seed mod 2^64, so a seed outside one 64-bit word would
    # silently run the stream of another
    for seed in (-1, 2 ** 64, 2 ** 64 + 1, -(2 ** 64) + 1):
        with pytest.raises(ValueError, match="seed must lie within 0..2\\^64 - 1"):
            SuiteConfig(seed=seed)
    assert SuiteConfig(seed=2 ** 64 - 1).seed == 2 ** 64 - 1
    assert SuiteConfig(seed=0).seed == 0


def test_reports_are_deterministic():
    cfg = quick_cfg("glvv")
    r1 = run_suite("invariance-F", cfg).to_json()
    r2 = run_suite("invariance-F", cfg).to_json()
    r1.pop("elapsed_ms")
    r2.pop("elapsed_ms")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_failure_witnesses_are_replayable():
    # force a failure by checking a deliberately wrong identity through the
    # unit that every property body sees
    alg = Algebra("glvv", 3)
    report = VerifyReport(suite="demo", algebra="glvv", claim="demo")
    unit = _Unit(alg, Rng(5), 1, 3, report, {})
    l, a = unit.pair()
    s = sample_triple(unit.rng, 3, 3)
    unit.check("one equals two", Fraction(1), Fraction(2),
               point=l, elem=a, x=l.y, t=Fraction(1, 2), s=s)
    # inputs are encoded only on failure, so a passing check takes anything
    unit.check("one equals one", Fraction(1), Fraction(1), inputs=object())
    assert not report.passed and report.checks_run == 2
    witness, = report.failures
    assert witness["check"] == "one equals two" and witness["n"] == 3
    assert witness["lhs"] == "1" and witness["rhs"] == "2"
    assert witness["inputs"] == {
        "point": dual_to_json(alg, l), "elem": group_to_json(alg, a),
        "x": mat_to_json(l.y), "t": "1/2",
        "s": {"x": mat_to_json(s[0]), "u": mat_to_json(s[1]), "vstar": mat_to_json(s[2])}}
    assert dual_from_json(witness["inputs"]["point"]) == (alg, l)
    assert group_from_json(witness["inputs"]["elem"]) == (alg, a)
    assert json.dumps(report.to_json())  # serializable


def test_exotic_sign_witnesses_replay(monkeypatch):
    # a planted fault fails both exotic checks; each witness holds the point
    # and the rotation, and the flip check's reflected element is rebuilt
    # from the rotation
    real = inv.exotic_phi

    def faulty(l):
        return real(l) + l.wstar[0, 0]
    monkeypatch.setattr(inv, "exotic_phi", faulty)
    report = run_suite("exotic-sign", SuiteConfig(algebra="iso", n_lo=3, n_hi=3,
                                                  samples=4, seed=1))
    for check in ("exotic generator fixed under the special action",
                  "exotic generator flips under a reflection"):
        witness = next(w for w in report.failures if w["check"] == check)
        assert sorted(witness["inputs"]) == ["elem", "point"]
        alg, l = dual_from_json(witness["inputs"]["point"])
        elem_alg, a = group_from_json(witness["inputs"]["elem"])
        assert elem_alg == alg and det(a.g) == 1
        if check.endswith("reflection"):
            lhs = faulty(coad(GroupElem.orthogonal(a.g * reflection(3), a.u), l))
            rhs = -faulty(l)
        else:
            lhs, rhs = faulty(coad(a, l)), faulty(l)
        assert lhs != rhs
        assert (rat_str(lhs), rat_str(rhs)) == (witness["lhs"], witness["rhs"])


def test_index_suite_reports_values():
    report = run_suite("index", quick_cfg("glvv", n_lo=2, n_hi=3, samples=3))
    assert report.passed
    assert any("index" in note for note in report.notes)


def test_invariance_suite_pinned_config():
    cfg = SuiteConfig(algebra="glvv", n_lo=3, n_hi=3, samples=100, seed=7)
    report = run_suite("invariance-F", cfg)
    assert report.passed
    assert report.checks_run == 200  # full action plus covector translation


def test_resolve_sign_frozen_values():
    assert resolve_sign("f-vs-t", 2) == F_SLICE_SIGN == 1
    assert resolve_sign("f-vs-t", 4) == F_SLICE_SIGN
    assert resolve_sign("psi-vs-phi", 3, 0) == PSI_SLICE_SIGN == -1
    assert resolve_sign("psi-vs-phi", 4, 1) == PSI_SLICE_SIGN
    assert resolve_sign("exotic-vs-slice", 3) == EXOTIC_SLICE_SIGN == -1
    assert resolve_sign("exotic-sq-vs-psi", 3) == EXOTIC_SQUARE_SIGN == -1


def _sign_calls(n):
    """Every (pair, n, k) of resolve_sign at size n."""
    calls = [("f-vs-t", n, None)]
    calls += [("psi-vs-phi", n, k) for k in range(Algebra("io", n).ell + 1)]
    if n % 2:
        calls += [("exotic-vs-slice", n, None), ("exotic-sq-vs-psi", n, None)]
    return calls


def test_resolve_sign_proves_the_frozen_signs_past_the_suite_range():
    frozen = {"f-vs-t": F_SLICE_SIGN, "psi-vs-phi": PSI_SLICE_SIGN,
              "exotic-vs-slice": EXOTIC_SLICE_SIGN, "exotic-sq-vs-psi": EXOTIC_SQUARE_SIGN}
    for n in range(1, 13):
        for pair, _, k in _sign_calls(n):
            assert resolve_sign(pair, n, k) == frozen[pair], (pair, n, k)


def _grid_sign(pair, n, k=None):
    """The sign oracle the polynomial proof replaced: the shipped evaluators
    against the closed forms on every nonzero tuple of a grid of about a
    thousand points.  Evidence only: fbar has degree n in b, above the
    grid's four values per variable once n >= 4."""
    if pair == "f-vs-t":
        def sides(a, b):
            return inv.f_bar(inv.slice_isl(a, b)), poly.value(poly.t_slice(n), [*a, b])
        m = n
    elif pair == "psi-vs-phi":
        alg = Algebra("io", n)

        def sides(a, a0):
            return (inv.psi_invariant(k, inv.slice_so(a, a0, alg)),
                    poly.value(poly.phi_slice(n, k), [*a, a0]))
        m = alg.ell + 1
    else:
        alg = Algebra("iso", n)

        def sides(a, a0):
            point = inv.slice_so(a, a0, alg)
            if pair == "exotic-sq-vs-psi":
                return inv.exotic_phi(point) ** 2, inv.psi_invariant(alg.ell, point)
            return inv.exotic_phi(point), poly.value(poly.exotic_slice(n), [*a, a0])
        m = alg.ell + 1
    signs = set()
    values = (-2, -1, 1, 2) if 4 ** m <= 1300 else (-1, 1, 2)
    for params in itertools.product(values, repeat=m):
        lhs, rhs = sides(params[:-1], params[-1])
        if lhs != 0 or rhs != 0:
            assert lhs in (rhs, -rhs), (pair, n, k, params)
            signs.add(1 if lhs == rhs else -1)
    assert len(signs) == 1, (pair, n, k)
    return signs.pop()


def test_resolve_sign_agrees_with_the_grid_oracle():
    for n in range(1, 5):
        for call in _sign_calls(n):
            assert resolve_sign(*call) == _grid_sign(*call), call


def test_resolve_sign_calls_the_evaluator_only_at_the_tie_points(monkeypatch):
    seen = []
    real = inv.f_bar

    def counting(l):
        seen.append(l)
        return real(l)
    monkeypatch.setattr(inv, "f_bar", counting)
    assert resolve_sign("f-vs-t", 4) == F_SLICE_SIGN
    assert seen == [inv.slice_isl((2, 3, 4), 5), inv.slice_isl((1, -2, 3), -4)]


def test_slices_suite_proves_each_slice_once(monkeypatch):
    # one derivation per slice and size: each slice polynomial is built once
    # and each evaluator runs once per tie tuple, however many signs it yields
    counts = {}

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args):
            counts[name] = counts.get(name, 0) + 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)
    for module, names in ((poly, ("fbar_on_slice", "psi_on_slice", "exotic_phi_on_slice")),
                          (inv, ("f_bar", "psi_all", "exotic_phi"))):
        for name in names:
            counting(module, name)
    for fam, expected in (("io", {"psi_on_slice": 5, "exotic_phi_on_slice": 2,
                                  "psi_all": 10, "exotic_phi": 4}),
                          ("iso", {"psi_on_slice": 5, "exotic_phi_on_slice": 2,
                                   "psi_all": 10, "exotic_phi": 4}),
                          ("isl", {"fbar_on_slice": 5, "f_bar": 10})):
        counts.clear()
        assert run_suite("slices", SuiteConfig(algebra=fam, n_lo=2, n_hi=6, samples=1)).passed
        assert counts == expected, fam


def test_resolve_sign_validation():
    with pytest.raises(ValueError):
        resolve_sign("nope", 3)
    with pytest.raises(ValueError):
        resolve_sign("psi-vs-phi", 3)  # missing k
    with pytest.raises(ValueError):
        resolve_sign("exotic-vs-slice", 4)  # even n
    with pytest.raises(ValueError):
        resolve_sign("f-vs-t", 0)  # no size below 1
    with pytest.raises(ValueError):
        resolve_sign("psi-vs-phi", 3, 2)  # k past ell
    # only psi-vs-phi takes a k: any other pair refuses one it would ignore
    with pytest.raises(ValueError, match="takes no generator index"):
        resolve_sign("f-vs-t", 3, 7)
    with pytest.raises(ValueError, match="takes no generator index"):
        resolve_sign("exotic-vs-slice", 3, 99)
    with pytest.raises(ValueError, match="takes no generator index"):
        resolve_sign("exotic-sq-vs-psi", 3, 0)


def test_resolve_sign_reports_a_bug_as_an_exactness_error(monkeypatch):
    real = poly.t_slice
    monkeypatch.setattr(poly, "t_slice", lambda n: poly.add({}, real(n), 2))
    with pytest.raises(ExactnessError, match="not proportional"):
        resolve_sign("f-vs-t", 3)
    monkeypatch.setattr(inv, "f_bar", lambda l: Fraction(0))
    monkeypatch.setattr(poly, "t_slice", lambda n: {})
    with pytest.raises(ExactnessError, match="not proportional - investigate"):
        resolve_sign("f-vs-t", 3)


def _dependent(real):
    """The generator tuple with its top entry replaced by a copy of the
    first, or by zero when it has one entry: a family of lower rank."""
    def values(l):
        vals = real(l)
        return vals[:-1] + ((vals[0],) if len(vals) > 1 else (Fraction(0),))
    return values


@pytest.mark.parametrize("fam", ["glvv", "io", "iso"])
def test_independence_catches_a_dependent_family(monkeypatch, fam):
    # the suite must evaluate the generators of the unit's family; a point
    # moved along a glvv direction would be read with F_all instead
    own, other = ("F_all", "psi_all") if fam == "glvv" else ("psi_all", "F_all")
    monkeypatch.setattr(inv, own, _dependent(getattr(inv, own)))

    def elsewhere(l):
        pytest.fail("%s evaluated by the %s independence suite" % (other, fam))
    monkeypatch.setattr(inv, other, elsewhere)
    report = run_suite("independence", quick_cfg(fam, n_lo=2, n_hi=3, samples=1))
    assert not report.passed


def test_independence_stops_resampling_a_dependent_family(monkeypatch):
    # once one sample uses up its draws, each later sample of the unit draws once
    monkeypatch.setattr(inv, "F_all", _dependent(inv.F_all))
    draws = []
    real = verify.sample_dual

    def counted(*args):
        draws.append(args[0])
        return real(*args)
    monkeypatch.setattr(verify, "sample_dual", counted)
    cfg = SuiteConfig(algebra="glvv", n_lo=4, n_hi=4, samples=5, seed=1)
    report = run_suite("independence", cfg)
    assert len(draws) <= verify._RETRY_CAP + cfg.samples - 1
    assert not report.passed and report.checks_run == cfg.samples


def _full_jacobian_rank(alg, point, degree_bound):
    """The rank of the Jacobian with every direction's row computed, at
    nodes built here from the basis triples; io and iso nodes are given
    their xi = -wstar^T, so the point's own check sees it."""
    def values(p):
        return [value for _, _, value in inv.generators(p)]
    rows = []
    for x, u, v in algebra_basis(alg):
        samples = []
        for t in range(degree_bound + 2):
            w = point.wstar + t * u.transpose()
            xi = point.xi + t * v.transpose() if alg.family == "glvv" else -w.transpose()
            samples.append(values(DualPoint(point.y + t * x, w, xi, alg.family)))
        coeffs = [interp_coeffs([s[i] for s in samples]) for i in range(len(samples[0]))]
        assert all(c[-1] == 0 for c in coeffs)  # the bound holds on this line
        rows.append([c[1] for c in coeffs])
    return rank(Mat(rows))


@pytest.mark.parametrize("fam", ["glvv", "io", "iso"])
@pytest.mark.parametrize("n", range(1, 6))
def test_jacobian_rank_stops_at_the_full_rank(fam, n):
    # bound 1 draws many degenerate points, and the zero point is one
    alg = Algebra(fam, n)
    directions = verify._directions(alg)
    points = [DualPoint(Mat.zero(n, n), Mat.zero(1, n), family=fam)]
    for bound in (3, 1):
        rng = Rng(n).child(fam, bound)
        points += [sample_dual(alg, rng, bound) for _ in range(4)]
    for point in points:
        assert (verify._jacobian_rank(point, directions, n + 1)
                == _full_jacobian_rank(alg, point, n + 1))


def _counted_generators(monkeypatch):
    calls = []
    real = inv.generators

    def counted(l):
        calls.append(l)
        return real(l)
    monkeypatch.setattr(inv, "generators", counted)
    return calls


def test_jacobian_rank_of_a_generic_point_reads_n_directions(monkeypatch):
    # at f != 0 the n xi directions alone give rank n: the point, then
    # n + 1 nodes along each of them, where every direction would take 121
    n = 4
    alg = Algebra("glvv", n)
    point = sample_dual(alg, Rng(1), 3)
    assert inv.f_invariant(point) != 0
    calls = _counted_generators(monkeypatch)
    assert verify._jacobian_rank(point, verify._directions(alg), n + 1) == n
    assert len(calls) <= 1 + n * (n + 1)


def test_jacobian_rank_builds_each_node_once(monkeypatch):
    # one point per interpolation node: n directions reach rank n at this
    # point, with n + 1 nodes along each
    n = 4
    alg = Algebra("glvv", n)
    point = sample_dual(alg, Rng(1), 3)
    directions = verify._directions(alg)
    built = []
    real = DualPoint.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)
    monkeypatch.setattr(DualPoint, "__init__", counted)
    assert verify._jacobian_rank(point, directions, n + 1) == n
    assert len(built) == n * (n + 1)


def test_jacobian_rank_of_a_dependent_family_reads_every_direction(monkeypatch):
    n = 4
    monkeypatch.setattr(inv, "F_all", _dependent(inv.F_all))
    alg = Algebra("glvv", n)
    directions = verify._directions(alg)
    calls = _counted_generators(monkeypatch)
    assert verify._jacobian_rank(sample_dual(alg, Rng(1), 3), directions, n + 1) < n
    assert len(calls) == 1 + (n + 1) * len(directions)


@pytest.mark.parametrize("n", range(1, 6))
def test_gradient_Bk_recursion_runs_once_per_node(monkeypatch, n):
    # every k shares the nodes x + t y, t = 0..n+1
    calls = []
    real = verify.char_data
    monkeypatch.setattr(verify, "char_data", lambda m: calls.append(m) or real(m))
    cfg = SuiteConfig(algebra="glvv", n_lo=n, n_hi=n, samples=4, seed=3)
    report = run_suite("gradient-Bk", cfg)
    assert report.passed and report.checks_run == n * cfg.samples
    assert len(calls) <= (n + 2) * cfg.samples


def test_run_all_quick():
    reports = run_all(seed=9, samples=4, n_max=2)
    assert all(r.passed for r in reports)
    names = {(r.suite, r.algebra) for r in reports}
    assert names == set(default_plan())


def test_run_all_refuses_an_empty_range(monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "run_suite", lambda name, cfg: calls.append(name))
    # independence supports n in 2..5, so n_max = 1 leaves it nothing to run; the
    # whole plan is refused before any suite starts
    with pytest.raises(ValueError, match="'independence' on glvv supports n in 2..5"):
        run_all(seed=9, samples=2, n_max=1)
    assert calls == []
    # exotic-sign checks odd n only: n = 2 alone is refused before any suite runs
    with pytest.raises(ValueError, match="'exotic-sign' on io checks odd n only"):
        run_all(seed=9, samples=2, n_min=2, n_max=2)
    assert calls == []
    assert suite_range("index", "aff", n_min=3, n_max=9) == (3, 5)
    assert suite_range("exotic-sign", "iso", n_min=2, n_max=3) == (2, 3)
    run_all(seed=9, samples=2, n_max=2)
    assert len(calls) == len(default_plan())
