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
                            reflection, sample_dual, sample_group, sample_triple)
from coadinv.verify import (SUITES, SuiteConfig, VerifyReport, _Unit, _slice_signs,
                            default_plan, run_all, run_suite, suite_range)

import oracles

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


def test_embed_M_embeds_each_basis_element_once(monkeypatch):
    # one glvv unit at n = 4 with one sample: three embeddings for the
    # bracket check, one per basis element (dim 24) for the span, one for zero
    calls = []
    embed = verify.embed_M

    def counted(t):
        calls.append(t)
        return embed(t)

    monkeypatch.setattr(verify, "embed_M", counted)
    report = run_suite("embed-M", SuiteConfig("glvv", n_lo=4, n_hi=4, samples=1, seed=9))
    assert report.passed
    assert len(calls) == 3 + Algebra("glvv", 4).dim + 1 == 28


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
    # sizes run up to n = 16
    with pytest.raises(ValueError, match="n range must lie within 1..16"):
        SuiteConfig(n_hi=17)
    assert SuiteConfig(n_lo=16, n_hi=16).n_hi == 16
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


def test_run_suite_builds_only_the_sizes_an_odd_only_suite_checks(monkeypatch):
    # run_suite alone decides the sizes: the exotic-sign body never sees an
    # even n, and skipping the even sizes changes neither the report (13
    # checks over n = 1..5) nor the refusal of a range with no odd size
    spec, sizes = SUITES["exotic-sign"], []

    def spy(unit):
        sizes.append(unit.n)
        return spec.func(unit)
    monkeypatch.setitem(SUITES, "exotic-sign", verify._SuiteSpec(
        spy, spec.claim, spec.families, spec.default_range, spec.samples_cap, spec.odd_only))
    cfg = SuiteConfig(algebra="iso", n_lo=1, n_hi=5, samples=2, seed=1)
    report = run_suite("exotic-sign", cfg).to_json()
    assert sizes == [1, 3, 5]
    del report["elapsed_ms"]
    assert report == {"suite": "exotic-sign", "algebra": "iso", "claim": spec.claim,
                      "checks_run": 13, "passed": True, "failures": [], "notes": []}
    with pytest.raises(ValueError, match=r"checks nothing at n in 4\.\.4"):
        run_suite("exotic-sign", SuiteConfig(algebra="iso", n_lo=4, n_hi=4, samples=2, seed=1))
    assert sizes == [1, 3, 5]


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
            lhs = faulty(coad(GroupElem(a.g * reflection(3), a.u, family="io"), l))
            rhs = -faulty(l)
        else:
            lhs, rhs = faulty(coad(a, l)), faulty(l)
        assert lhs != rhs
        assert (rat_str(lhs), rat_str(rhs)) == (witness["lhs"], witness["rhs"])


def test_covariance_phi_witnesses_replay(monkeypatch):
    # a planted fault in the row covariants fails the covariance check; the
    # witness holds the aff point and element, and both sides, the moved
    # row times g and the row at the point, rebuild from them
    real = inv.phi_rows

    def faulty(l):
        top, *rest = real(l)
        return [top + l.wstar * l.wstar[0, 0]] + rest
    monkeypatch.setattr(inv, "phi_rows", faulty)
    report = run_suite("covariance-phi", SuiteConfig(algebra="aff", n_lo=2, n_hi=2,
                                                     samples=4, seed=1))
    witness = report.failures[0]
    assert witness["check"] == "row covariant transforms by g^-1 (k=1)"
    assert sorted(witness["inputs"]) == ["elem", "point"]
    alg, l = dual_from_json(witness["inputs"]["point"])
    elem_alg, a = group_from_json(witness["inputs"]["elem"])
    assert alg == elem_alg == Algebra("aff", 2)
    lhs, rhs = faulty(coad(a, l))[0] * a.g, faulty(l)[0]
    assert lhs != rhs
    assert (repr(lhs), repr(rhs)) == (witness["lhs"], witness["rhs"])
    # the unfaulted rows pass at the same draw
    assert real(coad(a, l))[0] * a.g == real(l)[0]


def test_orbit_fibration_witnesses_replay(monkeypatch):
    # a planted fault in the fiber projection fails the normal-form check;
    # its witness holds the glvv point and the affine element under their
    # own families, and both sides rebuild from them
    real = inv.pi_projection
    monkeypatch.setattr(inv, "pi_projection", lambda l: real(l) * 2)
    report = run_suite("orbit-fibration", SuiteConfig(algebra="glvv", n_lo=2, n_hi=2,
                                                      samples=4, seed=1))
    witness = report.failures[0]
    assert witness["check"] == "normal form third component is the fiber projection"
    alg, l = dual_from_json(witness["inputs"]["point"])
    elem_alg, a = group_from_json(witness["inputs"]["elem"])
    assert alg == Algebra("glvv", 2) and elem_alg == Algebra("aff", 2)
    assert "vstar" not in witness["inputs"]["elem"] and a.family == "aff"
    normal = inv.orbit_normalize(l)[1]
    assert (repr(normal.xi), repr(inv.pi_projection(l))) == (witness["lhs"], witness["rhs"])
    # the element replays the passing checks of the same draw
    moved = coad(a, l)
    assert inv.orbit_normalize(moved)[1] == normal and real(moved) == real(l)


BORDERED = "bordered coefficient identities hold (corner %s)"


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("fault", ["X-coefficient", "B_k(y)-entry"])
def test_dual_path_catches_a_planted_bordered_fault(monkeypatch, fault, n):
    # the bordered identity reads both of its sides off char_data: p_3 of
    # the cornered X, or entry (0, 0) of B_1(y), off by one fails it, with
    # the point and the corner in the witness, and both sides replay from them
    real = verify.char_data

    def planted(m):
        p, B = real(m)
        if fault == "X-coefficient" and m.rows == n + 1:
            return p[:2] + (p[2] + 1,) + p[3:], B
        if fault == "B_k(y)-entry" and m.rows == n:
            return p, (B[0], B[1] + Mat.unit(n, 0, 0), *B[2:])
        return p, B
    monkeypatch.setattr(verify, "char_data", planted)
    report = run_suite("dual-path", SuiteConfig(algebra="glvv", n_lo=n, n_hi=n,
                                                samples=6, seed=1))
    assert report.failures
    for witness in report.failures:
        assert sorted(witness["inputs"]) == ["corner", "point"]
        a = Fraction(witness["inputs"]["corner"])
        assert witness["check"] == BORDERED % rat_str(a)
        alg, l = dual_from_json(witness["inputs"]["point"])
        assert alg == Algebra("glvv", n)
        lhs = planted(verify.bordered(l.y, l.xi, l.wstar, a))[0][1:]
        py, B = planted(l.y)
        py += (Fraction(0),)
        rhs = tuple(py[k + 1] - a * py[k] + (l.wstar * B[k] * l.xi)[0, 0] for k in range(n))
        assert lhs != rhs
        assert (verify._render(lhs), verify._render(rhs)) == (witness["lhs"], witness["rhs"])
        # the side the fault leaves alone is the oracle's
        truth = oracles.bordered_coefficients(l.y, l.xi, l.wstar, a)
        assert (rhs if fault == "X-coefficient" else lhs) == truth


def test_dual_path_draws_a_zero_and_a_nonzero_corner(monkeypatch):
    # the corner a of X = [[y, xi], [wstar, a]] is drawn per sample: a
    # default glvv run checks the identity both at a = 0, where it reads the
    # pairings wstar B_k(y) xi straight, and at a != 0
    corners, real = [], verify.bordered
    monkeypatch.setattr(verify, "bordered",
                        lambda y, v, w, a: corners.append(a) or real(y, v, w, a))
    report = run_suite("dual-path", SuiteConfig(algebra="glvv"))
    assert report.passed and len(corners) == 5 * 100
    assert 0 in corners and any(corners)


def test_index_suite_reports_values():
    report = run_suite("index", quick_cfg("glvv", n_lo=2, n_hi=3, samples=3))
    assert report.passed
    assert any("index" in note for note in report.notes)


def test_index_suite_runs_past_the_old_cap():
    # the open-set ranks are taken at the orbit normal form, so glvv n = 12
    # is a quick unit
    report = run_suite("index", SuiteConfig(algebra="glvv", n_lo=12, n_hi=12, samples=2,
                                            seed=1))
    assert report.passed and report.checks_run == 3
    assert report.notes == ["glvv n=12: index 12"]


def test_invariance_suite_pinned_config():
    cfg = SuiteConfig(algebra="glvv", n_lo=3, n_hi=3, samples=100, seed=7)
    report = run_suite("invariance-F", cfg)
    assert report.passed
    assert report.checks_run == 200  # full action plus covector translation


def _with_exponent(monkeypatch, fam, name, e):
    # plant a wrong character: the family's row `name` declares exponent e
    rows = tuple(row[:4] + (e,) + row[5:] if row[0] == name else row
                 for row in inv.GENERATORS[fam])
    monkeypatch.setitem(inv.GENERATORS, fam, rows)


def test_a_wrong_character_fails_verify(monkeypatch):
    # the suites read each character off GENERATORS, so a wrong exponent
    # there is a failed check, not a silently passing run
    aff = SuiteConfig(algebra="aff", n_lo=1, n_hi=3, samples=5, seed=1)
    iso = SuiteConfig(algebra="iso", n_lo=3, n_hi=3, samples=5, seed=1)
    assert run_suite("semi-invariance-f", aff).passed
    assert run_suite("exotic-sign", iso).passed
    _with_exponent(monkeypatch, "aff", "f", 0)
    _with_exponent(monkeypatch, "iso", "phi", 0)
    assert run_suite("semi-invariance-f", aff).failures
    flips = {w["check"] for w in run_suite("exotic-sign", iso).failures}
    assert flips == {"exotic generator flips under a reflection"}


@pytest.mark.parametrize("suite, fam", [(name, fam) for name in
                                        ("semi-invariance-f", "invariance-F", "invariance-psi")
                                        for fam in SUITES[name].families])
def test_invariance_witnesses_replay(monkeypatch, suite, fam):
    # a planted non-invariant fault fails the one invariance body on every
    # family; the first witness rebuilds its point and element, and both
    # sides, recomputed through the library, render as its tuples
    real = inv.generators

    def faulty(l):
        (name, k, v), *rest = real(l)
        return [(name, k, v + l.wstar[0, 0])] + rest
    monkeypatch.setattr(inv, "generators", faulty)
    report = run_suite(suite, SuiteConfig(algebra=fam, n_lo=1, n_hi=3, samples=4, seed=1))
    witness = report.failures[0]
    assert witness["check"] == "generators pick up det(g)^e under the action"
    alg, l = dual_from_json(witness["inputs"]["point"])
    elem_alg, a = group_from_json(witness["inputs"]["elem"])
    assert alg == elem_alg == Algebra(fam, witness["n"])
    exps = [e for _, _, count, _, e, _ in inv.GENERATORS[fam] for _ in range(count(alg.n))]
    lhs = [v for _, _, v in faulty(coad(a, l))]
    rhs = [v * det(a.g) ** e for (_, _, v), e in zip(faulty(l), exps)]
    assert lhs != rhs
    assert [witness["lhs"], witness["rhs"]] == [
        "(" + ", ".join(rat_str(v) for v in side) + ")" for side in (lhs, rhs)]


def test_no_check_compares_a_float(monkeypatch):
    # 1.0 == Fraction(1) holds, so a float side would pass unnoticed: every
    # leaf of every compared side is exact
    real, leaves = verify._record, set()

    def spy(report, name, n, lhs, rhs, inputs):
        stack = [lhs, rhs]
        while stack:
            value = stack.pop()
            if isinstance(value, (tuple, list)):
                stack.extend(value)
            else:
                leaves.add(type(value))
        real(report, name, n, lhs, rhs, inputs)
    monkeypatch.setattr(verify, "_record", spy)
    reports = run_all(seed=1, samples=2, n_max=3)
    assert sum(r.checks_run for r in reports) == 268
    assert float not in leaves
    assert leaves <= {Fraction, Mat, int, bool, type(None)}


# the slice signs are read off _slice_signs(n, family)[pair, k]: f-vs-t on
# the isl slice, every other pair on the iso slice

def test_resolve_sign_frozen_values():
    assert _slice_signs(2, "isl")["f-vs-t", None] == F_SLICE_SIGN == 1
    assert _slice_signs(4, "isl")["f-vs-t", None] == F_SLICE_SIGN
    assert _slice_signs(3, "iso")["psi-vs-phi", 0] == PSI_SLICE_SIGN == -1
    assert _slice_signs(4, "iso")["psi-vs-phi", 1] == PSI_SLICE_SIGN
    assert _slice_signs(3, "iso")["exotic-vs-slice", None] == EXOTIC_SLICE_SIGN == -1
    assert _slice_signs(3, "iso")["exotic-sq-vs-psi", None] == EXOTIC_SQUARE_SIGN == -1


def _sign_calls(n):
    """Every (family, pair, k) of the slice signs at size n."""
    calls = [("isl", "f-vs-t", None)]
    calls += [("iso", "psi-vs-phi", k) for k in range(Algebra("io", n).ell + 1)]
    if n % 2:
        calls += [("iso", "exotic-vs-slice", None), ("iso", "exotic-sq-vs-psi", None)]
    return calls


def test_resolve_sign_proves_the_frozen_signs_past_the_suite_range():
    frozen = {"f-vs-t": F_SLICE_SIGN, "psi-vs-phi": PSI_SLICE_SIGN,
              "exotic-vs-slice": EXOTIC_SLICE_SIGN, "exotic-sq-vs-psi": EXOTIC_SQUARE_SIGN}
    for n in range(1, 13):
        signs = {fam: _slice_signs(n, fam) for fam in ("isl", "iso")}
        assert [key for fam in signs for key in signs[fam]] \
            == [(pair, k) for _, pair, k in _sign_calls(n)], n
        for fam, pair, k in _sign_calls(n):
            assert signs[fam][pair, k] == frozen[pair], (pair, n, k)


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
            return (inv.psi_all(inv.slice_so(a, a0, alg))[k],
                    poly.value(poly.phi_slice(n, k), [*a, a0]))
        m = alg.ell + 1
    else:
        alg = Algebra("iso", n)

        def sides(a, a0):
            point = inv.slice_so(a, a0, alg)
            if pair == "exotic-sq-vs-psi":
                return inv.exotic_phi(point) ** 2, inv.psi_all(point)[alg.ell]
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
        for fam, pair, k in _sign_calls(n):
            assert _slice_signs(n, fam)[pair, k] == _grid_sign(pair, n, k), (pair, n, k)


def test_resolve_sign_calls_the_evaluator_only_at_the_tie_points(monkeypatch):
    seen = []
    real = inv.f_bar

    def counting(l):
        seen.append(l)
        return real(l)
    monkeypatch.setattr(inv, "f_bar", counting)
    assert _slice_signs(4, "isl") == {("f-vs-t", None): F_SLICE_SIGN}
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


def test_resolve_sign_reports_a_bug_as_an_exactness_error(monkeypatch):
    real = poly.t_slice
    monkeypatch.setattr(poly, "t_slice", lambda n: poly.add({}, real(n), 2))
    with pytest.raises(ExactnessError, match="not proportional"):
        _slice_signs(3, "isl")
    monkeypatch.setattr(inv, "f_bar", lambda l: Fraction(0))
    monkeypatch.setattr(poly, "t_slice", lambda n: {})
    with pytest.raises(ExactnessError, match="not proportional - investigate"):
        _slice_signs(3, "isl")


def _dependent(real):
    """The generator tuple with its top entry replaced by a copy of the
    first, or by zero when it has one entry: a family of lower rank."""
    def values(l):
        vals = real(l)
        return vals[:-1] + ((vals[0],) if len(vals) > 1 else (Fraction(0),))
    return values


def _dependent_rows(monkeypatch):
    """Plant a dependent family where the independence suite reads its
    Jacobian: each row of derivatives as _dependent leaves a tuple."""
    real = verify._bordered_jacobian
    monkeypatch.setattr(verify, "_bordered_jacobian",
                        lambda *args: map(_dependent(lambda row: row), real(*args)))


@pytest.mark.parametrize("fam", ["glvv", "io", "iso"])
def test_independence_catches_a_dependent_family(monkeypatch, fam):
    # the suite ranks the bordered polynomials' rows and evaluates no
    # generator: a point moved along a direction would be read with one
    _dependent_rows(monkeypatch)
    for name in ("F_all", "psi_all", "exotic_phi"):
        monkeypatch.setattr(inv, name, lambda l, name=name: pytest.fail(
            "%s evaluated by the %s independence suite" % (name, fam)))
    report = run_suite("independence", quick_cfg(fam, n_lo=2, n_hi=3, samples=1))
    assert not report.passed


def test_independence_stops_resampling_a_dependent_family(monkeypatch):
    # once one sample uses up its draws, each later sample of the unit draws once
    _dependent_rows(monkeypatch)
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


def test_a_dependent_evaluator_still_fails_verify_all(monkeypatch, tmp_path, capsys):
    # independence differentiates the bordered polynomials, not the shipped
    # evaluators; dual-path ties F_all and psi_all to those polynomials, so
    # a dependent evaluator still fails verify --all, and independence passes
    from coadinv.cli import main
    argv = ["verify", "--all", "--samples", "2", "--seed", "9", "--n-max", "3"]
    out = str(tmp_path / "reports.json")
    real = inv.F_all
    monkeypatch.setattr(inv, "F_all", _dependent(real))
    assert main(argv + ["--output", out]) == 1
    with open(out, encoding="utf-8") as fh:
        failed = {(r["suite"], r["algebra"]) for r in json.load(fh) if not r["passed"]}
    assert failed == {("dual-path", "glvv"), ("orbit-fibration", "glvv")}
    monkeypatch.setattr(inv, "F_all", real)
    monkeypatch.setattr(inv, "psi_all", _dependent(inv.psi_all))
    # the slices proof refuses first: the whole run ends with exit 1 and no report
    assert main(argv) == 1
    assert "not proportional" in capsys.readouterr().err
    for suite, fam in [("dual-path", "io"), ("invariance-psi", "iso"), ("independence", "iso")]:
        report = run_suite(suite, quick_cfg(fam, n_lo=2, n_hi=3))
        assert report.passed == (suite != "dual-path"), (suite, fam)


# the bound the interpolating oracle derives along each coordinate
# direction: the entries of [[y, xi], [wstar, 0]] it moves
_COORDINATE_DEGREE = {"glvv": 1, "io": 2, "iso": 2}


def _full_jacobian_rank(alg, point, degree_bound):
    """The rank of the Jacobian with every direction's row computed, at
    nodes built here from the basis triples; an io/iso triple moves xi
    with wstar, and the point's own check sees that it does.  Every line
    must have no coefficient past the coordinate degree."""
    def values(p):
        return [value for _, _, value in inv.generators(p)]
    rows = []
    for x, u, v in algebra_basis(alg):
        samples = []
        for t in range(degree_bound + 2):
            node = DualPoint(point.y + t * x, point.wstar + t * u.transpose(),
                             point.xi + t * v.transpose(), alg.family)
            samples.append(values(node))
        coeffs = [interp_coeffs([s[i] for s in samples]) for i in range(len(samples[0]))]
        past = [c[_COORDINATE_DEGREE[alg.family] + 1:] for c in coeffs]
        assert not any(any(p) for p in past), (point, x, u, v)
        rows.append([c[1] for c in coeffs])
    return rank(Mat(rows))


@pytest.mark.parametrize("fam", ["glvv", "io", "iso"])
@pytest.mark.parametrize("n", range(1, 6))
def test_jacobian_rank_stops_at_the_full_rank(monkeypatch, fam, n):
    # bound 1 draws many degenerate points, and the zero point is one; the
    # early-exit rank equals the full rank of the interpolating oracle, which
    # reads every direction at its derived bound, the coordinate degree, and
    # of a second oracle that reads every direction at the total-degree bound
    alg = Algebra(fam, n)
    picks, moves = verify._jacobian_plan(alg)
    points = [DualPoint(Mat.zero(n, n), Mat.zero(1, n), family=fam)]
    for bound in (3, 1):
        rng = Rng(n).child(fam, bound)
        points += [sample_dual(alg, rng, bound) for _ in range(4)]
    bounds = []
    real = oracles._taylor
    monkeypatch.setattr(oracles, "_taylor", lambda v, b: bounds.append(b) or real(v, b))
    for point in points:
        full = rank(Mat(oracles.interpolated_jacobian(point, oracles.directions(alg))))
        assert verify._jacobian_rank(point, picks, moves) == full \
            == _full_jacobian_rank(alg, point, n + 1)
    assert set(bounds) == {_COORDINATE_DEGREE[fam]}


def _test_points(fam, n):
    """The zero point, draws at bounds 1 and 3, coad images (with a
    denominator other than 1 but at io/iso n = 1, whose group is +-1), and
    on iso at n = 3 and 5 draws where the exotic generator vanishes."""
    alg = Algebra(fam, n)
    rng = Rng(n).child("jacobian-rows", fam)
    points = [DualPoint(Mat.zero(n, n), Mat.zero(1, n), family=fam)]
    points += [sample_dual(alg, rng, bound) for bound in (1, 3)]
    images = [coad(sample_group(alg, rng, 3), sample_dual(alg, rng, 3)) for _ in range(16)]
    rational = [p for p in images if p.y.num_den()[1] > 1 or p.wstar.num_den()[1] > 1]
    assert rational or (fam != "glvv" and n == 1)
    points += (rational + images)[:2]
    if fam == "iso" and n in (3, 5):
        draws = [sample_dual(alg, rng, 1) for _ in range(40)]
        vanishing = [p for p in draws if inv.exotic_phi(p) == 0]
        assert len(vanishing) >= 2
        points += vanishing[:2]
    return points


@pytest.mark.parametrize("fam", ["glvv", "io", "iso"])
@pytest.mark.parametrize("n", range(1, 9))
def test_gradient_rows_equal_the_interpolated_rows(fam, n):
    # every direction's row of the bordered recursion equals, entry for
    # entry, the interpolating oracle's row, and the early-exit rank the
    # oracle's full rank, at points where the rank falls too
    alg = Algebra(fam, n)
    picks, moves = verify._jacobian_plan(alg)
    for point in _test_points(fam, n):
        rows = list(verify._bordered_jacobian(point.y, point.xi, point.wstar, picks, moves))
        oracle = oracles.interpolated_jacobian(point, oracles.directions(alg))
        assert [list(row) for row in rows] == oracle, point
        assert verify._jacobian_rank(point, picks, moves) == rank(Mat(oracle))


def _generic_bordered(fam, n):
    """(m, M, y): M = [[y, xi], [wstar, 0]] as a matrix of polynomials in
    m variables, one per coordinate of the family's dual: every entry of y,
    then xi, then wstar on glvv; the y_ij, i < j, then wstar on io/iso,
    with y skew and xi = -wstar^T."""
    if fam == "glvv":
        m = n * n + 2 * n
        y = [[poly.var(i * n + j, m) for j in range(n)] for i in range(n)]
        xi = [poly.var(n * n + i, m) for i in range(n)]
        w = [poly.var(n * n + n + j, m) for j in range(n)]
    else:
        pairs = list(itertools.combinations(range(n), 2))
        m = len(pairs) + n
        y = [[{} for _ in range(n)] for _ in range(n)]
        for c, (i, j) in enumerate(pairs):
            y[i][j], y[j][i] = poly.var(c, m), poly.add({}, poly.var(c, m), -1)
        w = [poly.var(len(pairs) + j, m) for j in range(n)]
        xi = [poly.add({}, v, -1) for v in w]
    return m, [row + [x] for row, x in zip(y, xi)] + [w + [{}]], y


def _coordinates(fam, point):
    y, w = point.y.to_lists(), point.wstar.to_lists()[0]
    if fam == "glvv":
        coords = [v for row in y for v in row] + point.xi.transpose().to_lists()[0] + w
    else:
        coords = [y[i][j] for i, j in itertools.combinations(range(point.n), 2)] + w
    return [int(v) for v in coords]


@pytest.mark.parametrize("fam", ["glvv", "io", "iso"])
@pytest.mark.parametrize("n", range(1, 5))
def test_generators_are_of_the_derived_degree_in_every_coordinate(fam, n):
    # the small-n proof of the derived bound: each generator, built as a
    # polynomial on the generic bordered matrix, has degree at most 1 (glvv)
    # or 2 (io/iso) in every coordinate, and agrees with the evaluators
    assert SUITES["independence"].families == ("glvv", "io", "iso")
    m, bordered, y = _generic_bordered(fam, n)
    pb = poly.char_recursion(bordered, m)[0]
    py = poly.char_recursion(y, m)[0] + [{}]
    # each wstar B_k(y) xi is p_{k+2} of the bordered matrix minus p_{k+2}(y)
    grads = [poly.add(pb[k + 1], py[k + 1], -1) for k in range(n)]
    gens = grads if fam == "glvv" else grads[::2]
    if fam == "iso":
        gens = gens[:n // 2] + ([poly.pfaffian(bordered)] if n % 2 else [])
    assert len(gens) == sum(count(n) for _, _, count, _, _, _ in inv.GENERATORS[fam])
    assert max(e for g in gens for exps in g for e in exps) <= _COORDINATE_DEGREE[fam]
    rng = Rng(n).child("generic-bordered", fam)
    for point in [sample_dual(Algebra(fam, n), rng, 3) for _ in range(3)]:
        coords = _coordinates(fam, point)
        assert [poly.value(g, coords) for g in gens] == list(verify._values(point))


def _counted_generators(monkeypatch):
    calls = []
    real = inv.generators

    def counted(l):
        calls.append(l)
        return real(l)
    monkeypatch.setattr(inv, "generators", counted)
    return calls


def _read(moves, taken):
    """The moves, each recorded in taken as it is read."""
    for move in moves:
        taken.append(move)
        yield move


def test_jacobian_rank_of_a_generic_point_reads_n_directions(monkeypatch):
    # at f != 0 the n xi directions alone give rank n, where every direction
    # would take 24; no generator is evaluated and no point is built
    n = 4
    alg = Algebra("glvv", n)
    point = sample_dual(alg, Rng(1), 3)
    assert inv.f_invariant(point) != 0
    picks, moves = verify._jacobian_plan(alg)
    calls, taken = _counted_generators(monkeypatch), []
    built = []
    real = DualPoint.__init__
    monkeypatch.setattr(DualPoint, "__init__", lambda self, *args: built.append(args)
                        or real(self, *args))
    assert verify._jacobian_rank(point, picks, _read(moves, taken)) == n
    assert taken == list(moves[:n]) and calls == [] and built == []


def test_jacobian_rank_refuses_a_glvv_generator_above_its_degree(monkeypatch):
    # squared, each F_k is quadratic along a xi direction: the oracle's
    # bound 1 would read a secant slope, so the node past it raises instead
    alg = Algebra("glvv", 4)
    point, dirs = sample_dual(alg, Rng(1), 3), oracles.directions(alg)
    assert rank(Mat(oracles.interpolated_jacobian(point, dirs))) == 4
    real = inv.F_all
    monkeypatch.setattr(inv, "F_all", lambda l: tuple(v * v for v in real(l)))
    with pytest.raises(ExactnessError, match="degree above the bound 1"):
        oracles.interpolated_jacobian(point, dirs)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_jacobian_rank_refuses_an_io_generator_above_its_degree(monkeypatch, seed):
    # cubed, each psi_k is of degree up to 6 along a covector direction
    alg = Algebra("io", 4)
    point, dirs = sample_dual(alg, Rng(seed), 3), oracles.directions(alg)
    assert rank(Mat(oracles.interpolated_jacobian(point, dirs))) == 2
    real = inv.psi_all
    monkeypatch.setattr(inv, "psi_all", lambda l: tuple(v ** 3 for v in real(l)))
    with pytest.raises(ExactnessError, match="degree above the bound 2"):
        oracles.interpolated_jacobian(point, dirs)


def test_jacobian_rank_builds_each_node_once(monkeypatch):
    # the oracle builds one point per interpolation node and reads every
    # direction: at glvv n = 4 each of the 24 moves one entry, so 2 nodes
    # each, and each node's generators are evaluated once, as is the point's
    n = 4
    alg = Algebra("glvv", n)
    point = sample_dual(alg, Rng(1), 3)
    dirs = oracles.directions(alg)
    built = []
    real = DualPoint.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)
    monkeypatch.setattr(DualPoint, "__init__", counted)
    calls = _counted_generators(monkeypatch)
    assert len(oracles.interpolated_jacobian(point, dirs)) == len(dirs) == alg.dim
    assert len(built) == 2 * len(dirs) and len(calls) == 1 + 2 * len(dirs)


def test_jacobian_rank_of_a_dependent_family_reads_every_direction(monkeypatch):
    n = 4
    _dependent_rows(monkeypatch)
    alg = Algebra("glvv", n)
    picks, moves = verify._jacobian_plan(alg)
    taken = []
    assert verify._jacobian_rank(sample_dual(alg, Rng(1), 3), picks, _read(moves, taken)) < n
    assert taken == list(moves)


@pytest.mark.parametrize("n", range(1, 6))
def test_gradient_Bk_recursion_runs_once_per_node(monkeypatch, n):
    # every k shares the nodes x + t y, t = 0..n+1
    calls = []
    real = verify.char_data
    monkeypatch.setattr(verify, "char_data", lambda m: calls.append(m) or real(m))
    cfg = SuiteConfig(algebra="glvv", n_lo=n, n_hi=n, samples=4, seed=3)
    report = run_suite("gradient-Bk", cfg)
    assert report.passed and report.checks_run == n * cfg.samples
    assert len(calls) == (n + 2) * cfg.samples


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
