import json

import pytest

from coadinv.invariants import (EXOTIC_SLICE_SIGN, EXOTIC_SQUARE_SIGN,
                                F_SLICE_SIGN, PSI_SLICE_SIGN)
from coadinv import verify
from coadinv.verify import (SUITES, SuiteConfig, default_plan, resolve_sign,
                            run_all, run_suite, suite_range)

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


def test_reports_are_deterministic():
    cfg = quick_cfg("glvv")
    r1 = run_suite("invariance-F", cfg).to_json()
    r2 = run_suite("invariance-F", cfg).to_json()
    r1.pop("elapsed_ms")
    r2.pop("elapsed_ms")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_failure_witnesses_are_replayable():
    # force a failure by checking a deliberately wrong identity through the
    # public recorder path: the index suite with a wrong frozen value would
    # do, so instead simulate one directly
    from coadinv.verify import VerifyReport, _Recorder
    report = VerifyReport(suite="demo", algebra="glvv", claim="demo")
    rec = _Recorder(report)
    from fractions import Fraction
    rec.check("one equals two", 3, Fraction(1), Fraction(2),
              lambda: {"inputs": "here"})
    assert not report.passed
    witness = report.failures[0]
    assert witness["check"] == "one equals two"
    assert witness["lhs"] == "1" and witness["rhs"] == "2"
    assert witness["inputs"] == {"inputs": "here"}
    assert json.dumps(report.to_json())  # serializable


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


def test_resolve_sign_validation():
    with pytest.raises(ValueError):
        resolve_sign("nope", 3)
    with pytest.raises(ValueError):
        resolve_sign("psi-vs-phi", 3)  # missing k
    with pytest.raises(ValueError):
        resolve_sign("exotic-vs-slice", 4)  # even n
    with pytest.raises(ValueError):
        resolve_sign("f-vs-t", 7)  # out of supported range


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
    assert suite_range("index", "aff", n_min=3, n_max=9) == (3, 5)
    run_all(seed=9, samples=2, n_max=2)
    assert len(calls) == len(default_plan())
