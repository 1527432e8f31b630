import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import coadinv
from coadinv import cli, poly, verify
from coadinv.cli import main
from coadinv.exactmat import ExactnessError, Mat, mat_from_json, mat_to_json, rat_str
from coadinv.invariants import (CanonicalPair, F_all, exotic_phi, f_bar, f_invariant,
                                orbit_normalize, slice_isl)
from coadinv.liealg import Algebra, DualPoint, Rng, dual_to_json, sample_dual

SRC_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def run_module(argv, timeout=120):
    """coadinv.cli run as its own process, on this source tree."""
    path = os.pathsep.join(filter(None, [SRC_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable] + argv, capture_output=True, text=True,
                          timeout=timeout, env=dict(os.environ, PYTHONPATH=path))


def write_point(tmp_path, obj, name="point.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def canonical_point_json(n, xi):
    pair = CanonicalPair.of_size(n)
    return {
        "algebra": "glvv", "n": n,
        "y": mat_to_json(pair.J),
        "wstar": mat_to_json(pair.enstar),
        "xi": mat_to_json(Mat.col(xi)),
    }


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_all_at_canonical_point(tmp_path, capsys):
    path = write_point(tmp_path, canonical_point_json(3, [5, 7, 11]))
    code, out, _ = run_cli(capsys, ["eval", "--algebra", "glvv", "--which", "all",
                                    "--input", path])
    assert code == 0
    values = json.loads(out)
    # generator k reads coordinate n-k, so the list comes back reversed
    assert [v["value"] for v in values] == ["11", "7", "5"]
    assert [v["k"] for v in values] == [0, 1, 2]
    assert all(v["invariant"] == "F" for v in values)


def test_eval_matches_library(tmp_path, capsys):
    rng = Rng(91)
    alg = Algebra("glvv", 3)
    l = sample_dual(alg, rng, 3)
    path = write_point(tmp_path, dual_to_json(alg, l))
    code, out, _ = run_cli(capsys, ["eval", "--input", path])
    assert code == 0
    got = [v["value"] for v in json.loads(out)]
    assert got == [rat_str(v) for v in F_all(l)]


def test_eval_single_invariant(tmp_path, capsys):
    path = write_point(tmp_path, canonical_point_json(3, [5, 7, 11]))
    code, out, _ = run_cli(capsys, ["eval", "--which", "F1", "--input", path])
    assert code == 0
    assert json.loads(out) == {"invariant": "F", "k": 1, "value": "7"}


def test_eval_isl_slice(tmp_path, capsys):
    l = slice_isl((2, 3), 1)
    path = write_point(tmp_path, dual_to_json(Algebra("isl", 3), l))
    code, out, _ = run_cli(capsys, ["eval", "--algebra", "isl", "--input", path])
    assert code == 0
    assert json.loads(out) == [{"invariant": "fbar", "value": rat_str(f_bar(l))}]
    assert f_bar(l) == poly.value(poly.t_slice(3), [2, 3, 1])


def test_eval_orthogonal_generators(tmp_path, capsys):
    rng = Rng(92)
    alg = Algebra("iso", 3)
    l = sample_dual(alg, rng, 3)
    path = write_point(tmp_path, dual_to_json(alg, l))
    code, out, _ = run_cli(capsys, ["eval", "--input", path])
    assert code == 0
    names = [(v["invariant"], v.get("k")) for v in json.loads(out)]
    assert names == [("psi", 0), ("phi", None)]


def test_eval_phi_only_on_iso(tmp_path, capsys):
    # phi flips sign under a reflection, so it is no invariant of io
    l = sample_dual(Algebra("io", 3), Rng(94), 3)
    path = write_point(tmp_path, dual_to_json(Algebra("io", 3), l))
    code, out, err = run_cli(capsys, ["eval", "--which", "phi", "--input", path])
    assert code == 2
    assert out == ""
    assert "invariant 'phi' lives on the iso dual" in err
    iso = DualPoint(l.y, l.wstar, family="iso")
    path = write_point(tmp_path, dual_to_json(Algebra("iso", 3), iso), "iso.json")
    code, out, _ = run_cli(capsys, ["eval", "--which", "phi", "--input", path])
    assert code == 0
    assert json.loads(out) == {"invariant": "phi", "value": rat_str(exotic_phi(iso))}


def test_eval_refuses_a_component_the_family_fills(tmp_path, capsys):
    # an aff point's xi is zero; a given one used to be dropped unread
    obj = dual_to_json(Algebra("aff", 2), sample_dual(Algebra("aff", 2), Rng(95), 3))
    obj["xi"] = mat_to_json(Mat.col([5, 5]))
    code, out, err = run_cli(capsys, ["eval", "--input", write_point(tmp_path, obj)])
    assert code == 2
    assert out == ""
    assert err == "error: aff point JSON takes no 'xi' component\n"


def test_eval_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, ["eval", "--input", str(path)])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("entries", [[5], ["12"], {"12": 0}, "12", 12])
def test_eval_entries_not_a_list_of_rows(tmp_path, capsys, entries):
    # a 1 x 2 covector fits n = 2, so a string or dict that passed the
    # length checks would have been read as the row [1, 2]
    obj = canonical_point_json(2, [3, 4])
    obj["wstar"] = {"rows": 1, "cols": 2, "entries": entries}
    path = write_point(tmp_path, obj)
    code, out, err = run_cli(capsys, ["eval", "--input", path])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_exactness_failure_exits_one(tmp_path, capsys, monkeypatch):
    def broken(point):
        raise ExactnessError("characteristic recursion lost exactness")
    monkeypatch.setattr(cli.inv, "F_all", broken)
    path = write_point(tmp_path, canonical_point_json(2, [1, 2]))
    code, _, err = run_cli(capsys, ["eval", "--input", path])
    assert code == 1
    assert err.startswith("error:") and "exactness" in err
    # single ids run the patched function too: the table looks it up when called
    monkeypatch.setattr(cli.inv, "psi_all", broken)
    io = sample_dual(Algebra("io", 3), Rng(2), 3)
    io_path = write_point(tmp_path, dual_to_json(Algebra("io", 3), io), "io.json")
    for which, point in (("F1", path), ("psi0", io_path), ("all", io_path)):
        code, out, err = run_cli(capsys, ["eval", "--which", which, "--input", point])
        assert (code, out) == (1, ""), which
        assert err.startswith("error:") and "exactness" in err


def test_eval_shape_mismatch(tmp_path, capsys):
    obj = canonical_point_json(3, [5, 7, 11])
    obj["n"] = 4
    path = write_point(tmp_path, obj)
    code, _, err = run_cli(capsys, ["eval", "--input", str(path)])
    assert code == 2


def test_eval_algebra_mismatch(tmp_path, capsys):
    path = write_point(tmp_path, canonical_point_json(3, [5, 7, 11]))
    code, _, _ = run_cli(capsys, ["eval", "--algebra", "aff", "--input", path])
    assert code == 2


def test_eval_unknown_which(tmp_path, capsys):
    path = write_point(tmp_path, canonical_point_json(2, [1, 2]))
    code, _, _ = run_cli(capsys, ["eval", "--which", "zeta", "--input", path])
    assert code == 2


@pytest.mark.parametrize("which", ["psi\u0660", "F\u0661", "F1\n"])
def test_eval_ids_use_ascii_digits(tmp_path, capsys, which):
    # an Arabic-Indic digit matches \d and int() reads it; $ matches before a final newline
    path = write_point(tmp_path, canonical_point_json(2, [1, 2]))
    code, out, err = run_cli(capsys, ["eval", "--which", which, "--input", path])
    assert (code, out) == (2, "")
    assert err == "error: unknown invariant id %r\n" % (which,)


def test_a_sign_oracle_failure_exits_one(capsys, monkeypatch):
    # a broken slice polynomial is a bug found by the oracle, not a usage error
    real = poly.t_slice
    monkeypatch.setattr(poly, "t_slice", lambda n: poly.add(real(n), poly.const(1, n)))
    code, out, err = run_cli(capsys, ["verify", "--suite", "slices", "--algebra", "isl",
                                      "--n", "3", "--samples", "1"])
    assert (code, out, err) == (1, "", "error: not proportional - investigate\n")


def test_eval_refuses_n_zero(tmp_path, capsys):
    # --n 0 is a size like any other: it must not be read as "not given"
    path = write_point(tmp_path, canonical_point_json(2, [1, 2]))
    code, out, err = run_cli(capsys, ["eval", "--n", "0", "--input", path])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--n 0" in err


def test_eval_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    code, out, err = run_cli(capsys, ["eval", "--input", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read JSON input")


def test_eval_unwritable_output(tmp_path, capsys):
    path = write_point(tmp_path, canonical_point_json(2, [1, 2]))
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, ["eval", "--input", path, "--output", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write %s" % target)
    assert not target.exists()


def count_suite_runs(monkeypatch):
    runs = []
    real = verify.run_suite

    def counted(*args, **kwargs):
        runs.append(args[0])
        return real(*args, **kwargs)

    # cli reads verify.run_suite at each call for --suite, run_all calls it
    # for --all
    monkeypatch.setattr(verify, "run_suite", counted)
    return runs


def test_verify_unwritable_output(tmp_path, capsys, monkeypatch):
    runs = count_suite_runs(monkeypatch)
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, ["verify", "--suite", "skew-parity", "--n-max", "2",
                                      "--samples", "2", "--output", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write %s" % target)
    # refused before any suite runs, on either path
    code, _, err = run_cli(capsys, ["verify", "--all", "--n-max", "2", "--samples", "1",
                                    "--output", str(target)])
    assert code == 2
    assert err.startswith("error: cannot write %s" % target)
    assert runs == []


def test_verify_refused_run_leaves_the_output_alone(tmp_path, capsys, monkeypatch):
    runs = count_suite_runs(monkeypatch)
    kept = tmp_path / "kept.json"
    kept.write_text("earlier report\n")
    fresh = tmp_path / "fresh.json"
    for target in (kept, fresh):
        # n = 2 alone holds no odd size for exotic-sign: refused before running
        code, _, err = run_cli(capsys, ["verify", "--all", "--n-min", "2", "--n-max", "2",
                                        "--output", str(target)])
        assert code == 2
        assert "odd n only" in err
    assert kept.read_text() == "earlier report\n"
    assert not fresh.exists()
    assert runs == []
    code, _, _ = run_cli(capsys, ["verify", "--suite", "skew-parity", "--n", "2",
                                  "--samples", "1", "--output", str(kept)])
    assert code == 0
    assert json.loads(kept.read_text())[0]["suite"] == "skew-parity"
    assert runs == ["skew-parity"]


def test_unknown_flag(capsys):
    code, _, _ = run_cli(capsys, ["eval", "--frobnicate", "x"])
    assert code == 2


def test_verify_single_suite(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "index", "--algebra", "glvv",
                                    "--n", "3", "--samples", "3", "--seed", "1"])
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["passed"] is True
    assert any("index 3" in note for note in reports[0]["notes"])


@pytest.mark.parametrize("algebra", ["isl", "io", "iso"])
def test_verify_slices_runs_past_its_default_range(capsys, algebra):
    # the signs are proved, not sampled on a grid, so no size cap is left
    code, out, _ = run_cli(capsys, ["verify", "--suite", "slices", "--algebra", algebra,
                                    "--n", "7", "--samples", "1"])
    assert code == 0
    (report,) = json.loads(out)
    assert report["passed"] is True and report["checks_run"] >= 1


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, ["verify", "--suite", "unknown"])
    assert code == 2


def test_verify_needs_suite_or_all(capsys):
    code, _, _ = run_cli(capsys, ["verify"])
    assert code == 2


def test_verify_all_quick(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--all", "--n-max", "2",
                                    "--samples", "4", "--seed", "1"])
    assert code == 0
    reports = json.loads(out)
    assert all(r["passed"] for r in reports)


def test_verify_refuses_a_range_outside_every_suite(capsys):
    # n <= 6 everywhere: a request for n = 7 used to run smaller sizes and pass
    code, out, err = run_cli(capsys, ["verify", "--all", "--n-min", "7", "--n-max", "7",
                                      "--samples", "2"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "semi-invariance-f" in err and "1..5" in err
    code, _, err = run_cli(capsys, ["verify", "--suite", "slices", "--algebra", "isl",
                                    "--n-min", "7", "--samples", "2"])
    assert code == 2
    assert "'slices' on isl supports n in 2..6" in err


def test_verify_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, ["verify", "--suite", "skew-parity",
                                    "--n-max", "3", "--samples", "4",
                                    "--output", str(out_path)])
    assert code == 0
    assert out == ""
    reports = json.loads(out_path.read_text())
    assert reports[0]["suite"] == "skew-parity"


def test_orbit_already_normal(tmp_path, capsys):
    path = write_point(tmp_path, canonical_point_json(3, [5, 7, 11]))
    code, out, _ = run_cli(capsys, ["orbit", "--input", path])
    assert code == 0
    result = json.loads(out)
    assert result["g"] == mat_to_json(Mat.identity(3))
    assert result["u"] == mat_to_json(Mat.zero(3, 1))
    assert result["normal_form"]["xi"] == mat_to_json(Mat.col([5, 7, 11]))


def test_orbit_roundtrip(tmp_path, capsys):
    from coadinv.invariants import sample_open_b, orbit_normalize
    from coadinv.liealg import GroupElem, coad, sample_group
    rng = Rng(93)
    l = sample_open_b(rng, 3, 3)
    a = sample_group(Algebra("aff", 3), rng, 3)
    moved = coad(GroupElem(a.g, a.u, Mat.zero(1, 3)), l)
    path = write_point(tmp_path, dual_to_json(Algebra("glvv", 3), moved))
    code, out, _ = run_cli(capsys, ["orbit", "--input", path])
    assert code == 0
    _, normal = orbit_normalize(l)
    assert json.loads(out)["normal_form"]["xi"] == mat_to_json(normal.xi)


def test_orbit_degenerate_input(tmp_path, capsys):
    obj = {
        "algebra": "glvv", "n": 2,
        "y": mat_to_json(Mat.zero(2, 2)),
        "wstar": mat_to_json(Mat.row([1, 0])),
        "xi": mat_to_json(Mat.col([1, 1])),
    }
    path = write_point(tmp_path, obj)
    code, _, err = run_cli(capsys, ["orbit", "--input", str(path)])
    assert code == 1
    assert "open orbit" in err


def test_orbit_on_the_golden_points_is_coads_image(tmp_path, capsys):
    # every point and image of tests/golden/points.json: a glvv point of the
    # open set prints coad's image under the printed (g, u, 0), one off it
    # exits 1, and any other family exits 2
    from coadinv.liealg import GroupElem, coad, dual_from_json
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "points.json")
    with open(golden, encoding="utf-8") as fh:
        entries = json.load(fh)
    seen = set()
    for entry in entries:
        for key in ("point", "image"):
            alg, point = dual_from_json(entry[key])
            code, out, err = run_cli(capsys, ["orbit", "--input",
                                              write_point(tmp_path, entry[key])])
            if alg.family != "glvv":
                assert (code, out, err) == (2, "", "error: orbit normalization needs a "
                                                   "glvv point\n")
            elif f_invariant(DualPoint(point.y, point.wstar, family="aff")) == 0:
                assert (code, out, err) == (1, "", "error: not in open orbit\n")
            else:
                assert (code, err) == (0, "")
                result = json.loads(out)
                g, u = (mat_from_json(result[k]) for k in ("g", "u"))
                image = coad(GroupElem(g, u, Mat.zero(1, alg.n)), point)
                assert result["normal_form"] == dual_to_json(alg, image)
            seen.add(code)
    assert seen == {0, 2}


def test_orbit_refuses_a_rational_point_off_the_open_set(tmp_path, capsys):
    # wstar = e_1* is a left eigenvector of y, so the rows wstar B_k(y) are
    # dependent and f = 0, though y and xi are far from zero
    half, third = Fraction(1, 2), Fraction(1, 3)
    y = Mat([[half, 0, 0], [1, third, 2], [0, 5, -half]])
    point = DualPoint(y, Mat.row([1, 0, 0]), Mat.col([third, 1, half]))
    assert f_invariant(point) == 0
    path = write_point(tmp_path, dual_to_json(Algebra("glvv", 3), point))
    code, out, err = run_cli(capsys, ["orbit", "--input", path])
    assert (code, out) == (1, "")
    assert "not in open orbit" in err


def test_orbit_rejects_wrong_family(tmp_path, capsys):
    obj = {"algebra": "aff", "n": 2,
           "y": mat_to_json(Mat.identity(2)),
           "vstar": mat_to_json(Mat.row([1, 0]))}
    path = write_point(tmp_path, obj)
    code, _, _ = run_cli(capsys, ["orbit", "--input", str(path)])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["--n-max", "3", "--samples", "1", "--seed", "2"],   # index: one degenerate draw
    ["--n-max", "3", "--samples", "1", "--seed", "3"],
    ["--n-max", "2", "--samples", "1", "--seed", "0"],   # exotic-sign: one zero value
])
def test_verify_all_passes_at_one_sample(capsys, argv):
    code, out, err = run_cli(capsys, ["verify", "--all"] + argv)
    assert code == 0, err
    assert all(r["passed"] for r in json.loads(out))


def test_verify_refuses_a_run_that_checks_nothing(capsys):
    # the exotic generator lives at odd sizes only
    code, out, err = run_cli(capsys, ["verify", "--suite", "exotic-sign", "--algebra", "iso",
                                      "--n", "2"])
    assert code == 2
    assert out == ""
    assert "'exotic-sign' on iso checks nothing at n in 2..2" in err


@pytest.mark.parametrize("suite", ["skew-parity", "cayley-hamilton", "theta"])
def test_verify_refuses_bound_zero(capsys, suite):
    # every sample would be a zero matrix, on which each check holds vacuously
    code, out, err = run_cli(capsys, ["verify", "--suite", suite, "--bound", "0",
                                      "--samples", "3", "--n-max", "3"])
    assert code == 2
    assert out == ""
    assert "bound must be >= 1" in err


def test_verify_refuses_a_range_without_odd_sizes(capsys):
    code, out, err = run_cli(capsys, ["verify", "--all", "--n-min", "2", "--n-max", "2",
                                      "--samples", "1"])
    assert code == 2
    assert out == ""
    assert "'exotic-sign' on io checks odd n only, and n in 2..2 has none" in err


def test_verify_refuses_an_inverted_size_range(capsys, monkeypatch):
    # refused as the flags' own conflict, before any suite's range is read
    consulted = []
    real = verify.suite_range
    monkeypatch.setattr(verify, "suite_range",
                        lambda *args: consulted.append(args) or real(*args))
    runs = count_suite_runs(monkeypatch)
    for argv in (["--all"], ["--suite", "index"], ["--suite", "slices", "--algebra", "isl"]):
        code, out, err = run_cli(capsys, ["verify", "--n-min", "5", "--n-max", "3",
                                          "--samples", "1"] + argv)
        assert (code, out, err) == (2, "", "error: --n-min 5 exceeds --n-max 3\n")
    assert consulted == [] and runs == []


def test_verify_independence_checks_size_one(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "independence", "--algebra", "glvv",
                                    "--n", "1", "--samples", "5"])
    assert code == 0
    report, = json.loads(out)
    assert report["passed"] is True and report["checks_run"] == 5


@pytest.mark.parametrize("argv", [
    ["--all", "--suite", "theta"],
    ["--all", "--algebra", "io"],
    ["--suite", "index", "--n", "2", "--n-min", "3"],
    ["--suite", "index", "--n", "2", "--n-max", "3"],
    ["--all", "--n", "2", "--n-min", "2"],
])
def test_verify_refuses_flags_it_would_ignore(capsys, argv):
    code, out, err = run_cli(capsys, ["verify", "--samples", "1"] + argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("suite, algebra", [
    ("cayley-hamilton", "io"), ("gradient-Bk", "aff"), ("skew-parity", "isl"),
    ("dual-path", "iso"),
])
def test_verify_refuses_a_family_the_suite_does_not_run(capsys, suite, algebra):
    # the three matrix suites never read the family, and dual-path on iso
    # would repeat io's checks: a family that changes nothing is refused
    code, out, err = run_cli(capsys, ["verify", "--suite", suite, "--algebra", algebra,
                                      "--samples", "1", "--n-max", "2"])
    assert code == 2
    assert out == ""
    assert "does not support algebra %r" % algebra in err


@pytest.mark.parametrize("where, value", [
    (("n",), 1.9), (("n",), 1.0), (("n",), True), (("n",), "1"),
    (("wstar", "rows"), True), (("wstar", "cols"), 1.0), (("wstar", "cols"), "1"),
    (("wstar", "entries", 0, 0), "1e200000"), (("wstar", "entries", 0, 0), "0.5"),
    (("wstar", "entries", 0, 0), 0.25), (("wstar", "entries", 0, 0), True),
    (("wstar", "entries", 0, 0), " 1"),
])
def test_eval_refuses_non_integer_sizes_and_entries(tmp_path, capsys, where, value):
    # at n = 1 each of these used to be read as a valid point: 1.9, 1.0,
    # true and "1" as the size 1, and "1e200000" as a 664,386-bit integer
    obj = canonical_point_json(1, [3])
    node = obj
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    code, out, err = run_cli(capsys, ["eval", "--input", write_point(tmp_path, obj)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert ("is not an integer or" if "entries" in where else "must be an integer") in err


def test_eval_reads_integer_entries(tmp_path, capsys):
    obj = canonical_point_json(2, [3, 4])
    obj["xi"]["entries"] = [[3], [-4]]
    code, out, _ = run_cli(capsys, ["eval", "--input", write_point(tmp_path, obj)])
    assert code == 0
    assert [v["value"] for v in json.loads(out)] == ["-4", "3"]


# -- a lean cold start ---------------------------------------------------------

PACKAGE_NAMES = [
    "Algebra", "CanonicalPair", "CharData", "DualPoint", "EXOTIC_SLICE_SIGN",
    "EXOTIC_SQUARE_SIGN", "ExactnessError", "FAMILIES", "F_SLICE_SIGN", "F_all",
    "F_bordered", "F_bordered_all", "F_invariant", "GENERATORS", "GroupElem", "Mat",
    "NotInOpenOrbit",
    "PSI_SLICE_SIGN", "Rat", "Rng", "SUITES", "SuiteConfig", "VerifyReport", "bordered",
    "bordered_char_identities", "bordered_gradients", "bracket_b", "char_data", "charpoly",
    "coad", "commutator_form", "compose", "det", "directional_coeff", "dual_from_json",
    "dual_to_json", "embed_M", "exactmat", "exotic_phi", "f_bar",
    "f_invariant", "f_krylov", "generators", "group_from_json", "group_to_json", "index_of",
    "interp_coeffs", "invariants", "inverse", "k_bracket", "krylov_rows", "liealg",
    "lower_shift", "mat_from_json", "mat_mul", "mat_to_json", "orbit_normalize",
    "pfaffian", "phi_rows", "pi_projection",
    "poly", "project_traceless", "psi_all", "psi_bordered", "psi_bordered_all", "psi_invariant",
    "rank", "rat", "rat_str", "resolve_sign", "run_all", "run_suite", "sample_dual",
    "sample_group", "sample_open_b", "slice_isl", "slice_so", "suite_range",
    "theta", "verify",
]

LEAN_PROBE = """
import json, sys
import coadinv.cli
heavy = ("dataclasses", "inspect")
seen = {"import": [m for m in heavy if m in sys.modules]}
for argv in json.loads(sys.argv[1]):
    code = coadinv.cli.main(argv)
    seen[argv[0]] = [m for m in heavy if m in sys.modules] + ["exit %d" % code] * bool(code)
import coadinv
suites = coadinv.SUITES
seen["SUITES"] = [m for m in heavy if m in sys.modules]
print(json.dumps(seen))
"""


def test_no_command_loads_dataclasses_or_inspect(tmp_path):
    point = write_point(tmp_path, canonical_point_json(3, [5, 7, 11]))
    runs = [["eval", "--input", point, "--output", str(tmp_path / "eval.json")],
            ["orbit", "--input", point, "--output", str(tmp_path / "orbit.json")],
            ["verify", "--suite", "theta", "--n", "1", "--samples", "1",
             "--output", str(tmp_path / "verify.json")]]
    proc = run_module(["-c", LEAN_PROBE, json.dumps(runs)])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "import": [], "eval": [], "orbit": [], "verify": [], "SUITES": []}
    assert json.loads((tmp_path / "eval.json").read_text())[0]["value"] == "11"
    assert json.loads((tmp_path / "verify.json").read_text())[0]["passed"]


def test_verify_help_names_every_suite(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--help"])
    assert code == 0
    assert all(name in out for name in verify.SUITES)
    assert "--list" not in out
    code, out, err = run_cli(capsys, ["verify", "--suite", "no-such-suite"])
    assert (code, out) == (2, "")
    assert "invalid choice: 'no-such-suite'" in err


def test_package_names_are_unchanged():
    from coadinv import SUITES, run_all
    assert run_all is verify.run_all and SUITES is verify.SUITES
    assert sorted(coadinv.__all__) == PACKAGE_NAMES
    assert all(hasattr(coadinv, name) for name in PACKAGE_NAMES)
    with pytest.raises(AttributeError, match="no attribute 'run_everything'"):
        coadinv.run_everything


# -- inputs at the edges of the integer range ----------------------------------

def test_verify_refuses_a_bound_past_63_bits(capsys, monkeypatch):
    # a bound of 2^63 asks for 2^64 + 1 values from a 64-bit draw: this run
    # used to loop forever
    proc = run_module(["-m", "coadinv.cli", "verify", "--suite", "theta", "--n", "2",
                       "--samples", "1", "--bound", str(2 ** 63)], timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: bound must be <= 2^63 - 1")
    runs = count_suite_runs(monkeypatch)
    code, out, err = run_cli(capsys, ["verify", "--all", "--n-max", "2", "--samples", "1",
                                      "--bound", str(2 ** 63)])
    assert (code, out, runs) == (2, "", [])
    code, out, _ = run_cli(capsys, ["verify", "--suite", "theta", "--n", "2", "--samples",
                                    "1", "--bound", str(2 ** 63 - 1)])
    assert code == 0
    assert runs == ["theta"] and json.loads(out)[0]["passed"]


@pytest.mark.parametrize("seed", [str(2 ** 64 + 1), str(-(2 ** 64) + 1), "-1"])
def test_verify_refuses_a_seed_outside_64_bits(capsys, monkeypatch, seed):
    # the stream keeps 64 bits of its seed: these seeds would run the report
    # of seed 1 (or 2^64 - 1) without a word
    runs = count_suite_runs(monkeypatch)
    for argv in (["--suite", "theta", "--n", "2"], ["--all", "--n-max", "2"]):
        code, out, err = run_cli(capsys, ["verify"] + argv + ["--samples", "2",
                                                              "--seed", seed])
        assert (code, out, runs) == (2, "", [])
        assert err == "error: seed must lie within 0..2^64 - 1\n"
    code, out, _ = run_cli(capsys, ["verify", "--suite", "theta", "--n", "2", "--samples",
                                    "2", "--seed", str(2 ** 64 - 1)])
    assert code == 0 and json.loads(out)[0]["passed"]


def digits(text: str) -> int:
    """The integer a decimal string names, read in chunks far below the
    interpreter's digit limit."""
    sign, text = (-1, text[1:]) if text.startswith("-") else (1, text)
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def rational(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(digits(num), digits(den or "1"))


def long_integer(ndigits: int, tail: int) -> tuple:
    """A decimal string of ndigits digits, as built by hand, and its value."""
    text = "1" + str(tail).zfill(ndigits - 1)
    return text, 10 ** (ndigits - 1) + tail


def test_eval_prints_values_past_the_digit_limit(tmp_path, capsys):
    # f is the product of the diagonal's differences: about 4500 digits
    a_text, a = long_integer(1500, 3)
    b_text, b = "3" + a_text[1:], a + 2 * 10 ** 1499
    obj = {"algebra": "aff", "n": 3,
           "y": {"rows": 3, "cols": 3,
                 "entries": [[a_text, 0, 0], [0, b_text, 0], [0, 0, "-" + a_text]]},
           "vstar": mat_to_json(Mat.row([1, 1, 1]))}
    code, out, err = run_cli(capsys, ["eval", "--input", write_point(tmp_path, obj)])
    assert code == 0, err
    [entry] = json.loads(out)
    value = digits(entry["value"])
    assert len(entry["value"]) > 4300
    point = DualPoint(Mat.diag([a, b, -a]), Mat.row([1, 1, 1]), Mat.zero(3, 1), "aff")
    assert value == f_invariant(point)


def test_orbit_prints_matrices_past_the_digit_limit(tmp_path, capsys):
    # g = (wstar B_1(y); wstar) has 4000-digit entries, so the normal
    # form's xi = g xi has about 6000
    a_text, a = long_integer(2000, 1)
    b_text, b = long_integer(2000, 2)
    obj = {"algebra": "glvv", "n": 2,
           "y": {"rows": 2, "cols": 2, "entries": [[a_text, 0], [0, b_text]]},
           "wstar": {"rows": 1, "cols": 2, "entries": [[a_text, 1]]},
           "xi": {"rows": 2, "cols": 1, "entries": [[a_text], [b_text]]}}
    code, out, err = run_cli(capsys, ["orbit", "--input", write_point(tmp_path, obj)])
    assert code == 0, err
    result = json.loads(out)
    elem, normal = orbit_normalize(DualPoint(Mat.diag([a, b]), Mat.row([a, 1]),
                                             Mat.col([a, b])))
    for got, want in ((result["g"], elem.g), (result["u"], elem.u),
                      (result["normal_form"]["xi"], normal.xi)):
        assert [[rational(e) for e in row] for row in got["entries"]] == want.to_lists()
    assert max(len(e) for row in result["normal_form"]["xi"]["entries"] for e in row) > 4300


@pytest.mark.parametrize("entry", ['"1%s"' % ("0" * 4300), "1%s" % ("0" * 4300)])
def test_eval_refuses_an_entry_past_the_digit_limit(tmp_path, capsys, entry):
    # rendering writes any length, parsing keeps the interpreter's limit
    path = tmp_path / "point.json"
    path.write_text('{"algebra": "aff", "n": 1, "y": {"rows": 1, "cols": 1, '
                    '"entries": [[%s]]}, "vstar": {"rows": 1, "cols": 1, '
                    '"entries": [["1"]]}}' % entry)
    code, out, err = run_cli(capsys, ["eval", "--input", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "4300" in err

