import json

import pytest

from coadinv import cli
from coadinv.cli import main
from coadinv.exactmat import ExactnessError, Mat, mat_to_json, rat_str
from coadinv.invariants import (CanonicalPair, F_all, SlicePointISL, f_bar,
                                slice_isl, t_slice)
from coadinv.liealg import Algebra, Rng, dual_to_json, sample_dual


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
    s = SlicePointISL.of([2, 3], 1)
    l = slice_isl(s)
    path = write_point(tmp_path, dual_to_json(Algebra("isl", 3), l))
    code, out, _ = run_cli(capsys, ["eval", "--algebra", "isl", "--input", path])
    assert code == 0
    assert json.loads(out) == [{"invariant": "fbar", "value": rat_str(f_bar(l))}]
    assert f_bar(l) == t_slice(s)


def test_eval_orthogonal_generators(tmp_path, capsys):
    rng = Rng(92)
    alg = Algebra("iso", 3)
    l = sample_dual(alg, rng, 3)
    path = write_point(tmp_path, dual_to_json(alg, l))
    code, out, _ = run_cli(capsys, ["eval", "--input", path])
    assert code == 0
    names = [(v["invariant"], v.get("k")) for v in json.loads(out)]
    assert names == [("psi", 0), ("phi", None)]


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


def test_orbit_rejects_wrong_family(tmp_path, capsys):
    obj = {"algebra": "aff", "n": 2,
           "y": mat_to_json(Mat.identity(2)),
           "vstar": mat_to_json(Mat.row([1, 0]))}
    path = write_point(tmp_path, obj)
    code, _, _ = run_cli(capsys, ["orbit", "--input", str(path)])
    assert code == 2
