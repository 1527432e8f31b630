"""Byte-for-byte golden fixtures.

verify_all.json is the report list of
`coadinv verify --all --samples 4 --n-max 4 --seed 1` with the timing
field removed; it pins every suite's check count, notes and witnesses.
verify_all_s20.json is the same for `coadinv verify --all --samples 20
--seed 1` over every suite's full default range (4365 checks).

points.json holds, for every family and n = 1..5, the point and group
element drawn from Rng(1).child(family, n), the coadjoint image, and
`coadinv eval --which all` on the point and on its image.  It pins the
draw order of the samplers, the action and the JSON codec.

Regenerate (only when a change of behaviour is intended) with
    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os

from coadinv.cli import main
from coadinv.liealg import (FAMILIES, Algebra, Rng, coad, dual_to_json,
                            group_to_json, sample_dual, sample_group)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _dumps(obj) -> str:
    return json.dumps(obj, indent=1) + "\n"


def _cli_json(argv, workdir):
    out = os.path.join(workdir, "out.json")
    code = main(argv + ["--output", out])
    with open(out, encoding="utf-8") as fh:
        return code, json.load(fh)


def _verify_all(workdir, argv) -> str:
    code, reports = _cli_json(["verify", "--all", "--seed", "1"] + argv, workdir)
    assert code == 0
    for r in reports:
        del r["elapsed_ms"]
    return _dumps(reports)


def build_verify_all(workdir) -> str:
    return _verify_all(workdir, ["--samples", "4", "--n-max", "4"])


def build_verify_all_s20(workdir) -> str:
    return _verify_all(workdir, ["--samples", "20"])


def build_points(workdir) -> str:
    entries = []
    path = os.path.join(workdir, "point.json")
    for fam in FAMILIES:
        for n in range(1, 6):
            alg = Algebra(fam, n)
            rng = Rng(1).child(fam, n)
            point = sample_dual(alg, rng, 3)
            elem = sample_group(alg, rng, 3)
            entry = {"family": fam, "n": n,
                     "point": dual_to_json(alg, point),
                     "elem": group_to_json(alg, elem),
                     "image": dual_to_json(alg, coad(elem, point))}
            for key in ("point", "image"):
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(entry[key], fh)
                code, values = _cli_json(["eval", "--which", "all", "--input", path],
                                         workdir)
                assert code == 0
                entry["eval_" + key] = values
            entries.append(entry)
    return _dumps(entries)


def _golden(name) -> str:
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


def test_golden_verify_all(tmp_path):
    assert build_verify_all(str(tmp_path)) == _golden("verify_all.json")


def test_golden_verify_all_s20(tmp_path):
    assert build_verify_all_s20(str(tmp_path)) == _golden("verify_all_s20.json")


def test_golden_points(tmp_path):
    assert build_points(str(tmp_path)) == _golden("points.json")


if __name__ == "__main__":
    import tempfile
    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, build in (("verify_all.json", build_verify_all),
                            ("verify_all_s20.json", build_verify_all_s20),
                            ("points.json", build_points)):
            with open(os.path.join(GOLDEN, name), "w", encoding="utf-8") as fh:
                fh.write(build(tmp))
