"""Golden of `coadinv eval --which <id>` for single generator ids.

eval_ids.json holds, for the point and the image of every entry of
golden/points.json, the exit code and the stdout or stderr of
`coadinv eval --which ID` for each id f, fbar, phi, F0..F{n} and
psi0..psi{ell+1}, ell = (n - 1) // 2.  Every id is asked of every family,
so the file pins the values, the home-family refusals and the
index-range refusals of single-id evaluation.

Regenerate (only when a change of behaviour is intended) with
    PYTHONPATH=src python tests/test_eval_ids.py
"""

import contextlib
import io
import json
import os

from coadinv.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
POINTS = os.path.join(HERE, "golden", "points.json")
GOLDEN = os.path.join(HERE, "eval_ids.json")


def _ids(n: int) -> list:
    ell = (n - 1) // 2
    return (["f", "fbar", "phi"] + ["F%d" % k for k in range(n + 1)]
            + ["psi%d" % k for k in range(ell + 2)])


def _eval(path: str, which: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["eval", "--which", which, "--input", path])
    return {"which": which, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def build_eval_ids(workdir) -> str:
    with open(POINTS, encoding="utf-8") as fh:
        entries = json.load(fh)
    path = os.path.join(workdir, "point.json")
    out = []
    for entry in entries:
        for key in ("point", "image"):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(entry[key], fh)
            out.append({"family": entry["family"], "n": entry["n"], "of": key,
                        "runs": [_eval(path, which) for which in _ids(entry["n"])]})
    return json.dumps(out, indent=1) + "\n"


def test_golden_eval_ids(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        assert build_eval_ids(str(tmp_path)) == fh.read()


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        text = build_eval_ids(tmp)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(text)
