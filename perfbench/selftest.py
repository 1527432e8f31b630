"""Self-test of the benchmark; run from the source tree root:

    python3 perfbench/selftest.py

1. A tiny pass of every workload, plain and traced: each metric named in
   BENCHMARK.json is emitted with its unit, nothing else is, every op
   passes the gate, and the traced pass leaves its span file.
2. Negative cases: each workload's gate counts a wrong output as failed.
3. Without the package source the benchmark exits non-zero and prints no
   result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def run_tiny(workload, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        fail("%s trace=%d exited %d:\n%s" % (workload, trace, done.returncode, done.stderr))
    return json.loads(done.stdout.splitlines()[-1])


def check_emitted(spec):
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_tiny(w["name"], trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail("%s trace=%d: missing %s, unexpected %s, units differ on %s" % (
                    w["name"], trace, sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                    sorted(k for k in want if k in got and got[k] != want[k])))
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail("%s trace=%d: failed_ratio is %d/%d" % (
                    w["name"], trace, result["failed"], result["attempted"]))
            if trace and not os.path.isfile(os.path.join(
                    HERE, "out", "spans-%s-seed3.json.gz" % w["name"])):
                fail("%s: traced pass wrote no span file" % w["name"])
            print("PASS %s trace=%d: %d metrics, %d ops, 0 failed"
                  % (w["name"], trace, len(got), result["attempted"]))


def check_gates_catch_errors():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads as wl

    ops = wl.make_docs(5, (3,), {3: 1})
    for kind, fam, n, num, doc in ops:
        out = wl.run_op(kind, doc)
        if not wl.check_op(kind, doc, out):
            fail("gate rejects a correct %s %s point" % (fam, num))
        bad = json.loads(json.dumps(out))
        if kind == "orbit":
            bad["normal_form"]["xi"]["entries"][0][0] += "1"
        else:
            bad[-1]["value"] = str(wl.Fraction(bad[-1]["value"]) + 1)
        if wl.check_op(kind, doc, bad):
            fail("gate accepts a wrong %s %s value" % (fam, num))
    print("PASS eval-batch gate rejects a wrong value for each of %d ops" % len(ops))

    workdir = wl.make_workdir(ROOT, "selftest")
    try:
        vp = wl.VerifyPlan(1, "tiny", workdir)
        rnd = vp.run_round()
        reports = rnd.outputs[1]
        if vp.gate(rnd) != 0:
            fail("verify gate rejects a complete passing plan")
        reports[0]["checks_run"] -= 1
        if vp.gate(rnd) != 1:
            fail("verify gate misses a dropped check")
        reports[0]["checks_run"] += 1
        reports[0]["failures"].append({"check": "planted"})
        if vp.gate(rnd) != 1:
            fail("verify gate misses a failed check")
        print("PASS verify-plan gate counts a dropped and a failed check")

        cc = wl.CliCold(1, "tiny", workdir)
        rnd = cc.run_round()
        if cc.gate(rnd) != 0:
            fail("cli gate rejects correct invocations")
        code, out = rnd.outputs[0]
        rnd.outputs[0] = (code, out.replace(b'"value": "', b'"value": "-1'))
        if cc.gate(rnd) != 1:
            fail("cli gate accepts a wrong stdout")
        rnd.outputs[0] = (2, out)
        if cc.gate(rnd) != 1:
            fail("cli gate accepts a non-zero exit")
        print("PASS cli-cold gate rejects a wrong stdout and a non-zero exit")
    finally:
        wl.remove_workdir(workdir)


def check_refuses_without_source():
    bare = os.path.join(HERE, "out", "bare-%d" % os.getpid())
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eval-batch",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        fail("benchmark ran without the package source")
    print("PASS without src/ the benchmark exits %d and prints no result" % done.returncode)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_refuses_without_source()
    check_gates_catch_errors()
    check_emitted(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
