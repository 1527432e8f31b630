"""coadinv benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload eval-batch --seed 1 --seconds 20 --trace 0

Run from the root of a source tree that holds src/coadinv.  The run

  1. byte-compiles src/ (the package's only build step);
  2. sets up SETUP_REPS times, each in a fresh interpreter (this process is
     the last): import coadinv, generate the seeded inputs, warm up.  The
     median is setup_s;
  3. runs the workload's fixed op set in rounds, closed loop, until
     --seconds have passed (at least one round);
  4. checks every op's output outside the timed region;
  5. scales every end-to-end time to the reference machine speed of
     refclock.py, from a fixed kernel timed next to each measurement;
  6. with --trace 1, also runs one round under the span tracer and reports
     the per-layer metrics instead of the end-to-end ones;
  7. prints a table of every metric with its unit, writes the full record
     (provenance included) to perfbench/out/, and prints as its last line
     {"correct", "attempted", "failed", "metrics"}.

It exits with 2 and prints no result when the source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from refclock import REF_S, calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("eval-batch", "verify-plan", "cli-cold")
SETUP_REPS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="coadinv benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is the self-test's quick pass")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(args, tag):
    """Import the package, generate inputs, warm up.

    Returns (workload, workdir, (scaled s, s, kernel s))."""
    t0 = time.perf_counter()
    import workloads  # imports coadinv
    workdir = workloads.make_workdir(ROOT, tag)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
    wl.warm_up()
    took = time.perf_counter() - t0
    cal = calibrate()
    return wl, workdir, (took * REF_S / cal, took, cal)


def child_setup(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--size", args.size]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=120)
    return json.loads(done.stdout.decode().splitlines()[-1])["setup"]


def git_state():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*cmd):
        try:
            done = subprocess.run(["git", "-C", ROOT] + list(cmd), env=env, timeout=30,
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        except OSError:
            return None
        return done.stdout.decode().strip() if done.returncode == 0 else None

    rev = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if rev else None
    return {"git_revision": rev, "git_dirty": bool(status) if rev else None}


def provenance(args, wl):
    return dict({"python": platform.python_version(),
                 "implementation": platform.python_implementation(),
                 "nproc": os.cpu_count(),
                 "cpus_usable": len(os.sched_getaffinity(0)),
                 "workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "size": args.size,
                 "sizes": wl.sizes()}, **git_state())


def timed_phase(wl, seconds):
    """Rounds until `seconds` of round time have passed; each round is gated
    as soon as it ends, off the clock, and its outputs are then dropped so
    memory does not grow with the number of rounds."""
    rounds = []
    failed = 0
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        rnd = wl.run_round()
        t = time.perf_counter()
        failed += wl.gate(rnd)
        rnd.outputs = None
        deadline += time.perf_counter() - t
        rounds.append(rnd)
    return rounds, failed


def pct(values, q):
    """q-th percentile, 0 < q < 100, interpolated within the sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(wl, rounds, setup_s):
    lat = [ms for r in rounds for ms in r.scaled_op_ms]
    wall = statistics.median(r.scaled_wall_s for r in rounds)
    if not lat:  # no per-op clock (verify-plan): the mean op time
        lat = [wall * 1e3 / rounds[0].ops]
    if wl.name == "cli-cold":
        rss_mb = wl.peak_rss_kb / 1024
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (rounds[0].ops / wall, "1/s"),
        "op_p50_ms": (pct(lat, 50), "ms"),
        "op_p90_ms": (pct(lat, 90), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, {"rounds": len(rounds), "latency_samples": len(lat),
        "round_wall_s_unscaled": [r.wall_s for r in rounds],
        "round_kernel_s": [r.kernel_s for r in rounds], "reference_kernel_s": REF_S}


def per_layer(wl, rounds, spans_path):
    import tracer as tracing
    plain = wl.plain_layers(rounds)
    tr = tracing.Tracer()
    try:
        rnd, plain_wall = wl.traced_round(tr)
    finally:
        tr.write(spans_path)
    failed = wl.gate(rnd)
    if plain_wall is None:  # the untraced round just before, same work
        plain_wall = rounds[-1].wall_s
    metrics = tr.metrics(rnd.independence_checks)
    for name in layer_plain_names():
        metrics[name] = (plain.get(name, 0.0), plain_unit(name))
    metrics["trace.overhead_s"] = (rnd.wall_s - plain_wall, "s")
    info = {"spans": len(tr.name_of), "spans_file": os.path.relpath(spans_path, ROOT),
            "traced_wall_s": rnd.wall_s, "plain_wall_s": plain_wall,
            "ratio_bases": dict(tracing.RATIOS)}
    return metrics, rnd.ops, failed, info


def layer_plain_names():
    import workloads
    from coadinv.verify import SUITES
    names = ["eval.%s.n%d.p50_us" % (f, n)
             for f in ("aff", "isl", "glvv", "io", "iso", "orbit") for n in workloads.EVAL_NS]
    names += ["eval.int.p50_us", "eval.rat.p50_us"]
    names += ["verify.%s.s" % s for s in SUITES]
    names += ["cli.interpreter_ms", "cli.import_ms", "cli.main_ms"]
    return names


def plain_unit(name):
    return name.rsplit("_", 1)[-1] if name.endswith(("_us", "_ms")) else "s"


def print_table(metrics):
    for name, (value, unit) in metrics.items():
        print("%-44s %16.6g %s" % (name, value, unit))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "coadinv", "__init__.py")):
        print("error: no package source at src/coadinv; run from the source tree root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.setup_only:
        _, workdir, measured = setup(args, "setup")
        import workloads
        workloads.remove_workdir(workdir)
        print(json.dumps({"setup": measured}))
        return 0

    # in a child, so that compiling adds nothing to this process's peak RSS
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", SRC], cwd=ROOT)
    if build.returncode != 0:
        print("error: src/ does not compile", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    setups = [child_setup(args) for _ in range(SETUP_REPS - 1)]
    wl, workdir, own = setup(args, "run")
    import workloads
    setups.append(own)
    setup_s = statistics.median(scaled for scaled, _, _ in setups)
    try:
        rounds, failed = timed_phase(wl, args.seconds)
        attempted = sum(r.ops for r in rounds)
        e2e, info = end_to_end(wl, rounds, setup_s)
        info["setup_each_scaled_unscaled_kernel_s"] = setups
        if args.trace:
            stem = "spans-%s-seed%d.json.gz" % (args.workload, args.seed)
            metrics, t_ops, t_failed, trace_info = per_layer(wl, rounds, os.path.join(OUT, stem))
            attempted += t_ops
            failed += t_failed
            info["trace"] = trace_info
        else:
            metrics = dict(e2e)
    finally:
        workloads.remove_workdir(workdir)

    e2e["failed_ratio"] = (failed / attempted, "1")
    record = {"provenance": provenance(args, wl), "run": info,
              "correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}}
    path = os.path.join(OUT, "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print_table(e2e)
    if args.trace:
        print_table(metrics)
    print("record: %s" % os.path.relpath(path, ROOT))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
