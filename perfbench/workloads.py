"""The three benchmark workloads: inputs, ops, correctness gates, metrics.

Importing this module imports coadinv, so run.py imports it inside the
timed set-up.  Every workload is a closed loop with one client in one
process: the next op starts when the previous one has returned.  Inputs
are generated from the seed before timing; the program sees only them.

A workload object has
    warm_up()           untimed ops that fill the package caches
    run_round()         one timed pass over the fixed op set -> Round
    gate(round)         failed ops of a round, checked after it was timed;
                        the round's outputs are dropped afterwards
    plain_layers(rs)    per-layer metrics taken without tracing
    traced_round(tr)    one round with the tracer installed, and the wall
                        time of the same work untraced (None: use wall_s)
    sizes()             what the round contains, for the provenance record
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import coadinv
from coadinv import cli, invariants as inv, verify
from coadinv.exactmat import Mat, mat_from_json, mat_to_json, rat_str
from coadinv.liealg import (FAMILIES, Algebra, GroupElemB, Rng, coad_A, coad_B,
                            coad_C, commutator_form, dual_from_json, dual_to_json,
                            sample_dual, sample_group)
from coadinv.verify import SUITES, default_plan
from refclock import calibrate, factor, smooth

BOUND = 3  # integer coefficient bound of sampled points and group elements
EVAL_NS = (2, 3, 5, 8)


@dataclass
class Round:
    wall_s: float
    ops: int
    outputs: list
    op_ms: list  # per-op latencies
    layers: dict = field(default_factory=dict)  # plain per-layer figures
    independence_checks: int = 0  # base of verify.independence.accept_ratio
    # the same times at the reference speed (see refclock), and the kernel
    # times they were scaled by, in the order they were measured
    scaled_wall_s: float = 0.0
    scaled_op_ms: list = field(default_factory=list)
    kernel_s: list = field(default_factory=list)


# -- the op shared by eval-batch and cli-cold ----------------------------------

def _entry(name, value, k=None):
    out = {"invariant": name}
    if k is not None:
        out["k"] = k
    out["value"] = rat_str(value)
    return out


def run_op(kind, doc):
    """What `coadinv eval --which all` or `coadinv orbit` computes once its
    input file is parsed: the same JSON value the command prints."""
    alg, point = dual_from_json(doc)
    if kind == "orbit":
        elem, normal = inv.orbit_normalize(point)
        return {"g": mat_to_json(elem.g), "u": mat_to_json(elem.u),
                "normal_form": {"algebra": "glvv", "n": alg.n,
                                "y": mat_to_json(normal.y),
                                "wstar": mat_to_json(normal.wstar),
                                "xi": mat_to_json(normal.xi)}}
    fam = alg.family
    if fam == "aff":
        return [_entry("f", inv.f_invariant(point))]
    if fam == "isl":
        return [_entry("fbar", inv.f_bar(point))]
    if fam == "glvv":
        return [_entry("F", v, k) for k, v in enumerate(inv.F_all(point))]
    psis = inv.psi_all(point)
    if fam == "io" or alg.n % 2 == 0:
        return [_entry("psi", v, k) for k, v in enumerate(psis)]
    return ([_entry("psi", psis[k], k) for k in range(alg.ell)]
            + [_entry("phi", inv.exotic_phi(point))])


def check_op(kind, doc, out) -> bool:
    """Re-derive an op's output through the package's independent second
    path: f_krylov, F_bordered, psi_bordered, the exotic square identity,
    and for orbit the base pair (J, e_n*) with xi = pi_projection."""
    try:
        return _agrees(kind, doc, out)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError):
        return False  # a malformed output, or the text of an op's exception


def _agrees(kind, doc, out) -> bool:
    alg, point = dual_from_json(doc)
    n = alg.n
    if kind == "orbit":
        nf = out["normal_form"]
        base = inv.CanonicalPair.of_size(n)
        return (mat_from_json(nf["y"]) == base.J
                and mat_from_json(nf["wstar"]) == base.enstar
                and mat_from_json(nf["xi"]) == inv.pi_projection(point))
    got = {(e["invariant"], e.get("k")): Fraction(e["value"]) for e in out}
    if len(got) != len(out):
        return False
    fam = alg.family
    if fam in ("aff", "isl"):
        want = {("f" if fam == "aff" else "fbar", None): inv.f_krylov(point)}
    elif fam == "glvv":
        want = {("F", k): inv.F_bordered(k, point) for k in range(n)}
    else:
        ell = alg.ell
        want = {("psi", k): inv.psi_bordered(k, point) for k in range(ell + 1)}
        if fam == "iso" and n % 2 == 1:
            top = want.pop(("psi", ell))
            phi = got.pop(("phi", None), None)
            if phi is None or phi * phi != inv.EXOTIC_SQUARE_SIGN * top:
                return False
    return got == want


def _image(alg, point, rng):
    """The point moved by a sampled group element: rational entries."""
    elem = sample_group(alg, rng, BOUND)
    if alg.family == "aff":
        return coad_A(elem, point)
    if alg.family == "isl":
        return inv.project_traceless(coad_A(elem, point))
    if alg.family == "glvv":
        return coad_B(elem, point)
    return coad_C(elem, point)


def make_docs(seed, ns, per_n):
    """Seeded op list of (kind, family, n, 'int'|'rat', doc).

    Each integer sample_dual point comes with its coadjoint image; orbit
    ops use open-set glvv points moved by the affine part only, which keeps
    them in the open set."""
    root = Rng(seed)
    ops = []
    for fam in FAMILIES:
        for n in ns:
            alg = Algebra(fam, n)
            for i in range(per_n[n]):
                rng = root.child("eval", fam, n, i)
                point = sample_dual(alg, rng, BOUND)
                ops.append(("eval", fam, n, "int", dual_to_json(alg, point)))
                ops.append(("eval", fam, n, "rat", dual_to_json(alg, _image(alg, point, rng))))
    for n in ns:
        alg = Algebra("glvv", n)
        for i in range(per_n[n]):
            rng = root.child("orbit", n, i)
            point = inv.sample_open_b(rng, n, BOUND)
            a = sample_group(Algebra("aff", n), rng, BOUND)
            moved = coad_B(GroupElemB(a.g, a.u, Mat.zero(1, n)), point)
            ops.append(("orbit", "orbit", n, "int", dual_to_json(alg, point)))
            ops.append(("orbit", "orbit", n, "rat", dual_to_json(alg, moved)))
    return ops


# -- eval-batch ------------------------------------------------------------------

class EvalBatch:
    name = "eval-batch"
    # points per (family, n): the median op falls in the middle of the n=3
    # group and the 90th percentile in the middle of the n=8 group, away from
    # the jumps between sizes; eight n=3 points per family keep the median
    # from depending on the draw of a few points
    PER_N = {"full": {2: 4, 3: 8, 5: 2, 8: 3}, "tiny": {2: 1, 3: 1, 5: 1, 8: 1}}

    def __init__(self, seed, size, workdir):
        self.per_n = self.PER_N[size]
        self.ops = make_docs(seed, EVAL_NS, self.per_n)
        self.checked = None  # gate verdict and output of each op, first round

    def sizes(self):
        return {"ns": list(EVAL_NS), "points_per_family_and_n": self.per_n,
                "ops_per_round": len(self.ops),
                "kinds": "half integer sample_dual points, half their coadjoint images"}

    def warm_up(self):
        seen = set()
        for kind, fam, n, _, doc in self.ops:
            if (fam, n) not in seen:
                seen.add((fam, n))
                run_op(kind, doc)

    def run_round(self, tracer=None):
        clock = time.perf_counter
        op_ms = []
        outputs = []
        before = calibrate()
        t0 = clock()
        for i, (kind, _, _, _, doc) in enumerate(self.ops):
            if tracer is not None:
                tracer.op = i
            t = clock()
            try:
                out = run_op(kind, doc)
            except Exception as exc:  # the gate counts it as a failed op
                out = repr(exc)
            op_ms.append((clock() - t) * 1e3)
            outputs.append(out)
        wall = clock() - t0
        after = calibrate()
        f = factor(before, after)
        return Round(wall, len(self.ops), outputs, op_ms, scaled_wall_s=wall * f,
                     scaled_op_ms=[ms * f for ms in op_ms], kernel_s=[before, after])

    def gate(self, rnd):
        # the first round is re-derived through the second path; every later
        # round must repeat its outputs exactly
        if self.checked is None:
            self.checked = [(check_op(kind, doc, out), out)
                            for (kind, _, _, _, doc), out in zip(self.ops, rnd.outputs)]
        return sum(1 for (ok, first), out in zip(self.checked, rnd.outputs)
                   if not ok or out != first)

    def plain_layers(self, rounds):
        groups = {}
        for r in rounds:
            for (_, fam, n, num, _), ms in zip(self.ops, r.op_ms):
                groups.setdefault("eval.%s.n%d.p50_us" % (fam, n), []).append(ms)
                groups.setdefault("eval.%s.p50_us" % num, []).append(ms)
        return {name: statistics.median(v) * 1e3 for name, v in groups.items()}

    def traced_round(self, tracer):
        with tracer:
            rnd = self.run_round(tracer)
        return rnd, None


# -- verify-plan -----------------------------------------------------------------

# checks_run summed over all reports of `verify --all`, by (samples, n_max);
# independent of the seed, so a dropped check or sample shows as a failure
EXPECTED_CHECKS = {(20, 4): 3227, (2, 2): 158}


class VerifyPlan:
    name = "verify-plan"
    SETTINGS = {"full": (20, 4), "tiny": (2, 2)}

    def __init__(self, seed, size, workdir):
        self.samples, self.n_max = self.SETTINGS[size]
        self.expected = EXPECTED_CHECKS[(self.samples, self.n_max)]
        self.pairs = len(default_plan())
        self.out_path = os.path.join(workdir, "verify.json")
        self.argv = ["verify", "--all", "--samples", str(self.samples), "--seed", str(seed),
                     "--n-max", str(self.n_max), "--output", self.out_path]

    def sizes(self):
        # run_all clamps each suite's default range and run_suite caps the
        # samples without saying so; this is what actually runs
        pairs = []
        for suite, fam in default_plan():
            spec = SUITES[suite]
            lo, hi = spec.default_range
            hi = min(hi, self.n_max)
            samples = self.samples
            if spec.samples_cap:
                samples = min(samples, spec.samples_cap)
            pairs.append({"suite": suite, "family": fam, "n_lo": min(lo, hi), "n_hi": hi,
                          "samples": samples})
        return {"argv": self.argv[:-2], "expected_checks": self.expected, "pairs": pairs}

    def warm_up(self):
        # fill the bracket-table and Vandermonde-inverse caches the plan uses
        for fam in FAMILIES:
            for n in range(2, self.n_max + 1):
                alg = Algebra(fam, n)
                commutator_form(alg, sample_dual(alg, Rng(0), BOUND))
        for d in range(1, self.n_max + 2):
            coadinv.interp_coeffs([0] * (d + 1))

    def run_round(self, scale=True):
        """One `verify --all`.  With scale, the reference kernel is timed
        before every suite run and once after the plan, off the clock: one
        round is too long for the machine's speed to hold still."""
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        kernels = []
        suite_walls = []
        spent = [0.0]  # seconds inside calibrate(), not the program's
        original = verify.run_suite

        def timed_suite(*args, **kwargs):
            t = time.perf_counter()
            kernels.append(calibrate())
            t0 = time.perf_counter()
            spent[0] += t0 - t
            try:
                return original(*args, **kwargs)
            finally:
                suite_walls.append(time.perf_counter() - t0)

        if scale:
            verify.run_suite = timed_suite
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                try:
                    code = cli.main(self.argv)
                except Exception as exc:  # the gate counts the round as failed
                    code = repr(exc)
                wall = time.perf_counter() - t0 - spent[0]
        finally:
            verify.run_suite = original
        try:
            with open(self.out_path, encoding="utf-8") as fh:
                reports = json.load(fh)
        except (OSError, ValueError):
            reports = []
        suite_s = dict.fromkeys(SUITES, 0.0)
        for rep in reports:
            suite_s[rep["suite"]] += rep["elapsed_ms"] / 1e3
        rnd = Round(wall, self.expected, [code, reports], [],
                    {"verify.%s.s" % s: t for s, t in suite_s.items()},
                    sum(r["checks_run"] for r in reports if r["suite"] == "independence"))
        if scale and kernels:
            kernels = smooth(kernels + [calibrate()])
            # argparse and writing the reports, outside any suite, take the
            # mean factor
            scaled = (wall - sum(suite_walls)) * factor(kernels[0], kernels[-1])
            scaled += sum(w * factor(a, b)
                          for w, a, b in zip(suite_walls, kernels, kernels[1:]))
            rnd.scaled_wall_s = scaled
            rnd.kernel_s = kernels
        return rnd

    def gate(self, rnd):
        code, reports = rnd.outputs
        if code != 0 or len(reports) != self.pairs:
            return self.expected
        ran = sum(r["checks_run"] for r in reports)
        failed = sum(len(r["failures"]) for r in reports)
        return min(self.expected, failed + abs(self.expected - ran))

    def plain_layers(self, rounds):
        return {name: statistics.median(r.layers[name] for r in rounds)
                for name in rounds[0].layers}

    def traced_round(self, tracer):
        tracer.op = 0
        with tracer:
            rnd = self.run_round(scale=False)
        return rnd, None


# -- cli-cold --------------------------------------------------------------------

class CliCold:
    name = "cli-cold"
    NS = {"full": (2, 3), "tiny": (2,)}

    def __init__(self, seed, size, workdir):
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.ns = self.NS[size]
        self.ops = []
        docs = make_docs(seed, self.ns, dict.fromkeys(self.ns, 1))
        for i, (kind, _, _, _, doc) in enumerate(docs):
            path = os.path.join(workdir, "point%02d.json" % i)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.ops.append((kind, doc, path))
        self.peak_rss_kb = 0  # largest ru_maxrss of a timed child

    def sizes(self):
        return {"ns": list(self.ns), "invocations_per_round": len(self.ops),
                "argv": "python -m coadinv.cli eval|orbit --input FILE"}

    def _spawn(self, args):
        """Run one child to completion -> (exit code, stdout, wall s, ru_maxrss kB)."""
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + args, cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, wall, usage.ru_maxrss

    def warm_up(self):
        kind, _, path = self.ops[0]
        self._spawn(["-m", "coadinv.cli", kind, "--input", path])

    def run_round(self):
        # an invocation is long enough to time the reference kernel between
        # invocations, which follows the machine's speed more closely than
        # timing it around the whole round
        op_ms = []
        outputs = []
        cals = [calibrate()]
        for kind, _, path in self.ops:
            code, out, wall, rss_kb = self._spawn(["-m", "coadinv.cli", kind, "--input", path])
            cals.append(calibrate())
            self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
            outputs.append((code, out))
            op_ms.append(wall * 1e3)
        cals = smooth(cals)
        scaled = [ms * factor(a, b) for ms, a, b in zip(op_ms, cals, cals[1:])]
        return Round(sum(op_ms) / 1e3, len(self.ops), outputs, op_ms,
                     scaled_wall_s=sum(scaled) / 1e3, scaled_op_ms=scaled, kernel_s=cals)

    def gate(self, rnd):
        failed = 0
        for (kind, doc, _), (code, out) in zip(self.ops, rnd.outputs):
            try:
                ok = code == 0 and json.loads(out) == run_op(kind, doc)
            except ValueError:
                ok = False
            failed += not ok
        return failed

    def _in_process(self, tracer=None):
        """cli.main on the same files in this process -> (outputs, wall s each)."""
        outputs = []
        walls = []
        for i, (kind, _, path) in enumerate(self.ops):
            if tracer is not None:
                tracer.op = i
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                t0 = time.perf_counter()
                code = cli.main([kind, "--input", path])
                walls.append(time.perf_counter() - t0)
            outputs.append((code, buf.getvalue().encode()))
        return outputs, walls

    def plain_layers(self, rounds):
        bare = statistics.median(self._spawn(["-c", "pass"])[2] for _ in range(7))
        imp = statistics.median(self._spawn(["-c", "import coadinv.cli"])[2] for _ in range(7))
        walls = [w for _ in range(3) for w in self._in_process()[1]]
        return {"cli.interpreter_ms": bare * 1e3,
                "cli.import_ms": (imp - bare) * 1e3,
                "cli.main_ms": statistics.median(walls) * 1e3}

    def traced_round(self, tracer):
        _, plain = self._in_process()
        t0 = time.perf_counter()
        with tracer:
            outputs, walls = self._in_process(tracer)
        return Round(time.perf_counter() - t0, len(self.ops), outputs, walls), sum(plain)


WORKLOADS = {w.name: w for w in (EvalBatch, VerifyPlan, CliCold)}


def make_workdir(root, tag):
    path = os.path.join(root, "perfbench", "out", "tmp-%s-%d" % (tag, os.getpid()))
    os.makedirs(path, exist_ok=True)
    return path


def remove_workdir(path):
    shutil.rmtree(path, ignore_errors=True)
