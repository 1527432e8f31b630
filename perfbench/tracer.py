"""Span tracer installed from the benchmark's side of the layer boundaries.

For every function named in LAYERS the tracer replaces each global of each
loaded ``coadinv.*`` module that is bound to that function object.  Calls
made through ``from .x import f`` bindings, through module attributes such
as ``inv.F_all`` and through ``Mat.__mul__`` (which looks up ``mat_mul`` in
its module globals) all pass through the wrapper.

Each call records one span: name, start, end, parent span and the id of the
benchmark op that caused it.  Spans live in flat arrays in memory and are
written out once, by ``write``, when the run ends.  A wrapper also scans the
value it returns for the largest numerator and denominator bit lengths; the
scan runs on a paused clock, so span durations exclude it.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from fractions import Fraction

# Layer (package module) -> public functions whose calls are spans.  The
# order here is the order of the per-layer metric names.
LAYERS = {
    "exactmat": ("mat_mul", "det", "rank", "inverse", "pfaffian", "mat_from_json"),
    "charpoly": ("char_data", "directional_coeff", "interp_coeffs",
                 "bordered_char_identities"),
    "liealg": ("sample_dual", "sample_group", "sample_gl", "coad_A", "coad_B",
               "coad_C", "commutator_form", "index_of", "bracket_b",
               "dual_from_json"),
    "invariants": ("f_invariant", "f_krylov", "F_all", "F_invariant", "F_bordered",
                   "psi_all", "psi_invariant", "psi_bordered", "exotic_phi",
                   "orbit_normalize", "sample_open_b"),
    "verify": ("run_suite", "resolve_sign"),
    "cli": ("main",),
}

# Wrapped only so that cache misses can be read from span parentage; they
# have no metric of their own.
_EXTRA = {"liealg": ("algebra_basis",)}

# Ratio metrics derived from parentage: (name, what each ratio counts).
RATIOS = (
    ("liealg.sample_gl.accept_ratio", "sample_gl calls / det calls made directly inside sample_gl"),
    ("liealg.bracket_table.hit_ratio",
     "1 - algebra_basis calls made directly inside commutator_form / commutator_form calls"),
    ("charpoly.vandermonde.hit_ratio",
     "1 - inverse calls made directly inside interp_coeffs or directional_coeff"
     " / (interp_coeffs + directional_coeff calls)"),
    ("invariants.sample_open_b.accept_ratio",
     "sample_open_b calls / sample_dual calls made directly inside sample_open_b"),
    ("verify.independence.accept_ratio",
     "independence checks run / sample_dual calls made directly inside run_suite('independence')"),
)


def traced_names():
    """The qualified names of the functions with calls/self_s metrics."""
    return ["%s.%s" % (mod, fn) for mod, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tags = {}  # span index -> first argument, for run_suite spans
        self.op = -1  # id of the benchmark op now running, set by the workload
        self.max_num_bits = 0
        self.max_den_bits = 0
        self._stack = [-1]
        self._paused = 0.0
        self._saved = []

    # -- installation ------------------------------------------------------

    def install(self):
        targets = {}
        for layers in (LAYERS, _EXTRA):
            for mod, fns in layers.items():
                module = sys.modules.get("coadinv." + mod)
                for fn in fns:
                    # a function the package no longer has reads as 0 calls
                    original = getattr(module, fn, None)
                    if callable(original):
                        targets[id(original)] = self._wrap("%s.%s" % (mod, fn), original)
        for modname, module in list(sys.modules.items()):
            if modname != "coadinv" and not modname.startswith("coadinv."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        tagged = name == "verify.run_suite"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.name_of)
            self.name_of.append(nid)
            self.parent.append(self._stack[-1])
            self.op_of.append(self.op)
            self.start.append(clock() - self._paused)
            self.end.append(0.0)
            if tagged:
                self.tags[idx] = args[0]
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock() - self._paused
                self._stack.pop()
            t = clock()
            self._scan(result)
            self._paused += clock() - t
            return result

        return wrapper

    def _scan(self, value):
        """Track the largest rational inside a returned value."""
        if isinstance(value, Fraction):
            nb = value.numerator.bit_length()
            db = value.denominator.bit_length()
            if nb > self.max_num_bits:
                self.max_num_bits = nb
            if db > self.max_den_bits:
                self.max_den_bits = db
        elif isinstance(value, (tuple, list)):
            for v in value:
                self._scan(v)
        elif hasattr(value, "_m"):  # exactmat.Mat
            for row in value._m:
                for v in row:
                    self._scan(v)
        elif hasattr(value, "__dataclass_fields__") and not hasattr(value, "failures"):
            # dual points, group elements, CharData; a VerifyReport holds
            # only counts and text, so it is skipped
            for field in value.__dataclass_fields__:
                self._scan(getattr(value, field))

    # -- results -----------------------------------------------------------

    def metrics(self, independence_checks: int = 0) -> dict:
        """calls/self_s per traced function, the bit maxima and the ratios."""
        count = len(self.name_of)
        child_time = [0.0] * count
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        # children of a name-parent pair, counted for the ratio metrics
        direct = {}
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        for i in range(count - 1, -1, -1):  # children come after their parent
            dur = end[i] - start[i]
            nid = name_of[i]
            calls[nid] += 1
            self_s[nid] += dur - child_time[i]
            p = parent[i]
            if p >= 0:
                child_time[p] += dur
                key = (self.names[name_of[p]], self.names[nid])
                if key == ("verify.run_suite", "liealg.sample_dual"):
                    key = ("verify.run_suite:" + str(self.tags.get(p)), "liealg.sample_dual")
                direct[key] = direct.get(key, 0) + 1
        by_name = dict(zip(self.names, zip(calls, self_s)))

        out = {}
        for q in traced_names():
            c, s = by_name.get(q, (0, 0.0))
            out[q + ".calls"] = (c, "count")
            out[q + ".self_s"] = (s, "s")
        out["exactmat.max_num_bits"] = (self.max_num_bits, "bits")
        out["exactmat.max_den_bits"] = (self.max_den_bits, "bits")

        def n(q):
            return by_name.get(q, (0,))[0]

        def inside(parent_name, child_name):
            return direct.get((parent_name, child_name), 0)

        def ratio(num, den):
            return num / den if den else 0.0

        lookups = n("charpoly.interp_coeffs") + n("charpoly.directional_coeff")
        vand_miss = (inside("charpoly.interp_coeffs", "exactmat.inverse")
                     + inside("charpoly.directional_coeff", "exactmat.inverse"))
        cf = n("liealg.commutator_form")
        values = {
            "liealg.sample_gl.accept_ratio":
                ratio(n("liealg.sample_gl"), inside("liealg.sample_gl", "exactmat.det")),
            "liealg.bracket_table.hit_ratio":
                1 - ratio(inside("liealg.commutator_form", "liealg.algebra_basis"), cf) if cf else 0.0,
            "charpoly.vandermonde.hit_ratio":
                1 - ratio(vand_miss, lookups) if lookups else 0.0,
            "invariants.sample_open_b.accept_ratio":
                ratio(n("invariants.sample_open_b"),
                      inside("invariants.sample_open_b", "liealg.sample_dual")),
            "verify.independence.accept_ratio":
                ratio(independence_checks,
                      inside("verify.run_suite:independence", "liealg.sample_dual")),
        }
        for name, _ in RATIOS:
            out[name] = (values[name], "1")
        return out

    def write(self, path):
        """Write every span as gzip-compressed JSON."""
        doc = {
            "names": self.names,
            "fields": ["name", "parent", "op", "start_s", "end_s"],
            "spans": [[self.name_of[i], self.parent[i], self.op_of[i],
                       round(self.start[i], 9), round(self.end[i], 9)]
                      for i in range(len(self.name_of))],
            "tags": {str(k): v for k, v in self.tags.items()},
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
