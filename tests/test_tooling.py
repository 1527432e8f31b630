"""Source-level checks on the package."""

import ast
import glob
import importlib
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "coadinv")


def test_no_assert_statements():
    # self-checks must raise real exceptions so that they survive python -O
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += ["%s:%d" % (os.path.basename(path), node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _n_range_loops(func):
    # a for loop or comprehension whose iterable reads n_lo or n_hi
    loops = [node.iter for node in ast.walk(func)
             if isinstance(node, (ast.For, ast.comprehension))]
    return [it.lineno for it in loops for node in ast.walk(it)
            if isinstance(node, ast.Attribute) and node.attr in ("n_lo", "n_hi")
            or isinstance(node, ast.Name) and node.id in ("n_lo", "n_hi")]


def _rng_constructions(func):
    return [node.lineno for node in ast.walk(func) if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == "Rng"
                 or getattr(node.func, "attr", None) in ("Rng", "child"))]


def test_only_run_suite_owns_the_unit_frame():
    # one suite scaffold: run_suite alone loops over the n range and derives
    # each unit's stream; a property body gets both from its unit
    path = os.path.join(SRC, "verify.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    funcs = [node for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.Lambda))]
    owner = [f for f in funcs if getattr(f, "name", None) == "run_suite"]
    assert len(owner) == 1 and _n_range_loops(owner[0]) and _rng_constructions(owner[0])
    inside_owner = set(ast.walk(owner[0]))
    found = ["verify.py:%d" % line for f in funcs if f not in inside_owner
             for line in _n_range_loops(f) + _rng_constructions(f)]
    assert found == []


def test_only_exactmat_reads_matrix_storage():
    # one representation: the integer rows and common denominator of a Mat
    # (and its Fraction row view) are read inside exactmat alone; other
    # modules go through num_den() and the Fraction accessors
    private = {"_a", "_d", "_m"}
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) == "exactmat.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += ["%s:%d" % (os.path.basename(path), node.lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in private]
    assert found == []


def _called(node, name):
    return isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None))


def _call_sites(module, accept):
    # the top-level definition holding each accepted call, once per call
    path = os.path.join(SRC, module)
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    return sorted(getattr(top, "name", "<module>") for top in tree.body
                  for node in ast.walk(top) if accept(node))


def _reaches(module, start):
    # the top-level functions of the module that start calls, directly or
    # through other top-level functions of the module
    path = os.path.join(SRC, module)
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    funcs = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
    seen, todo = set(), [start]
    while todo:
        for node in ast.walk(funcs[todo.pop()]):
            name = getattr(node, "func", None)
            name = getattr(name, "id", None) or getattr(name, "attr", None)
            if isinstance(node, ast.Call) and name in funcs and name not in seen:
                seen.add(name)
                todo.append(name)
    return seen


def test_one_recursion_per_generator_family():
    # every glvv/orthogonal generator and covariant reads one integer trace
    # recursion, run in one helper; the all-index functions read the helper
    # and the single-index forms are views of them
    assert _call_sites("invariants.py", lambda node: _called(node, "_char_int")
                       or _called(node, "char_data")) == ["_covariants"]
    # char_data wraps the integer recursion, and bordered_gradients reads
    # the coefficients of the bordered matrix and of y straight off it
    assert _call_sites("charpoly.py", lambda node: _called(node, "_char_int")) \
        == ["bordered_gradients", "bordered_gradients", "char_data"]
    # the second paths are the check of the first: they never reach it
    for second in ("F_bordered_all", "psi_bordered_all", "f_krylov", "krylov_rows"):
        assert "_covariants" not in _reaches("invariants.py", second)
    assert "_covariants" in _reaches("invariants.py", "F_invariant")


def test_det_and_rank_share_one_elimination():
    # one Bareiss elimination serves det and rank, which run no loop of
    # their own, and no module outside exactmat calls it
    path = os.path.join(SRC, "exactmat.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    funcs = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
    for name in ("det", "rank"):
        assert not [node for node in ast.walk(funcs[name])
                    if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    callers = {}
    for path in glob.glob(os.path.join(SRC, "*.py")):
        sites = _call_sites(os.path.basename(path), lambda node: _called(node, "_bareiss"))
        if sites:
            callers[os.path.basename(path)] = sites
    assert callers == {"exactmat.py": ["det", "rank"]}


def test_package_stays_within_the_line_bound():
    # src/coadinv may grow to 2,640 lines (a symbolic poly.py is counted on
    # its own), so growth shows in the tests as it happens
    total = 0
    for path in glob.glob(os.path.join(SRC, "*.py")):
        if os.path.basename(path) != "poly.py":
            with open(path, encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    assert total <= 2640


PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def _resolves(module, name):
    # an attribute of the module, or a submodule of the package
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module("%s.%s" % (module, name))
    except ImportError:
        return False
    return True


def test_perfbench_names_exist_in_the_package():
    # the benchmark harness is frozen, and its tracer reads a function the
    # package no longer has as 0 calls: every coadinv name it imports, reads
    # through a module alias or traces by name must still exist
    missing = []
    for script in ("workloads.py", "tracer.py", "run.py"):
        path = os.path.join(PERFBENCH, script)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        aliases = {}  # local name -> coadinv module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases.update((a.asname or a.name, a.name) for a in node.names
                               if a.name == "coadinv" or a.name.startswith("coadinv."))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("coadinv"):
                for a in node.names:
                    target = "%s.%s" % (node.module, a.name)
                    if not _resolves(node.module, a.name):
                        missing.append("%s: %s" % (script, target))
                    elif target in sys.modules:  # a submodule, read below
                        aliases[a.asname or a.name] = target
            elif isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) in ("LAYERS", "_EXTRA") for t in node.targets):
                for mod, fns in ast.literal_eval(node.value).items():
                    missing += ["%s: coadinv.%s.%s" % (script, mod, fn) for fn in fns
                                if not _resolves("coadinv." + mod, fn)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in aliases:
                module = aliases[node.value.id]
                if not _resolves(module, node.attr):
                    missing.append("%s: %s.%s" % (script, module, node.attr))
    assert missing == []
