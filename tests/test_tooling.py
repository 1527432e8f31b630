"""Source-level checks on the package."""

import ast
import glob
import importlib
import importlib.util
import inspect
import os
import re
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


def test_only_run_suite_decides_an_odd_only_suite_sizes():
    # odd_only is read where the sizes are chosen, run_suite and
    # suite_range; no property body takes n modulo anything to skip a unit
    path = os.path.join(SRC, "verify.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    funcs = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
    readers = {name for name, func in funcs.items() for node in ast.walk(func)
               if getattr(node, "attr", None) == "odd_only"}
    assert readers == {"run_suite", "suite_range"}
    sizes = [node.left for name, func in funcs.items() if name.startswith("_suite_")
             for node in ast.walk(func)
             if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)]
    found = [node.lineno for node in sizes if getattr(node, "id", None) == "n"
             or getattr(node, "attr", None) == "n"]
    assert found == []


def test_only_main_maps_failures_to_exit_codes():
    # one owner per outcome: a command computes and raises, and main alone
    # turns a failure into exit 1 or exit 2
    path = os.path.join(SRC, "cli.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    codes = {"MATH_ERROR", "USAGE_ERROR"}
    mappers = sorted({func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                      for node in ast.walk(func) if isinstance(node, ast.ExceptHandler)
                      for ret in ast.walk(node) if isinstance(ret, ast.Return)
                      and getattr(ret.value, "id", None) in codes})
    assert mappers == ["main"]


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


def test_records_define_no_arithmetic():
    # records are values: no Record subclass defines an arithmetic operator
    arith = {"__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__neg__"}
    records, found = [], []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and any(
                    "Record" in (getattr(b, "id", None), getattr(b, "attr", None))
                    for b in cls.bases):
                records.append(cls.name)
                for node in cls.body:
                    names = ([node.name] if isinstance(node, ast.FunctionDef) else
                             [getattr(t, "id", None) for t in getattr(node, "targets", [])])
                    found += ["%s.%s" % (cls.name, name) for name in names if name in arith]
    assert "DualPoint" in records and found == []


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
    # recursion, run in one helper, which the all-index functions read
    assert _call_sites("invariants.py", lambda node: _called(node, "_char_int")
                       or _called(node, "char_data")) == ["_covariants"]
    # char_data wraps the integer recursion, bordered_gradients reads the
    # coefficients of the bordered matrix and of y straight off it, and
    # _bordered_jacobian the gradients of both
    assert _call_sites("charpoly.py", lambda node: _called(node, "_char_int")) \
        == ["_bordered_jacobian", "_bordered_jacobian", "bordered_gradients",
            "bordered_gradients", "char_data"]
    # the second paths are the check of the first: they never reach it
    for second in ("F_bordered_all", "psi_bordered_all", "f_krylov", "krylov_rows"):
        assert "_covariants" not in _reaches("invariants.py", second)
    for first in ("F_all", "psi_all", "f_invariant", "phi_rows"):
        assert "_covariants" in _reaches("invariants.py", first)
    # the dual-path statement of the bordered identity reads both sides off
    # char_data, never the pairings it checks
    sides = _check_calls("_suite_dual_path", "bordered coefficient identities hold")
    assert "char_data" in sides
    assert not sides & {"bordered_gradients", "F_bordered_all", "F_bordered", "F_all"}
    for name in ("char_data", "bordered"):
        assert "bordered_gradients" not in _reaches("charpoly.py", name)


def _check_calls(body, claim):
    # the names called by the unit.check of the claim in the property body
    # and by every assignment of a name its sides read, followed back
    path = os.path.join(SRC, "verify.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    func = next(top for top in tree.body if getattr(top, "name", None) == body)
    todo = [node for node in ast.walk(func) if _called(node, "check")
            and isinstance(node.args[0], ast.BinOp)
            and node.args[0].left.value.startswith(claim)]
    assert len(todo) == 1
    assigns = [node for node in ast.walk(func) if isinstance(node, (ast.Assign, ast.AugAssign))]
    seen, calls = set(), set()
    while todo:
        node = todo.pop()
        calls |= {getattr(c.func, "id", None) or getattr(c.func, "attr", None)
                  for c in ast.walk(node) if isinstance(c, ast.Call)}
        for name in {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} - seen:
            seen.add(name)
            todo += [a for a in assigns if name in {n.id for n in ast.walk(a)
                                                    if isinstance(n, ast.Name)
                                                    and isinstance(n.ctx, ast.Store)}]
    return calls


def test_a_check_is_written_one_way():
    # a kernel function returns values and a property body compares them
    # with unit.check: no function returns an (ok, witness) pair headed by a
    # True/False constant, and only _Unit.check and run_suite (the run-level
    # claims) record a check
    found, recorders = [], []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += ["%s:%d" % (module, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Return) and isinstance(node.value, ast.Tuple)
                  and node.value.elts and isinstance(node.value.elts[0], ast.Constant)
                  and isinstance(node.value.elts[0].value, bool)]
        recorders += ["%s:%s" % (module, name) for name, func in _methods(tree)
                      for node in ast.walk(func) if _called(node, "_record")]
    assert found == []
    assert sorted(recorders) == ["verify.py:_Unit.check", "verify.py:run_suite"]


def test_the_packed_layout_is_read_in_charpoly_alone():
    # _char_int sizes its slots for the rows w it is given, so it projects
    # and unpacks them itself: no other module names a part of the layout
    layout = {"_unpack", "_layout", "_packed_mul"}
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) == "charpoly.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += ["%s:%d" % (os.path.basename(path), node.lineno) for node in ast.walk(tree)
                  if getattr(node, "id", None) in layout or getattr(node, "attr", None) in layout
                  or isinstance(node, ast.ImportFrom) and layout & {a.name for a in node.names}]
    assert found == []


def test_every_exact_derivative_is_read_through_one_checked_rule():
    # interp_coeffs alone would read an understated bound's wrong
    # coefficients; _taylor checks the bound, and each interpolated
    # derivative reads it: gradient-Bk's, the independent check of the
    # identity the independence suite's recursion reads its rows by
    def sites(name):
        return sorted(site for path in sorted(glob.glob(os.path.join(SRC, "*.py")))
                      for site in _call_sites(os.path.basename(path),
                                              lambda node: _called(node, name)))
    assert sites("interp_coeffs") == ["_taylor"]
    assert sites("_taylor") == ["_suite_gradient_Bk"]
    # the suite reads its node list straight, with no closure or memo
    path = os.path.join(SRC, "verify.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    body = next(top for top in tree.body if getattr(top, "name", None) == "_suite_gradient_Bk")
    assert not [node for node in ast.walk(body) if node is not body
                and isinstance(node, (ast.FunctionDef, ast.Lambda))]


def test_the_independence_suite_reads_one_path(monkeypatch):
    # the suite ranks the rows of one bordered recursion: nothing it reaches
    # interpolates or builds a point, and run, it builds one DualPoint per
    # draw of sample_dual and interpolates nothing
    reached = {"verify.py:" + name for name in
               {"_suite_independence"} | _reaches("verify.py", "_suite_independence")}
    reached |= {"charpoly.py:" + name for name in
                {"_bordered_jacobian"} | _reaches("charpoly.py", "_bordered_jacobian")}
    assert {"verify.py:_jacobian_plan", "verify.py:_jacobian_rank",
            "charpoly.py:_char_int", "charpoly.py:_pfaffian_minor"} <= reached
    for name in ("_taylor", "interp_coeffs", "DualPoint"):
        assert not [site for path in ("verify.py", "charpoly.py")
                    for site in _call_sites(path, lambda node: _called(node, name))
                    if "%s:%s" % (path, site) in reached], name
    charpoly = importlib.import_module("coadinv.charpoly")
    liealg = importlib.import_module("coadinv.liealg")
    verify = importlib.import_module("coadinv.verify")
    counts = {"points": 0, "draws": 0, "interpolations": 0}

    def counted(key, real):
        def call(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return call
    monkeypatch.setattr(liealg.DualPoint, "__init__",
                        counted("points", liealg.DualPoint.__init__))
    monkeypatch.setattr(verify, "sample_dual", counted("draws", verify.sample_dual))
    monkeypatch.setattr(charpoly, "interp_coeffs",
                        counted("interpolations", charpoly.interp_coeffs))
    for fam in ("glvv", "io", "iso"):
        config = verify.SuiteConfig(algebra=fam, n_lo=2, n_hi=5, samples=5, seed=1)
        assert verify.run_suite("independence", config).passed
    assert counts["points"] == counts["draws"] >= 3 * 4 * 5 and counts["interpolations"] == 0


def test_each_slice_is_proved_once_and_stated_once():
    # the slices suite reads one derivation per unit, and nothing else does
    assert _call_sites("verify.py", lambda node: _called(node, "_slice_signs")) \
        == ["_suite_slices"]
    # each closed slice form is stated in poly alone: invariants defines none
    path = os.path.join(SRC, "invariants.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    funcs = {top.name for top in tree.body if isinstance(top, ast.FunctionDef)}
    assert funcs.isdisjoint({"t_slice", "phi_slice", "exotic_slice"})
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += ["%s:%d" % (os.path.basename(path), node.lineno) for node in ast.walk(tree)
                  if "_elementary_symmetric" in (getattr(node, "name", None),
                                                 getattr(node, "id", None),
                                                 getattr(node, "attr", None))]
    assert found == []


def _docstrings(tree):
    return [ast.get_docstring(node) or "" for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))]


def test_the_generator_table_is_stated_once():
    # invariants.GENERATORS alone states each family's generators, counts,
    # degrees and characters: the CLI keeps no id table and no string of
    # it names an id (its --which help is read off the table), the suites read
    # their counts and exponents off it, no Jacobian call passes a degree
    # bound or a generator index of its own (_jacobian_plan reads the picks
    # off the table), one body checks every character, no docstring restates
    # a degree, and no source spells a character as a string
    trees = {}
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path, encoding="utf-8") as fh:
            trees[os.path.basename(path)] = ast.parse(fh.read(), filename=path)
    assert "_SINGLE_IDS" not in {getattr(t, "id", None) for t in ast.walk(trees["cli.py"])}
    from coadinv.invariants import GENERATORS
    ids = re.compile(r"\b(?:%s)[0-9]*\b" % "|".join(
        {row[0] for rows in GENERATORS.values() for row in rows}))
    assert not [node.value for node in ast.walk(trees["cli.py"])
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
                and ids.search(node.value)]
    funcs = {top.name: top for top in trees["verify.py"].body if isinstance(top, ast.FunctionDef)}
    for name in ("_suite_independence", "_jacobian_plan", "_suite_index", "_suite_invariance",
                 "_suite_exotic_sign"):
        nodes = list(ast.walk(funcs[name]))
        assert any(getattr(node, "attr", None) == "GENERATORS" for node in nodes), name
        assert not [node for node in nodes if isinstance(node, ast.Dict)
                    or getattr(node, "attr", None) == "ell"], name
    calls = [call for call in ast.walk(trees["verify.py"]) if _called(call, "_jacobian_rank")]
    assert calls and not [call for call in calls if call.keywords
                          or [ast.unparse(a) for a in call.args[1:]] != ["picks", "moves"]]
    assert [ast.unparse(node) for node in ast.walk(funcs["_suite_independence"])
            if isinstance(node, ast.Assign) and _called(node.value, "_jacobian_plan")] \
        == ["picks, moves = _jacobian_plan(alg)"]
    stated = re.compile(r"degree\s+(?:k \+ 2|2k \+ 2|ell \+ 1|n\(n ?\+ ?1\)/2)")
    found = ["%s: %s" % (module, m.group()) for module, tree in sorted(trees.items())
             for doc in _docstrings(tree) for m in stated.finditer(doc)]
    assert found == []
    assert not [doc for doc in _docstrings(trees["invariants.py"]) if "degree " in doc]
    assert not [node for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and node.value in ("1/det g", "det g")]
    from coadinv.verify import SUITES
    assert {SUITES[name].func.__name__ for name in
            ("semi-invariance-f", "invariance-F", "invariance-psi")} == {"_suite_invariance"}
    assert funcs.keys().isdisjoint({"_suite_semi_invariance_f", "_suite_invariance_F",
                                    "_suite_invariance_psi"})
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.S | re.M)
    shown = {node.name for block in blocks for node in ast.walk(ast.parse(block))
             if isinstance(node, ast.FunctionDef) and node.name.startswith("_suite_")}
    assert shown and shown <= funcs.keys()



def _methods(tree):
    # (qualified name, node) of every top-level function and method
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            yield top.name, top
        elif isinstance(top, ast.ClassDef):
            yield from (("%s.%s" % (top.name, f.name), f) for f in top.body
                        if isinstance(f, ast.FunctionDef))


def test_group_membership_is_stated_once():
    # GroupElem's constructor alone states a family's group: no other code
    # raises its refusals, no second constructor builds io/iso elements,
    # the writer reads nothing back, and a witness input is encoded under
    # its own family, so the encoder takes no algebra
    raised, funcs = {}, {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for name, func in _methods(tree):
            funcs["%s:%s" % (module, name)] = func
            for node in ast.walk(func):
                if not isinstance(node, ast.Raise):
                    continue
                text = " ".join(c.value for c in ast.walk(node)
                                if isinstance(c, ast.Constant) and isinstance(c.value, str))
                for message in ("non-orthogonal", "det g = 1"):
                    if message in text:
                        raised.setdefault(message, []).append("%s:%s" % (module, name))
    site = ["liealg.py:GroupElem.__init__"]
    assert raised == {"non-orthogonal": site, "det g = 1": site}
    from coadinv.liealg import GroupElem
    assert not hasattr(GroupElem, "orthogonal")
    assert not [node for node in ast.walk(funcs["liealg.py:group_to_json"])
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", "").endswith("_from_json")]
    for name in ("_record", "_encode"):
        args = funcs["verify.py:%s" % name].args.args
        assert not [a for a in args if a.arg == "alg"
                    or getattr(a.annotation, "id", None) == "Algebra"], name


def test_the_splitmix_finalizer_is_stated_once():
    # the batched draw calls _mix64 once per raw draw instead of inlining
    # it: the two splitmix64 multipliers appear once in the package, inside
    # _mix64, and the batched samplers never fall back to one int_between
    # call per entry, directly or through a helper
    multipliers = {0xBF58476D1CE4E5B9, 0x94D049BB133111EB}
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [node.value for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value in multipliers]
        if os.path.basename(path) == "liealg.py":
            funcs = dict(_methods(tree))
    assert sorted(found) == sorted(multipliers)
    assert {node.value for node in ast.walk(funcs["_mix64"])
            if isinstance(node, ast.Constant)} >= multipliers
    for sampler in ("sample_int_mat", "sample_skew"):
        reached = {sampler} | _reaches("liealg.py", sampler)
        calls = [node for name in reached for node in ast.walk(funcs[name])]
        assert not [node for node in calls if _called(node, "int_between")], sampler
        assert [node for node in calls if _called(node, "_draws")], sampler


def test_the_stream_is_advanced_in_one_place():
    # _draws alone steps the splitmix state: it reads the counter step and
    # stores the state, and next_u64 is a view of it, like int_between
    path = os.path.join(SRC, "liealg.py")
    with open(path, encoding="utf-8") as fh:
        funcs = dict(_methods(ast.parse(fh.read(), filename=path)))
    steps = sorted(name for name, func in funcs.items() for node in ast.walk(func)
                   if getattr(node, "id", None) == "_GAMMA")
    stores = sorted(name for name, func in funcs.items() for node in ast.walk(func)
                    if isinstance(node, ast.Attribute) and node.attr == "_state"
                    and isinstance(node.ctx, ast.Store))
    assert steps == ["Rng._draws"] and stores == ["Rng.__init__", "Rng._draws"]
    for view in ("Rng.next_u64", "Rng.int_between"):
        assert [node for node in ast.walk(funcs[view]) if _called(node, "_draws")], view


def test_lowest_terms_are_reached_through_the_constructors():
    # a grid of canonical blocks over the lcm of their denominators is
    # canonical as assembled, and the per-entry JSON reader hands its
    # fractions to Mat: neither states the reduction again
    path = os.path.join(SRC, "exactmat.py")
    with open(path, encoding="utf-8") as fh:
        funcs = dict(_methods(ast.parse(fh.read(), filename=path)))
    for name, banned in (("Mat.block", ("_normal",)), ("mat_from_json", ("lcm", "_normal"))):
        assert not [node for node in ast.walk(funcs[name])
                    if any(_called(node, callee) for callee in banned)], name


def _negated_transposes(func):
    # the operand of each -m.transpose() in the function
    return [node.operand.func.value for node in ast.walk(func)
            if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            and _called(node.operand, "transpose")]


def _family_comparisons(func):
    # the lines of each comparison in the function that reads a family name
    families = importlib.import_module("coadinv.liealg").FAMILIES
    return [node.lineno for node in ast.walk(func) if isinstance(node, ast.Compare)
            for c in ast.walk(node) if isinstance(c, ast.Constant) and c.value in families]


def test_the_third_component_is_stated_once():
    # one rule, liealg._third, fills a point's xi, an element's vstar and
    # the vstar of an algebra basis element: no code negates the transpose
    # of a record's wstar or u, in liealg only _third and the involution
    # theta negate a transpose, and in verify only the theta suite, as
    # theta's independent oracle; the Jacobian's rows and directions fork
    # on no family, here or in the tests' interpolating oracles; one reader
    # raises the JSON refusals, and each public codec is a one-statement
    # view of the one reader or the one writer
    funcs, raised = {}, {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for name, func in _methods(tree):
            funcs["%s:%s" % (module, name)] = func
            for node in ast.walk(func):
                if not isinstance(node, ast.Raise):
                    continue
                text = " ".join(c.value for c in ast.walk(node)
                                if isinstance(c, ast.Constant) and isinstance(c.value, str))
                for message in ("takes no .* component", "is missing a component"):
                    if re.search(message, text):
                        raised.setdefault(message, []).append("%s:%s" % (module, name))
    fields = [site for site, func in funcs.items() for operand in _negated_transposes(func)
              if getattr(operand, "attr", None) in ("wstar", "u")]
    assert fields == []
    negating = {site for site, func in funcs.items()
                if site.startswith("liealg.py:") and _negated_transposes(func)}
    assert negating == {"liealg.py:_third", "liealg.py:theta"}
    assert [node for node in ast.walk(funcs["liealg.py:algebra_basis"])
            if _called(node, "_third")]
    assert {site for site, func in funcs.items()
            if site.startswith("verify.py:") and _negated_transposes(func)} == {
        "verify.py:_suite_theta"}
    oracles = []
    for script, name in [("test_verify.py", "_full_jacobian_rank"),
                         ("oracles.py", "interpolated_jacobian"), ("oracles.py", "directions")]:
        with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), script),
                  encoding="utf-8") as fh:
            oracles += [node for node in ast.parse(fh.read()).body
                        if getattr(node, "name", None) == name]
    assert len(oracles) == 3
    for func in [funcs["verify.py:_jacobian_rank"], funcs["verify.py:_jacobian_plan"],
                 funcs["charpoly.py:_bordered_jacobian"]] + oracles:
        assert _family_comparisons(func) == [], func.name
    reader = ["liealg.py:_from_json"]
    assert raised == {"takes no .* component": reader, "is missing a component": reader}
    callees = {}
    for name in ("dual_to_json", "group_to_json", "dual_from_json", "group_from_json"):
        body = funcs["liealg.py:" + name].body
        if ast.get_docstring(funcs["liealg.py:" + name]) is not None:
            body = body[1:]
        assert len(body) == 1 and isinstance(body[0], ast.Return), name
        assert isinstance(body[0].value, ast.Call), name
        callees.setdefault(name.split("_")[1], set()).add(ast.unparse(body[0].value.func))
    assert callees == {"to": {"_to_json"}, "from": {"_from_json"}}


def test_orbit_normalize_never_inverts_g():
    # the normal form's landing is checked as J g = g y + u wstar and
    # e_n* g = wstar: neither orbit_normalize nor a helper it reaches calls
    # inverse or coad, and det g is computed once, by GroupElem; both are
    # checked on the integer rows of g, u, y and wstar, so no product has
    # J, e_n*, y or wstar as an operand
    reached = {"orbit_normalize"} | _reaches("invariants.py", "orbit_normalize")

    def sites(name):
        return [site for site in _call_sites("invariants.py", lambda node: _called(node, name))
                if site in reached]

    def by_base(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and any(getattr(sub, "attr", None) in ("J", "enstar", "y", "wstar")
                        for side in (node.left, node.right) for sub in ast.walk(side)))

    assert sites("inverse") == [] and sites("coad") == []
    assert len(sites("det")) <= 1
    assert [site for site in _call_sites("invariants.py", by_base) if site in reached] == []


def test_the_index_is_one_rank_at_the_base_pair(monkeypatch):
    # index_of is a function of the algebra alone: it takes no stream, and
    # neither it nor a liealg helper it reaches draws; _suite_index ranks
    # once through it, with no sample cap of its own and no re-draw loop
    liealg = importlib.import_module("coadinv.liealg")
    assert list(inspect.signature(liealg.index_of).parameters) == ["alg"]

    def refuse(*args):
        raise AssertionError("index_of drew from a stream")
    monkeypatch.setattr(liealg.Rng, "next_u64", refuse)
    monkeypatch.setattr(liealg.Rng, "_draws", refuse)
    for fam in liealg.FAMILIES:
        liealg.index_of(liealg.Algebra(fam, 3))
    reached = {"index_of"} | _reaches("liealg.py", "index_of")
    assert not [name for name in reached if name.startswith("sample_") or name == "_entries"]
    assert not [site for site in _call_sites("liealg.py", lambda node: _called(node, "Rng"))
                if site in reached]
    path = os.path.join(SRC, "verify.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    body = next(top for top in tree.body
                if isinstance(top, ast.FunctionDef) and top.name == "_suite_index")
    names = {getattr(node, "id", None) for node in ast.walk(body)}
    assert "_RETRY_CAP" not in names and "min" not in names
    assert len([node for node in ast.walk(body) if _called(node, "index_of")]) == 1


def test_det_rank_inverse_and_cayley_share_one_elimination():
    # one Bareiss elimination serves det, rank and the solve behind inverse
    # and cayley: none of them runs a loop of its own, no module outside
    # exactmat calls it, and cayley solves instead of inverting and
    # multiplying
    path = os.path.join(SRC, "exactmat.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    funcs = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
    # _solve alone builds rows by comprehension: [A | B] and d_a R
    for name in ("det", "rank", "inverse", "_solve"):
        kinds = (ast.For, ast.While) + ((ast.comprehension,) if name != "_solve" else ())
        assert not [node for node in ast.walk(funcs[name]) if isinstance(node, kinds)], name
    callers = {}
    for path in glob.glob(os.path.join(SRC, "*.py")):
        sites = _call_sites(os.path.basename(path), lambda node: _called(node, "_bareiss"))
        if sites:
            callers[os.path.basename(path)] = sites
    assert callers == {"exactmat.py": ["_solve", "det", "rank"]}
    path = os.path.join(SRC, "liealg.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    cayley = next(top for top in tree.body
                  if isinstance(top, ast.FunctionDef) and top.name == "cayley")
    assert not [node for node in ast.walk(cayley)
                if _called(node, "inverse") or _called(node, "mat_mul")
                or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)]
    assert [node for node in ast.walk(cayley) if _called(node, "_solve")]


def test_the_sparse_rank_serves_the_commutator_form_alone():
    # the sparse elimination has one caller, liealg._form_rank, which ranks
    # the gathered commutator form for index_of and the index suite's
    # open-set check; no suite ranks a dense commutator form
    callers = {}
    for path in glob.glob(os.path.join(SRC, "*.py")):
        module = os.path.basename(path)
        for name in ("_sparse_rank", "_form_rank"):
            sites = _call_sites(module, lambda node: _called(node, name))
            if sites:
                callers.setdefault(name, {})[module] = sites
    assert callers == {"_sparse_rank": {"liealg.py": ["_form_rank"]},
                       "_form_rank": {"liealg.py": ["index_of"], "verify.py": ["_suite_index"]}}
    assert _call_sites("verify.py", lambda node: _called(node, "commutator_form")) == []


README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def test_readme_python_blocks_run():
    # each python example of the README runs as written, in a fresh namespace
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.S | re.M))
    assert len(blocks) >= 3
    for block in blocks:
        where = "README.md, python block at line %d" % (text.count("\n", 0, block.start()) + 1)
        exec(compile(block.group(1), where, "exec"), {})


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


# names the tracer traces that the package no longer has, each with its
# reason: the frozen tracer looks each one up and reads it as 0 calls
RETIRED = {
    "charpoly.bordered_char_identities": "the dual-path suite states the identity as its "
                                         "own check, off char_data",
    "charpoly.directional_coeff": "no caller; each derivative reads _taylor at explicit nodes",
    "invariants.F_invariant": "a single-index view of F_all; callers index F_all(l)",
    "invariants.psi_invariant": "a single-index view of psi_all; callers index psi_all(l)",
    "verify.resolve_sign": "a view of _slice_signs, which the slices suite proves at any n",
}


def _traced(tree):
    # the "module.function" names a LAYERS or _EXTRA table of a script holds
    return ["%s.%s" % (mod, fn) for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) in ("LAYERS", "_EXTRA") for t in node.targets)
            for mod, fns in ast.literal_eval(node.value).items() for fn in fns]


def test_perfbench_names_exist_in_the_package():
    # the benchmark harness is frozen: every coadinv name it imports or reads
    # through a module alias must still exist, and a name it only traces may
    # be absent only when RETIRED gives the reason
    missing, traced = [], []
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
        for name in _traced(tree):
            traced.append(name)
            mod, _, fn = name.partition(".")
            if not _resolves("coadinv." + mod, fn) and name not in RETIRED:
                missing.append("%s: coadinv.%s" % (script, name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in aliases:
                module = aliases[node.value.id]
                if not _resolves(module, node.attr):
                    missing.append("%s: %s.%s" % (script, module, node.attr))
    assert missing == []
    # a retired name is traced and really gone
    assert [name for name in RETIRED if name not in traced
            or _resolves("coadinv." + name.partition(".")[0], name.partition(".")[2])] == []


def test_the_frozen_tracer_reads_each_retired_name_as_zero_calls():
    # install the harness's own tracer over a slices run: every traced name
    # is emitted, and a retired one reads 0 calls
    spec = importlib.util.spec_from_file_location("frozen_tracer",
                                                  os.path.join(PERFBENCH, "tracer.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    importlib.import_module("coadinv.cli")
    verify = importlib.import_module("coadinv.verify")
    with tracing.Tracer() as tracer:
        config = verify.SuiteConfig(algebra="iso", n_lo=3, n_hi=3, samples=1)
        assert verify.run_suite("slices", config).passed
    metrics = tracer.metrics()
    assert {name + ".calls" for name in tracing.traced_names()} <= set(metrics)
    assert metrics["verify.run_suite.calls"] == (1, "count")
    assert metrics["invariants.psi_all.calls"][0] > 0
    assert {name: metrics[name + ".calls"] for name in RETIRED} \
        == {name: (0, "count") for name in RETIRED}


# definitions no package code or benchmark script reads, each with its reason
KEPT = {
    "main_entry": "the console script in pyproject.toml",
    "rat": "the exact scalar parser the README documents",
    "group_from_json": "the reader of witness elements, which the replay tests use",
}


def _names_read(tree):
    # (name, enclosing top-level definition) of every name and attribute read
    return [(getattr(node, "id", None) or getattr(node, "attr", None),
             getattr(top, "name", None))
            for top in tree.body for node in ast.walk(top)
            if isinstance(node, (ast.Name, ast.Attribute))]


def test_every_definition_has_a_caller():
    # code that has no caller is deleted: every module-level function and
    # class of the package is read outside its own body by the package
    # (its __init__ re-exports do not count), or by the benchmark harness,
    # or is kept in KEPT with its reason.  A name in the tracer's LAYERS or
    # _EXTRA tables is no caller: the tracer wraps what it finds and calls
    # nothing
    defined, read = [], []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = os.path.basename(path)
        if module == "__init__.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        defined += [(module, top.name) for top in tree.body
                    if isinstance(top, (ast.FunctionDef, ast.ClassDef))]
        read += [(module, name, top) for name, top in _names_read(tree)]
    outside = set(KEPT)
    for path in glob.glob(os.path.join(PERFBENCH, "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        outside.update(name for name, _ in _names_read(tree))
        outside.update(a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                       for a in node.names)
    unread = ["%s:%s" % (module, name) for module, name in defined if name not in outside
              and not any(n == name and (m, top) != (module, name) for m, n, top in read)]
    assert unread == []
