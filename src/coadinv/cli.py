"""Command-line entry point.

Commands:
    eval    evaluate invariant generators at a dual point read from JSON
    verify  run the exact property suites
    orbit   normalize a glvv point of the open set to its normal form

All results go to stdout as JSON (or to --output); diagnostics go to
stderr.  Exit codes: 0 pass, 1 verification or mathematical failure,
2 usage error; main alone maps a failure to its code.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import invariants as inv
from . import verify
from .exactmat import ExactnessError, _str_int, mat_to_json, rat_str
from .liealg import FAMILIES, dual_from_json, dual_to_json

USAGE_ERROR = 2
MATH_ERROR = 1


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin, parse_int=_str_int)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=_str_int)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError("cannot read JSON input: %s" % exc) from exc


def _emit(obj, output):
    text = json.dumps(obj, indent=2) + "\n"
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError("cannot write %s: %s" % (output, exc)) from exc
    else:
        _write_stdout(text)


def _write_stdout(text: str):
    """Write and flush stdout.  A closed stdout (a broken pipe) is refused
    like an unwritable --output, and stdout then goes to the null device,
    so the flush at interpreter exit finds nothing left to fail on."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ValueError("cannot write stdout: %s" % exc) from exc


def _check_writable(output):
    """Refuse an unwritable output before any work: appending nothing
    leaves an existing target as it was, and a new one is removed again."""
    existed = os.path.exists(output)
    try:
        open(output, "a", encoding="utf-8").close()
    except OSError as exc:
        raise ValueError("cannot write %s: %s" % (output, exc)) from exc
    if not existed:
        os.remove(output)


def _value_entry(name: str, value, k=None) -> dict:
    out = {"invariant": name}
    if k is not None:
        out["k"] = k
    out["value"] = rat_str(value)
    return out


_WHICH_RE = re.compile(r"(?P<name>[A-Za-z]+)(?P<k>[0-9]*)")


def _eval_one(point, which: str) -> dict:
    """One id of inv.GENERATORS: a row's name, followed by the index when
    the row is indexed."""
    m = _WHICH_RE.fullmatch(which)
    name, k = m.group("name", "k") if m else (None, "")
    homes = {fam: row for fam, rows in inv.GENERATORS.items() for row in rows if row[0] == name}
    if {indexed for _, indexed, *_ in homes.values()} != {bool(k)}:
        raise ValueError("unknown invariant id %r" % (which,))
    if point.family not in homes:
        dual = next(iter(homes)) if len(homes) == 1 else "orthogonal"
        raise ValueError("invariant %r lives on the %s dual" % (name, dual))
    *_, evaluate = homes[point.family]
    values, digits = evaluate(point), k.lstrip("0") or "0"
    if not k:
        return _value_entry(name, values[0])
    # more digits than len(values) has is past its end, and kept from int()'s digit limit
    index = int(digits) if len(digits) <= len(str(len(values))) else len(values)
    return _value_entry(name, inv._entry(values, index), index)


def cmd_eval(args) -> int:
    obj = _load_json(args.input)
    alg, point = dual_from_json(obj)
    if args.algebra and args.algebra != alg.family:
        raise ValueError("--algebra %s does not match the input point (%s)"
                         % (args.algebra, alg.family))
    if args.n is not None and args.n != alg.n:
        raise ValueError("--n %d does not match the input point (n=%d)" % (args.n, alg.n))
    if args.which == "all":
        result = [_value_entry(name, v, k) for name, k, v in inv.generators(point)]
    else:
        result = _eval_one(point, args.which)
    _emit(result, args.output)
    return 0


def cmd_verify(args) -> int:
    if not args.all and not args.suite:
        raise ValueError("verify needs --suite NAME or --all")
    if args.all and (args.suite or args.algebra):
        raise ValueError("--all runs the whole plan; drop --suite and --algebra")
    if args.n is not None and (args.n_min is not None or args.n_max is not None):
        raise ValueError("--n runs a single size; drop --n-min and --n-max")
    if args.n_min is not None and args.n_max is not None and args.n_min > args.n_max:
        raise ValueError("--n-min %d exceeds --n-max %d" % (args.n_min, args.n_max))
    if args.output:
        _check_writable(args.output)
    if args.all:
        n_lo, n_hi = (args.n_min, args.n_max) if args.n is None else (args.n, args.n)
        reports = verify.run_all(seed=args.seed, samples=args.samples,
                                 n_max=n_hi, n_min=n_lo, coeff_bound=args.bound)
    else:
        fam = args.algebra or verify.SUITES[args.suite].families[0]
        if args.n is not None:  # a single size overrides the suite's default range
            lo = hi = args.n
        else:
            lo, hi = verify.suite_range(args.suite, fam, args.n_min, args.n_max, cut=False)
        cfg = verify.SuiteConfig(algebra=fam, n_lo=lo, n_hi=hi, samples=args.samples,
                                 coeff_bound=args.bound, seed=args.seed)
        reports = [verify.run_suite(args.suite, cfg)]
    _emit([r.to_json() for r in reports], args.output)
    return 0 if all(r.passed for r in reports) else MATH_ERROR


def cmd_orbit(args) -> int:
    obj = _load_json(args.input)
    alg, point = dual_from_json(obj)
    if alg.family != "glvv":
        raise ValueError("orbit normalization needs a glvv point")
    elem, normal = inv.orbit_normalize(point)
    _emit({"g": mat_to_json(elem.g), "u": mat_to_json(elem.u),
           "normal_form": dual_to_json(alg, normal)}, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coadinv",
        description="exact construction and verification of coadjoint invariants")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate invariants at a JSON dual point")
    p_eval.add_argument("--algebra", choices=FAMILIES)
    p_eval.add_argument("--n", type=int)
    ids = dict.fromkeys(name + ("<k>" if indexed else "")  # one id per name, in order
                        for rows in inv.GENERATORS.values() for name, indexed, *_ in rows)
    p_eval.add_argument("--which", default="all", help="all, or one of " + ", ".join(ids))
    p_eval.add_argument("--input", required=True, help="path to a dual-point JSON ('-' for stdin)")
    p_eval.add_argument("--output")

    p_verify = sub.add_parser("verify", help="run exact property suites")
    p_verify.add_argument("--suite", choices=list(verify.SUITES), help="the suite to run")
    p_verify.add_argument("--all", action="store_true", help="run the full plan")
    p_verify.add_argument("--algebra", choices=FAMILIES)
    p_verify.add_argument("--n", type=int, help="run a single size")
    p_verify.add_argument("--n-min", type=int, dest="n_min")
    p_verify.add_argument("--n-max", type=int, dest="n_max")
    p_verify.add_argument("--samples", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--bound", type=int, default=3,
                          help="integer coefficient bound for sampling")
    p_verify.add_argument("--output")

    p_orbit = sub.add_parser("orbit", help="normalize a glvv point of the open set")
    p_orbit.add_argument("--input", required=True)
    p_orbit.add_argument("--output")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_orbit(args)
    except (ExactnessError, inv.NotInOpenOrbit) as exc:  # ahead of its base ValueError
        print("error: %s" % exc, file=sys.stderr)
        return MATH_ERROR
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    sys.exit(main())
