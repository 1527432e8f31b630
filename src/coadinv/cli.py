"""Command-line entry point.

Commands:
    eval    evaluate invariant generators at a dual point read from JSON
    verify  run the exact property suites
    orbit   normalize a glvv point of the open set to its normal form

All results go to stdout as JSON (or to --output); diagnostics go to
stderr.  Exit codes: 0 pass, 1 verification or mathematical failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import invariants as inv
from .exactmat import ExactnessError, mat_to_json, rat_str
from .liealg import FAMILIES, Algebra, dual_from_json, dual_to_json
from .verify import SUITES, SuiteConfig, run_all, run_suite, suite_range

USAGE_ERROR = 2
MATH_ERROR = 1


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError("cannot read JSON input: %s" % exc) from exc


def _emit(obj, output):
    text = json.dumps(obj, indent=2)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _value_entry(name: str, value, k=None) -> dict:
    out = {"invariant": name}
    if k is not None:
        out["k"] = k
    out["value"] = rat_str(value)
    return out


def _eval_all(alg: Algebra, point) -> list:
    if alg.family == "aff":
        return [_value_entry("f", inv.f_invariant(point))]
    if alg.family == "isl":
        return [_value_entry("fbar", inv.f_bar(point))]
    if alg.family == "glvv":
        return [_value_entry("F", v, k) for k, v in enumerate(inv.F_all(point))]
    ell = alg.ell
    psis = inv.psi_all(point)
    if alg.family == "io" or alg.n % 2 == 0:
        return [_value_entry("psi", v, k) for k, v in enumerate(psis)]
    out = [_value_entry("psi", psis[k], k) for k in range(ell)]
    out.append(_value_entry("phi", inv.exotic_phi(point)))
    return out


_WHICH_RE = re.compile(r"^(F|psi)(\d+)$")


def _eval_one(alg: Algebra, point, which: str) -> dict:
    if which == "f":
        if alg.family != "aff":
            raise ValueError("invariant 'f' lives on the aff dual")
        return _value_entry("f", inv.f_invariant(point))
    if which == "fbar":
        if alg.family != "isl":
            raise ValueError("invariant 'fbar' lives on the isl dual")
        return _value_entry("fbar", inv.f_bar(point))
    if which == "phi":
        if alg.family not in ("io", "iso"):
            raise ValueError("invariant 'phi' lives on the orthogonal dual")
        return _value_entry("phi", inv.exotic_phi(point))
    m = _WHICH_RE.match(which)
    if not m:
        raise ValueError("unknown invariant id %r" % (which,))
    name, k = m.group(1), int(m.group(2))
    if name == "F":
        if alg.family != "glvv":
            raise ValueError("invariant 'F' lives on the glvv dual")
        return _value_entry("F", inv.F_invariant(k, point), k)
    if alg.family not in ("io", "iso"):
        raise ValueError("invariant 'psi' lives on the orthogonal dual")
    return _value_entry("psi", inv.psi_invariant(k, point), k)


def cmd_eval(args) -> int:
    obj = _load_json(args.input)
    alg, point = dual_from_json(obj)
    if args.algebra and args.algebra != alg.family:
        raise ValueError("--algebra %s does not match the input point (%s)"
                         % (args.algebra, alg.family))
    if args.n and args.n != alg.n:
        raise ValueError("--n %d does not match the input point (n=%d)" % (args.n, alg.n))
    if args.which == "all":
        result = _eval_all(alg, point)
    else:
        result = _eval_one(alg, point, args.which)
    _emit(result, args.output)
    return 0


def cmd_verify(args) -> int:
    if not args.all and not args.suite:
        raise ValueError("verify needs --suite NAME or --all")
    n_lo = args.n_min
    n_hi = args.n_max
    if args.n is not None:
        n_lo = n_hi = args.n
    if args.all:
        reports = run_all(seed=args.seed, samples=args.samples,
                          n_max=n_hi, n_min=n_lo, coeff_bound=args.bound)
    else:
        spec = SUITES.get(args.suite)
        if spec is None:
            raise ValueError("unknown suite %r" % (args.suite,))
        fam = args.algebra or spec.families[0]
        if args.n is not None:  # a single size overrides the suite's default range
            lo = hi = args.n
        else:
            lo, hi = suite_range(args.suite, fam, n_lo, n_hi)
        reports = [run_suite(args.suite,
                             SuiteConfig(algebra=fam, n_lo=lo, n_hi=hi,
                                         samples=args.samples,
                                         coeff_bound=args.bound, seed=args.seed))]
    _emit([r.to_json() for r in reports], args.output)
    return 0 if all(r.passed for r in reports) else MATH_ERROR


def cmd_orbit(args) -> int:
    obj = _load_json(args.input)
    alg, point = dual_from_json(obj)
    if alg.family != "glvv":
        raise ValueError("orbit normalization needs a glvv point")
    try:
        elem, normal = inv.orbit_normalize(point)
    except inv.NotInOpenOrbit as exc:
        print("error: %s" % exc, file=sys.stderr)
        return MATH_ERROR
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
    p_eval.add_argument("--which", default="all",
                        help="all, f, fbar, phi, or an indexed id like F2 / psi1")
    p_eval.add_argument("--input", required=True, help="path to a dual-point JSON ('-' for stdin)")
    p_eval.add_argument("--output")

    p_verify = sub.add_parser("verify", help="run exact property suites")
    p_verify.add_argument("--suite", help="suite name (see --list)")
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
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR
    except ExactnessError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return MATH_ERROR


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    sys.exit(main())
