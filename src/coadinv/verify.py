"""Seeded, reproducible property suites.

Every suite turns one family of exact algebraic identities into a
pass/fail report.  All comparisons are exact equality of rationals; there
is no tolerance anywhere.  Reports are deterministic functions of the
configuration (elapsed time aside), and every failure serializes its
inputs so it can be replayed as a standalone regression.

resolve_sign is the grid oracle that pins the handful of sign conventions
relating slice restrictions to their closed forms; the resolved values are
frozen as constants in the invariants module and re-checked here.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import invariants as inv
from .charpoly import (bordered_char_identities, char_data, directional_coeff,
                       interp_coeffs)
from .exactmat import Mat, det, inverse, mat_to_json, rank, rat_str, scalar
from .liealg import (_RETRY_CAP, FAMILIES, Algebra, DualPoint, GroupElem, Rng,
                     algebra_basis, bracket_b, coad, commutator_form,
                     dual_to_json, embed_M, group_to_json, index_of, k_bracket,
                     reflection, sample_dual, sample_gl, sample_group,
                     sample_int_mat, sample_orthogonal, sample_skew,
                     sample_triple, sample_vec, theta, triple_zero)


@dataclass(frozen=True)
class SuiteConfig:
    algebra: str = "glvv"
    n_lo: int = 1
    n_hi: int = 5
    samples: int = 100
    coeff_bound: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not 1 <= self.n_lo <= self.n_hi <= 8:
            raise ValueError("n range must lie within 1..8")


@dataclass
class VerifyReport:
    suite: str
    algebra: str
    claim: str
    checks_run: int = 0
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    elapsed_ms: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "algebra": self.algebra,
            "claim": self.claim,
            "checks_run": self.checks_run,
            "passed": self.passed,
            "failures": self.failures,
            "notes": self.notes,
            "elapsed_ms": self.elapsed_ms,
        }


class _Recorder:
    """Counts exact-equality checks and captures replayable witnesses."""

    def __init__(self, report: VerifyReport):
        self.report = report

    def check(self, name: str, n: int, lhs, rhs, inputs=None):
        self.report.checks_run += 1
        if lhs != rhs:
            witness = {"check": name, "n": n,
                       "lhs": _render(lhs), "rhs": _render(rhs)}
            if inputs is not None:
                witness["inputs"] = inputs() if callable(inputs) else inputs
            self.report.failures.append(witness)

    def note(self, text: str):
        self.report.notes.append(text)


def _render(value) -> str:
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, tuple):
        return "(" + ", ".join(_render(v) for v in value) + ")"
    return repr(value)


def _triple_json(t) -> dict:
    x, u, v = t
    return {"x": mat_to_json(x), "u": mat_to_json(u), "vstar": mat_to_json(v)}


# -- individual suites ---------------------------------------------------------

def _suite_semi_invariance_f(cfg: SuiteConfig, rec: _Recorder):
    special = cfg.algebra == "isl"
    alg_name = cfg.algebra
    for n in range(cfg.n_lo, cfg.n_hi + 1):
        alg = Algebra(alg_name, n)
        rng = Rng(cfg.seed).child("semi-invariance-f", alg_name, n)
        for _ in range(cfg.samples):
            l = sample_dual(alg, rng, cfg.coeff_bound)
            a = sample_group(alg, rng, cfg.coeff_bound)
            image = coad(a, l)
            ctx = lambda l=l, a=a: {"point": dual_to_json(alg, l),
                                    "elem": group_to_json(alg, a)}
            if special:
                rec.check("f_bar constant under the special affine action", n,
                          inv.f_bar(image), inv.f_bar(l), ctx)
            else:
                rec.check("f(coad(a) l) * det(g) = f(l)", n,
                          inv.f_invariant(image) * det(a.g), inv.f_invariant(l), ctx)


def _suite_covariance_phi(cfg: SuiteConfig, rec: _Recorder):
    for n in range(cfg.n_lo, cfg.n_hi + 1):
        alg = Algebra("aff", n)
        rng = Rng(cfg.seed).child("covariance-phi", n)
        for _ in range(cfg.samples):
            l = sample_dual(alg, rng, cfg.coeff_bound)
            a = sample_group(alg, rng, cfg.coeff_bound)
            image = coad(a, l)
            gi = inverse(a.g)
            left = inv.phi_rows(image)
            right = [row * gi for row in inv.phi_rows(l)]
            for k, (lr, rr) in enumerate(zip(left, right)):
                rec.check("row covariant transforms by g^-1 (k=%d)" % (n - 1 - k), n,
                          lr, rr,
                          lambda l=l, a=a: {"point": dual_to_json(alg, l),
                                            "elem": group_to_json(alg, a)})


def _suite_invariance_F(cfg: SuiteConfig, rec: _Recorder):
    for n in range(cfg.n_lo, cfg.n_hi + 1):
        alg = Algebra("glvv", n)
        rng = Rng(cfg.seed).child("invariance-F", n)
        for _ in range(cfg.samples):
            l = sample_dual(alg, rng, cfg.coeff_bound)
            b = sample_group(alg, rng, cfg.coeff_bound)
            rec.check("generators constant under the full action", n,
                      inv.F_all(coad(b, l)), inv.F_all(l),
                      lambda l=l, b=b: {"point": dual_to_json(alg, l),
                                        "elem": group_to_json(alg, b)})
            vonly = GroupElem(Mat.identity(n), Mat.zero(n, 1), b.vstar)
            rec.check("generators constant under the covector translation", n,
                      inv.F_all(coad(vonly, l)), inv.F_all(l),
                      lambda l=l, b=b: {"point": dual_to_json(alg, l),
                                        "vstar": mat_to_json(b.vstar)})


def _suite_invariance_psi(cfg: SuiteConfig, rec: _Recorder):
    for n in range(cfg.n_lo, cfg.n_hi + 1):
        alg = Algebra(cfg.algebra, n)
        rng = Rng(cfg.seed).child("invariance-psi", cfg.algebra, n)
        for _ in range(cfg.samples):
            l = sample_dual(alg, rng, cfg.coeff_bound)
            a = sample_group(alg, rng, cfg.coeff_bound)
            rec.check("orthogonal generators constant under the action", n,
                      inv.psi_all(coad(a, l)), inv.psi_all(l),
                      lambda l=l, a=a: {"point": dual_to_json(alg, l),
                                        "elem": group_to_json(alg, a)})


def _suite_exotic_sign(cfg: SuiteConfig, rec: _Recorder):
    nonzero_seen = False
    odd = [n for n in range(cfg.n_lo, cfg.n_hi + 1) if n % 2 == 1]
    for n in odd:
        alg = Algebra(cfg.algebra, n)
        rng = Rng(cfg.seed).child("exotic-sign", cfg.algebra, n)
        for _ in range(cfg.samples):
            l = sample_dual(alg, rng, cfg.coeff_bound)
            q = sample_orthogonal(rng, n, cfg.coeff_bound, 1)
            u = sample_vec(rng, n, cfg.coeff_bound)
            rec.check("exotic generator fixed under the special action", n,
                      inv.exotic_phi(coad(GroupElem.orthogonal(q, u), l)),
                      inv.exotic_phi(l), lambda l=l: {"point": dual_to_json(alg, l)})
            r = GroupElem.orthogonal(q * reflection(n), u)
            rec.check("exotic generator flips under a reflection", n,
                      inv.exotic_phi(coad(r, l)), -inv.exotic_phi(l),
                      lambda l=l: {"point": dual_to_json(alg, l)})
            if inv.exotic_phi(l) != 0:
                nonzero_seen = True
    if odd:
        rec.check("a nonzero exotic value was exercised", 0, nonzero_seen, True)


def _suite_dual_path(cfg: SuiteConfig, rec: _Recorder):
    fam = cfg.algebra
    for n in range(cfg.n_lo, cfg.n_hi + 1):
        alg = Algebra(fam, n)
        rng = Rng(cfg.seed).child("dual-path", fam, n)
        for _ in range(cfg.samples):
            l = sample_dual(alg, rng, cfg.coeff_bound)
            if fam in ("aff", "isl"):
                rec.check("determinant semi-invariant: gradient rows vs raw rows", n,
                          inv.f_invariant(l), inv.f_krylov(l),
                          lambda l=l: {"point": dual_to_json(alg, l)})
                if fam == "isl":
                    c = Fraction(rng.int_between(-cfg.coeff_bound, cfg.coeff_bound))
                    # y + cI is not traceless, so the shifted point is an aff one
                    shifted = DualPoint.of("aff", l.y + c * Mat.identity(n), l.wstar)
                    rec.check("semi-invariant blind to scalar shifts of y", n,
                              inv.f_invariant(shifted), inv.f_invariant(l),
                              lambda l=l, c=c: {"point": dual_to_json(alg, l),
                                                "shift": rat_str(c)})
            elif fam == "glvv":
                for k in range(n):
                    rec.check("generator via gradients vs bordered coefficients (k=%d)" % k,
                              n, inv.F_invariant(k, l), inv.F_bordered(k, l),
                              lambda l=l: {"point": dual_to_json(alg, l)})
                a = Fraction(rng.int_between(-cfg.coeff_bound, cfg.coeff_bound))
                ok, witness = bordered_char_identities(l.y, l.xi, l.wstar, a)
                rec.check("bordered coefficient identities hold (corner %s)" % rat_str(a),
                          n, (ok, witness), (True, None),
                          lambda l=l, a=a: {"point": dual_to_json(alg, l),
                                            "corner": rat_str(a)})
            else:
                for k in range((n - 1) // 2 + 1):
                    rec.check("orthogonal generator via gradients vs bordered (k=%d)" % k,
                              n, inv.psi_invariant(k, l), inv.psi_bordered(k, l),
                              lambda l=l: {"point": dual_to_json(alg, l)})


def _jacobian_rank(point, directions, eval_vec, width: int, degree_bound: int) -> int:
    """Exact Jacobian rank of a vector-valued polynomial map at the point,
    one directional derivative per coordinate direction."""
    cols = []
    for d in directions:
        values = [eval_vec(point if t == 0 else point + Fraction(t) * d)
                  for t in range(degree_bound + 1)]
        cols.append([interp_coeffs([row[i] for row in values])[1]
                     for i in range(width)])
    jac = Mat([[cols[j][i] for j in range(len(cols))] for i in range(width)])
    return rank(jac)


def _suite_independence(cfg: SuiteConfig, rec: _Recorder):
    fam = cfg.algebra
    for n in range(max(cfg.n_lo, 2), cfg.n_hi + 1):
        alg = Algebra(fam, n)
        rng = Rng(cfg.seed).child("independence", fam, n)
        # coordinate directions of the dual: the basis, transposed (the
        # orthogonal generators read only y and wstar, so xi stays 0 there)
        directions = [DualPoint(x, u.transpose(), v.transpose())
                      for x, u, v in algebra_basis(alg)]
        if fam == "glvv":
            eval_vec = inv.F_all
            expected = n
        else:
            ell = alg.ell
            if n % 2 == 1:
                def eval_vec(p, ell=ell):
                    return inv.psi_all(p)[:ell] + (inv.exotic_phi(p),)
            else:
                eval_vec = inv.psi_all
            expected = ell + 1
        bound_degree = n + 1
        for _ in range(cfg.samples):
            # the full-rank locus is dense; degenerate sample points are
            # resampled so a failure means actual dependence, not bad luck
            got = None
            point = None
            for _attempt in range(_RETRY_CAP):
                point = sample_dual(alg, rng, cfg.coeff_bound)
                got = _jacobian_rank(point, directions, eval_vec, expected, bound_degree)
                if got == expected:
                    break
            rec.check("Jacobian of the generator family has rank %d" % expected, n,
                      got, expected,
                      lambda point=point: {"point": dual_to_json(alg, point)})


_INDEX_EXPECTED = {
    "aff": lambda alg: 0,        # paired with its open orbit
    "glvv": lambda alg: alg.n,   # one generator per size
    "isl": lambda alg: 1,        # frozen from the rank oracle
    "io": lambda alg: alg.ell + 1,   # frozen from the rank oracle
    "iso": lambda alg: alg.ell + 1,  # frozen from the rank oracle
}


def _suite_index(cfg: SuiteConfig, rec: _Recorder):
    fam = cfg.algebra
    for n in range(cfg.n_lo, cfg.n_hi + 1):
        alg = Algebra(fam, n)
        rng = Rng(cfg.seed).child("index", fam, n)
        expected = _INDEX_EXPECTED[fam](alg)
        got = index_of(alg, min(cfg.samples, 5), rng, cfg.coeff_bound)
        rec.note("%s n=%d: index %d" % (fam, n, got))
        rec.check("index equals the frozen value %d" % expected, n, got, expected)
        if fam == "glvv":
            # every point of the open set realizes the maximal orbit size
            for _ in range(min(cfg.samples, 20)):
                l = inv.sample_open_b(rng, n, cfg.coeff_bound)
                rec.check("commutator form has rank dim - n on the open set", n,
                          rank(commutator_form(alg, l)), alg.dim - n,
                          lambda l=l: {"point": dual_to_json(alg, l)})


def _suite_slices(cfg: SuiteConfig, rec: _Recorder):
    fam = cfg.algebra
    for n in range(cfg.n_lo, cfg.n_hi + 1):
        if fam == "isl":
            rec.check("slice restriction sign is the frozen constant", n,
                      resolve_sign("f-vs-t", n), inv.F_SLICE_SIGN)
        else:
            alg = Algebra(fam, n)
            for k in range(alg.ell + 1):
                rec.check("slice restriction sign is the frozen constant (k=%d)" % k,
                          n, resolve_sign("psi-vs-phi", n, k), inv.PSI_SLICE_SIGN)
            if n % 2 == 1:
                rec.check("exotic slice restriction sign is the frozen constant", n,
                          resolve_sign("exotic-vs-slice", n), inv.EXOTIC_SLICE_SIGN)
                rec.check("exotic square sign is the frozen constant", n,
                          resolve_sign("exotic-sq-vs-psi", n), inv.EXOTIC_SQUARE_SIGN)


def _suite_orbit_fibration(cfg: SuiteConfig, rec: _Recorder):
    for n in range(cfg.n_lo, cfg.n_hi + 1):
        alg = Algebra("glvv", n)
        aalg = Algebra("aff", n)
        rng = Rng(cfg.seed).child("orbit-fibration", n)
        for _ in range(cfg.samples):
            l = inv.sample_open_b(rng, n, cfg.coeff_bound)
            _, normal = inv.orbit_normalize(l)
            a = sample_group(aalg, rng, cfg.coeff_bound)
            moved = coad(a, l)
            _, normal2 = inv.orbit_normalize(moved)
            ctx = lambda l=l, a=a: {"point": dual_to_json(alg, l),
                                    "elem": group_to_json(aalg, a)}
            rec.check("conjugate points share one normal form", n,
                      (normal2.y, normal2.wstar, normal2.xi),
                      (normal.y, normal.wstar, normal.xi), ctx)
            rec.check("fiber projection constant along the affine action", n,
                      inv.pi_projection(moved), inv.pi_projection(l), ctx)
            rec.check("normal form third component is the fiber projection", n,
                      normal.xi, inv.pi_projection(l), ctx)
            rec.check("generators survive normalization", n,
                      inv.F_all(normal), inv.F_all(l), ctx)
            vonly = GroupElem(Mat.identity(n), Mat.zero(n, 1),
                              sample_int_mat(rng, 1, n, cfg.coeff_bound))
            rec.check("fiber projection constant along the covector translation", n,
                      inv.pi_projection(coad(vonly, l)), inv.pi_projection(l), ctx)


def _suite_theta(cfg: SuiteConfig, rec: _Recorder):
    for n in range(cfg.n_lo, cfg.n_hi + 1):
        rng = Rng(cfg.seed).child("theta", n)
        for _ in range(cfg.samples):
            s = sample_triple(rng, n, cfg.coeff_bound)
            t = sample_triple(rng, n, cfg.coeff_bound)
            rec.check("involution squares to the identity", n, theta(theta(s)), s,
                      lambda s=s: _triple_json(s))
            rec.check("involution preserves the bracket", n,
                      theta(bracket_b(s, t)), bracket_b(theta(s), theta(t)),
                      lambda s=s, t=t: {"s": _triple_json(s), "t": _triple_json(t)})
            x, u, _ = s
            fixed = (Fraction(1, 2) * (x - x.transpose()), u, -u.transpose())
            rec.check("embedded orthogonal points are fixed", n,
                      theta(fixed), fixed, lambda s=s: _triple_json(s))
            is_fixed = theta(s) == s
            x, u, v = s
            in_embedding = x.is_skew() and v == -u.transpose()
            rec.check("fixed set is exactly the embedded orthogonal algebra", n,
                      is_fixed, in_embedding, lambda s=s: _triple_json(s))
            probe = (Mat.unit(n, 0, 0), u, -u.transpose())
            rec.check("a symmetric matrix part is moved", n,
                      theta(probe) == probe, False)


def _suite_embed_M(cfg: SuiteConfig, rec: _Recorder):
    for n in range(cfg.n_lo, cfg.n_hi + 1):
        rng = Rng(cfg.seed).child("embed-M", n)
        for _ in range(cfg.samples):
            s = sample_triple(rng, n, cfg.coeff_bound)
            t = sample_triple(rng, n, cfg.coeff_bound)
            rec.check("embedding preserves brackets into the contracted algebra", n,
                      embed_M(bracket_b(s, t)), k_bracket(embed_M(s), embed_M(t)),
                      lambda s=s, t=t: {"s": _triple_json(s), "t": _triple_json(t)})
        basis = algebra_basis(Algebra("glvv", n))
        span = Mat([[embed_M(b)[i, j] for i in range(n + 1) for j in range(n + 1)]
                    for b in basis])
        rec.check("embedded image has codimension 1", n,
                  (n + 1) ** 2 - rank(span), 1)
        rec.check("zero maps to zero", n, embed_M(triple_zero(n)), Mat.zero(n + 1, n + 1))


def _suite_cayley_hamilton(cfg: SuiteConfig, rec: _Recorder):
    for n in range(cfg.n_lo, cfg.n_hi + 1):
        rng = Rng(cfg.seed).child("cayley-hamilton", n)
        for _ in range(cfg.samples):
            x = sample_int_mat(rng, n, n, cfg.coeff_bound)
            cd = char_data(x)
            rec.check("x B_{n-1}(x) equals p_n(x) I", n,
                      x * cd.B[n - 1], cd.p[n - 1] * Mat.identity(n),
                      lambda x=x: {"x": mat_to_json(x)})
            t = Fraction(rng.int_between(-cfg.coeff_bound, cfg.coeff_bound))
            closed = t ** n - sum(cd.p[k - 1] * t ** (n - k) for k in range(1, n + 1))
            rec.check("det(t I - x) matches the coefficient expansion", n,
                      det(t * Mat.identity(n) - x), closed,
                      lambda x=x, t=t: {"x": mat_to_json(x), "t": rat_str(t)})


def _suite_gradient_Bk(cfg: SuiteConfig, rec: _Recorder):
    for n in range(cfg.n_lo, cfg.n_hi + 1):
        rng = Rng(cfg.seed).child("gradient-Bk", n)
        for _ in range(cfg.samples):
            x = sample_int_mat(rng, n, n, cfg.coeff_bound)
            y = sample_int_mat(rng, n, n, cfg.coeff_bound)
            cd = char_data(x)
            for k in range(n):
                rec.check("tr(B_k(x) y) is the first-order coefficient (k=%d)" % k, n,
                          (cd.B[k] * y).trace(),
                          directional_coeff(lambda m, k=k: char_data(m).coeff(k + 1),
                                            x, y, 1, k + 1),
                          lambda x=x, y=y: {"x": mat_to_json(x), "y": mat_to_json(y)})


def _suite_skew_parity(cfg: SuiteConfig, rec: _Recorder):
    for n in range(cfg.n_lo, cfg.n_hi + 1):
        rng = Rng(cfg.seed).child("skew-parity", n)
        for _ in range(cfg.samples):
            y = sample_skew(rng, n, cfg.coeff_bound)
            cd = char_data(y)
            for k in range(1, n + 1, 2):
                rec.check("odd coefficients vanish on skew matrices (k=%d)" % k, n,
                          cd.coeff(k), Fraction(0), lambda y=y: {"y": mat_to_json(y)})
            for k in range(1, n, 2):
                rec.check("odd gradients are skew on skew matrices (k=%d)" % k, n,
                          cd.B[k].transpose(), -cd.B[k],
                          lambda y=y: {"y": mat_to_json(y)})


def _suite_sbg_generators(cfg: SuiteConfig, rec: _Recorder):
    for n in range(cfg.n_lo, cfg.n_hi + 1):
        alg = Algebra("glvv", n)
        rng = Rng(cfg.seed).child("sbg-generators", n)
        for _ in range(cfg.samples):
            l = sample_dual(alg, rng, cfg.coeff_bound)
            g = sample_gl(rng, n, cfg.coeff_bound)
            moved = coad(GroupElem(g, Mat.zero(n, 1), Mat.zero(1, n)), l)
            rec.check("coefficient functions constant under conjugation", n,
                      char_data(moved.y).p, char_data(l.y).p,
                      lambda l=l, g=g: {"point": dual_to_json(alg, l), "g": mat_to_json(g)})
            powers_l = []
            powers_m = []
            yl = Mat.identity(n)
            ym = Mat.identity(n)
            for _j in range(n):
                powers_l.append(scalar(l.wstar * yl * l.xi))
                powers_m.append(scalar(moved.wstar * ym * moved.xi))
                yl = yl * l.y
                ym = ym * moved.y
            rec.check("pairing moments constant under conjugation", n,
                      tuple(powers_m), tuple(powers_l),
                      lambda l=l, g=g: {"point": dual_to_json(alg, l), "g": mat_to_json(g)})


# -- the sign oracle -------------------------------------------------------------

def _param_grid(m: int):
    """Cartesian grid of nonzero integer parameter tuples, sized to stay
    around a thousand points."""
    values = (-2, -1, 1, 2) if 4 ** m <= 1300 else (-1, 1, 2)
    return itertools.product(values, repeat=m)


def resolve_sign(pair: str, n: int, k=None) -> int:
    """Resolve one slice-comparison sign by exhaustive grid evaluation.

    Returns the unique epsilon in {+1, -1} with lhs = epsilon * rhs across
    the whole grid; raises if neither sign works (which would mean an
    implementation bug, not a convention)."""
    if n < 1 or n > 6:
        raise ValueError("sign resolution supported for n in 1..6")

    if pair == "f-vs-t":
        def sides(params):
            s = inv.SlicePointISL.of(params[:-1], params[-1])
            return inv.f_bar(inv.slice_isl(s)), inv.t_slice(s)
        m = n
    elif pair == "psi-vs-phi":
        alg = Algebra("io", n)
        if k is None or not 0 <= k <= alg.ell:
            raise ValueError("psi-vs-phi needs a generator index k")
        # at odd sizes the top generator restricts to the square of the
        # slice polynomial (the unsquared comparison is the exotic pair)
        square_top = n % 2 == 1 and k == alg.ell
        def sides(params, k=k, alg=alg, square_top=square_top):
            s = inv.SlicePointSO.of(params[:-1], params[-1])
            rhs = inv.phi_slice(k, s, alg)
            if square_top:
                rhs = rhs * rhs
            return inv.psi_invariant(k, inv.slice_so(s, alg)), rhs
        m = alg.ell + 1
    elif pair == "exotic-vs-slice":
        if n % 2 == 0:
            raise ValueError("exotic comparisons need odd n")
        alg = Algebra("iso", n)
        def sides(params, alg=alg):
            s = inv.SlicePointSO.of(params[:-1], params[-1])
            return inv.exotic_phi(inv.slice_so(s, alg)), inv.phi_slice(alg.ell, s, alg)
        m = alg.ell + 1
    elif pair == "exotic-sq-vs-psi":
        if n % 2 == 0:
            raise ValueError("exotic comparisons need odd n")
        alg = Algebra("iso", n)
        def sides(params, alg=alg):
            s = inv.SlicePointSO.of(params[:-1], params[-1])
            point = inv.slice_so(s, alg)
            return inv.exotic_phi(point) ** 2, inv.psi_invariant(alg.ell, point)
        m = alg.ell + 1
    else:
        raise ValueError("unknown sign pair %r" % (pair,))

    sign = None
    for params in _param_grid(m):
        lhs, rhs = sides(params)
        if lhs == 0 and rhs == 0:
            continue
        if lhs == rhs:
            s = 1
        elif lhs == -rhs:
            s = -1
        else:
            raise ValueError("not proportional - investigate")
        if sign is None:
            sign = s
        elif sign != s:
            raise ValueError("not proportional - investigate")
    if sign is None:
        raise ValueError("grid never produced a nonzero value")
    return sign


# -- registry and runners ---------------------------------------------------------

@dataclass(frozen=True)
class _SuiteSpec:
    func: object
    claim: str
    families: tuple
    default_range: tuple
    # families exercised by a full run; defaults to every supported one
    plan_families: tuple = ()
    # point-driven suites cap the sample count (a handful of exact Jacobian
    # or rank evaluations already decides the claim); 0 means uncapped
    samples_cap: int = 0

    def plan(self) -> tuple:
        return self.plan_families or self.families


SUITES = {
    "semi-invariance-f": _SuiteSpec(
        _suite_semi_invariance_f,
        "the determinant of the covariant rows transforms by 1/det(g)",
        ("aff", "isl"), (1, 5)),
    "covariance-phi": _SuiteSpec(
        _suite_covariance_phi,
        "row covariants transform by right multiplication with g^-1",
        ("aff",), (1, 5)),
    "invariance-F": _SuiteSpec(
        _suite_invariance_F,
        "generators w* B_k(y) xi are constant on coadjoint orbits",
        ("glvv",), (1, 5)),
    "invariance-psi": _SuiteSpec(
        _suite_invariance_psi,
        "generators -w* B_2k(y) w*^T are constant under the orthogonal action",
        ("io", "iso"), (1, 5)),
    "exotic-sign": _SuiteSpec(
        _suite_exotic_sign,
        "the odd-size exotic generator is rotation-invariant and flips under reflections",
        ("io", "iso"), (1, 5)),
    "dual-path": _SuiteSpec(
        _suite_dual_path,
        "each generator has two independent formulas that agree exactly",
        FAMILIES, (1, 5), ("aff", "isl", "glvv", "io")),
    "independence": _SuiteSpec(
        _suite_independence,
        "the Jacobian of the generator family reaches full rank",
        ("glvv", "io", "iso"), (2, 5), samples_cap=5),
    "index": _SuiteSpec(
        _suite_index,
        "dim minus the generic commutator-form rank matches the frozen value",
        FAMILIES, (2, 5), samples_cap=20),
    "slices": _SuiteSpec(
        _suite_slices,
        "slice restrictions match the closed slice polynomials up to frozen signs",
        ("isl", "io", "iso"), (2, 6)),
    "orbit-fibration": _SuiteSpec(
        _suite_orbit_fibration,
        "normalization is constant on orbits and reproduces the fiber projection",
        ("glvv",), (1, 5)),
    "theta": _SuiteSpec(
        _suite_theta,
        "the minus-transpose involution is an order-2 automorphism with the expected fixed set",
        ("glvv",), (1, 4)),
    "embed-M": _SuiteSpec(
        _suite_embed_M,
        "the bordered embedding preserves brackets; its image has codimension 1",
        ("glvv",), (1, 4)),
    "cayley-hamilton": _SuiteSpec(
        _suite_cayley_hamilton,
        "x B_{n-1}(x) = p_n(x) I and det(tI - x) matches the coefficients",
        FAMILIES, (1, 6), ("glvv",)),
    "gradient-Bk": _SuiteSpec(
        _suite_gradient_Bk,
        "tr(B_k(x) y) is the exact first-order coefficient of p_{k+1}(x + t y)",
        FAMILIES, (1, 5), ("glvv",)),
    "skew-parity": _SuiteSpec(
        _suite_skew_parity,
        "odd coefficients vanish and odd gradients are skew on skew matrices",
        FAMILIES, (1, 6), ("glvv",)),
    "sbg-generators": _SuiteSpec(
        _suite_sbg_generators,
        "coefficient functions and pairing moments are constant under conjugation",
        ("glvv",), (1, 5)),
}


def run_suite(name: str, cfg: SuiteConfig) -> VerifyReport:
    spec = SUITES.get(name)
    if spec is None:
        raise ValueError("unknown suite %r" % (name,))
    if cfg.algebra not in spec.families:
        raise ValueError("suite %r does not support algebra %r" % (name, cfg.algebra))
    if spec.samples_cap and cfg.samples > spec.samples_cap:
        cfg = SuiteConfig(algebra=cfg.algebra, n_lo=cfg.n_lo, n_hi=cfg.n_hi,
                          samples=spec.samples_cap, coeff_bound=cfg.coeff_bound,
                          seed=cfg.seed)
    report = VerifyReport(suite=name, algebra=cfg.algebra, claim=spec.claim)
    rec = _Recorder(report)
    start = time.perf_counter()
    spec.func(cfg, rec)
    report.elapsed_ms = int((time.perf_counter() - start) * 1000)
    return report


def default_plan():
    """The canonical (suite, family) pairs covered by a full run."""
    plan = []
    for name, spec in SUITES.items():
        for fam in spec.plan():
            plan.append((name, fam))
    return plan


def suite_range(name: str, family: str, n_min=None, n_max=None) -> tuple:
    """The suite's default n range cut to [n_min, n_max]; a request that
    misses it entirely is refused, never clamped."""
    lo, hi = default = SUITES[name].default_range
    if n_min is not None:
        lo = max(lo, n_min)
    if n_max is not None:
        hi = min(hi, n_max)
    if lo > hi:
        raise ValueError("suite %r on %s supports n in %d..%d, which misses the "
                         "requested n_min=%s, n_max=%s" % ((name, family) + default
                                                           + (n_min, n_max)))
    return lo, hi


def run_all(seed: int = 0, samples: int = 100, n_max=None, n_min=None,
            coeff_bound: int = 3):
    """Run the full plan, each suite over its default range cut to
    [n_min, n_max]; every range is checked before any suite runs."""
    plan = []
    for name, fam in default_plan():
        lo, hi = suite_range(name, fam, n_min, n_max)
        plan.append((name, SuiteConfig(algebra=fam, n_lo=lo, n_hi=hi, samples=samples,
                                       coeff_bound=coeff_bound, seed=seed)))
    return [run_suite(name, cfg) for name, cfg in plan]
