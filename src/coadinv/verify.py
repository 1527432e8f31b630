"""Seeded, reproducible property suites.

Every suite turns one family of exact algebraic identities into a
pass/fail report.  All comparisons are exact equality of rationals; there
is no tolerance anywhere.  Reports are deterministic functions of the
configuration (elapsed time aside), and every failed check serializes its
inputs so it can be replayed as a standalone regression.  A sign the
slices proof cannot establish raises ExactnessError instead, as does a
kernel self-check, and the run ends with no report (the CLI exits 1).

A suite is a property body run by run_suite once per (suite, family, n)
unit; the unit carries the algebra, its own seeded stream, the sample
count, the coefficient bound and the check that records the report.

_slice_signs proves the sign conventions relating slice restrictions to
their closed forms by identities of integer polynomials, once per slice and
size, and ties the shipped evaluators to them at fixed slice points; the
proved values are frozen as constants in the invariants module.
"""

from __future__ import annotations

import time
from fractions import Fraction

from . import invariants as inv
from . import poly
from .charpoly import (bordered_char_identities, char_data, directional_coeff,
                       interp_coeffs)
from .exactmat import (ExactnessError, Mat, Record, det, inverse, mat_to_json, rank,
                       rat_str, scalar)
from .liealg import (_RETRY_CAP, FAMILIES, Algebra, DualPoint, GroupElem, Rng,
                     algebra_basis, bracket_b, coad, commutator_form,
                     dual_to_json, embed_M, group_to_json, index_of, k_bracket,
                     reflection, sample_dual, sample_gl, sample_group,
                     sample_int_mat, sample_orthogonal, sample_skew,
                     sample_triple, theta, triple_zero)


class SuiteConfig(Record):
    """One run_suite call: the family, the n range, the sample count, the
    integer coefficient bound of the draws and the seed."""

    __slots__ = ("algebra", "n_lo", "n_hi", "samples", "coeff_bound", "seed")

    def __init__(self, algebra: str = "glvv", n_lo: int = 1, n_hi: int = 5,
                 samples: int = 100, coeff_bound: int = 3, seed: int = 0):
        if samples < 1:
            raise ValueError("samples must be >= 1")
        # at bound 0 every sample is a zero matrix and each check holds vacuously
        if coeff_bound < 1:
            raise ValueError("bound must be >= 1")
        if coeff_bound > 2 ** 63 - 1:  # [-bound, bound] must fit one 64-bit draw
            raise ValueError("bound must be <= 2^63 - 1")
        if not 1 <= n_lo <= n_hi <= 8:
            raise ValueError("n range must lie within 1..8")
        if not 0 <= seed <= 2 ** 64 - 1:  # Rng keeps 64 bits: another seed's stream
            raise ValueError("seed must lie within 0..2^64 - 1")
        self._set(algebra, n_lo, n_hi, samples, coeff_bound, seed)


class VerifyReport:
    """The report of one run_suite call, filled in as its units run."""

    __slots__ = ("suite", "algebra", "claim", "checks_run", "failures", "notes",
                 "elapsed_ms")

    def __init__(self, suite: str, algebra: str, claim: str):
        self.suite, self.algebra, self.claim = suite, algebra, claim
        self.checks_run = 0
        self.failures = []
        self.notes = []
        self.elapsed_ms = 0

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


class _Unit:
    """One (suite, family, n) unit of a run: all that a property body sees.

    check() compares exactly; its keyword inputs are encoded into the
    failure witness only when the check fails.  once holds the run-level
    checks of the report, by name."""

    __slots__ = ("alg", "rng", "samples", "bound", "report", "once")

    def __init__(self, alg: Algebra, rng: Rng, samples: int, bound: int,
                 report: VerifyReport, once: dict):
        self.alg, self.rng, self.samples, self.bound = alg, rng, samples, bound
        self.report, self.once = report, once

    @property
    def n(self) -> int:
        return self.alg.n

    def check(self, name: str, lhs, rhs, **inputs):
        _record(self.report, self.alg, name, self.n, lhs, rhs, inputs)

    def check_once(self, name: str, ok: bool):
        """A run-level claim, checked once after the last unit (witness
        n = 0): it holds if it held at every unit that made it."""
        self.once[name] = self.once.get(name, True) and ok

    def pair(self):
        """A dual point, then a group element, of the unit's family."""
        return (sample_dual(self.alg, self.rng, self.bound),
                sample_group(self.alg, self.rng, self.bound))

    def coeff(self) -> Fraction:
        return Fraction(self.rng.int_between(-self.bound, self.bound))


def _record(report: VerifyReport, alg, name: str, n: int, lhs, rhs, inputs: dict):
    report.checks_run += 1
    if lhs != rhs:
        witness = {"check": name, "n": n, "lhs": _render(lhs), "rhs": _render(rhs)}
        if inputs:
            witness["inputs"] = {key: _encode(alg, v) for key, v in inputs.items()}
        report.failures.append(witness)


def _render(value) -> str:
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, tuple):
        return "(" + ", ".join(_render(v) for v in value) + ")"
    return repr(value)


def _encode(alg: Algebra, value):
    """Replayable JSON of one witness input, chosen by its type."""
    if isinstance(value, DualPoint):
        return dual_to_json(Algebra(value.family, value.n), value)
    if isinstance(value, GroupElem):
        return group_to_json(alg, value)
    if isinstance(value, Mat):
        return mat_to_json(value)
    if isinstance(value, Fraction):
        return rat_str(value)
    x, u, v = value  # a glvv triple
    return {"x": mat_to_json(x), "u": mat_to_json(u), "vstar": mat_to_json(v)}


# -- property bodies: each runs once per unit ------------------------------------

def _suite_semi_invariance_f(unit: _Unit):
    for _ in range(unit.samples):
        l, a = unit.pair()
        image = coad(a, l)
        if unit.alg.family == "isl":
            unit.check("f_bar constant under the special affine action",
                       inv.f_bar(image), inv.f_bar(l), point=l, elem=a)
        else:
            unit.check("f(coad(a) l) * det(g) = f(l)",
                       inv.f_invariant(image) * det(a.g), inv.f_invariant(l),
                       point=l, elem=a)


def _suite_covariance_phi(unit: _Unit):
    for _ in range(unit.samples):
        l, a = unit.pair()
        gi = inverse(a.g)
        right = [row * gi for row in inv.phi_rows(l)]
        for k, (lr, rr) in enumerate(zip(inv.phi_rows(coad(a, l)), right)):
            unit.check("row covariant transforms by g^-1 (k=%d)" % (unit.n - 1 - k),
                       lr, rr, point=l, elem=a)


def _suite_invariance_F(unit: _Unit):
    n = unit.n
    for _ in range(unit.samples):
        l, b = unit.pair()
        gens = inv.F_all(l)
        unit.check("generators constant under the full action",
                   inv.F_all(coad(b, l)), gens, point=l, elem=b)
        vonly = GroupElem(Mat.identity(n), Mat.zero(n, 1), b.vstar)
        unit.check("generators constant under the covector translation",
                   inv.F_all(coad(vonly, l)), gens, point=l, vstar=b.vstar)


def _suite_invariance_psi(unit: _Unit):
    for _ in range(unit.samples):
        l, a = unit.pair()
        unit.check("orthogonal generators constant under the action",
                   inv.psi_all(coad(a, l)), inv.psi_all(l), point=l, elem=a)


def _suite_exotic_sign(unit: _Unit):
    n = unit.n
    if n % 2 == 0:
        return  # the exotic generator lives at odd sizes
    seen = False
    draws = 0
    # past the samples, draw on (up to the cap) until a nonzero value shows:
    # on zero values both claims hold vacuously
    while draws < unit.samples or not seen and draws < unit.samples + _RETRY_CAP:
        l = sample_dual(unit.alg, unit.rng, unit.bound)
        q = sample_orthogonal(unit.rng, n, unit.bound, 1)
        u = sample_int_mat(unit.rng, n, 1, unit.bound)
        phi, a = inv.exotic_phi(l), GroupElem.orthogonal(q, u)
        unit.check("exotic generator fixed under the special action",
                   inv.exotic_phi(coad(a, l)), phi, point=l, elem=a)
        # the witness keeps the rotation a; the reflected element is rebuilt from it
        r = GroupElem.orthogonal(q * reflection(n), u)
        unit.check("exotic generator flips under a reflection",
                   inv.exotic_phi(coad(r, l)), -phi, point=l, elem=a)
        seen = seen or phi != 0
        draws += 1
    unit.check_once("a nonzero exotic value was exercised", seen)


def _suite_dual_path(unit: _Unit):
    fam, n = unit.alg.family, unit.n
    for _ in range(unit.samples):
        l = sample_dual(unit.alg, unit.rng, unit.bound)
        if fam in ("aff", "isl"):
            f = inv.f_invariant(l)
            unit.check("determinant semi-invariant: gradient rows vs raw rows",
                       f, inv.f_krylov(l), point=l)
            if fam == "isl":
                c = unit.coeff()
                # y + cI is not traceless, so the shifted point is an aff one
                shifted = DualPoint(l.y + c * Mat.identity(n), l.wstar, family="aff")
                unit.check("semi-invariant blind to scalar shifts of y",
                           inv.f_invariant(shifted), f, point=l, shift=c)
        elif fam == "glvv":
            grads, bord = inv.F_all(l), inv.F_bordered_all(l)
            for k in range(len(grads)):
                unit.check("generator via gradients vs bordered coefficients (k=%d)" % k,
                           grads[k], bord[k], point=l)
            a = unit.coeff()
            ok, witness = bordered_char_identities(l.y, l.xi, l.wstar, a)
            unit.check("bordered coefficient identities hold (corner %s)" % rat_str(a),
                       (ok, witness), (True, None), point=l, corner=a)
        else:
            grads, bord = inv.psi_all(l), inv.psi_bordered_all(l)
            for k in range(len(grads)):
                unit.check("orthogonal generator via gradients vs bordered (k=%d)" % k,
                           grads[k], bord[k], point=l)


def _jacobian_rank(point, directions, degree_bound: int) -> int:
    """Exact Jacobian rank of the generator table at the point: one
    derivative per direction (dy, dw, dxi), in order, interpolated at the
    nodes point + t d, each built once as a point of the family.

    The rank is at most the generator count, so the directions stop once
    the rows taken so far reach it: the rest cannot raise it, and the
    value is the rank of the full Jacobian.  A point of lower rank runs
    every direction."""
    def values(p):
        return [value for _, _, value in inv.generators(p)]
    y, w, xi, fam = point.y, point.wstar, point.xi, point.family
    at_point = values(point)
    full = len(at_point)
    rows = []
    for dy, dw, dxi in directions:
        nodes = (DualPoint(y + t * dy, w + t * dw, xi + t * dxi if fam == "glvv" else None, fam)
                 for t in range(1, degree_bound + 1))
        samples = [at_point] + [values(p) for p in nodes]
        rows.append([interp_coeffs([s[i] for s in samples])[1] for i in range(full)])
        # one row per direction: the transposed Jacobian, of the same rank
        if len(rows) >= full and rank(Mat(rows)) == full:
            return full
    return rank(Mat(rows))


def _directions(alg: Algebra) -> list:
    """Coordinate directions (dy, dw, dxi) of the family's dual: its basis
    triples (x, u, vstar) as (x, u^T, vstar^T).  Reversed, the xi and
    covector directions come first: they give the rows w B_k(y) (glvv) and
    w B_2k(y) (io, iso), which reach full rank generically."""
    return [(x, u.transpose(), v.transpose()) for x, u, v in reversed(algebra_basis(alg))]


def _suite_independence(unit: _Unit):
    alg, n = unit.alg, unit.n
    directions = _directions(alg)
    rows = [(count(n), degree) for _, _, count, degree, _, _ in inv.GENERATORS[alg.family]]
    expected = sum(c for c, _ in rows)
    # the interpolation nodes cover the largest declared degree
    degree_bound = max(degree(n, k) for c, degree in rows for k in range(c))
    draws = _RETRY_CAP
    for _ in range(unit.samples):
        # the full-rank locus is dense; degenerate sample points are
        # resampled so a failure means actual dependence, not bad luck.  A
        # sample that uses up the cap marks the family dependent: each later
        # sample draws once, and is still checked
        for _attempt in range(draws):
            point = sample_dual(alg, unit.rng, unit.bound)
            got = _jacobian_rank(point, directions, degree_bound)
            if got == expected:
                break
        else:
            draws = 1
        unit.check("Jacobian of the generator family has rank %d" % expected,
                   got, expected, point=point)


def _suite_index(unit: _Unit):
    alg, fam, n = unit.alg, unit.alg.family, unit.n
    # the invariant generators count the index (det g is 1 on iso's group);
    # aff's semi-invariant is paired with its open orbit instead
    expected = sum(count(n) for _, _, count, _, character, _ in inv.GENERATORS[fam]
                   if character != "1/det g")
    got = index_of(alg, min(unit.samples, 5), unit.rng, unit.bound)
    # the rank at any point bounds the generic rank from below, so an
    # estimate above the frozen value may be a degenerate draw: draw on
    for _ in range(_RETRY_CAP):
        if got <= expected:
            break
        got = min(got, index_of(alg, 1, unit.rng, unit.bound))
    unit.report.notes.append("%s n=%d: index %d" % (fam, n, got))
    unit.check("index equals the frozen value %d" % expected, got, expected)
    if fam == "glvv":
        # every point of the open set realizes the maximal orbit size
        for _ in range(unit.samples):
            l = inv.sample_open_b(unit.rng, n, unit.bound)
            unit.check("commutator form has rank dim - n on the open set",
                       rank(commutator_form(alg, l)), alg.dim - expected, point=l)


_SLICE_CHECKS = {  # sign pair: the slices suite's check name and frozen constant
    "f-vs-t": ("slice restriction sign is the frozen constant", inv.F_SLICE_SIGN),
    "psi-vs-phi": ("slice restriction sign is the frozen constant (k=%d)", inv.PSI_SLICE_SIGN),
    "exotic-vs-slice": ("exotic slice restriction sign is the frozen constant",
                        inv.EXOTIC_SLICE_SIGN),
    "exotic-sq-vs-psi": ("exotic square sign is the frozen constant", inv.EXOTIC_SQUARE_SIGN),
}


def _suite_slices(unit: _Unit):
    for (pair, k), sign in _slice_signs(unit.n, unit.alg.family).items():
        name, frozen = _SLICE_CHECKS[pair]
        unit.check(name if k is None else name % k, sign, frozen)


def _suite_orbit_fibration(unit: _Unit):
    n = unit.n
    aff = Algebra("aff", n)
    for _ in range(unit.samples):
        l = inv.sample_open_b(unit.rng, n, unit.bound)
        _, normal = inv.orbit_normalize(l)
        a = sample_group(aff, unit.rng, unit.bound)
        moved = coad(a, l)
        _, normal2 = inv.orbit_normalize(moved)
        proj = inv.pi_projection(l)
        unit.check("conjugate points share one normal form",
                   (normal2.y, normal2.wstar, normal2.xi),
                   (normal.y, normal.wstar, normal.xi), point=l, elem=a)
        unit.check("fiber projection constant along the affine action",
                   inv.pi_projection(moved), proj, point=l, elem=a)
        unit.check("normal form third component is the fiber projection",
                   normal.xi, proj, point=l, elem=a)
        unit.check("generators survive normalization",
                   inv.F_all(normal), inv.F_all(l), point=l, elem=a)
        vonly = GroupElem(Mat.identity(n), Mat.zero(n, 1),
                          sample_int_mat(unit.rng, 1, n, unit.bound))
        unit.check("fiber projection constant along the covector translation",
                   inv.pi_projection(coad(vonly, l)), proj, point=l, elem=a)


def _suite_theta(unit: _Unit):
    n = unit.n
    for _ in range(unit.samples):
        s = sample_triple(unit.rng, n, unit.bound)
        t = sample_triple(unit.rng, n, unit.bound)
        unit.check("involution squares to the identity", theta(theta(s)), s, s=s)
        unit.check("involution preserves the bracket",
                   theta(bracket_b(s, t)), bracket_b(theta(s), theta(t)), s=s, t=t)
        x, u, v = s
        fixed = (Fraction(1, 2) * (x - x.transpose()), u, -u.transpose())
        unit.check("embedded orthogonal points are fixed", theta(fixed), fixed, s=s)
        unit.check("fixed set is exactly the embedded orthogonal algebra",
                   theta(s) == s, x.is_skew() and v == -u.transpose(), s=s)
        probe = (Mat.unit(n, 0, 0), u, -u.transpose())
        unit.check("a symmetric matrix part is moved", theta(probe) == probe, False)


def _suite_embed_M(unit: _Unit):
    n = unit.n
    for _ in range(unit.samples):
        s = sample_triple(unit.rng, n, unit.bound)
        t = sample_triple(unit.rng, n, unit.bound)
        unit.check("embedding preserves brackets into the contracted algebra",
                   embed_M(bracket_b(s, t)), k_bracket(embed_M(s), embed_M(t)), s=s, t=t)
    span = Mat([[embed_M(b)[i, j] for i in range(n + 1) for j in range(n + 1)]
                for b in algebra_basis(unit.alg)])
    unit.check("embedded image has codimension 1", (n + 1) ** 2 - rank(span), 1)
    unit.check("zero maps to zero", embed_M(triple_zero(n)), Mat.zero(n + 1, n + 1))


def _suite_cayley_hamilton(unit: _Unit):
    n = unit.n
    for _ in range(unit.samples):
        x = sample_int_mat(unit.rng, n, n, unit.bound)
        cd = char_data(x)
        unit.check("x B_{n-1}(x) equals p_n(x) I",
                   x * cd.B[n - 1], cd.p[n - 1] * Mat.identity(n), x=x)
        t = unit.coeff()
        closed = t ** n - sum(cd.p[k - 1] * t ** (n - k) for k in range(1, n + 1))
        unit.check("det(t I - x) matches the coefficient expansion",
                   det(t * Mat.identity(n) - x), closed, x=x, t=t)


def _suite_gradient_Bk(unit: _Unit):
    n = unit.n
    for _ in range(unit.samples):
        x = sample_int_mat(unit.rng, n, n, unit.bound)
        y = sample_int_mat(unit.rng, n, n, unit.bound)
        cd = char_data(x)
        # every k interpolates at nodes x + t y from the same t = 0, 1, ...,
        # so each node's recursion runs once: n + 2 nodes in all
        nodes = {x: cd}

        def at(m):
            if m not in nodes:
                nodes[m] = char_data(m)
            return nodes[m]
        for k in range(n):
            unit.check("tr(B_k(x) y) is the first-order coefficient (k=%d)" % k,
                       (cd.B[k] * y).trace(),
                       directional_coeff(lambda m, k=k: at(m).coeff(k + 1), x, y, 1, k + 1),
                       x=x, y=y)


def _suite_skew_parity(unit: _Unit):
    n = unit.n
    for _ in range(unit.samples):
        y = sample_skew(unit.rng, n, unit.bound)
        cd = char_data(y)
        for k in range(1, n + 1, 2):
            unit.check("odd coefficients vanish on skew matrices (k=%d)" % k,
                       cd.coeff(k), Fraction(0), y=y)
        for k in range(1, n, 2):
            unit.check("odd gradients are skew on skew matrices (k=%d)" % k,
                       cd.B[k].transpose(), -cd.B[k], y=y)


def _suite_sbg_generators(unit: _Unit):
    n = unit.n
    for _ in range(unit.samples):
        l = sample_dual(unit.alg, unit.rng, unit.bound)
        g = sample_gl(unit.rng, n, unit.bound)
        moved = coad(GroupElem(g, Mat.zero(n, 1), Mat.zero(1, n)), l)
        unit.check("coefficient functions constant under conjugation",
                   char_data(moved.y).p, char_data(l.y).p, point=l, g=g)
        unit.check("pairing moments constant under conjugation",
                   _moments(moved), _moments(l), point=l, g=g)


def _moments(p: DualPoint) -> tuple:
    """The pairing moments wstar y^j xi for j = 0..n-1."""
    return tuple(scalar(r * p.xi) for r in inv.krylov_rows(p))


# -- the sign proofs --------------------------------------------------------------

def _slice_signs(n: int, family: str) -> dict:
    """Every sign of one slice at size n, proved: {(pair, k): epsilon} for
    f-vs-t on the isl slice, or on the io/iso slice psi-vs-phi at each k
    (k is None elsewhere) and, at odd n, the two exotic pairs.  Each side is
    built once in module poly: lhs the generator as its evaluator defines
    it, rhs the closed form.  epsilon is read off one term of rhs, lhs -
    epsilon rhs must vanish term by term, and the evaluators must equal lhs
    at two fixed slice tuples; else ExactnessError (a bug, not a convention)."""
    m = n if family == "isl" else (n + 1) // 2  # the parameter count, ell + 1
    ties = [tuple(range(2, m + 2)), tuple((-1) ** i * (i + 1) for i in range(m))]
    if family == "isl":
        sides = {("f-vs-t", None): (poly.fbar_on_slice(n), poly.t_slice(n),
                                    [inv.f_bar(inv.slice_isl(a, b)) for *a, b in ties])}
    else:
        points = [inv.slice_so(a, a0, Algebra(family, n)) for *a, a0 in ties]
        psi, at = poly.psi_on_slice(n), [inv.psi_all(p) for p in points]
        sides = {("psi-vs-phi", k): (psi[k], poly.phi_slice(n, k), [v[k] for v in at])
                 for k in range(m)}
        if n % 2:
            phi, at = poly.exotic_phi_on_slice(n), [inv.exotic_phi(p) for p in points]
            sides["exotic-vs-slice", None] = (phi, poly.exotic_slice(n), at)
            sides["exotic-sq-vs-psi", None] = (poly.mul(phi, phi), psi[-1], [v * v for v in at])
    signs = {}
    for key, (lhs, rhs, shipped) in sides.items():
        # an empty rhs has no term to read epsilon off, and no sign works
        e, c = next(iter(rhs.items()), ((), 0))
        signs[key] = sign = 1 if lhs.get(e) == c else -1
        if not c or poly.add(lhs, rhs, -sign) or shipped != [poly.value(lhs, t) for t in ties]:
            raise ExactnessError("not proportional - investigate")
    return signs


def resolve_sign(pair: str, n: int, k=None) -> int:
    """One proved slice-comparison sign in {+1, -1}: a view of _slice_signs.
    Only psi-vs-phi takes a generator index, 0 <= k <= ell.  A bad pair, n
    or k (missing, out of range or ignored) raises ValueError."""
    if n < 1:
        raise ValueError("sign resolution needs n >= 1")
    if pair not in _SLICE_CHECKS:
        raise ValueError("unknown sign pair %r" % (pair,))
    if pair == "psi-vs-phi" and k not in range((n + 1) // 2):
        raise ValueError("psi-vs-phi needs a generator index k in 0..ell")
    if pair != "psi-vs-phi" and k is not None:
        raise ValueError("%s takes no generator index k" % pair)
    if pair.startswith("exotic") and n % 2 == 0:
        raise ValueError("exotic comparisons need odd n")
    return _slice_signs(n, "isl" if pair == "f-vs-t" else "iso")[pair, k]


# -- registry and runners ---------------------------------------------------------

class _SuiteSpec(Record):
    # samples_cap: point-driven suites cap the sample count (a handful of
    # exact Jacobian or rank evaluations already decides the claim); 0 means
    # uncapped.  odd_only: the suite checks something only at odd n.
    __slots__ = ("func", "claim", "families", "default_range", "samples_cap", "odd_only")

    def __init__(self, func, claim: str, families: tuple, default_range: tuple,
                 samples_cap: int = 0, odd_only: bool = False):
        self._set(func, claim, families, default_range, samples_cap, odd_only)


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
        ("io", "iso"), (1, 5), odd_only=True),
    "dual-path": _SuiteSpec(
        _suite_dual_path,
        "each generator has two independent formulas that agree exactly",
        ("aff", "isl", "glvv", "io"), (1, 5)),
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
        ("glvv",), (1, 6)),
    "gradient-Bk": _SuiteSpec(
        _suite_gradient_Bk,
        "tr(B_k(x) y) is the exact first-order coefficient of p_{k+1}(x + t y)",
        ("glvv",), (1, 5)),
    "skew-parity": _SuiteSpec(
        _suite_skew_parity,
        "odd coefficients vanish and odd gradients are skew on skew matrices",
        ("glvv",), (1, 6)),
    "sbg-generators": _SuiteSpec(
        _suite_sbg_generators,
        "coefficient functions and pairing moments are constant under conjugation",
        ("glvv",), (1, 5)),
}


def run_suite(name: str, cfg: SuiteConfig) -> VerifyReport:
    """Run the suite's property body once per unit n = cfg.n_lo..cfg.n_hi.

    Each unit draws from Rng(seed).child(name, family, n), or from
    Rng(seed).child(name, n) when the suite has one family; this
    key is what keeps a report reproducible.  A run that checks nothing
    is refused."""
    spec = SUITES.get(name)
    if spec is None:
        raise ValueError("unknown suite %r" % (name,))
    fam = cfg.algebra
    if fam not in spec.families:
        raise ValueError("suite %r does not support algebra %r" % (name, fam))
    samples = min(cfg.samples, spec.samples_cap or cfg.samples)
    key = (name, fam) if len(spec.families) > 1 else (name,)
    report = VerifyReport(suite=name, algebra=fam, claim=spec.claim)
    once = {}
    start = time.perf_counter()
    for n in range(cfg.n_lo, cfg.n_hi + 1):
        spec.func(_Unit(Algebra(fam, n), Rng(cfg.seed).child(*key, n), samples,
                        cfg.coeff_bound, report, once))
    for check, ok in once.items():
        _record(report, None, check, 0, ok, True, {})
    if not report.checks_run:
        raise ValueError("suite %r on %s checks nothing at n in %d..%d"
                         % (name, fam, cfg.n_lo, cfg.n_hi))
    report.elapsed_ms = int((time.perf_counter() - start) * 1000)
    return report


def default_plan():
    """The canonical (suite, family) pairs covered by a full run."""
    return [(name, fam) for name, spec in SUITES.items() for fam in spec.families]


def suite_range(name: str, family: str, n_min=None, n_max=None) -> tuple:
    """The suite's default n range cut to [n_min, n_max]; a request that
    misses it entirely, or holds no size the suite checks, is refused,
    never clamped."""
    spec = SUITES[name]
    lo, hi = default = spec.default_range
    if n_min is not None:
        lo = max(lo, n_min)
    if n_max is not None:
        hi = min(hi, n_max)
    if lo > hi:
        raise ValueError("suite %r on %s supports n in %d..%d, which misses the "
                         "requested n_min=%s, n_max=%s" % ((name, family) + default
                                                           + (n_min, n_max)))
    if spec.odd_only and lo == hi and lo % 2 == 0:
        raise ValueError("suite %r on %s checks odd n only, and n in %d..%d has none"
                         % (name, family, lo, hi))
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
