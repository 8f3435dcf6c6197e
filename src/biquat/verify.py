"""Mechanical verification of the entangling-map law.

Two independent routes are compared for each of the eight admissible
(state variant, rotor support) pairings:

(a) an exact polynomial identity, proved rather than sampled - the
    tabulated closed form must have the degrees of p q p and equal the
    structure-constant oracle's p q p at the 12 basis points of
    ``IDENTITY_POINTS``, with no rounding anywhere; the two are then
    equal as polynomials.  The closed-form text each report prints is
    itself what is expanded and evaluated, so there is no second copy
    to drift from it; and
(b) a floating-point check of the concurrence law C = 4|alpha beta
    a_i a_j| at seeded random normalized points, run through the primary
    (float) implementation: the concurrence kernel traced from ``bmul``
    for the case's supports, bit for bit
    ``_concurrence(bmul(bmul(p, q), p))`` on unit inputs, since every
    term it drops is a zero whose sign ``abs`` erases.

The tabulated reference forms carry two known misprints, kept as data
rather than silently fixed: case 2 lists five entries with a repeated
a2 factor, and case 6's k-component sign is flipped (the same flip shows
up in golden example 2).  Bare alpha/beta entries in the reference table
implicitly assume a_i^2 + a_j^2 = 1; the evaluated forms restore that
factor so each identity is polynomial and holds off the unit circle too.

Closed-form texts are never passed to ``eval``.  On first use each text
is parsed once, with ``^`` read as ``**``, into the compiler's own syntax
tree (``_codegen.parse``), whose node classes are those of the built-in
``_ast`` that ``ast`` re-exports: ``ast`` itself loads only to word the
message that rejects an unsupported operator or node.  The tree is
expanded into monomials and compiled to one straight-line function of
Python ints: the six real
inputs go over one common denominator, each numerator is one sum of
monomials and the result is reduced once.  The accepted grammar
is a 4-tuple of int literals, the names ``alpha``, ``beta``, ``a{i}``
and ``a{j}``, binary ``+``, ``-`` and ``*``, unary ``-`` and ``**`` with
a non-negative int literal exponent.  Any other name is a NameError and
any other syntax a ValueError.  The compiler reads neither ``STRUCTURE``
nor ``oracle_mul``, so the two sides of the identity stay independent.

Reports are deterministic: a fixed seed yields byte-identical text and
dict renderings.  Case checks are independent (each draws from its own
generator keyed by seed and case id), so they could run in any order or
in parallel and merge by case id without changing the report.
"""

from __future__ import annotations

import _ast
import functools
import math
from collections import namedtuple

from . import _codegen
from .biquaternion import BiQuat
from .entanglement import (ADMISSIBLE_P_SUPPORTS, Variant, _kernel, _key,
                           _state, place_pair)
from .exact import ExactBiQuat, ExactScalar, _ratio, _reduced, oracle_mul
from .quaternion import Quat, _new

__all__ = ["EntangleCase", "CaseResult", "TheoremReport", "ExampleResult",
           "ExamplesReport", "ENTANGLE_CASES", "GOLDEN_EXAMPLES",
           "IDENTITY_POINTS", "LAW_TOL", "closed_form_product",
           "verify_theorem", "verify_examples"]

# The identity points: the state basis (alpha = 1, alpha = i, beta = 1,
# beta = i) times (a_i, a_j) in (1, 0), (0, 1) and (1, 1).  Whatever its
# signs, every term of oracle_mul is p{a}*q{b}, and p q p places p twice
# and q once: each part of each coordinate is linear in the four state
# parts and a quadratic form in (a_i, a_j), so its 4 x 3 coefficients are
# read off these points.  A form of that shape (_shape_failures) that
# agrees at them equals p q p as a polynomial.
IDENTITY_POINTS = 12

LAW_TOL = 1e-10

_TABLE_NOTE = ("bare alpha/beta entries in the reference forms carry an "
               "implicit (a_i^2 + a_j^2) factor, restored here so each "
               "identity is polynomial")


def _plus(x: dict, y: dict, sign: int) -> dict:
    """The expansion of x + sign*y; no zero coefficient is kept."""
    out = dict(x)
    for key, c in y.items():
        out[key] = out.get(key, 0) + sign * c
    return {key: c for key, c in out.items() if c}


def _times(x: dict, y: dict) -> dict:
    """The expansion of x * y; an i*i product flips the sign."""
    out = {}
    for (ex, px), cx in x.items():
        for (ey, py), cy in y.items():
            key = (tuple(a + b for a, b in zip(ex, ey)), px ^ py)
            out[key] = out.get(key, 0) + (-cx * cy if px & py else cx * cy)
    return {key: c for key, c in out.items() if c}


def _expand(e, leaves: dict) -> dict:
    """The expansion of one sub-expression; raises on any other syntax."""
    if type(e) is _ast.Constant and type(e.value) is int:
        return {((0,) * 6, 0): e.value} if e.value else {}
    if type(e) is _ast.Name:
        return leaves[e.id]
    if type(e) is _ast.UnaryOp and type(e.op) is _ast.USub:
        return _plus({}, _expand(e.operand, leaves), -1)
    if type(e) is _ast.BinOp:
        op = type(e.op)
        if op is _ast.Pow:
            n = e.right
            if not (type(n) is _ast.Constant and type(n.value) is int):
                raise ValueError("closed form: an exponent must be a "
                                 "non-negative int literal")
            x = _expand(e.left, leaves)
            return functools.reduce(_times, [x] * n.value, {((0,) * 6, 0): 1})
        if op in (_ast.Add, _ast.Sub, _ast.Mult):
            x, y = _expand(e.left, leaves), _expand(e.right, leaves)
            return (_times(x, y) if op is _ast.Mult
                    else _plus(x, y, 1 if op is _ast.Add else -1))
    import ast
    what = "operator" if type(e) is _ast.BinOp else "syntax"
    raise ValueError(f"closed form: unsupported {what} {ast.unparse(e)!r}")


def _walk(tree) -> list:
    """Every node of ``tree``, in the breadth-first order of ``ast.walk``."""
    nodes = [tree]
    for node in nodes:
        for field in node._fields:
            value = getattr(node, field, None)
            nodes += [v for v in (value if type(value) is list else [value])
                      if isinstance(v, _ast.AST)]
    return nodes


def _expansion(form: str, i: int, j: int) -> list[dict]:
    """The four entries of one closed-form text, each expanded into
    monomials: a dict from (exponents of x0 .. x5, part) to a nonzero int
    coefficient.  Part 0 is real and part 1 imaginary; x0 .. x5 are
    alpha.re, alpha.im, beta.re, beta.im, a{i} and a{j}."""
    tree = _codegen.parse(form.replace("^", "**"), "<closed form>")
    x = [tuple(int(n == m) for n in range(6)) for m in range(6)]
    leaves = {"alpha": {(x[0], 0): 1, (x[1], 1): 1},
              "beta": {(x[2], 0): 1, (x[3], 1): 1},
              f"a{i}": {(x[4], 0): 1}, f"a{j}": {(x[5], 0): 1}}
    for e in _walk(tree):
        if type(e) is _ast.Name and e.id not in leaves:
            raise NameError(f"name {e.id!r} is not defined")
    body = tree.body
    if type(body) is not _ast.Tuple or len(body.elts) != 4:
        raise ValueError("closed form: expected a tuple of 4 entries")
    return [_expand(e, leaves) for e in body.elts]


def _numerator(entry: dict, part: int, k: int) -> str:
    """One part of one entry as Python text: its monomials over D**k."""
    terms = []
    for (ex, p), c in entry.items():
        if p == part:
            factors = [f"x{m}" for m, e in enumerate(ex) for _ in range(e)]
            factors += ["D"] * (k - sum(ex))
            if abs(c) != 1 or not factors:
                factors.insert(0, str(abs(c)))
            terms.append(("-" if c < 0 else "") + "*".join(factors))
    return " + ".join(terms).replace("+ -", "- ") or "0"


@functools.cache
def _compiled(form: str, i: int, j: int):
    """Compile one closed-form text to a function of (alpha, beta, a_i, a_j).

    The text is read by the grammar of the module docstring, through
    ``_expansion``.  The function is one straight line of integer
    arithmetic, one sum of monomials per numerator; its result is
    reduced once, over ``D**k`` for the largest degree k, by
    ``exact._reduced``: values it computed need no ``from_ratio`` checks.
    """
    entries = _expansion(form, i, j)
    k = max((sum(ex) for entry in entries for ex, _ in entry), default=0)
    nums = [_numerator(entry, part, k) for part in (0, 1) for entry in entries]
    doc = f"Exact value of {form!r} at (alpha, beta, a{i}, a{j})."
    return _codegen.function(__name__, "closed_form", [
        "def closed_form(alpha, beta, ai, aj):",
        f"    {doc!r}",
        *(f"    n{m}, d{m} = _ratio({v})" for m, v in enumerate(
            ("alpha.re", "alpha.im", "beta.re", "beta.im", "ai", "aj"))),
        "    D = _lcm(d0, d1, d2, d3, d4, d5)",
        *(f"    x{m} = n{m} * (D // d{m})" for m in range(6)),
        f"    return _reduced(({', '.join(nums)}), D ** {k})",
    ], _ratio=_ratio, _lcm=math.lcm, _reduced=_reduced)


class EntangleCase(namedtuple("EntangleCase", (
        "case_id", "variant", "p_support", "closed_form", "stated_form",
        "note"), defaults=(None, ""))):
    """One admissible pairing and its closed-form expansion.

    ``case_id`` is an int, ``variant`` the state's Variant, ``p_support``
    the rotor's two directions as a tuple of ints and ``closed_form`` the
    str of p q p.  ``stated_form``, a str or None (the default), is the
    reference form where it disagrees, and ``note`` the str (default "")
    that says how.
    """

    __slots__ = ()

    @property
    def predicted_c(self) -> str:
        i, j = self.p_support
        return f"4*|alpha*beta*a{i}*a{j}|"

    def evaluate(self, alpha: ExactScalar, beta: ExactScalar,
                 a: tuple) -> ExactBiQuat:
        """Evaluate ``closed_form`` exactly; ``a`` need not be normalized.
        Any name but alpha, beta, a_i, a_j is a NameError."""
        i, j = self.p_support
        ai, aj = a
        return _compiled(self.closed_form, i, j)(alpha, beta, ai, aj)


# Case ids follow Variant order, then the sorted admissible rotor supports
# sharing exactly one direction with the state's.
_PAIRINGS = tuple(
    (v, sup) for v in Variant
    for sup in sorted(tuple(sorted(s)) for s in ADMISSIBLE_P_SUPPORTS)
    if len(set(v.positions) & set(sup)) == 1)

_CLOSED_FORMS = (
    "(alpha*(a1^2-a3^2), beta*(a1^2+a3^2), 2*alpha*a1*a3, 0)",
    "(-alpha*(a2^2+a4^2), -beta*(a2^2-a4^2), 0, -2*beta*a2*a4)",
    "(-2*alpha*a1*a3, 0, alpha*(a1^2-a3^2), beta*(a1^2+a3^2))",
    "(0, -2*beta*a2*a4, alpha*(a2^2+a4^2), beta*(a2^2-a4^2))",
    "(alpha*(a1^2-a2^2), 2*alpha*a1*a2, beta*(a1^2+a2^2), 0)",
    "(-alpha*(a3^2+a4^2), 0, beta*(a4^2-a3^2), -2*beta*a3*a4)",
    "(-2*alpha*a1*a2, alpha*(a1^2-a2^2), 0, beta*(a1^2+a2^2))",
    "(0, alpha*(a3^2+a4^2), -2*beta*a3*a4, beta*(a3^2-a4^2))",
)

# Reference forms that disagree with the exact recomputation, by case id.
_MISPRINTS = {
    2: ("(-alpha, -beta*(a2^2-a4^2), 0, -2*beta*a2*a2, 0)",
        "reference form lists five entries and repeats the a2 factor; read "
        "as the four-entry form with -2*beta*a2*a4, confirmed exactly by "
        "the oracle"),
    6: ("(-alpha, 0, -beta*a3^2+beta*a4^2, 2*beta*a3*a4)",
        "reference k-component sign (+2*beta*a3*a4) flips to -2*beta*a3*a4 "
        "under exact recomputation - the same flip flagged in golden "
        "example 2; the concurrence is unaffected"),
}

ENTANGLE_CASES: tuple[EntangleCase, ...] = tuple(
    EntangleCase(k, v, sup, form, *_MISPRINTS.get(k, ()))
    for k, ((v, sup), form) in enumerate(
        zip(_PAIRINGS, _CLOSED_FORMS, strict=True), 1))

_CASES_BY_ID = {case.case_id: case for case in ENTANGLE_CASES}

_ZERO = ExactScalar.of(0)


def _exact_pqp(case, alpha, beta, ai, aj) -> ExactBiQuat:
    """p q p by the oracle, for the rotor ai e_i + aj e_j (int or Fraction)
    on case.p_support and the state (alpha, beta) on case.variant."""
    p = ExactBiQuat((*place_pair(case.p_support, ai, aj, 0), 0, 0, 0, 0))
    q = ExactBiQuat.from_scalars(
        place_pair(case.variant.positions, alpha, beta, _ZERO))
    return oracle_mul(oracle_mul(p, q), p)


def closed_form_product(case_id: int, alpha: ExactScalar, beta: ExactScalar,
                        a: tuple) -> ExactBiQuat:
    """Evaluate the tabulated expansion of p q p for one case.  The id must
    be an int (not a bool, float or Fraction equal to one)."""
    case = _CASES_BY_ID.get(case_id) if type(case_id) is int else None
    if case is None:
        raise ValueError(f"invalid case id: {case_id!r}")
    return case.evaluate(alpha, beta, a)


def _identity_points() -> list:
    """The ``IDENTITY_POINTS`` basis points (alpha, beta, a_i, a_j)."""
    one, i = ExactScalar.of(1), ExactScalar.of(0, 1)
    return [(alpha, beta, ai, aj)
            for alpha, beta in ((one, _ZERO), (i, _ZERO), (_ZERO, one),
                                (_ZERO, i))
            for ai, aj in ((1, 0), (0, 1), (1, 1))]


def _shape_failures(case) -> list[str]:
    """A line for each term of the case's closed form that p q p cannot
    have: one not of degree 1 in alpha, beta and 2 in a_i, a_j."""
    i, j = case.p_support
    names = ("alpha.re", "alpha.im", "beta.re", "beta.im", f"a{i}", f"a{j}")
    return [f"entry {k}: term " + "*".join(
                [str(c), *["i"] * part, *(n + f"^{e}" * (e > 1)
                                          for n, e in zip(names, ex) if e)])
            + f" has degree ({sum(ex[:4])}, {sum(ex[4:])}) in (alpha, beta; "
            f"a{i}, a{j}), not (1, 2)"
            for k, entry in enumerate(_expansion(case.closed_form, i, j), 1)
            for (ex, part), c in entry.items()
            if sum(ex[:4]) != 1 or sum(ex[4:]) != 2]


class CaseResult(namedtuple("CaseResult", (
        "case", "identity_pass", "identity_points", "identity_failures",
        "law_pass", "law_samples", "law_max_error"))):
    """One case of ``verify_theorem``.

    ``case`` is the EntangleCase.  The identity half: the bool
    ``identity_pass``, the int ``identity_points`` and
    ``identity_failures``, a tuple of strs, one per term of the wrong
    degree and one per point where the closed form and the oracle differ.
    The law half: the bool ``law_pass``, the int ``law_samples`` and the
    float ``law_max_error``.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.identity_pass and self.law_pass

    def to_dict(self) -> dict:
        case = self.case
        return {
            "case_id": case.case_id,
            "q_variant": case.variant.name,
            "p_support": list(case.p_support),
            "closed_form": case.closed_form,
            "predicted_concurrence": case.predicted_c,
            "stated_form": case.stated_form,
            "note": case.note,
            "identity": {
                "pass": self.identity_pass,
                "points": self.identity_points,
                "failures": list(self.identity_failures),
            },
            "law": {
                "pass": self.law_pass,
                "samples": self.law_samples,
                "max_error": self.law_max_error,
                "tolerance": LAW_TOL,
            },
            "pass": self.passed,
        }


class TheoremReport(namedtuple("TheoremReport",
                               "samples seed identity_points cases")):
    """What ``verify_theorem`` returns: the ints ``samples``, ``seed`` and
    ``identity_points``, and ``cases``, a tuple of CaseResults."""

    __slots__ = ()

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.cases)

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "seed": self.seed,
            "identity_points": self.identity_points,
            "table_note": _TABLE_NOTE,
            "cases": [c.to_dict() for c in self.cases],
            "passed_cases": sum(c.passed for c in self.cases),
            "all_pass": self.all_pass,
        }

    def to_text(self) -> str:
        lines = [
            "entangling-map law verification",
            f"identity points per case: {self.identity_points} (exact "
            "rational arithmetic; with the degree check, a proof)",
            f"law samples per case: {self.samples}   seed: {self.seed}   "
            f"tolerance: {LAW_TOL:g}",
            f"note: {_TABLE_NOTE}",
            "",
        ]
        for c in self.cases:
            case, (i, j) = c.case, c.case.p_support
            idl = ("PASS" if c.identity_pass else "FAIL")
            lwl = ("PASS" if c.law_pass else "FAIL")
            missed = sum(f.startswith("point ") for f in c.identity_failures)
            lines.append(
                f"case {case.case_id}  q={case.variant.name} p={{{i},{j}}}  "
                f"identity: {idl} "
                f"({c.identity_points - missed}/"
                f"{c.identity_points} exact)  law: {lwl} "
                f"(max err {c.law_max_error:.3e})")
            if case.note:
                lines.append(f"        note: {case.note}")
            for f in c.identity_failures:
                lines.append(f"        counterexample: {f}")
        lines.append("")
        lines.append(f"overall: {sum(c.passed for c in self.cases)}/"
                     f"{len(self.cases)} cases pass")
        return "\n".join(lines)


def verify_theorem(samples: int = 1000, seed: int = 7) -> TheoremReport:
    """Run both verification routes for all eight cases.

    Failures are recorded in the report (with exact counterexamples for
    route (a)), never raised.  ``samples`` and ``seed`` must be ints.
    """
    if type(samples) is not int or type(seed) is not int:
        raise TypeError(f"samples and seed must be int: {samples!r}, {seed!r}")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    import random
    points = _identity_points()
    results = []
    for case in ENTANGLE_CASES:
        failures = _shape_failures(case)
        for k, (alpha, beta, ai, aj) in enumerate(points):
            got = _exact_pqp(case, alpha, beta, ai, aj)
            want = case.evaluate(alpha, beta, (ai, aj))
            if got != want:
                failures.append(
                    f"point {k}: alpha={alpha} beta={beta} a=({ai},{aj}) "
                    f"oracle={got} closed-form={want}")

        rng = random.Random(f"{seed}/{case.case_id}")
        positions = case.variant.positions
        kernel = _kernel(_key(case.p_support, positions), concurrence=True)
        max_err = 0.0
        for _ in range(samples):
            while True:
                a1, a2, b1, b2 = (rng.uniform(-1.0, 1.0) for _ in range(4))
                # One left-to-right sum, not sum(): from Python 3.12 sum()
                # of floats is compensated, which would make the report
                # depend on the version.
                n = math.sqrt(a1 * a1 + a2 * a2 + b1 * b1 + b2 * b2)
                if n > 1e-3:
                    break
            alpha_f = complex(a1, a2) / n
            beta_f = complex(b1, b2) / n
            t = rng.uniform(0.0, 2.0 * math.pi)
            ai_f, aj_f = math.cos(t), math.sin(t)
            # The state is built by entanglement._state, the one place an
            # embedded state's norm is checked; the rotor is its placed
            # parts, which are unit by construction.
            q_f = _state(alpha_f, beta_f, positions)
            p_f = _new(Quat, place_pair(case.p_support, ai_f, aj_f, 0.0))
            c = kernel(p_f, q_f)
            predicted = 4.0 * abs(alpha_f) * abs(beta_f) * abs(ai_f * aj_f)
            err = abs(c - predicted)
            # A NaN error is kept, and no later comparison displaces it,
            # so one NaN sample fails the case and shows in the report.
            if err > max_err or err != err:
                max_err = err

        results.append(CaseResult(case, not failures, len(points),
                                  tuple(failures), max_err <= LAW_TOL,
                                  samples, max_err))
    return TheoremReport(samples, seed, len(points), tuple(results))


# --- golden examples ------------------------------------------------

# Scaled by sqrt(2) per factor so everything is an exact integer:
# p = P/sqrt(2), q = Q/sqrt(2)  =>  p q p = (P Q P) / (2*sqrt(2)),
# and a stated output L/sqrt(2) matches iff P Q P = 2 L.
_I = ExactScalar.of(0, 1)
_MINUS_I = ExactScalar.of(0, -1)


class _GoldenExample(namedtuple("_GoldenExample", (
        "example_id", "p_support", "variant", "alpha", "beta",
        "stated_scaled", "p_text", "q_text", "stated_text"))):
    """One worked example of the reference.

    ``example_id`` is an int, ``p_support`` the rotor's two directions as
    a tuple of ints, ``variant`` the state's Variant and ``alpha`` and
    ``beta`` its ExactScalars.  ``stated_scaled`` is the stated output as
    an ExactBiQuat, 2 L, in the recomputation's scaling.  ``p_text``,
    ``q_text`` and ``stated_text`` are the strs of p, q and the output.
    """

    __slots__ = ()


GOLDEN_EXAMPLES: tuple[_GoldenExample, ...] = (
    _GoldenExample(
        1, (1, 3), Variant.V12, _I, _MINUS_I,
        ExactBiQuat((0, 0, 0, 0, 0, -2, 2, 0)),
        "(1, 0, 1, 0)/sqrt(2)", "(i, -i, 0, 0)/sqrt(2)",
        "(0, -i, i, 0)/sqrt(2)"),
    _GoldenExample(
        2, (3, 4), Variant.V13, _I, _MINUS_I,
        ExactBiQuat((0, 0, 0, 0, -2, 0, 0, -2)),
        "(0, 0, 1, 1)/sqrt(2)", "(i, 0, -i, 0)/sqrt(2)",
        "(-i, 0, 0, -i)/sqrt(2)"),
    _GoldenExample(
        3, (3, 4), Variant.V24, _I, _I,
        ExactBiQuat((0, 0, 0, 0, 0, 2, -2, 0)),
        "(0, 0, 1, 1)/sqrt(2)", "(0, i, 0, i)/sqrt(2)",
        "(0, i, -i, 0)/sqrt(2)"),
)


class ExampleResult(namedtuple("ExampleResult", (
        "example", "computed", "exact_match", "magnitude_match",
        "sign_mismatch_components", "concurrence_one", "note"))):
    """One example of ``verify_examples``.

    ``example`` is the _GoldenExample and ``computed`` the exact p q p, an
    ExactBiQuat scaled by 2*sqrt(2).  ``exact_match``, ``magnitude_match``
    and ``concurrence_one`` are bools, ``sign_mismatch_components`` a
    tuple of the 1-based ints where only the signs differ and ``note`` a
    str.
    """

    __slots__ = ()

    @property
    def example_id(self) -> int:
        return self.example.example_id

    def to_dict(self) -> dict:
        ex = self.example
        return {
            "example_id": ex.example_id,
            "p": ex.p_text,
            "q": ex.q_text,
            "stated": ex.stated_text,
            "computed_scaled": str(self.computed),
            "stated_scaled": str(ex.stated_scaled),
            "scale": "2*sqrt(2)",
            "exact_match": self.exact_match,
            "magnitude_match": self.magnitude_match,
            "sign_mismatch_components": list(self.sign_mismatch_components),
            "concurrence_one": self.concurrence_one,
            "note": self.note,
        }

    @property
    def passed(self) -> bool:
        # An exactly reproduced example passes outright; a flagged one
        # passes the audit when only signs disagree.
        return self.concurrence_one and (self.exact_match
                                         or self.magnitude_match)


class ExamplesReport(namedtuple("ExamplesReport", "examples")):
    """What ``verify_examples`` returns: ``examples``, a tuple of
    ExampleResults."""

    __slots__ = ()

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.examples)

    def to_dict(self) -> dict:
        return {
            "examples": [e.to_dict() for e in self.examples],
            "all_pass": self.all_pass,
        }

    def to_text(self) -> str:
        lines = ["golden example audit (exact arithmetic, values scaled "
                 "by 2*sqrt(2))", ""]
        for e in self.examples:
            ex = e.example
            lines.append(f"example {ex.example_id}: p = {ex.p_text}, "
                         f"q = {ex.q_text}")
            lines.append(f"  stated   {ex.stated_scaled}")
            lines.append(f"  computed {e.computed}")
            status = "exact match" if e.exact_match else (
                "magnitudes match, sign differs at component(s) "
                + ",".join(str(k) for k in e.sign_mismatch_components)
                if e.magnitude_match else "MISMATCH")
            lines.append(f"  {status}; concurrence "
                         f"{'= 1 exactly' if e.concurrence_one else 'NOT 1'}")
            if e.note:
                lines.append(f"  note: {e.note}")
        lines.append("")
        lines.append("overall: " + ("pass" if self.all_pass else "FAIL"))
        return "\n".join(lines)


def verify_examples() -> ExamplesReport:
    """Recompute the three golden examples with the exact oracle.

    Examples 1 and 3 must reproduce coordinate by coordinate.  Example
    2's recomputation differs from its stated output in the sign of the
    fourth component only; the report flags the discrepancy (magnitudes
    and concurrence still agree) instead of rewriting either side.

    The audit runs on the integer numerators and denominators: each
    side's values are compared cross-multiplied, and no Fraction is built.
    """
    results = []
    for ex in GOLDEN_EXAMPLES:
        computed = _exact_pqp(ex, ex.alpha, ex.beta, 1, 1)
        n, e = computed.nums, computed.den
        m, d = ex.stated_scaled.nums, ex.stated_scaled.den

        # Component k is (n[k] + n[k+4] i) / e on one side and
        # (m[k] + m[k+4] i) / d on the other.
        exact = computed == ex.stated_scaled
        mags_ok = True
        signs = []
        for k in range(4):
            got_re, got_im, want_re, want_im = n[k], n[k + 4], m[k], m[k + 4]
            got2 = got_re * got_re + got_im * got_im
            if got2 * d * d != (want_re * want_re + want_im * want_im) * e * e:
                mags_ok = False
            elif got_re * d != want_re * e or got_im * d != want_im * e:
                signs.append(k + 1)

        # Concurrence of the normalized result, 4*|c1*c4 - c2*c3|^2 /
        # (sum |ck|^2)^2: both sides have degree 4 in the coordinates, so
        # the denominator e drops out.  A zero product is not a state and
        # does not pass.
        a1, a2, a3, a4, b1, b2, b3, b4 = n
        delta_re = a1 * a4 - b1 * b4 - a2 * a3 + b2 * b3
        delta_im = a1 * b4 + b1 * a4 - a2 * b3 - b2 * a3
        total = sum(x * x for x in n)
        concurrence_one = total != 0 and (
            4 * (delta_re * delta_re + delta_im * delta_im) == total * total)

        note = ""
        if not exact and mags_ok:
            note = ("stated sign differs from the exact recomputation; "
                    "kept as data, not corrected")
        results.append(ExampleResult(
            example=ex,
            computed=computed,
            exact_match=exact,
            magnitude_match=mags_ok,
            sign_mismatch_components=tuple(signs),
            concurrence_one=concurrence_one,
            note=note,
        ))
    return ExamplesReport(tuple(results))
