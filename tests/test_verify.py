"""The eight-case report and the golden example audit."""

import _ast
import ast
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import FunctionType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from biquat import _codegen, cli, exact, verify
from biquat.entanglement import (StateAmp, Variant, check_restrictions,
                                 embed_state, place_pair)
from biquat.exact import ExactBiQuat, ExactScalar, oracle_mul
from biquat.quaternion import Quat
from biquat.verify import (ENTANGLE_CASES, GOLDEN_EXAMPLES, IDENTITY_POINTS,
                           _identity_points, closed_form_product,
                           verify_examples, verify_theorem)


def test_case_table_shape():
    assert len(ENTANGLE_CASES) == 8
    assert [c.case_id for c in ENTANGLE_CASES] == list(range(1, 9))
    pairings = {(c.variant, c.p_support) for c in ENTANGLE_CASES}
    assert len(pairings) == 8
    for c in ENTANGLE_CASES:
        # R3: supports share exactly one direction.
        assert len(set(c.variant.positions) & set(c.p_support)) == 1


def test_flagged_cases_carry_their_source_text():
    flagged = {c.case_id for c in ENTANGLE_CASES if c.stated_form}
    assert flagged == {2, 6}
    for c in ENTANGLE_CASES:
        if c.case_id in flagged:
            assert c.note
        else:
            assert c.stated_form is None


def test_closed_form_spot_value():
    # Case 1 with alpha=3i/5, beta=4i/5, a=(3/5, 4/5): on the unit
    # circle the n2 factor collapses to 1 and the components are
    # (-7*alpha/25, beta, 24*alpha/25, 0).
    alpha = ExactScalar.of(0, Fraction(3, 5))
    beta = ExactScalar.of(0, Fraction(4, 5))
    out = closed_form_product(1, alpha, beta, (Fraction(3, 5), Fraction(4, 5)))
    want = ExactBiQuat((0, 0, 0, 0,
                        Fraction(-21, 125), Fraction(4, 5),
                        Fraction(72, 125), 0))
    assert out == want


def test_closed_form_is_homogeneous():
    # Scaling the rotor pair by t multiplies every component by t^2.
    alpha = ExactScalar.of(1, 2)
    beta = ExactScalar.of(Fraction(1, 3))
    base = closed_form_product(4, alpha, beta, (2, 5))
    scaled = closed_form_product(4, alpha, beta, (6, 15))
    assert scaled.coords == tuple(9 * c for c in base.coords)


def test_closed_form_text_matches_the_code_form():
    # closed_form_product evaluates the report's closed_form string
    # itself; evaluate the text here too and compare exactly.
    for case in ENTANGLE_CASES:
        i, j = case.p_support
        for alpha, beta, ai, aj in _identity_points():
            names = {"alpha": alpha, "beta": beta, f"a{i}": ai, f"a{j}": aj}
            comps = eval(case.closed_form.replace("^", "**"), {}, names)
            got = ExactBiQuat.from_scalars(
                [c if isinstance(c, ExactScalar) else ExactScalar.of(c)
                 for c in comps])
            assert got == closed_form_product(case.case_id, alpha, beta,
                                              (ai, aj)), case.case_id


def test_closed_form_invalid_case():
    # Only an int names a case, not a value that merely equals one.
    for case_id in (9, 0, -1, "1", None, 1.5, [1], True, 1.0, Fraction(1),
                    2 + 0j):
        with pytest.raises(ValueError, match="invalid case id"):
            closed_form_product(case_id, ExactScalar.of(1), ExactScalar.of(0),
                                (1, 0))


_UNKNOWN_NAMES = {
    "(alpha, beta, a2, 0)": "a2",          # a2 is not a symbol of case 1
    "(abs(alpha), beta, a1, a3)": "abs",   # no builtins
    # Two unknown names: the scan is breadth-first, so the entry's own
    # name is found before the deeper one of the entry before it.
    "(alpha, (gamma + 1), delta, 0)": "delta",
}


@pytest.mark.parametrize("text, name", _UNKNOWN_NAMES.items(),
                         ids=list(_UNKNOWN_NAMES))
def test_closed_form_may_name_only_its_own_symbols(text, name):
    case = ENTANGLE_CASES[0]._replace(closed_form=text)
    with pytest.raises(NameError) as caught:
        case.evaluate(ExactScalar.of(1), ExactScalar.of(0), (1, 0))
    assert str(caught.value) == f"name {name!r} is not defined"


class _Lift(ast.NodeTransformer):
    """Every int literal becomes ``S(literal)`` and ``x**n`` becomes
    ``power(x, n)``, so Python's own eval runs a closed-form text over
    ExactScalar and Fraction."""

    def visit_Constant(self, node):
        return ast.Call(ast.Name("S", ast.Load()), [node], [])

    def visit_BinOp(self, node):
        if isinstance(node.op, ast.Pow):
            return ast.Call(ast.Name("power", ast.Load()),
                            [self.visit(node.left), node.right], [])
        return self.generic_visit(node)


def _power(x, n):
    out = ExactScalar.of(1)
    for _ in range(n):
        out = out * x
    return out


def _reference_eval(text, p_support, alpha, beta, ai, aj):
    i, j = p_support
    tree = _Lift().visit(ast.parse(text.replace("^", "**"), mode="eval"))
    names = {"S": ExactScalar.of, "power": _power, "alpha": alpha,
             "beta": beta, f"a{i}": ExactScalar.of(ai),
             f"a{j}": ExactScalar.of(aj)}
    code = compile(ast.fix_missing_locations(tree), "<reference>", "eval")
    return ExactBiQuat.from_scalars(eval(code, {"__builtins__": {}}, names))


# Texts that are not homogeneous, with complex powers, zero entries and
# zero exponents, written in each case's own symbols.
_MUTATED = (
    "(alpha + 1, beta*a{i}^3 - a{j}, -(a{i} - 2)^2, 7)",
    "(alpha^3 - beta^2*a{j}, (alpha - beta)^2, a{i}^0*beta + 0^0, "
    "alpha*beta - 3)",
    "(0, -alpha, (alpha*a{i} - beta)^5, -(beta*(a{j} + a{i}))^2 + a{j}^4)",
)
_TEXTS = [(case, case.closed_form) for case in ENTANGLE_CASES] + [
    (case, text.format(i=case.p_support[0], j=case.p_support[1]))
    for case in ENTANGLE_CASES for text in _MUTATED]


@given(st.sampled_from(_TEXTS),
       st.lists(st.fractions(-97, 97, max_denominator=97), min_size=6,
                max_size=6))
def test_compiled_form_equals_the_reference_eval(case_text, r):
    case, text = case_text
    alpha, beta = ExactScalar(r[0], r[1]), ExactScalar(r[2], r[3])
    got = case._replace(closed_form=text).evaluate(alpha, beta, (r[4], r[5]))
    assert got == _reference_eval(text, case.p_support, alpha, beta,
                                  r[4], r[5])


_EXPONENT = "an exponent must be a non-negative int literal"
_SHAPE = "expected a tuple of 4 entries"
_UNSUPPORTED = [
    (1, "(alpha.re, beta, a1, a3)", "unsupported syntax 'alpha.re'"),
    (1, "(alpha(beta), beta, a1, a3)", "unsupported syntax 'alpha(beta)'"),
    (1, "(alpha/2, beta, a1, a3)", "unsupported operator 'alpha / 2'"),
    (1, "(0.5, beta, a1, a3)", "unsupported syntax '0.5'"),
    (1, "(a1^a3, beta, a1, a3)", _EXPONENT),  # not a literal
    (1, "(a1^-2, beta, a1, a3)", _EXPONENT),  # negative
    (1, "(+alpha, beta, a1, a3)", "unsupported syntax '+alpha'"),
    (1, "(True, beta, a1, a3)", "unsupported syntax 'True'"),  # a bool
    (1, "(alpha, beta, a1)", _SHAPE),  # three entries
    (1, "[alpha, beta, a1, a3]", _SHAPE),  # a list
    (2, ENTANGLE_CASES[1].stated_form, _SHAPE),  # the five-entry misprint
]


@pytest.mark.parametrize("case_id, text, message", _UNSUPPORTED,
                         ids=[f"{c}-{t}" for c, t, _ in _UNSUPPORTED])
def test_closed_form_rejects_unsupported_syntax(case_id, text, message):
    case = ENTANGLE_CASES[case_id - 1]._replace(closed_form=text)
    with pytest.raises(ValueError) as caught:
        case.evaluate(ExactScalar.of(1), ExactScalar.of(0), (1, 0))
    assert str(caught.value) == f"closed form: {message}"


@pytest.mark.parametrize("text", dict.fromkeys([
    *(case.closed_form for case in ENTANGLE_CASES),
    *(case.stated_form for case in ENTANGLE_CASES if case.stated_form),
    *(text for _, text, _ in _UNSUPPORTED), *_UNKNOWN_NAMES,
    "(alpha, beta, a1 a3, 0)"]))
def test_closed_form_tree_and_walk_are_asts(text):
    # The verifier reads each text without ast: the tree _codegen.parse
    # gives, and the order _walk visits it in, are ast's own.
    text = text.replace("^", "**")
    try:
        want = ast.parse(text, "<closed form>", mode="eval")
    except SyntaxError as error:
        with pytest.raises(SyntaxError) as caught:
            _codegen.parse(text, "<closed form>")
        assert caught.value.args == error.args
        return
    tree = _codegen.parse(text, "<closed form>")
    assert (ast.dump(tree, include_attributes=True)
            == ast.dump(want, include_attributes=True))
    assert list(map(id, verify._walk(tree))) == list(map(id, ast.walk(tree)))


def test_the_verifiers_node_classes_are_asts():
    # ast re-exports _ast's classes; the ones the verifier matches must be
    # those very classes, or no node would match them.
    used = {name for f in (verify._expand, verify._expansion, verify._walk)
            for name in _code_names(f.__code__)
            if isinstance(getattr(_ast, name, None), type)}
    assert used == {"AST", "Add", "BinOp", "Constant", "Mult", "Name", "Pow",
                    "Sub", "Tuple", "USub", "UnaryOp"}
    for name in used:
        assert getattr(_ast, name) is getattr(ast, name), name


@pytest.mark.parametrize("a", [
    (2, -5),
    (0.1, -1.25),
    ("1/3", "-2"),
    (Decimal("0.1"), Decimal("-7.5")),
])
def test_closed_form_reads_a_through_fraction(a):
    alpha, beta = ExactScalar.of(1, 2), ExactScalar.of(Fraction(1, 3), -1)
    exact = tuple(Fraction(x) for x in a)
    for case in ENTANGLE_CASES:
        assert (closed_form_product(case.case_id, alpha, beta, a)
                == closed_form_product(case.case_id, alpha, beta, exact))


@pytest.mark.parametrize("bad, error", [
    ("x", ValueError), (float("nan"), ValueError),
    (float("inf"), OverflowError)])
def test_closed_form_refuses_what_fraction_refuses(bad, error):
    with pytest.raises(error):
        closed_form_product(1, ExactScalar.of(1), ExactScalar.of(0), (bad, 1))


def _code_names(code):
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _code_names(const)
    return names


def test_compiler_is_independent_of_the_oracle():
    # The identity route compares two sides; the closed-form side must
    # not reach the oracle's table or product, or it checks nothing.
    case = ENTANGLE_CASES[0]
    compiled = verify._compiled(case.closed_form, *case.p_support)
    assert compiled.__module__ == "biquat.verify"
    # The compiler, and every function of verify that it calls, directly
    # or through another: the expansion helpers among them.
    helpers, todo = {}, [verify._compiled.__wrapped__]
    while todo:
        f = todo.pop()
        helpers[f.__name__] = f
        todo += [g for name in _code_names(f.__code__)
                 if isinstance(g := vars(verify).get(name), FunctionType)
                 and g.__module__ == verify.__name__ and name not in helpers]
    assert {"_expansion", "_expand", "_plus", "_times",
            "_numerator"} <= set(helpers)
    for code in (compiled.__code__, *(f.__code__ for f in helpers.values())):
        assert not {"STRUCTURE", "oracle_mul"} & _code_names(code)


def test_closed_forms_have_the_degrees_of_p_q_p():
    # Each coordinate of p q p is linear in alpha, linear in beta and
    # quadratic in the rotor pair, so every monomial of every text has
    # these degrees in (alpha.re, alpha.im, beta.re, beta.im, a_i, a_j).
    for case in ENTANGLE_CASES:
        entries = verify._expansion(case.closed_form, *case.p_support)
        assert sum(map(len, entries)) == 10, case.case_id
        for entry in entries:
            for ex, _ in entry:
                assert ex[0] + ex[1] <= 1 and ex[2] + ex[3] <= 1, ex
                assert max(ex[4:]) <= 2 and sum(ex) == 3, ex
    # A mutant shows its raised degrees.
    exs = [ex for ex, _ in verify._expansion(_MUTATED[2].format(i=1, j=3),
                                               1, 3)[2]]
    assert max(ex[0] + ex[1] for ex in exs) == 5
    assert max(ex[2] + ex[3] for ex in exs) == 5
    assert max(ex[4] for ex in exs) == 5
    assert max(map(sum, exs)) == 10


def test_the_gate_admits_exactly_the_case_table():
    # The 4 state variants against the 6 two-direction rotor supports,
    # every amplitude 1/sqrt(2): the gate passes the 8 pairings of the
    # case table, in case-id order, and no other.
    s = 1 / math.sqrt(2)
    passed = [(v, sup) for v in Variant
              for sup in itertools.combinations(range(1, 5), 2)
              if check_restrictions(Quat(*place_pair(sup, s, s, 0.0)),
                                    embed_state(StateAmp(s, s, v))).passed]
    assert passed == [(c.variant, c.p_support) for c in ENTANGLE_CASES]


def test_import_compiles_no_closed_form():
    # Forms compile on first use: importing pays for none of them.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run(
        [sys.executable, "-c", "import biquat.verify as v; "
         "print(v._compiled.cache_info().currsize)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "0\n"


def test_report_checks_the_closed_form_text_it_prints(monkeypatch):
    # Flip one sign in case 3's text: the identity route must evaluate
    # that very text, so case 3, and only case 3, fails with exact
    # counterexamples, and the report prints the flipped text.
    case = ENTANGLE_CASES[2]
    flipped = case.closed_form.replace("(-2*alpha*", "(2*alpha*", 1)
    assert flipped != case.closed_form
    cases = (*ENTANGLE_CASES[:2], case._replace(closed_form=flipped),
             *ENTANGLE_CASES[3:])
    monkeypatch.setattr(verify, "ENTANGLE_CASES", cases)
    report = verify_theorem(samples=5, seed=3)
    assert [c.case.case_id for c in report.cases if not c.passed] == [3]
    bad = report.cases[2]
    assert not bad.identity_pass and bad.law_pass
    assert bad.identity_failures
    assert all("oracle=" in f for f in bad.identity_failures)
    text = report.to_text()
    assert "case 3  q=V34 p={1,3}  identity: FAIL" in text
    assert text.count("counterexample: point") == len(bad.identity_failures)
    assert "overall: 7/8 cases pass" in text
    assert report.to_dict()["cases"][2]["closed_form"] == flipped


_RATIONALS = st.builds(Fraction, st.integers(-97, 97), st.integers(1, 97))


@given(st.sampled_from(ENTANGLE_CASES), st.lists(_RATIONALS, min_size=6,
                                                  max_size=6))
def test_closed_forms_equal_the_oracle_at_drawn_rationals(case, r):
    alpha, beta = ExactScalar(r[0], r[1]), ExactScalar(r[2], r[3])
    zero = ExactScalar.of(0)
    p = ExactBiQuat.from_scalars(place_pair(
        case.p_support, ExactScalar.of(r[4]), ExactScalar.of(r[5]), zero))
    q = ExactBiQuat.from_scalars(
        place_pair(case.variant.positions, alpha, beta, zero))
    assert oracle_mul(oracle_mul(p, q), p) == closed_form_product(
        case.case_id, alpha, beta, (r[4], r[5]))


_STATE_BASIS = ((ExactScalar.of(1), ExactScalar.of(0)),
                (ExactScalar.of(0, 1), ExactScalar.of(0)),
                (ExactScalar.of(0), ExactScalar.of(1)),
                (ExactScalar.of(0), ExactScalar.of(0, 1)))
_ROTOR_BASIS = ((1, 0), (0, 1), (1, 1))


def test_identity_points_are_the_basis():
    assert _identity_points() == [(alpha, beta, ai, aj)
                                  for alpha, beta in _STATE_BASIS
                                  for ai, aj in _ROTOR_BASIS]
    assert len(_identity_points()) == IDENTITY_POINTS == 12


@given(st.sampled_from(ENTANGLE_CASES), st.lists(_RATIONALS, min_size=6,
                                                  max_size=6))
def test_twelve_oracle_values_determine_p_q_p(case, r):
    # The premise of the identity route, with no closed form: p q p is
    # linear in the four state parts and a quadratic form in (a_i, a_j),
    # so it is the interpolant of its values v(b, a) at the 12 points:
    # sum_b q_b [v(b,(1,0)) a_i^2 + v(b,(0,1)) a_j^2
    #            + (v(b,(1,1)) - v(b,(1,0)) - v(b,(0,1))) a_i a_j].
    ai, aj = r[4], r[5]
    total = [Fraction(0)] * 8
    for q_b, (alpha, beta) in zip(r[:4], _STATE_BASIS):
        v10, v01, v11 = (verify._exact_pqp(case, alpha, beta, *a).coords
                         for a in _ROTOR_BASIS)
        for m in range(8):
            total[m] += q_b * (v10[m] * ai * ai + v01[m] * aj * aj
                               + (v11[m] - v10[m] - v01[m]) * ai * aj)
    alpha, beta = ExactScalar(r[0], r[1]), ExactScalar(r[2], r[3])
    assert ExactBiQuat(total) == verify._exact_pqp(case, alpha, beta, ai, aj)


def _scalar(text):
    """The ExactScalar whose str is ``text``: "r", "si" or "r+si"."""
    m = re.fullmatch(r"(-?[\d/]+)?(?:([+-]?[\d/]+)i)?", text)
    return ExactScalar(Fraction(m[1] or 0), Fraction(m[2] or 0))


def _replay(case_dict, line):
    """Check one identity failure line against the case's report entry
    alone: its closed-form text, p_support and q_variant."""
    text, (i, j) = case_dict["closed_form"], case_dict["p_support"]
    if m := re.fullmatch(r"point \d+: alpha=(\S+) beta=(\S+) "
                         r"a=\((\S+),(\S+)\) oracle=(\(.*\)) "
                         r"closed-form=(\(.*\))", line):
        alpha, beta = _scalar(m[1]), _scalar(m[2])
        ai, aj = Fraction(m[3]), Fraction(m[4])
        zero = ExactScalar.of(0)
        p = ExactBiQuat.from_scalars(place_pair(
            (i, j), ExactScalar.of(ai), ExactScalar.of(aj), zero))
        q = ExactBiQuat.from_scalars(place_pair(
            Variant[case_dict["q_variant"]].positions, alpha, beta, zero))
        oracle = oracle_mul(oracle_mul(p, q), p)
        form = _reference_eval(text, (i, j), alpha, beta, ai, aj)
        assert (str(oracle), str(form)) == (m[5], m[6]) and oracle != form
        return "point"
    m = re.fullmatch(r"entry (\d): term (-?\d+)((?:\*\S+)*) has degree "
                     rf"\((\d+), (\d+)\) in \(alpha, beta; a{i}, a{j}\), "
                     r"not \(1, 2\)", line)
    names = ("alpha.re", "alpha.im", "beta.re", "beta.im", f"a{i}", f"a{j}")
    factors = m[3].split("*")[1:]
    part = factors.count("i")
    ex = tuple(sum(int(f.partition("^")[2] or 1) for f in factors
                   if f.partition("^")[0] == n) for n in names)
    assert (sum(ex[:4]), sum(ex[4:])) == (int(m[4]), int(m[5])) != (1, 2)
    entry = verify._expansion(text, i, j)[int(m[1]) - 1]
    assert entry[ex, part] == int(m[2])
    return "term"


# One mutant of each kind: the case it is made in, the text replaced and
# its replacement, and the points that still agree and the wrong terms.
# A flipped sign, a term of too high a degree, and a term of the wrong
# degrees that is zero at all 12 points, so only the degree check sees it
# (alpha*beta expands into four real terms).  The last two are wrong in
# one degree only and agree at all 12 points too: a1^3 = a1^2 for a1 in
# {0, 1}, and alpha or beta is zero at each point.
_CASE_MUTANTS = {
    "sign-flip": (3, "(-2*alpha*", "(2*alpha*", 10, 0),
    "degree-raising": (1, "(alpha*(a1^2-a3^2)", "(alpha*(a1^2-a3^2) + a1^3",
                       4, 1),
    "zero-on-the-points": (1, "(alpha*(a1^2-a3^2)",
                           "(alpha*(a1^2-a3^2) + alpha*beta*a1", 12, 4),
    "rotor-degree-only": (5, "(alpha*(a1^2", "(alpha*(a1^3", 12, 2),
    "state-degree-only": (1, "(alpha*(a1^2-a3^2)",
                          "(alpha*(a1^2-a3^2) + alpha*beta*a1*a3", 12, 4),
}


@pytest.mark.parametrize("case_id, old, new, exact, terms",
                         _CASE_MUTANTS.values(), ids=_CASE_MUTANTS)
def test_each_mutant_fails_only_its_own_case(monkeypatch, case_id, old, new,
                                             exact, terms):
    case = ENTANGLE_CASES[case_id - 1]
    mutant = case._replace(closed_form=case.closed_form.replace(old, new, 1))
    assert mutant.closed_form != case.closed_form
    cases = list(ENTANGLE_CASES)
    cases[case_id - 1] = mutant
    monkeypatch.setattr(verify, "ENTANGLE_CASES", tuple(cases))
    report = verify_theorem(samples=5, seed=3)
    assert [c.case.case_id for c in report.cases if not c.passed] == [case_id]
    bad = report.cases[case_id - 1]
    assert not bad.identity_pass and bad.law_pass
    # Each failure line reproduces from the report's own entry.
    case_dict = report.to_dict()["cases"][case_id - 1]
    kinds = [_replay(case_dict, line)
             for line in case_dict["identity"]["failures"]]
    assert (kinds.count("point"), kinds.count("term")) == (
        IDENTITY_POINTS - exact, terms)
    # The text counts the points that agree, not the terms.
    text = report.to_text()
    assert (f"case {case_id}  q={case.variant.name} p={{{case.p_support[0]},"
            f"{case.p_support[1]}}}  identity: FAIL ({exact}/"
            f"{IDENTITY_POINTS} exact)") in text
    assert text.count("        counterexample: ") == len(kinds)
    # The CLI reports the failure with exit 3.
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["verify-theorem", "--samples", "5"]) == 3
    assert "overall: 7/8 cases pass" in out.getvalue()


def test_a_degree_failure_writes_a_first_power_bare():
    # a1, not a1^1: a factor's exponent shows only above 1.
    case = ENTANGLE_CASES[4]
    mutant = case._replace(closed_form=case.closed_form.replace(
        "(alpha*(a1^2-a2^2)", "(alpha*(a1^2-a2^2) + alpha*a1", 1))
    assert verify._shape_failures(mutant) == [
        f"entry 1: term 1*{part}*a1 has degree (1, 1) in "
        "(alpha, beta; a1, a2), not (1, 2)"
        for part in ("alpha.re", "i*alpha.im")]


@pytest.mark.parametrize("every", [1, 2])
def test_a_nan_law_sample_fails_its_case(monkeypatch, every):
    # A concurrence kernel that returns NaN on every call, or on every
    # other call, so that finite errors follow the NaN: each case's law
    # verdict fails, the report shows the NaN, and the CLI exits 3.
    calls = itertools.count()

    def nan_kernel(key, concurrence):
        return lambda p, q: math.nan if next(calls) % every == 0 else 0.0

    monkeypatch.setattr(verify, "_kernel", nan_kernel)
    report = verify_theorem(samples=50, seed=7)
    assert not report.all_pass
    for c in report.cases:
        assert c.identity_pass and not c.law_pass
        assert math.isnan(c.law_max_error)
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["verify-theorem", "--samples", "50"]) == 3
    text = out.getvalue()
    assert text.count("law: FAIL (max err nan)") == 8
    assert "overall: 0/8 cases pass" in text


def test_verify_theorem_passes():
    report = verify_theorem(samples=25, seed=3)
    assert report.all_pass
    assert len(report.cases) == 8
    for case in report.cases:
        assert case.identity_pass
        assert case.identity_points == IDENTITY_POINTS >= 9
        assert case.identity_failures == ()
        assert case.law_pass
        assert case.law_samples == 25
        assert case.law_max_error <= 1e-10


def test_verify_theorem_rejects_bad_samples():
    with pytest.raises(ValueError, match="at least 1"):
        verify_theorem(samples=0)


@pytest.mark.parametrize("kwargs", [
    {"samples": True}, {"samples": 2.0}, {"samples": "5"},
    {"seed": None}, {"seed": 1.5}, {"seed": [1]}, {"seed": False}], ids=repr)
def test_verify_theorem_takes_only_int_samples_and_seed(kwargs):
    with pytest.raises(TypeError, match="must be int"):
        verify_theorem(**kwargs)


def test_verify_theorem_deterministic():
    a = verify_theorem(samples=20, seed=5)
    b = verify_theorem(samples=20, seed=5)
    assert a.to_text() == b.to_text()
    assert a.to_dict() == b.to_dict()


# sha256 of repr(verify_theorem(1000, seed)), recorded on Python 3.11.
# Each draw's norm is one left-to-right sum, so the report is the same on
# every version; sum() of floats, compensated from 3.12 on, changed the
# reports of seeds 7, 11 and 2024.
_THEOREM_REPORT_SHA256 = {
    1: "19cfdea6e9d692e8a7c384a5d7fbb3dfdcaf9c1fa804a7b3e82e1c5525762b3b",
    7: "466876ff38ff19ac270d8004abb4d39c394779c35c66d334b114f62a9fac7daa",
    11: "01a4536cbdf47627a0a93c112826704acbd72600d0a5b0e31a6b7fc5b62c76ff",
    2024: "158dc15e273c26c352e5523fd23d68f0c2d1829f5100eb3d99bbe6e7911a257d",
}


@pytest.mark.parametrize("seed", sorted(_THEOREM_REPORT_SHA256))
def test_verify_theorem_report_is_the_same_on_every_version(seed):
    got = repr(verify_theorem(1000, seed)).encode()
    assert hashlib.sha256(got).hexdigest() == _THEOREM_REPORT_SHA256[seed]


def test_verify_theorem_report_rendering():
    report = verify_theorem(samples=10, seed=1)
    text = report.to_text()
    assert "overall: 8/8 cases pass" in text
    assert "case 6" in text
    d = json.loads(json.dumps(report.to_dict()))
    assert d["all_pass"] is True
    assert d["passed_cases"] == 8
    assert d["cases"][1]["stated_form"] is not None
    assert d["cases"][0]["stated_form"] is None


def test_golden_examples_table():
    assert len(GOLDEN_EXAMPLES) == 3
    assert [e.example_id for e in GOLDEN_EXAMPLES] == [1, 2, 3]
    assert GOLDEN_EXAMPLES[0].variant is Variant.V12
    assert GOLDEN_EXAMPLES[1].variant is Variant.V13
    assert GOLDEN_EXAMPLES[2].variant is Variant.V24


def test_verify_examples_outcomes():
    report = verify_examples()
    assert report.all_pass
    by_id = {e.example_id: e for e in report.examples}

    assert by_id[1].exact_match
    assert by_id[1].sign_mismatch_components == ()
    assert by_id[3].exact_match

    # Example 2's stated output disagrees with the exact recomputation
    # in the sign of the last component; the audit records that instead
    # of hiding it.
    two = by_id[2]
    assert not two.exact_match
    assert two.magnitude_match
    assert two.sign_mismatch_components == (4,)
    assert two.note

    for e in report.examples:
        assert e.concurrence_one


def test_verify_examples_rendering():
    report = verify_examples()
    text = report.to_text()
    assert "overall: pass" in text
    assert "sign differs at component(s) 4" in text
    d = json.loads(json.dumps(report.to_dict()))
    assert d["all_pass"] is True
    assert d["examples"][1]["sign_mismatch_components"] == [4]
    assert d["examples"][0]["exact_match"] is True


def _fraction_audit(ex):
    """The audit of one golden example in ExactScalar and Fraction
    arithmetic: the reference for ``verify_examples``, which audits the
    same values in integers.  A zero product raises ZeroDivisionError."""
    one, zero = ExactScalar.of(1), ExactScalar.of(0)
    p = ExactBiQuat.from_scalars(place_pair(ex.p_support, one, one, zero))
    q = ExactBiQuat.from_scalars(
        place_pair(ex.variant.positions, ex.alpha, ex.beta, zero))
    computed = oracle_mul(oracle_mul(p, q), p)
    mags_ok = True
    signs = []
    for k in (1, 2, 3, 4):
        got = computed.component(k)
        want = ex.stated_scaled.component(k)
        if got.abs2() != want.abs2():
            mags_ok = False
        elif got != want and got.abs2() != 0:
            signs.append(k)
    s = computed.scalars()
    delta = s[0] * s[3] - s[1] * s[2]
    total = sum(sc.abs2() for sc in s)
    c_squared = 4 * delta.abs2() / (total * total)
    return (computed, computed == ex.stated_scaled, mags_ok, tuple(signs),
            c_squared == 1)


def _stated_mutations(ex):
    """Stated values near ``ex.stated_scaled``: each component negated,
    turned by i, tripled or zeroed, and the same value held unreduced
    over three times the denominator."""
    nums, den = ex.stated_scaled.nums, ex.stated_scaled.den
    out = []
    for k in range(4):
        re, im = nums[k], nums[k + 4]
        for new in ((-re, -im), (-im, re), (3 * re, 3 * im), (0, 0)):
            n = list(nums)
            n[k], n[k + 4] = new
            out.append(ExactBiQuat.from_ratio(n, den))
    out.append(exact._canonical(tuple(3 * n for n in nums), 3 * den))
    return out


# State amplitudes other than the examples' own.  The product is
# unentangled (beta = 0), entangled but not maximally (|alpha| != |beta|),
# or maximally entangled with complex coordinates (|alpha| = |beta|).
_OTHER_AMPLITUDES = (
    (ExactScalar.of(1), ExactScalar.of(0)),
    (ExactScalar.of(1), ExactScalar.of(0, 2)),
    (ExactScalar.of(3, 4), ExactScalar.of(-5, Fraction(1, 2))),
    (ExactScalar.of(Fraction(1, 3), 1), ExactScalar.of(1, -1)),
    (ExactScalar.of(3, 4), ExactScalar.of(5)),
    (ExactScalar.of(1, 2), ExactScalar.of(-2, 1)),
    (ExactScalar.of(Fraction(-3, 5), Fraction(4, 5)), ExactScalar.of(0, -1)),
)


def test_integer_audit_equals_the_fraction_audit(monkeypatch):
    cases = []
    for base in GOLDEN_EXAMPLES:
        cases.append(base)
        cases += [base._replace(stated_scaled=v)
                  for v in _stated_mutations(base)]
        cases += [base._replace(alpha=a, beta=b) for a, b in _OTHER_AMPLITUDES]
    monkeypatch.setattr(verify, "GOLDEN_EXAMPLES", tuple(cases))
    report = verify_examples()
    assert len(report.examples) == len(cases)
    seen = set()
    for ex, got in zip(cases, report.examples):
        assert got.example is ex
        want = _fraction_audit(ex)
        assert (got.computed, got.exact_match, got.magnitude_match,
                got.sign_mismatch_components, got.concurrence_one) == want
        seen.add((want[1], want[2], bool(want[3]), want[4]))
    # The cases reach every verdict the audit can give.
    assert {(True, True, False, True), (False, True, True, True),
            (False, True, False, True), (False, False, False, True),
            (False, False, False, False)} <= seen


def test_zero_product_is_not_concurrence_one(monkeypatch):
    zero = ExactScalar.of(0)
    ex = GOLDEN_EXAMPLES[0]._replace(alpha=zero, beta=zero)
    with pytest.raises(ZeroDivisionError):
        _fraction_audit(ex)
    monkeypatch.setattr(verify, "GOLDEN_EXAMPLES", (ex,))
    report = verify_examples()
    (result,) = report.examples
    assert result.computed == ExactBiQuat((0,) * 8)
    assert result.concurrence_one is False
    assert not report.all_pass
    assert "concurrence NOT 1" in report.to_text()


def _fractions_made(fn):
    """Fractions created while ``fn()`` runs, counted by a profile hook on
    ``Fraction.__new__`` and, where it exists, on the constructor that
    Fraction arithmetic uses past ``__new__``."""
    makers = {Fraction.__new__.__code__}
    if hasattr(Fraction, "_from_coprime_ints"):
        makers.add(Fraction._from_coprime_ints.__code__)
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code in makers:
            calls += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_examples_audit_and_reports_make_no_fraction():
    def run():
        report = verify_examples()
        report.to_text()
        report.to_dict()

    assert _fractions_made(lambda: ExactScalar.of(1, 2)) == 2
    assert _fractions_made(run) == 0
