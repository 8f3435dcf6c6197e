"""State embedding, restrictions, the sandwich map and its concurrence law."""

import cmath
import itertools
import json
import math
import random
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biquat import _codegen, entanglement, quaternion
from biquat.biquaternion import BiQuat, bmul, from_quat, norm_h
from biquat.entanglement import (ADMISSIBLE_P_SUPPORTS, EntangleOutcome,
                                 RestrictionError, RestrictionReport,
                                 StateAmp, Variant, check_restrictions, concurrence,
                                 embed_state, entangle, entangle_map,
                                 predicted_concurrence, support)
from biquat.quaternion import DEFAULT_TOL, Quat, norm, require_unit_norm

INV_SQRT2 = 1.0 / math.sqrt(2.0)
I_SQRT2 = 1j * INV_SQRT2

# The eight admissible pairings used across the law tests.
CASES = (
    (Variant.V12, (1, 3)), (Variant.V12, (2, 4)),
    (Variant.V34, (1, 3)), (Variant.V34, (2, 4)),
    (Variant.V13, (1, 2)), (Variant.V13, (3, 4)),
    (Variant.V24, (1, 2)), (Variant.V24, (3, 4)),
)


def _pqp(p, q) -> BiQuat:
    """The map q -> p q p as the paper composes it."""
    return bmul(bmul(p, q), p)


def _rotor(sup, ai, aj) -> Quat:
    c = [0.0] * 4
    c[sup[0] - 1] = ai
    c[sup[1] - 1] = aj
    return Quat(*c)


def _close(p: BiQuat, q: BiQuat, tol=1e-12) -> bool:
    return all(abs(a - b) <= tol for a, b in zip(p, q))


# --- embedding and support ---------------------------------------------

def test_variants_cover_the_admissible_pairs():
    assert {v.positions for v in Variant} == {(1, 2), (3, 4), (1, 3), (2, 4)}
    assert ADMISSIBLE_P_SUPPORTS == frozenset(
        {frozenset(v.positions) for v in Variant})


def test_embed_state_positions():
    q = embed_state(StateAmp(I_SQRT2, -I_SQRT2, Variant.V12))
    assert q == BiQuat(I_SQRT2, -I_SQRT2, 0, 0)
    q = embed_state(StateAmp(0.6, 0.8j, Variant.V24))
    assert q == BiQuat(0, 0.6, 0, 0.8j)


def test_state_amp_is_an_immutable_value():
    s = StateAmp(0.6, 0.8j, Variant.V24)
    assert s == StateAmp(0.6, 0.8j, Variant.V24)
    assert hash(s) == hash(StateAmp(0.6, 0.8j, Variant.V24))
    assert s != StateAmp(0.8j, 0.6, Variant.V24)
    assert repr(s) == ("StateAmp(alpha=0.6, beta=0.8j, "
                       "variant=<Variant.V24: (2, 4)>)")
    with pytest.raises(AttributeError):
        s.alpha = 1.0
    with pytest.raises(AttributeError):
        s.extra = 1


def test_embed_state_requires_normalization():
    with pytest.raises(ValueError, match="not normalized"):
        embed_state(StateAmp(1.0, 1.0, Variant.V12))


def test_support():
    assert support(BiQuat(1, 0, 0, 0)) == frozenset({1})
    assert support(BiQuat(0.5, 0, 1e-12, 0.5j)) == frozenset({1, 4})
    assert support(BiQuat(0, 0, 0, 0)) == frozenset()


def test_support_rule_is_an_absolute_tol():
    # |c| <= tol is outside the support, whatever the other coefficients.
    edge = DEFAULT_TOL
    above = math.nextafter(edge, 1.0)
    assert support(BiQuat(1, edge, 0, -edge * 1j)) == frozenset({1})
    assert support(BiQuat(1, above, 0, -above * 1j)) == frozenset({1, 2, 4})
    assert support(BiQuat(1e-300, 0, 0, 0), tol=0.0) == frozenset({1})


@pytest.mark.parametrize("small, r3", [(1e-10, True), (2e-9, False)])
def test_r3_verdict_switches_at_the_absolute_tol(small, r3):
    # Rotor {1,2} against a V12 state: a second amplitude within tol of
    # zero leaves the state support {1}, one shared direction, so R3
    # passes and entangle notes the degeneracy; above tol the supports
    # share two directions and R3 fails.
    p = Quat(INV_SQRT2, INV_SQRT2, 0, 0)
    q = embed_state(StateAmp(math.sqrt(1.0 - small * small), small,
                             Variant.V12))
    report = check_restrictions(p, q)
    assert report.r1_pass and report.r2_pass
    assert report.r3_pass is r3
    if r3:
        assert report.q_support == frozenset({1})
        assert "degenerate amplitudes" in entangle(p, q).report.detail
    else:
        assert "shares 2 directions" in report.detail
        with pytest.raises(RestrictionError):
            entangle(p, q)


def test_support_matches_the_frozenset_rule():
    edge = DEFAULT_TOL
    above = math.nextafter(edge, 1.0)
    values = (0.0, -0.0, edge, -above, 1.0, 5e-324, math.nan, math.inf,
              complex(0.0, edge), complex(above, 0.0), complex(math.nan, 0.0),
              complex(0.0, -math.nan))
    for parts in itertools.product(values, repeat=4):
        q = BiQuat(*parts)
        for tol in (0.0, DEFAULT_TOL):
            assert support(q, tol) == frozenset(
                k for k, c in enumerate(q, 1) if abs(c) > tol)


# --- the gate against a frozenset reference --------------------------------

def _reference_gate(p: Quat, q: BiQuat) -> tuple:
    """R1-R3 with supports as frozensets, the gate's original form."""
    require_unit_norm(norm(p), "rotor must be a unit quaternion")
    require_unit_norm(norm_h(q), "state must be normalized")
    c_p = 2.0 * abs(p.c1 * p.c4 - p.c2 * p.c3)
    ps = frozenset(k for k, c in enumerate(p, 1) if abs(c) > DEFAULT_TOL)
    qs = frozenset(k for k, c in enumerate(q, 1) if abs(c) > DEFAULT_TOL)
    r1 = c_p <= DEFAULT_TOL
    r2 = len(ps) >= 2
    r3 = len(ps & qs) == 1 and ps in ADMISSIBLE_P_SUPPORTS
    notes = []
    if not r1:
        notes.append(f"R1: rotor is entangled (concurrence {c_p:.3g})")
    if not r2:
        notes.append("R2: rotor is a single basis direction")
    if not r3:
        shared = len(ps & qs)
        if shared != 1:
            notes.append(f"R3: rotor support {sorted(ps)} shares "
                         f"{shared} directions with state support "
                         f"{sorted(qs)}, need exactly 1")
        else:
            notes.append(f"R3: rotor support {sorted(ps)} is not one of "
                         "the admissible pairs (1,2) (1,3) (2,4) (3,4)")
    return r1, r2, r3, ps, qs, c_p, "; ".join(notes) if notes else "ok"


# Off-support coefficients: zero, exactly at the tolerance (outside the
# support) and one float above it (inside).
_OFF = (0.0, DEFAULT_TOL, math.nextafter(DEFAULT_TOL, 1.0))


def _unit_on(mask: int, off: float, phases) -> list:
    """Equal amplitudes on the mask's directions, ``off`` elsewhere, with
    unit norm; mask 0 leaves only the off values, which is not unit."""
    on = [k for k in range(4) if mask >> k & 1]
    big = math.sqrt((1.0 - (4 - len(on)) * off * off) / len(on)) if on else 0
    return [big * phases[k] if k in on else off * phases[k]
            for k in range(4)]


def _outcome(fn, p, q):
    try:
        return "accepted", fn(p, q)
    except RestrictionError as e:
        return "rejected", str(e), e.report
    except ValueError as e:
        return "refused", str(e)


_VARIANT_SUPPORTS = frozenset(frozenset(v.positions) for v in Variant)


def _check_prediction(predicted, p, q, ps, qs) -> str:
    """Check predicted_concurrence's outcome on a pair the gate accepts
    against the law over the sorted supports; return the state's kind."""
    if len(qs) < 2:
        assert predicted == ("accepted", 0.0)
        return "degenerate"
    if qs not in _VARIANT_SUPPORTS:
        assert predicted == (
            "refused", f"state support {sorted(qs)} is not one of the "
            "variant pairs (1,2) (3,4) (1,3) (2,4): the law does not "
            "cover it")
        return "uncovered"
    amps = 1.0
    for k in sorted(qs):
        amps *= abs(q[k - 1])
    for k in sorted(ps):
        amps *= abs(p[k - 1])
    assert predicted[0] == "accepted"
    assert repr(predicted[1]) == repr(4.0 * amps)
    return "law"


def test_gate_equals_the_frozenset_reference_on_every_mask():
    rotor_signs = (1.0, -1.0, 1.0, -1.0)
    state_phases = (1j, -1.0, -1j, 1.0)
    verdicts, kinds, degenerate = set(), set(), 0
    for pm, p_off, qm, q_off in itertools.product(range(16), _OFF,
                                                  range(16), _OFF):
        p = Quat(*_unit_on(pm, p_off, rotor_signs))
        q = BiQuat(*_unit_on(qm, q_off, state_phases))
        try:
            want = _reference_gate(p, q)
        except ValueError as e:
            assert _outcome(check_restrictions, p, q) == ("refused", str(e))
            assert _outcome(entangle, p, q) == ("refused", str(e))
            assert _outcome(predicted_concurrence, p, q) == ("refused",
                                                            str(e))
            continue
        report = check_restrictions(p, q)
        assert tuple(report) == want
        verdicts.add(want[:3])
        got = _outcome(entangle, p, q)
        predicted = _outcome(predicted_concurrence, p, q)
        if not report.passed:
            assert got == ("rejected", f"rotor rejected: {want[-1]}", report)
            assert predicted == got
            continue
        kinds.add(_check_prediction(predicted, p, q, want[3], want[4]))
        outcome = got[1]
        if len(want[4]) < 2:
            degenerate += 1
            assert outcome.report == report._replace(
                detail="degenerate amplitudes: a state coefficient is "
                       "zero, concurrence stays 0")
        else:
            assert outcome.report == report
        result = _pqp(p, q)
        assert outcome == (result, concurrence(q), 2.0 * abs(
            result.c1 * result.c4 - result.c2 * result.c3), outcome.report)
        assert _bits(outcome.result) == _bits(result)
    # The sweep reaches acceptance, the degenerate note, each failing
    # restriction and each kind of state the gate admits.
    assert verdicts == {(True, True, True), (True, True, False),
                        (True, False, False), (False, True, False),
                        (False, False, False)}
    assert degenerate
    assert kinds == {"law", "degenerate", "uncovered"}


# --- the inline gate against the composed one ----------------------------

def _called(fn, p, q) -> tuple:
    """fn(p, q) as comparable text: what it returned, or the type and text
    it raised, with a RestrictionError's report."""
    try:
        return "returned", repr(fn(p, q))
    except RestrictionError as e:
        return "RestrictionError", str(e), repr(e.report)
    except Exception as e:
        return type(e).__name__, str(e)


def _composed(p: Quat, q: BiQuat) -> list:
    """What check_restrictions, entangle and predicted_concurrence give
    by ``_reference_gate``, in ``_called``'s form."""
    try:
        want = RestrictionReport(*_reference_gate(p, q))
    except ValueError as e:
        return [("ValueError", str(e))] * 3
    if not want.passed:
        rejected = ("RestrictionError", f"rotor rejected: {want.detail}",
                    repr(want))
        return [("returned", repr(want)), rejected, rejected]
    result = _pqp(p, q)
    report = want
    if len(want.q_support) < 2:
        report = want._replace(detail="degenerate amplitudes: a state "
                               "coefficient is zero, concurrence stays 0")
    outcome = EntangleOutcome(
        result, 2.0 * abs(q.c1 * q.c4 - q.c2 * q.c3),
        2.0 * abs(result.c1 * result.c4 - result.c2 * result.c3), report)
    qs, ps = sorted(want.q_support), sorted(want.p_support)
    if len(qs) < 2:
        predicted = ("returned", repr(0.0))
    elif frozenset(qs) not in _VARIANT_SUPPORTS:
        predicted = ("ValueError", f"state support {qs} is not one of the "
                     "variant pairs (1,2) (3,4) (1,3) (2,4): the law does "
                     "not cover it")
    else:
        (i, j), (a, b) = qs, ps
        predicted = ("returned", repr(4.0 * (
            abs(q[i - 1]) * abs(q[j - 1]) * abs(p[a - 1]) * abs(p[b - 1]))))
    return [("returned", repr(want)), ("returned", repr(outcome)), predicted]


def _gated(p: Quat, q: BiQuat) -> list:
    return [_called(fn, p, q)
            for fn in (check_restrictions, entangle, predicted_concurrence)]


_P_OK = (INV_SQRT2, 0.0, INV_SQRT2, 0.0)
_Q_OK = (I_SQRT2, -I_SQRT2, 0j, 0j)


def _norm_edges(cls, unit, norm_of) -> list:
    """cls(x * unit) at the last x that passes the unit-norm test on each
    side of 1, and at the float one nextafter step beyond, which fails."""
    def at(x):
        return cls(*(x * c for c in unit))

    def passes(x):
        return abs(norm_of(at(x)) - 1.0) <= DEFAULT_TOL

    edges = []
    for away in (0.0, 2.0):
        x = math.sqrt(1.0 + (away - 1.0) * DEFAULT_TOL)
        while not passes(x):
            x = math.nextafter(x, 1.0)
        while passes(beyond := math.nextafter(x, away)):
            x = beyond
        edges += [at(x), at(beyond)]
    return edges


def _gate_table() -> list:
    """(p, q) pairs at the edges of the gate's float tests."""
    p_ok, q_ok = Quat(*_P_OK), BiQuat(*_Q_OK)
    p_edges = _norm_edges(Quat, _P_OK, norm)
    q_edges = _norm_edges(BiQuat, _Q_OK, norm_h)
    # Parts that all differ: only the sums' own order rounds at the edge
    # as norm and norm_h do.
    rng = random.Random(22)
    for _ in range(8):
        c = [rng.uniform(0.1, 1.0) for _ in range(4)]
        n = math.sqrt(sum(x * x for x in c))
        p_edges += _norm_edges(Quat, [x / n for x in c], norm)
        z = [complex(rng.uniform(0.1, 1.0), rng.uniform(-1.0, -0.1))
             for _ in range(4)]
        n = math.sqrt(sum(abs(x) ** 2 for x in z))
        q_edges += _norm_edges(BiQuat, [x / n for x in z], norm_h)
    s, tiny = INV_SQRT2, 5e-324
    pairs = [(p_ok, q_ok)]
    pairs += [(p, q_ok) for p in p_edges] + [(p_ok, q) for q in q_edges]
    # Both fail their norm: the rotor's message must win.
    pairs += [(p, q) for p in p_edges[1::2] for q in q_edges[1::2]]
    pairs += [(Quat(2.0, 0, 0, 0), BiQuat(math.nan, 0, 0, 0)),
              (Quat(math.inf, 0, 0, 0), BiQuat(0, 0, 0, 0))]
    for bad in (math.nan, math.inf, -math.inf):
        for k in range(4):
            parts = list(_P_OK)
            parts[k] = bad
            pairs.append((Quat(*parts), q_ok))
            for z in (complex(bad, 0.0), complex(0.0, bad)):
                parts = list(_Q_OK)
                parts[k] = z
                pairs.append((p_ok, BiQuat(*parts)))
    # Signed zeros, subnormals and the smallest normal, off the supports.
    pairs += [
        (Quat(s, -0.0, s, -0.0),
         BiQuat(complex(-0.0, s), complex(-0.0, -s), complex(-0.0, -0.0),
                -0.0)),
        (Quat(s, tiny, s, -tiny),
         BiQuat(I_SQRT2, -I_SQRT2, complex(tiny, -tiny), sys.float_info.min)),
        (Quat(-0.0, s, -0.0, -s), BiQuat(-0.0, 0.0, 1.0, -0.0)),
    ]
    # Each verdict and kind: R1, R2 and R3 failing, a single-direction
    # state, a state outside the law, int parts.
    pairs += [(Quat(0.5, 0.5, 0.5, -0.5), q_ok), (Quat(0, 1, 0, 0), q_ok),
              (Quat(s, s, 0, 0), q_ok), (p_ok, BiQuat(1, 0, 0, 0)),
              (Quat(s, s, 0, 0), BiQuat(s, 0, 0, s)),
              (Quat(1, 0, 0, 0), BiQuat(0, 1j, 0, 0))]
    return pairs


def test_inline_gate_equals_the_composed_gate_at_the_float_edges():
    outcomes = set()
    for p, q in _gate_table():
        want = _composed(p, q)
        assert _gated(p, q) == want, (p, q)
        outcomes.add((want[0][0], want[1][0], want[2][0]))
    # The table reaches each refusal, rejection and prediction kind.
    assert outcomes == {("ValueError",) * 3,
                        ("returned", "RestrictionError", "RestrictionError"),
                        ("returned", "returned", "returned"),
                        ("returned", "returned", "ValueError")}


# Parts a search puts into a unit p or q: every non-finite value, signed
# zeros, subnormals, the tolerance itself and the float above it.
_EDGE_PARTS = st.sampled_from((
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    sys.float_info.min, DEFAULT_TOL, -DEFAULT_TOL,
    math.nextafter(DEFAULT_TOL, 1.0)))


# Masks of the admissible rotor pairs, which are also the variant pairs.
_PAIR_MASKS = st.one_of(st.sampled_from((3, 5, 10, 12)), st.integers(1, 15))


@st.composite
def _edge_pair(draw):
    """A unit p and q, often on pair masks, each maybe scaled by a factor
    f with f*f within about 1 +- DEFAULT_TOL, and with up to two parts
    replaced."""
    p = _unit_on(draw(_PAIR_MASKS), draw(st.sampled_from(_OFF)),
                 (1.0, -1.0, 1.0, -1.0))
    q = _unit_on(draw(_PAIR_MASKS), draw(st.sampled_from(_OFF)),
                 (1j, -1.0, -1j, 1.0))
    for parts, edge in ((p, _EDGE_PARTS),
                        (q, st.builds(complex, _EDGE_PARTS, _EDGE_PARTS))):
        if draw(st.booleans()):
            f = draw(st.floats(1.0 - DEFAULT_TOL / 2,
                               1.0 + DEFAULT_TOL / 2))
            parts[:] = [f * c for c in parts]
        if draw(st.booleans()):
            for k in draw(st.sets(st.integers(0, 3), min_size=1,
                                  max_size=2)):
                parts[k] = draw(edge)
    return Quat(*p), BiQuat(*q)


@settings(max_examples=300)
@given(_edge_pair())
def test_inline_gate_equals_the_composed_gate_on_a_search(pair):
    assert _gated(*pair) == _composed(*pair)


def test_gate_calls_no_helper(monkeypatch):
    pairs = _gate_table()
    want = [_gated(p, q) for p, q in pairs]

    def refuse(*args):
        raise AssertionError("the gate called a helper")

    for name in ("norm", "norm_h", "require_unit_norm", "_concurrence",
                 "_mask"):
        monkeypatch.setattr(entanglement, name, refuse)
    assert [_gated(p, q) for p, q in pairs] == want


# --- reports and outcomes are immutable values ----------------------------

_README_S = 0.7071067811865476  # the README's entangle example


def _golden_outcome():
    return entangle(Quat(_README_S, 0, _README_S, 0),
                    BiQuat(_README_S * 1j, -_README_S * 1j, 0, 0))


def test_report_and_outcome_refuse_assignment():
    outcome = _golden_outcome()
    with pytest.raises(AttributeError):
        outcome.report.detail = "changed"
    with pytest.raises(AttributeError):
        outcome.concurrence_after = 0.0
    with pytest.raises(AttributeError):
        outcome.report.extra = 1
    assert outcome.report.detail == "ok"


def test_report_and_outcome_to_dict():
    outcome = _golden_outcome()
    assert outcome.to_dict() == {
        "result": {"re": [0.0, 0.0, 0.0, 0.0],
                   "im": [0.0, -0.7071067811865477, 0.7071067811865477, 0.0]},
        "concurrence_before": 0.0,
        "concurrence_after": 1.0000000000000004,
        "report": {"r1_pass": True, "r2_pass": True, "r3_pass": True,
                   "passed": True, "p_support": [1, 3], "q_support": [1, 2],
                   "concurrence_p": 0.0, "detail": "ok"}}
    assert outcome.report == check_restrictions(
        Quat(_README_S, 0, _README_S, 0),
        BiQuat(_README_S * 1j, -_README_S * 1j, 0, 0))


# --- the float rotor against the embedded rotor ----------------------------

_EDGE_REALS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
               math.nextafter(DEFAULT_TOL, 1.0), 1.0, -0.5)


@pytest.mark.skipif(sys.version_info >= (3, 14), reason=(
    "CPython 3.14 multiplies a float into a complex part by part, without "
    "promoting it to complex(x, 0.0), which can change the sign of a zero"))
def test_sandwich_is_bit_identical_to_the_embedded_rotor():
    rng = random.Random(75)

    def part():
        if rng.random() < 0.4:
            return rng.choice(_EDGE_REALS)
        return rng.uniform(-1.0, 1.0)

    for _ in range(3000):
        p = Quat(*(part() for _ in range(4)))
        q = BiQuat(*(complex(part(), part()) for _ in range(4)))
        pb = from_quat(p)
        assert repr(_pqp(p, q)) == repr(bmul(bmul(pb, q), pb))
    for variant, sup in CASES:
        for _ in range(20):
            t = rng.uniform(0.0, 2.0 * math.pi)
            p = _rotor(sup, math.cos(t), math.sin(t))
            q = embed_state(StateAmp(I_SQRT2 * cmath.exp(1j * t),
                                     -INV_SQRT2, variant))
            pb = from_quat(p)
            assert repr(_pqp(p, q)) == repr(bmul(bmul(pb, q), pb))


_SPECIAL_REALS = (math.inf, -math.inf, math.nan, 1e308, -1e308)


def _hamilton_by_attributes(cls, p, q):
    """quaternion.hamilton as it was before it unpacked its factors: each
    part read as an attribute, the result built by the namedtuple."""
    return cls(
        p.c1 * q.c1 - p.c2 * q.c2 - p.c3 * q.c3 - p.c4 * q.c4,
        p.c1 * q.c2 + p.c2 * q.c1 + p.c3 * q.c4 - p.c4 * q.c3,
        p.c1 * q.c3 - p.c2 * q.c4 + p.c3 * q.c1 + p.c4 * q.c2,
        p.c1 * q.c4 + p.c2 * q.c3 - p.c3 * q.c2 + p.c4 * q.c1,
    )


def test_hamilton_is_bit_identical_to_the_attribute_expansion():
    rng = random.Random(77)
    edges = _EDGE_REALS + _SPECIAL_REALS

    def part():
        if rng.random() < 0.5:
            return rng.choice(edges)
        return rng.uniform(-1.0, 1.0)

    for _ in range(3000):
        a = Quat(*(part() for _ in range(4)))
        b = Quat(*(part() for _ in range(4)))
        x = BiQuat(*(complex(part(), part()) for _ in range(4)))
        y = BiQuat(*(complex(part(), part()) for _ in range(4)))
        for cls, results, want in (
                (Quat, (quaternion.mul(a, b), a * b),
                 _hamilton_by_attributes(Quat, a, b)),
                (BiQuat, (bmul(x, y), x * y),
                 _hamilton_by_attributes(BiQuat, x, y))):
            for got in results:
                assert type(got) is cls
                assert repr(got) == repr(want)
                # tuple equality compares parts by identity first, so a
                # NaN part equals itself here.
                assert got == cls(*got)


# The sweep's kernel, _concurrence(bmul(bmul(p, q), p)) traced for rotors on
# {1,3} and V12 states.  Parts stay within 1e150 in magnitude, so no
# product of a part of q with a part of p overflows: the condition under
# which its docstring proves it bit for bit equal to the composition.
_KERNEL_REALS = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3)),
    st.floats(-1e150, 1e150))
_KERNEL_PARTS = st.one_of(
    st.sampled_from((0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                     complex(-0.0, -0.0))),
    st.builds(complex, _KERNEL_REALS, _KERNEL_REALS))


def _kernel_outcome(f, p, q):
    """f(p, q) as float.hex, or the OverflowError that abs may raise."""
    try:
        return f(p, q).hex()
    except OverflowError:
        return "OverflowError"


def _full_kernel(p, q):
    return entanglement._concurrence(_pqp(p, q))


@settings(max_examples=500)
@given(_KERNEL_REALS, _KERNEL_REALS, _KERNEL_PARTS, _KERNEL_PARTS)
def test_sweep_kernel_is_bit_identical_to_the_full_sandwich(a, b, alpha,
                                                            beta):
    kernel = entanglement._kernel(
        entanglement._key((1, 3), Variant.V12.positions), concurrence=True)
    p, q = Quat(a, 0.0, b, 0.0), BiQuat(alpha, beta, 0j, 0j)
    assert (_kernel_outcome(kernel, p, q)
            == _kernel_outcome(_full_kernel, p, q))


@pytest.mark.parametrize("variant, sup", CASES)
def test_concurrence_kernel_matches_the_sandwich_in_each_case(variant, sup):
    kernel = entanglement._kernel(entanglement._key(sup, variant.positions),
                                  concurrence=True)
    rng = random.Random(79)
    for _ in range(200):
        t, u, v, w = (rng.uniform(0.0, 2.0 * math.pi) for _ in range(4))
        p = _rotor(sup, math.cos(t), math.sin(t))
        q = embed_state(StateAmp(math.cos(u) * cmath.exp(1j * v),
                                 math.sin(u) * cmath.exp(1j * w), variant))
        assert kernel(p, q).hex() == _full_kernel(p, q).hex()


# --- the law kernel behind entangle --------------------------------------

def _law_masks(variant, sup) -> int:
    """The kernel key of a pairing: pm << 4 | qm, as for _VERDICT."""
    def mask(support):
        return sum(1 << (k - 1) for k in support)
    return mask(sup) << 4 | mask(variant.positions)


def _bits(q) -> list:
    """Each part's type and the float.hex of its real and imaginary part."""
    return [(type(c), c.real.hex(), c.imag.hex()) for c in q]


def _unguarded(masks):
    """The law kernel's trace compiled without its guards."""
    lines, pqp = entanglement._trace(entanglement._SUPPORTS[masks >> 4],
                                     entanglement._SUPPORTS[masks & 15])
    return _codegen.function(__name__, "_unguarded", [
        "def _unguarded(p, q):", "    p1, p2, p3, p4 = p",
        "    q1, q2, q3, q4 = q", *lines,
        f"    return ({', '.join(pqp)},)"])


_TINY = 2.0 ** -1000
# A real or imaginary part of an amplitude: signed zeros, subnormals, the
# guard's bound and the float below it, the smallest subnormal once more,
# as a product of it with a part of p can round to a zero, or any value up
# to 1 in magnitude.
_AMP_EDGES = st.one_of(
    st.sampled_from(_EDGE_REALS + (_TINY, -_TINY, math.nextafter(_TINY, 0.0),
                                   -1e-300)),
    st.sampled_from((5e-324, -5e-324)), st.floats(-1.0, 1.0))
# Where the parts off the masks come from: in three draws of four each is
# exactly zero, of either sign; in the fourth each may also be not zero,
# yet at most DEFAULT_TOL.
_OFF_MASK = st.sampled_from((*[st.sampled_from((0.0, -0.0))] * 3,
                             st.sampled_from((0.0, -0.0, 1e-12, -1e-300))))


@st.composite
def _law_inputs(draw):
    """A unit rotor and state on a pairing the law covers, which pass
    the gate: each amplitude has one part of at least 0.1 in magnitude
    and the other drawn from the edges."""
    variant, sup = draw(st.sampled_from(CASES))
    t = draw(st.floats(0.01, math.pi / 2 - 0.01)) + draw(
        st.integers(0, 3)) * math.pi / 2
    off = draw(_OFF_MASK)
    p = [draw(off) for _ in range(4)]
    p[sup[0] - 1], p[sup[1] - 1] = math.cos(t), math.sin(t)
    q = [complex(draw(off), draw(off)) for _ in range(4)]
    amps = []
    for _ in range(2):
        big = draw(st.floats(0.1, 1.0)) * draw(st.sampled_from((1.0, -1.0)))
        edge = draw(_AMP_EDGES)
        amps.append((big, edge) if draw(st.booleans()) else (edge, big))
    n = math.sqrt(math.fsum(x * x for amp in amps for x in amp))
    for k, (re, im) in zip(variant.positions, amps):
        q[k - 1] = complex(re / n, im / n)
    return Quat(*p), BiQuat(*q)


@settings(max_examples=400)
@given(_law_inputs())
def test_entangle_is_bit_identical_to_the_full_sandwich(pq):
    p, q = pq
    assert entanglement._gate(p, q)[3] == entanglement._LAW
    assert _bits(entangle(p, q).result) == _bits(_pqp(p, q))


@pytest.mark.parametrize("variant, sup", CASES)
def test_law_kernel_runs_on_amplitudes_with_every_part_nonzero(variant, sup):
    kernel = entanglement._kernel(_law_masks(variant, sup))
    rng = random.Random(83)
    for _ in range(200):
        t, u, v, w = (rng.uniform(0.0, 2.0 * math.pi) for _ in range(4))
        p = _rotor(sup, math.cos(t), math.sin(t))
        q = embed_state(StateAmp(math.cos(u) * cmath.exp(1j * v),
                                 math.sin(u) * cmath.exp(1j * w), variant))
        result = kernel(p, q)
        assert result is not None
        assert _bits(result) == _bits(_pqp(p, q))
        assert _bits(entangle(p, q).result) == _bits(result)


@pytest.mark.parametrize("variant, sup, p, q, unguarded_differs", [
    # The README example: its real parts are zero, so the kernel declines.
    (Variant.V12, (1, 3), Quat(INV_SQRT2, 0.0, INV_SQRT2, 0.0),
     BiQuat(I_SQRT2, -I_SQRT2, 0j, 0j), False),
    # Zero real and imaginary parts: without the guard c1 reads (-0+0j).
    (Variant.V12, (1, 3), Quat(-INV_SQRT2, 0.0, INV_SQRT2, 0.0),
     BiQuat(-0.6j, 0.8 + 0j, 0j, 0j), True),
    # A subnormal imaginary part that a kept product rounds to zero.
    (Variant.V13, (3, 4), Quat(0.0, 0.0, 0.9353335680486682,
                               -0.35376703701920487),
     BiQuat(-0.0733 + 5e-324j, 0j,
            -0.312245512887238 + 0.9471693880620222j, 0j), True),
    # Float amplitudes: without the guard some parts come out as floats.
    (Variant.V12, (1, 3), Quat(-0.6, 0.0, 0.8, 0.0),
     BiQuat(0.6, 0.8j, 0j, 0j), True),
    # Parts off the masks that are not zero, in q and in p.
    (Variant.V12, (1, 3), Quat(0.6, 0.0, 0.8, 0.0),
     BiQuat(0.48 + 0.36j, 0.64 + 0.48j, 1e-12j, 0j), True),
    (Variant.V12, (1, 3), Quat(0.6, -1e-12, 0.8, 0.0),
     BiQuat(0.48 + 0.36j, 0.64 + 0.48j, 0j, 0j), True),
], ids=["readme", "signed-zero", "subnormal", "float-parts", "q-off-mask",
        "p-off-mask"])
def test_law_kernel_declines_what_it_would_get_wrong(variant, sup, p, q,
                                                     unguarded_differs):
    masks = _law_masks(variant, sup)
    assert entanglement._gate(p, q)[1:] == (masks >> 4, masks & 15,
                                            entanglement._LAW)
    assert entanglement._kernel(masks)(p, q) is None
    want = _bits(_pqp(p, q))
    assert _bits(entangle(p, q).result) == want
    assert (_bits(_unguarded(masks)(p, q)) != want) is unguarded_differs


@pytest.mark.parametrize("p, q, verdict", [
    (Quat(0.6, 0.0, -0.8, 0.0),
     BiQuat(complex(-0.0, 1.0), -0j, complex(0.0, -0.0), 0j),
     entanglement._DEGENERATE),
    (Quat(-0.6, 0.8, -0.0, 0.0), BiQuat(0.6 + 0j, -0j, 0j, -0.8j),
     entanglement._UNCOVERED),
    (Quat(0.0, 0.6, 0.0, -0.8), BiQuat(0.6, 0.48j, -0.64, 0.0),
     entanglement._UNCOVERED),
], ids=["degenerate", "uncovered-14", "uncovered-123-float"])
def test_entangle_off_the_law_is_bit_identical_to_the_composition(p, q,
                                                                   verdict):
    assert entanglement._gate(p, q)[3] == verdict
    assert _bits(entangle(p, q).result) == _bits(_pqp(p, q))
    assert _bits(entangle_map(p, q)) == _bits(_pqp(p, q))


# --- concurrence ---------------------------------------------------------

def test_concurrence_values():
    assert concurrence(BiQuat(INV_SQRT2, 0, 0, INV_SQRT2)) == pytest.approx(1.0)
    assert concurrence(BiQuat(INV_SQRT2, INV_SQRT2, 0, 0)) == 0.0
    assert concurrence(BiQuat(0.5, 0.5, 0.5, 0.5)) == 0.0
    assert concurrence(BiQuat(0.5, 0.5, 0.5, -0.5)) == pytest.approx(1.0)


def test_concurrence_requires_normalization():
    with pytest.raises(ValueError, match="normalized"):
        concurrence(BiQuat(1, 1, 0, 0))


def test_concurrence_bounds():
    rng = random.Random(72)
    for _ in range(10_000):
        parts = [rng.gauss(0.0, 1.0) for _ in range(8)]
        n = math.sqrt(sum(x * x for x in parts))
        if n < 1e-3:
            continue
        q = BiQuat(*(complex(parts[k], parts[k + 4]) / n for k in range(4)))
        c = concurrence(q)
        assert -1e-12 <= c <= 1.0 + 1e-12


_UNIT_INTERVAL = st.floats(-1.0, 1.0)


@given(st.lists(_UNIT_INTERVAL, min_size=8, max_size=8))
def test_concurrence_lies_in_the_unit_interval(parts):
    n = math.sqrt(sum(x * x for x in parts))
    assume(n > 1e-3)
    q = BiQuat(*(complex(parts[k], parts[k + 4]) / n for k in range(4)))
    assert 0.0 <= concurrence(q) <= 1.0 + 1e-12


# A coefficient is zero or at least 1e-6 in magnitude, far from the
# 1e-9 support threshold, so no rounding can move it across.
_MAGNITUDES = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))


@st.composite
def _unit_rotor(draw):
    c = [draw(_MAGNITUDES) * draw(st.sampled_from((1.0, -1.0)))
         for _ in range(4)]
    n = math.sqrt(sum(x * x for x in c))
    assume(n > 0.0)
    return Quat(*(x / n for x in c))


@st.composite
def _unit_state(draw):
    c = [cmath.rect(draw(_MAGNITUDES), draw(st.floats(0.0, 2 * math.pi)))
         for _ in range(4)]
    n = math.sqrt(sum(abs(x) ** 2 for x in c))
    assume(n > 0.0)
    return BiQuat(*(x / n for x in c))


# Quarter turns move a real amplitude wholly into the imaginary part.
_PHASES = st.one_of(st.sampled_from((0.5 * math.pi, math.pi, 1.5 * math.pi)),
                    st.floats(0.0, 2 * math.pi))


@given(_unit_rotor(), _unit_state(), _PHASES)
def test_gate_verdicts_ignore_a_global_phase(p, q, phi):
    before = check_restrictions(p, q)
    after = check_restrictions(p, cmath.exp(1j * phi) * q)
    assert (after.r1_pass, after.r2_pass, after.r3_pass, after.q_support) \
        == (before.r1_pass, before.r2_pass, before.r3_pass, before.q_support)


# --- restrictions ---------------------------------------------------------

def test_restrictions_pass_on_golden_inputs():
    p = Quat(INV_SQRT2, 0, INV_SQRT2, 0)
    q = BiQuat(I_SQRT2, -I_SQRT2, 0, 0)
    report = check_restrictions(p, q)
    assert report.passed
    assert report.detail == "ok"
    assert report.p_support == frozenset({1, 3})
    assert report.q_support == frozenset({1, 2})
    assert report.concurrence_p == 0.0


def test_restriction_r2_rejects_basis_rotor():
    report = check_restrictions(Quat(0, 1, 0, 0), BiQuat(1, 0, 0, 0))
    assert not report.r2_pass
    assert not report.passed
    assert "single basis direction" in report.detail


def test_restriction_r3_rejects_full_support():
    p = Quat(0.5, 0.5, 0.5, 0.5)
    q = BiQuat(I_SQRT2, -I_SQRT2, 0, 0)
    report = check_restrictions(p, q)
    assert report.r1_pass and report.r2_pass and not report.r3_pass
    assert "need exactly 1" in report.detail


def test_restriction_r1_rejects_entangled_rotor():
    report = check_restrictions(Quat(INV_SQRT2, 0, 0, INV_SQRT2),
                                BiQuat(I_SQRT2, -I_SQRT2, 0, 0))
    assert not report.r1_pass
    assert not report.r3_pass  # {1,4} is not an admissible pair either
    assert "entangled" in report.detail


def test_restriction_r1_alone_rejects_an_admissible_rotor():
    # c4 = 9e-10 is inside DEFAULT_TOL, so the support is {1,3}, which R2
    # and R3 admit; the rotor concurrence 2 * 0.6 * 9e-10 is not.
    c = (0.6, 0.0, 0.8, 9e-10)
    n = math.sqrt(sum(x * x for x in c))
    p = Quat(*(x / n for x in c))
    q = embed_state(StateAmp(I_SQRT2, -I_SQRT2, Variant.V12))
    report = check_restrictions(p, q)
    assert report[:5] == (False, True, True, frozenset({1, 3}),
                          frozenset({1, 2}))
    assert report.concurrence_p > DEFAULT_TOL
    assert report.detail == "R1: rotor is entangled (concurrence 1.08e-09)"
    for fn in (entangle, predicted_concurrence):
        with pytest.raises(RestrictionError) as e:
            fn(p, q)
        assert e.value.report == report
        assert str(e.value) == f"rotor rejected: {report.detail}"


def test_restriction_r1_admits_a_rotor_concurrence_at_the_tol():
    # 2 * 5e-10 is DEFAULT_TOL exactly, and R1 admits it; the rotor's
    # support is {4}, so R2 and R3 fail.
    report = check_restrictions(Quat(5e-10, 0, 0, 1.0),
                                BiQuat(0.6, 0.8, 0, 0))
    assert report.concurrence_p == DEFAULT_TOL
    assert report[:3] == (True, False, False)
    assert not report.detail.startswith("R1")


def test_restriction_r3_rejects_disjoint_support():
    p = Quat(INV_SQRT2, 0, INV_SQRT2, 0)
    q = embed_state(StateAmp(I_SQRT2, I_SQRT2, Variant.V24))
    report = check_restrictions(p, q)
    assert not report.r3_pass
    assert "shares 0 directions" in report.detail


def test_check_restrictions_validates_inputs():
    with pytest.raises(ValueError, match="unit quaternion"):
        check_restrictions(Quat(1, 1, 0, 0), BiQuat(1, 0, 0, 0))
    with pytest.raises(ValueError, match="normalized"):
        check_restrictions(Quat(1, 0, 0, 0), BiQuat(1, 1, 0, 0))


def test_report_serializes():
    report = check_restrictions(Quat(0, 1, 0, 0), BiQuat(1, 0, 0, 0))
    d = json.loads(json.dumps(report.to_dict()))
    assert d["passed"] is False
    assert d["p_support"] == [2]
    assert d["q_support"] == [1]


# --- the map itself ---------------------------------------------------------

def test_entangle_map_identity_rotor():
    q = BiQuat(I_SQRT2, -I_SQRT2, 0, 0)
    assert entangle_map(Quat(1, 0, 0, 0), q) == q


def test_entangle_map_basis_rotor_reflects():
    # A single-direction rotor permutes and flips coefficients but
    # cannot change any magnitude, which is why R2 exists.
    q = BiQuat(I_SQRT2, -I_SQRT2, 0, 0)
    for k in range(4):
        c = [0.0] * 4
        c[k] = 1.0
        out = entangle_map(Quat(*c), q)
        got = sorted(abs(x) for x in out)
        want = sorted(abs(x) for x in q)
        assert got == pytest.approx(want, abs=1e-12)
        assert concurrence(out) == pytest.approx(0.0, abs=1e-12)


def test_entangle_map_requires_unit_rotor():
    with pytest.raises(ValueError, match="unit quaternion"):
        entangle_map(Quat(1, 1, 0, 0), BiQuat(1, 0, 0, 0))


def test_entangle_map_is_isometry():
    rng = random.Random(73)
    for _ in range(500):
        while True:
            p = Quat(*(rng.gauss(0.0, 1.0) for _ in range(4)))
            n = math.sqrt(sum(x * x for x in p))
            if n > 1e-3:
                break
        p = Quat(*(c / n for c in p))
        w = BiQuat(*(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                     for _ in range(4)))
        assert norm_h(entangle_map(p, w)) == pytest.approx(
            norm_h(w), rel=1e-12)


def test_golden_example_one():
    p = Quat(INV_SQRT2, 0, INV_SQRT2, 0)
    q = BiQuat(I_SQRT2, -I_SQRT2, 0, 0)
    out = entangle(p, q)
    assert _close(out.result, BiQuat(0, -I_SQRT2, I_SQRT2, 0))
    assert out.concurrence_before == 0.0
    assert out.concurrence_after == pytest.approx(1.0, abs=1e-12)
    assert out.report.passed


def test_golden_example_three():
    p = Quat(0, 0, INV_SQRT2, INV_SQRT2)
    q = BiQuat(0, I_SQRT2, 0, I_SQRT2)
    out = entangle(p, q)
    assert _close(out.result, BiQuat(0, I_SQRT2, -I_SQRT2, 0))
    assert out.concurrence_after == pytest.approx(1.0, abs=1e-12)


def test_entangle_rejects_with_report():
    p = Quat(0.5, 0.5, 0.5, 0.5)
    q = BiQuat(I_SQRT2, -I_SQRT2, 0, 0)
    with pytest.raises(RestrictionError) as err:
        entangle(p, q)
    assert not err.value.report.r3_pass
    assert "rotor rejected" in str(err.value)


def test_entangle_notes_degenerate_amplitudes():
    p = Quat(INV_SQRT2, 0, INV_SQRT2, 0)
    q = embed_state(StateAmp(1j, 0.0, Variant.V12))
    out = entangle(p, q)
    assert "degenerate amplitudes" in out.report.detail
    assert out.concurrence_after == pytest.approx(0.0, abs=1e-12)


def test_outcome_serializes():
    p = Quat(INV_SQRT2, 0, INV_SQRT2, 0)
    q = BiQuat(I_SQRT2, -I_SQRT2, 0, 0)
    d = json.loads(json.dumps(entangle(p, q).to_dict()))
    assert d["result"]["im"][1] == pytest.approx(-INV_SQRT2)
    assert d["concurrence_after"] == pytest.approx(1.0)
    assert d["report"]["passed"] is True


def test_entangle_accepts_near_threshold_pair():
    # p and q lie inside the norm band, so the gate passes; the result's
    # norm lies outside it, which must not turn into a refusal.
    a = math.sqrt(0.5 * (1 + 0.9e-9))
    p = Quat(a, 0, a, 0)
    q = BiQuat(a * 1j, -a * 1j, 0, 0)
    assert check_restrictions(p, q).passed
    want = predicted_concurrence(p, q)
    assert want == pytest.approx(1.0000000018, abs=1e-10)
    assert abs(entangle(p, q).concurrence_after - want) <= 1e-8


# --- the concurrence law -----------------------------------------------------

def test_predicted_concurrence_spot():
    p = Quat(INV_SQRT2, INV_SQRT2, 0, 0)
    q = embed_state(StateAmp(I_SQRT2, I_SQRT2, Variant.V13))
    assert predicted_concurrence(p, q) == pytest.approx(1.0, abs=1e-12)
    assert concurrence(entangle_map(p, q)) == pytest.approx(1.0, abs=1e-12)


def test_predicted_concurrence_degenerate_is_zero():
    p = Quat(INV_SQRT2, 0, INV_SQRT2, 0)
    q = embed_state(StateAmp(1j, 0.0, Variant.V12))
    assert predicted_concurrence(p, q) == 0.0


def test_predicted_concurrence_rejects_like_entangle():
    with pytest.raises(RestrictionError):
        predicted_concurrence(Quat(0.5, 0.5, 0.5, 0.5),
                              BiQuat(I_SQRT2, -I_SQRT2, 0, 0))


_T = 1.0 / math.sqrt(3.0)


@pytest.mark.parametrize("p, q, support, law, actual", [
    # An entangled state on {1,4}: the law says 1, the map gives 0.
    (Quat(INV_SQRT2, INV_SQRT2, 0, 0), BiQuat(INV_SQRT2, 0, 0, I_SQRT2),
     "[1, 4]", 1.0, 0.0),
    # Three directions: the law's product says 0.385, the map gives 2/3.
    (Quat(0, INV_SQRT2, 0, INV_SQRT2), BiQuat(_T, _T * 1j, _T, 0),
     "[1, 2, 3]", 0.385, 2.0 / 3.0),
], ids=["support-14", "support-123"])
def test_predicted_concurrence_refuses_a_state_outside_the_law(
        p, q, support, law, actual):
    # The gate admits the pair: its support shares one direction with
    # the rotor's.  The map runs, but the law does not describe it.
    assert check_restrictions(p, q).detail == "ok"
    assert entangle(p, q).concurrence_after == pytest.approx(actual,
                                                             abs=1e-12)
    amps = 4.0 * math.prod(abs(c) for c in (*q, *p) if abs(c) > DEFAULT_TOL)
    assert amps == pytest.approx(law, abs=1e-3)
    with pytest.raises(ValueError) as info:
        predicted_concurrence(p, q)
    assert info.type is ValueError
    assert str(info.value) == (
        f"state support {support} is not one of the variant pairs "
        "(1,2) (3,4) (1,3) (2,4): the law does not cover it")


def test_concurrence_law_all_cases():
    """C(p q p) = 4|alpha beta a_i a_j| across the eight pairings."""
    rng = random.Random(74)
    for variant, sup in CASES:
        for _ in range(50):
            while True:
                parts = [rng.uniform(-1, 1) for _ in range(4)]
                n = math.sqrt(sum(x * x for x in parts))
                if n > 1e-3:
                    break
            alpha = complex(parts[0], parts[1]) / n
            beta = complex(parts[2], parts[3]) / n
            t = rng.uniform(0.0, 2.0 * math.pi)
            p = _rotor(sup, math.cos(t), math.sin(t))
            q = embed_state(StateAmp(alpha, beta, variant))
            got = concurrence(entangle_map(p, q))
            want = predicted_concurrence(p, q)
            assert abs(got - want) <= 1e-10
            law = 4.0 * abs(alpha) * abs(beta) * abs(math.cos(t) * math.sin(t))
            assert abs(got - law) <= 1e-10
