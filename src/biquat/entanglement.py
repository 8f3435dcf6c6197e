"""Two-qubit states as biquaternions and the entangling sandwich map.

A product state alpha|u> + beta|v> embeds into the algebra by placing
its two amplitudes on a pair of basis directions; four placements are
usable ({1,2}, {3,4}, {1,3}, {2,4} - the other two pairs are entangled
states already).  Conjugating such a state by a real unit quaternion p,

    q  ->  p q p,

creates entanglement whose concurrence C = 2|c1*c4 - c2*c3| obeys the
closed law C = 4|alpha beta a_i a_j| provided p satisfies three
restrictions:

* R1  p itself is not entangled (its concurrence vanishes),
* R2  p is not a single basis direction (those only reflect the state),
* R3  p's support shares exactly one direction with the state's support
      and is one of {1,2}, {1,3}, {2,4}, {3,4}.

``check_restrictions`` reports all three verdicts; ``entangle`` runs the
checked map end to end and refuses (carrying the report) when one fails.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from enum import Enum

from . import _codegen
from .biquaternion import BiQuat, bmul, json_form, norm_h
from .quaternion import DEFAULT_TOL, Quat, _new, norm, require_unit_norm

__all__ = [
    "Variant",
    "StateAmp",
    "RestrictionReport",
    "EntangleOutcome",
    "RestrictionError",
    "ADMISSIBLE_P_SUPPORTS",
    "embed_state",
    "concurrence",
    "support",
    "check_restrictions",
    "entangle_map",
    "entangle",
    "predicted_concurrence",
]


class Variant(Enum):
    """Basis-direction pair receiving (alpha, beta)."""

    V12 = (1, 2)
    V34 = (3, 4)
    V13 = (1, 3)
    V24 = (2, 4)

    @property
    def positions(self) -> tuple[int, int]:
        # _value_ is a plain attribute; Enum's value is a Python descriptor.
        return self._value_


class StateAmp(namedtuple("StateAmp", "alpha beta variant")):
    """Amplitudes of a product state and where to embed them: the complex
    ``alpha`` and ``beta`` and the ``Variant`` that places them."""

    __slots__ = ()


class RestrictionReport(namedtuple("RestrictionReport", (
        "r1_pass", "r2_pass", "r3_pass", "p_support", "q_support",
        "concurrence_p", "detail"))):
    """The gate's verdict on a rotor p and a state q.

    ``r1_pass``, ``r2_pass`` and ``r3_pass`` are the bools of R1-R3.
    ``p_support`` and ``q_support`` are frozensets of the 1-based
    directions whose coefficients exceed DEFAULT_TOL.  ``concurrence_p``
    is the rotor's concurrence, a float, and ``detail`` the str "ok", the
    degenerate note or the failed restrictions' notes.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.r1_pass and self.r2_pass and self.r3_pass

    def to_dict(self) -> dict:
        return {
            "r1_pass": self.r1_pass,
            "r2_pass": self.r2_pass,
            "r3_pass": self.r3_pass,
            "passed": self.passed,
            "p_support": sorted(self.p_support),
            "q_support": sorted(self.q_support),
            "concurrence_p": self.concurrence_p,
            "detail": self.detail,
        }


class EntangleOutcome(namedtuple("EntangleOutcome", (
        "result", "concurrence_before", "concurrence_after", "report"))):
    """What ``entangle`` returns: the BiQuat ``result`` p q p, the float
    concurrences of q (``concurrence_before``) and of the result
    (``concurrence_after``), and the gate's RestrictionReport ``report``."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "result": json_form(self.result),
            "concurrence_before": self.concurrence_before,
            "concurrence_after": self.concurrence_after,
            "report": self.report.to_dict(),
        }


class RestrictionError(ValueError):
    """Raised when the rotor p fails one of R1-R3; carries the report."""

    def __init__(self, report: RestrictionReport):
        super().__init__(f"rotor rejected: {report.detail}")
        self.report = report


ADMISSIBLE_P_SUPPORTS = frozenset({
    frozenset({1, 2}), frozenset({1, 3}),
    frozenset({2, 4}), frozenset({3, 4}),
})

# The gate works on supports as 4-bit masks, bit k-1 for direction k:
# _SUPPORTS[mask] is the public frozenset and _INDICES[mask] its 0-based
# coefficient indices, ascending.
_SUPPORTS = tuple(frozenset(k for k in range(1, 5) if m >> (k - 1) & 1)
                  for m in range(16))
_INDICES = tuple(tuple([k for k in range(4) if m >> k & 1]) for m in range(16))
_ADMISSIBLE_MASKS = frozenset(_SUPPORTS.index(s)
                              for s in ADMISSIBLE_P_SUPPORTS)
_VARIANT_MASKS = frozenset(_SUPPORTS.index(frozenset(v.positions))
                           for v in Variant)
# The pair lists the gate's messages name, as "(1,2) (1,3) ...".
_ADMISSIBLE_TEXT = " ".join(sorted("({},{})".format(*sorted(s))
                                   for s in ADMISSIBLE_P_SUPPORTS))
_VARIANT_TEXT = " ".join("({},{})".format(*v.positions) for v in Variant)


def _r2_r3(pm: int, qm: int) -> tuple[bool, bool]:
    """The R2 and R3 verdicts for a rotor mask pm and a state mask qm."""
    return (pm.bit_count() >= 2,
            (pm & qm).bit_count() == 1 and pm in _ADMISSIBLE_MASKS)


# What the law says of a state the gate admits: _LAW for a variant pair,
# _DEGENERATE for a single direction, _UNCOVERED for any other support.
_LAW, _DEGENERATE, _UNCOVERED = 1, 2, 3


def _verdict_table() -> tuple[int, ...]:
    """R2 and R3 for every mask pair, indexed by pm << 4 | qm: 0 when
    either fails, else the state's kind.  Every kind is true, so one
    lookup decides both restrictions and what the law covers."""
    kinds = [_LAW if qm in _VARIANT_MASKS
             else _DEGENERATE if qm.bit_count() < 2 else _UNCOVERED
             for qm in range(16)]
    table = []
    for pm in range(16):
        for qm in range(16):
            r2, r3 = _r2_r3(pm, qm)
            table.append(kinds[qm] if r2 and r3 else 0)
    return tuple(table)


_VERDICT = _verdict_table()


def _key(p_support, q_support) -> int:
    """``pm << 4 | qm`` for a rotor and a state support, 1-based: the
    index into ``_VERDICT`` and the key of ``_kernel``."""
    return (_SUPPORTS.index(frozenset(p_support)) << 4
            | _SUPPORTS.index(frozenset(q_support)))


_DEGENERATE_NOTE = ("degenerate amplitudes: a state coefficient is zero, "
                    "concurrence stays 0")


def place_pair(positions: tuple[int, int], a, b, zero) -> list:
    """Four coefficients: a and b at the 1-based positions, zero elsewhere."""
    c = [zero] * 4
    c[positions[0] - 1] = a
    c[positions[1] - 1] = b
    return c


def _state(alpha: complex, beta: complex, positions) -> BiQuat:
    """The state with the complex amplitudes alpha and beta at the 1-based
    positions and 0j elsewhere.  The one builder of an embedded state,
    and the one place its unit norm is checked: ``embed_state``, the
    sweep and the law route of ``verify_theorem`` all build through it."""
    q = _new(BiQuat, place_pair(positions, alpha, beta, 0j))
    require_unit_norm(norm_h(q), "state amplitudes are not normalized")
    return q


def embed_state(state: StateAmp) -> BiQuat:
    """Place (alpha, beta) on the variant's basis pair."""
    positions = state.variant.positions  # a bad variant fails first
    return _state(complex(state.alpha), complex(state.beta), positions)


def _concurrence(q: BiQuat) -> float:
    return 2.0 * abs(q.c1 * q.c4 - q.c2 * q.c3)


class _Code(str):
    """Python source of a value: +, - and * return the source of the
    result, parenthesised, so the operations keep their order.

    ``_ZERO`` is a part known to be zero: a product with a ``_ZERO``
    factor is ``_ZERO``, ``x + _ZERO``, ``x - _ZERO`` and ``_ZERO + x``
    are ``x``, and ``_ZERO - x`` is ``-x``."""

    def __add__(self, other):
        if other is _ZERO:
            return self
        if self is _ZERO:
            return other
        return _Code(f"({self}+{other})")

    def __sub__(self, other):
        if other is _ZERO:
            return self
        if self is _ZERO:
            return _Code(f"(-{other})")
        return _Code(f"({self}-{other})")

    def __mul__(self, other):
        if self is _ZERO or other is _ZERO:
            return _ZERO
        return _Code(f"({self}*{other})")

    def __rmul__(self, other):
        return _Code(f"({other!r}*{self})")

    def __abs__(self):
        return _Code(f"abs({self})")


_ZERO = _Code("0")


def _parts(prefix: str, support) -> list:
    """Stand-ins for four parts named prefix1..prefix4, ``_ZERO`` off the
    1-based support."""
    return [_Code(f"{prefix}{k}") if k in support else _ZERO
            for k in range(1, 5)]


def _bind(prefix: str, texts) -> tuple[BiQuat, list[str]]:
    """Stand-ins named prefix1..prefix4 for four parts given as source,
    and the lines that bind them; a ``_ZERO`` part stays ``_ZERO``."""
    kept = [k for k, text in enumerate(texts, 1) if text is not _ZERO]
    names = BiQuat(*_parts(prefix, kept))
    return names, [f"    {name} = {text}" for name, text in zip(names, texts)
                   if text is not _ZERO]


def _trace(p_support, q_support) -> tuple[list[str], tuple]:
    """q -> p q p traced from ``bmul``, for p and q zero off the given
    1-based supports: the lines that bind r1..r4 to ``bmul(p, q)`` from
    the parts p1..p4 and q1..q4, and the source of the four parts of
    ``p q p``.

    Running ``bmul(bmul(p, q), p)`` on parts that render source gives
    hamilton's sums as written: their order, signs and factor order.  A
    part off its support is ``_ZERO``: the terms it is a factor of drop
    out.  With full supports nothing drops.
    """
    p = Quat(*_parts("p", p_support))
    r, lines = _bind("r", bmul(p, BiQuat(*_parts("q", q_support))))
    return lines, bmul(r, p)


@functools.cache
def _kernel(masks: int, concurrence: bool = False):
    """q -> p q p for p and q zero off the masks, ``masks`` being
    ``pm << 4 | qm`` as for ``_VERDICT``, compiled from ``_trace`` on
    first use: it returns the product or, with ``concurrence``, the
    ``_concurrence`` of it, traced after it.  A kernel unpacks only the
    parts it reads.  A product kernel serves a ``_LAW`` key, a pair the
    gate admits under the law: it keeps 12 of the 32 products.  It
    returns None, for the caller to run ``bmul(bmul(p, q), p)``, unless
    two guards hold:

    * every part off the masks is exactly zero (a part of at most
      DEFAULT_TOL is off the mask, yet not zero);
    * every real and imaginary part of q on its mask is at least 2**-1000
      in magnitude (so a float amplitude, whose imaginary part is 0, runs
      the composition).

    Each kernel gives the bits of ``bmul(bmul(p, q), p)``: it runs the
    composition's own operations, in its order and on its operands, less
    the terms ``_trace`` drops.  Every dropped term is an exact zero, a
    finite value times ``0.0`` or ``0j``, and adding or subtracting a
    zero leaves a nonzero float unchanged.  So every intermediate value
    equals the composition's up to the sign of a zero, and two cases
    settle that sign:

    * a concurrence: ``abs`` erases it, whenever no product of a part of
      q with a part of p overflows, as for every unit p and q;
    * a guarded product, for p and q that passed the gate: each part of
      r = p q is one kept product, and each part of p q p a sum of two.
      A kept product cannot underflow to zero: p's parts on its mask
      exceed DEFAULT_TOL > 2**-30, so every real and imaginary part of a
      product of q with p, and of that with p, is above 2**-1060.  ``0 -
      x`` is ``-x``, the kernel's negation, and a sum of two kept products
      that cancels is +0 in both, which stays +0 whatever zero is added to
      or subtracted from it.
    """
    pm, qm = masks >> 4, masks & 15
    lines, pqp = _trace(_SUPPORTS[pm], _SUPPORTS[qm])
    on = f"p on {sorted(_SUPPORTS[pm])} and q on {sorted(_SUPPORTS[qm])}"
    read, guard = (pm, qm), []
    tail = ["    return _new(BiQuat, (",
            *(f"        {text}," for text in pqp), "    ))"]
    if concurrence:
        name, doc = "_pqp_concurrence", f"C of p q p for {on}."
        c, tail = _bind("c", pqp)
        tail.append(f"    return {_concurrence(c)}")
    else:  # the guard reads every part, so the unpack names them all
        name, doc = "_law_pqp", f"p q p for {on}, or None."
        read = (15, 15)
        off = " or ".join(f"{x}{k + 1}" for x, mask in zip("pq", (pm, qm))
                          for k in range(4) if not mask >> k & 1)
        tests = "\n            or ".join([off, *(
            f"not abs(q{k + 1}.{part}) >= {2.0 ** -1000!r}"
            for k in _INDICES[qm] for part in ("real", "imag"))])
        guard = [f"    if ({tests}):", "        return None"]
    unpack = ["    " + ", ".join(f"{x}{k + 1}" if mask >> k & 1 else "_"
                                 for k in range(4)) + f" = {x}"
              for x, mask in zip("pq", read)]
    return _codegen.function(__name__, name, [
        f"def {name}(p, q):", f'    """{doc}"""', *unpack, *guard, *lines,
        *tail,
    ], BiQuat=BiQuat, _new=_new)


def concurrence(q: BiQuat) -> float:
    """C = 2|c1*c4 - c2*c3| for a unit-norm state.

    Unnormalized input raises; run it through
    ``biquaternion.normalized`` first when that is intended.
    """
    require_unit_norm(norm_h(q), "state must be normalized")
    return _concurrence(q)


def support(q: BiQuat, tol: float = DEFAULT_TOL) -> frozenset[int]:
    """1-based indices of the coefficients with magnitude above tol.

    The rule is absolute: a coefficient with |c| <= tol is outside the
    support, whatever the size of the others.  The gate uses DEFAULT_TOL.
    """
    return _SUPPORTS[_mask(q, tol)]


def _mask(q, tol: float) -> int:
    # The support rule as a 4-bit mask, bit k-1 set when |c_k| > tol.
    c1, c2, c3, c4 = q
    return ((abs(c1) > tol) | (abs(c2) > tol) << 1
            | (abs(c3) > tol) << 2 | (abs(c4) > tol) << 3)


def _gate(p: Quat, q: BiQuat) -> tuple[float, int, int, int | None]:
    """The one pass over p and q behind the gate: both unit-norm checks,
    then (R1's rotor concurrence, p's support mask, q's support mask, the
    verdict).  The verdict is None when R1 fails, else the ``_VERDICT``
    entry: 0 when R2 or R3 fails, else the state's kind.  Only a verdict
    that is true admits p.

    The pass is straight-line code over the unpacked parts and calls no
    helper: the sums are ``norm``'s and ``norm_h``'s, the tests
    ``require_unit_norm``'s, p's norm first, and the masks ``_mask``'s.
    A test pins it to that composed form."""
    p1, p2, p3, p4 = p
    if not abs(p1 * p1 + p2 * p2 + p3 * p3 + p4 * p4 - 1.0) <= DEFAULT_TOL:
        raise ValueError("rotor must be a unit quaternion")
    q1, q2, q3, q4 = q
    x1, y1, x2, y2 = q1.real, q1.imag, q2.real, q2.imag
    x3, y3, x4, y4 = q3.real, q3.imag, q4.real, q4.imag
    if not abs(x1 * x1 + y1 * y1 + x2 * x2 + y2 * y2
               + x3 * x3 + y3 * y3 + x4 * x4 + y4 * y4 - 1.0) <= DEFAULT_TOL:
        raise ValueError("state must be normalized")
    c_p = 2.0 * abs(p1 * p4 - p2 * p3)
    pm = ((abs(p1) > DEFAULT_TOL) | (abs(p2) > DEFAULT_TOL) << 1
          | (abs(p3) > DEFAULT_TOL) << 2 | (abs(p4) > DEFAULT_TOL) << 3)
    qm = ((abs(q1) > DEFAULT_TOL) | (abs(q2) > DEFAULT_TOL) << 1
          | (abs(q3) > DEFAULT_TOL) << 2 | (abs(q4) > DEFAULT_TOL) << 3)
    verdict = _VERDICT[pm << 4 | qm] if c_p <= DEFAULT_TOL else None
    return c_p, pm, qm, verdict


def _rejected(c_p: float, pm: int, qm: int,
              verdict: int | None) -> RestrictionReport:
    """The report of a rotor that fails the gate, from the gate's four
    values, notes and all; only a failure pays for the text."""
    r1 = verdict is not None
    r2, r3 = _r2_r3(pm, qm)
    ps, qs = _SUPPORTS[pm], _SUPPORTS[qm]
    notes = []
    if not r1:
        notes.append(f"R1: rotor is entangled (concurrence {c_p:.3g})")
    if not r2:
        notes.append("R2: rotor is a single basis direction")
    if not r3:
        shared = (pm & qm).bit_count()
        if shared != 1:
            notes.append(f"R3: rotor support {sorted(ps)} shares "
                         f"{shared} directions with state support "
                         f"{sorted(qs)}, need exactly 1")
        else:
            notes.append(f"R3: rotor support {sorted(ps)} is not one of "
                         f"the admissible pairs {_ADMISSIBLE_TEXT}")
    return _new(RestrictionReport,
                (r1, r2, r3, ps, qs, c_p, "; ".join(notes)))


def check_restrictions(p: Quat, q: BiQuat) -> RestrictionReport:
    """Evaluate R1-R3 for the rotor p against the state q.

    Every test is absolute at DEFAULT_TOL: the unit norms, R1's rotor
    concurrence and ``support``, so an amplitude with |c| <= DEFAULT_TOL
    counts as zero, which can switch the R3 verdict.  R2 and R3 depend on
    the two support masks alone and are read from a table built at
    import; the notes are written only for a rotor that fails.
    """
    c_p, pm, qm, verdict = _gate(p, q)
    if not verdict:
        return _rejected(c_p, pm, qm, verdict)
    return _new(RestrictionReport, (True, True, True, _SUPPORTS[pm],
                                    _SUPPORTS[qm], c_p, "ok"))


def entangle_map(p: Quat, q: BiQuat) -> BiQuat:
    """The raw sandwich q -> p q p for a real unit quaternion p.

    Norm-preserving for any such p.  Only p's norm is checked: q is taken
    as given and R1-R3 are left to ``entangle``.
    """
    require_unit_norm(norm(p), "rotor must be a unit quaternion")
    return bmul(bmul(p, q), p)


def entangle(p: Quat, q: BiQuat) -> EntangleOutcome:
    """Checked entangling map, gated at DEFAULT_TOL.

    p and q are checked once, by the gate pass behind
    ``check_restrictions``, with the same verdicts; the map and both
    concurrences then run unchecked.  Raises RestrictionError (report
    attached) when p fails R1-R3.  A state with a vanishing amplitude is
    not rejected - the map is still well defined - but where
    ``check_restrictions`` reports "ok", the outcome's report notes the
    degeneracy, since no entanglement can result; it is otherwise the
    same report.

    A state the law covers goes to the product kernel of its mask pair,
    which gives the bits of ``bmul(bmul(p, q), p)`` or declines: its
    guards, and why they suffice, are in ``_kernel``.  A declined state,
    and every other state, runs ``bmul(bmul(p, q), p)``.
    """
    c_p, pm, qm, verdict = _gate(p, q)
    if not verdict:
        raise RestrictionError(_rejected(c_p, pm, qm, verdict))
    report = _new(RestrictionReport, (
        True, True, True, _SUPPORTS[pm], _SUPPORTS[qm], c_p,
        _DEGENERATE_NOTE if verdict == _DEGENERATE else "ok"))
    q1, q2, q3, q4 = q
    result = _kernel(pm << 4 | qm)(p, q) if verdict == _LAW else None
    if result is None:
        result = bmul(bmul(p, q), p)
    r1, r2, r3, r4 = result
    return _new(EntangleOutcome, (result, 2.0 * abs(q1 * q4 - q2 * q3),
                                  2.0 * abs(r1 * r4 - r2 * r3), report))


def predicted_concurrence(p: Quat, q: BiQuat) -> float:
    """Closed-form concurrence 4|alpha beta a_i a_j| of the checked map.

    alpha, beta are q's nonzero coefficients and a_i, a_j the rotor's.
    Matches concurrence(entangle_map(p, q)) on variant-embedded states;
    rejects p exactly like ``entangle``.  A state with one nonzero
    coefficient gives 0.0.  Any other state the gate admits - one whose
    support is not a variant pair, such as {1,4} or {1,2,3} - lies
    outside the law, and raises ValueError instead of returning a value
    the map does not reach.
    """
    c_p, pm, qm, verdict = _gate(p, q)
    if not verdict:
        raise RestrictionError(_rejected(c_p, pm, qm, verdict))
    if verdict != _LAW:
        if verdict == _DEGENERATE:
            return 0.0
        raise ValueError(f"state support {sorted(_SUPPORTS[qm])} is not "
                         f"one of the variant pairs {_VARIANT_TEXT}: "
                         "the law does not cover it")
    # State support ascending, then rotor support ascending.
    i, j = _INDICES[qm]
    a, b = _INDICES[pm]
    return 4.0 * (abs(q[i]) * abs(q[j]) * abs(p[a]) * abs(p[b]))
