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

from dataclasses import dataclass, replace
from enum import Enum

from .biquaternion import BiQuat, bmul, from_quat, json_form, norm_h
from .quaternion import DEFAULT_TOL, Quat, norm, require_unit_norm

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
        return self.value


@dataclass(frozen=True)
class StateAmp:
    """Amplitudes of a product state and where to embed them."""

    alpha: complex
    beta: complex
    variant: Variant


@dataclass(frozen=True)
class RestrictionReport:
    r1_pass: bool
    r2_pass: bool
    r3_pass: bool
    p_support: frozenset[int]
    q_support: frozenset[int]
    concurrence_p: float
    detail: str

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


@dataclass(frozen=True)
class EntangleOutcome:
    result: BiQuat
    concurrence_before: float
    concurrence_after: float
    report: RestrictionReport

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


def place_pair(positions: tuple[int, int], a, b, zero) -> list:
    """Four coefficients: a and b at the 1-based positions, zero elsewhere."""
    c = [zero] * 4
    c[positions[0] - 1] = a
    c[positions[1] - 1] = b
    return c


def embed_state(state: StateAmp) -> BiQuat:
    """Place (alpha, beta) on the variant's basis pair."""
    q = BiQuat(*place_pair(state.variant.positions, complex(state.alpha),
                           complex(state.beta), 0j))
    require_unit_norm(norm_h(q), "state amplitudes are not normalized")
    return q


def _concurrence(q: BiQuat) -> float:
    return 2.0 * abs(q.c1 * q.c4 - q.c2 * q.c3)


def _sandwich(p: Quat, q: BiQuat) -> BiQuat:
    pb = from_quat(p)
    return bmul(bmul(pb, q), pb)


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
    return frozenset(k for k, c in enumerate(q, 1) if abs(c) > tol)


def check_restrictions(p: Quat, q: BiQuat) -> RestrictionReport:
    """Evaluate R1-R3 for the rotor p against the state q.

    Every test is absolute at DEFAULT_TOL: the unit norms, R1's rotor
    concurrence and ``support``, so an amplitude with |c| <= DEFAULT_TOL
    counts as zero, which can switch the R3 verdict.
    """
    require_unit_norm(norm(p), "rotor must be a unit quaternion")
    require_unit_norm(norm_h(q), "state must be normalized")
    c_p = _concurrence(p)
    ps = support(p)
    qs = support(q)

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
    detail = "; ".join(notes) if notes else "ok"
    return RestrictionReport(r1, r2, r3, ps, qs, c_p, detail)


def entangle_map(p: Quat, q: BiQuat) -> BiQuat:
    """The raw sandwich q -> p q p for a real unit quaternion p.

    Norm-preserving for any such p.  Only p's norm is checked: q is taken
    as given and R1-R3 are left to ``entangle``.
    """
    require_unit_norm(norm(p), "rotor must be a unit quaternion")
    return _sandwich(p, q)


def entangle(p: Quat, q: BiQuat) -> EntangleOutcome:
    """Checked entangling map, gated at DEFAULT_TOL.

    p and q are checked once, by ``check_restrictions``; the map and both
    concurrences then run unchecked.  Raises RestrictionError (report
    attached) when p fails R1-R3.  A state with a vanishing amplitude is
    not rejected - the map is still well defined - but the outcome's
    report notes the degeneracy since no entanglement can result.
    """
    report = check_restrictions(p, q)
    if not report.passed:
        raise RestrictionError(report)
    if len(report.q_support) < 2:
        report = replace(
            report, detail="degenerate amplitudes: a state coefficient is "
                           "zero, concurrence stays 0")
    result = _sandwich(p, q)
    return EntangleOutcome(result, _concurrence(q), _concurrence(result),
                           report)


def predicted_concurrence(p: Quat, q: BiQuat) -> float:
    """Closed-form concurrence 4|alpha beta a_i a_j| of the checked map.

    alpha, beta are q's nonzero coefficients and a_i, a_j the rotor's.
    Matches concurrence(entangle_map(p, q)) on variant-embedded states;
    rejects p exactly like ``entangle``.
    """
    report = check_restrictions(p, q)
    if not report.passed:
        raise RestrictionError(report)
    if len(report.q_support) < 2:
        return 0.0
    amps = 1.0
    for k in report.q_support:
        amps *= abs(q[k - 1])
    for k in report.p_support:
        amps *= abs(p[k - 1])
    return 4.0 * amps
