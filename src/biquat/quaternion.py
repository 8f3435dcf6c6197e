"""Real quaternion algebra over the basis (1, i^, j^, k^).

Multiplication is right handed: i^ j^ = k^, j^ k^ = i^, k^ i^ = j^, and
i^2 = j^2 = k^2 = i^ j^ k^ = -1.  Values are immutable 4-tuples of floats
and every operation is a pure function.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

__all__ = [
    "DEFAULT_TOL",
    "Quat",
    "PolarForm",
    "ONE",
    "ZERO",
    "scalar_part",
    "vector_part",
    "from_vector",
    "mul",
    "conj",
    "norm",
    "magnitude",
    "inverse",
    "inner",
    "is_perpendicular",
    "is_parallel",
    "angle_between",
    "polar",
    "from_polar",
]

# The one absolute tolerance of every predicate and guard.  Only support,
# polar and is_real take an override: a caller sets each of them.
DEFAULT_TOL = 1e-9

_MIN_NORMAL = sys.float_info.min
_MAX_FLOAT = sys.float_info.max

# tuple.__new__(cls, values) builds a value of any of the package's
# namedtuple classes, as its constructor does, without the constructor's
# Python frame.
_new = tuple.__new__


def require_unit_norm(n: complex, message: str) -> None:
    """Raise ValueError(message) unless |n - 1| <= DEFAULT_TOL; NaN fails."""
    if not abs(n - 1.0) <= DEFAULT_TOL:
        raise ValueError(message)


class Quat(namedtuple("Quat", "c1 c2 c3 c4")):
    """Quaternion c1 + c2 i^ + c3 j^ + c4 k^ with float ck."""

    __slots__ = ()

    # +, - and unary - act on any two values of one class, and __radd__
    # refuses any other left operand, so biquaternion.BiQuat reuses all four.
    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(self.c1 + other.c1, self.c2 + other.c2,
                          self.c3 + other.c3, self.c4 + other.c4)

    def __radd__(self, other):
        # Reached only when other's + declined: refuse here, or a tuple on
        # the left would concatenate with this one.
        raise TypeError(f"unsupported operand type(s) for +: "
                        f"{type(other).__name__!r} and "
                        f"{type(self).__name__!r}")

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(self.c1 - other.c1, self.c2 - other.c2,
                          self.c3 - other.c3, self.c4 - other.c4)

    def __neg__(self):
        return type(self)(-self.c1, -self.c2, -self.c3, -self.c4)

    def __mul__(self, other):
        if isinstance(other, Quat):
            return mul(self, other)
        if isinstance(other, (int, float)):
            return Quat(self.c1 * other, self.c2 * other,
                        self.c3 * other, self.c4 * other)
        return NotImplemented

    # A scalar factor commutes, bit for bit.
    __rmul__ = __mul__


class PolarForm(namedtuple("PolarForm", "magnitude axis angle degenerate",
                           defaults=(False,))):
    """sqrt(N) * (cos(angle) + axis * sin(angle)) with angle in [0, pi].

    ``magnitude`` and ``angle`` are floats and ``axis`` is a 3-tuple of
    floats.  The bool ``degenerate`` (default False) marks pure-scalar
    inputs, whose axis is the conventional default (0, 0, 1) and carries
    no information.
    """

    __slots__ = ()


ZERO = Quat(0.0, 0.0, 0.0, 0.0)
ONE = Quat(1.0, 0.0, 0.0, 0.0)


def scalar_part(q: Quat) -> float:
    return q.c1


def vector_part(q: Quat) -> tuple[float, float, float]:
    return (q.c2, q.c3, q.c4)


def from_vector(v) -> Quat:
    """Pure quaternion with vector part v (a 3-sequence)."""
    x, y, z = v
    return Quat(0.0, float(x), float(y), float(z))


def hamilton(cls, p, q):
    """Hamilton product p q as a ``cls``; mul and bmul both use it.

    p and q are unpacked once and the result is built by ``tuple.__new__``,
    which is what the namedtuple constructor runs, without its Python-level
    frame: same sums, same order, same bits.
    """
    p1, p2, p3, p4 = p
    q1, q2, q3, q4 = q
    return _new(cls, (
        p1 * q1 - p2 * q2 - p3 * q3 - p4 * q4,
        p1 * q2 + p2 * q1 + p3 * q4 - p4 * q3,
        p1 * q3 - p2 * q4 + p3 * q1 + p4 * q2,
        p1 * q4 + p2 * q3 - p3 * q2 + p4 * q1,
    ))


def mul(p: Quat, q: Quat) -> Quat:
    """Quaternion product p q."""
    return hamilton(Quat, p, q)


def conj(q: Quat) -> Quat:
    """Quaternion conjugate: scalar part kept, vector part negated."""
    return _new(Quat, (q.c1, -q.c2, -q.c3, -q.c4))


def norm(q: Quat) -> float:
    """Squared norm N = c1^2 + c2^2 + c3^2 + c4^2 (q conj(q) = N)."""
    return q.c1 * q.c1 + q.c2 * q.c2 + q.c3 * q.c3 + q.c4 * q.c4


def magnitude(q: Quat) -> float:
    """Euclidean length sqrt(N).  An N that over- or underflows is scaled
    away exactly (``_rescaled``); inf only beyond the float maximum."""
    if not any(q):  # the one input _rescaled refuses
        return 0.0
    _, n, e = _rescaled(q, "")
    return _scaled_sqrt(n, e)


def _scaled_sqrt(n: float, e: int) -> float:
    """sqrt(n) * 2**e, inf when that is beyond the float maximum."""
    try:
        return math.ldexp(math.sqrt(n), e)
    except OverflowError:
        return math.inf


def _rescaled(q: Quat, zero_message: str,
              always: bool = False) -> tuple[Quat, float, int]:
    """(q * 2**-e, its N, e).  e = 0 while N is normal and not ``always``;
    else 2**e is just above q's largest component, an exact scaling that
    puts N in [1/4, 4).  ValueError(zero_message) for q = 0."""
    n = norm(q)
    if not always and _MIN_NORMAL <= n <= _MAX_FLOAT:
        return q, n, 0
    if not any(q):
        raise ValueError(zero_message)
    e = math.frexp(max(map(abs, q)))[1]
    q = Quat(*(math.ldexp(c, -e) for c in q))
    return q, norm(q), e


def inverse(q: Quat) -> Quat:
    """conj(q) / N; ValueError for q = 0 or a result beyond the floats."""
    q, n, e = _rescaled(q, "non-invertible: zero quaternion")
    try:
        inv = Quat(*(math.ldexp(c / n, -e) for c in conj(q)))
        if all(map(math.isfinite, inv)):
            return inv
    except OverflowError:
        pass
    raise ValueError("inverse is not a finite float")


def inner(p: Quat, q: Quat) -> float:
    """Euclidean inner product, equal to the scalar part of p conj(q)."""
    return p.c1 * q.c1 + p.c2 * q.c2 + p.c3 * q.c3 + p.c4 * q.c4


def is_perpendicular(p: Quat, q: Quat) -> bool:
    """True when the scalar part of p conj(q) vanishes."""
    return abs(inner(p, q)) <= DEFAULT_TOL


def is_parallel(p: Quat, q: Quat) -> bool:
    """True when the vector part of p conj(q) vanishes."""
    r = mul(p, conj(q))
    return all(abs(c) <= DEFAULT_TOL for c in r[1:])


def angle_between(p: Quat, q: Quat) -> float:
    """Angle lambda in [0, pi] with cos(lambda) = inner(p,q)/(|p||q|).

    Exact power-of-two scaling, which leaves the cosine unchanged, keeps
    N and their product normal.  ValueError for a zero or non-finite p, q.
    """
    message = "angle undefined for the zero quaternion"
    p, np_, _ = _rescaled(p, message)
    q, nq, _ = _rescaled(q, message)
    if not _MIN_NORMAL <= np_ * nq <= _MAX_FLOAT:
        p, np_, _ = _rescaled(p, message, always=True)
        q, nq, _ = _rescaled(q, message, always=True)
    c = inner(p, q) / math.sqrt(np_ * nq)
    if math.isnan(c):
        raise ValueError("angle undefined for a non-finite component")
    return math.acos(max(-1.0, min(1.0, c)))


def polar(q: Quat, tol: float = DEFAULT_TOL) -> PolarForm:
    """Decompose q as sqrt(N) * (cos(theta) + qhat * sin(theta)).

    theta = atan2(|vector|, scalar) lies in [0, pi] and is stable for
    inputs near the scalar axis.  A pure-scalar q has no axis; the
    result then uses (0, 0, 1) and sets the degenerate flag, with theta
    snapped to 0 or pi by the sign of the scalar part.

    An N that over- or underflows is scaled away exactly (``_rescaled``).
    ValueError only for q = 0 and a magnitude above the float maximum.
    """
    q, n, e = _rescaled(q, "zero quaternion has no polar form")
    mag = _scaled_sqrt(n, e)
    if not mag <= _MAX_FLOAT:  # also NaN
        raise ValueError("magnitude of the polar form is not a finite float")
    vlen = math.sqrt(q.c2 * q.c2 + q.c3 * q.c3 + q.c4 * q.c4)
    if math.ldexp(vlen, e) <= tol:
        return PolarForm(mag, (0.0, 0.0, 1.0),
                         0.0 if q.c1 > 0.0 else math.pi, True)
    return PolarForm(mag, (q.c2 / vlen, q.c3 / vlen, q.c4 / vlen),
                     math.atan2(vlen, q.c1), False)


def from_polar(form: PolarForm) -> Quat:
    """Rebuild the quaternion described by a PolarForm.  ValueError for
    a non-unit axis, a non-finite or negative magnitude, a non-finite
    angle, or a part that overflows."""
    x, y, z = form.axis
    require_unit_norm(math.sqrt(x * x + y * y + z * z),
                      "axis must be a unit vector")
    if not (math.isfinite(form.magnitude) and math.isfinite(form.angle)):
        raise ValueError("magnitude and angle must be finite")
    if form.magnitude < 0.0:
        raise ValueError("magnitude must not be negative")
    c = form.magnitude * math.cos(form.angle)
    s = form.magnitude * math.sin(form.angle)
    q = Quat(c, s * x, s * y, s * z)
    if not all(map(math.isfinite, q)):
        raise ValueError("polar form overflows the float range")
    return q
