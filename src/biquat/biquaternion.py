"""Quaternions with complex coefficients.

The commuting imaginary unit i of the coefficient field is independent
of the anti-commuting quaternion units, so i*i^, i*j^ and i*k^ square to
+1: they realize the Pauli operators sigma_x, sigma_y, sigma_z.  Unlike
the real algebra this one has zero divisors ("null" elements q with
q * conj_quaternion(q) = 0), which makes inversion and the polar form
conditional rather than total.

Three conjugations exist and each reverses products:

* ``complex``     - conjugate every coefficient (i -> -i)
* ``quaternion``  - negate the quaternion units (i^, j^, k^ -> -...)
* ``hermitian``   - both at once
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .quaternion import (_MAX_FLOAT, _MIN_NORMAL, DEFAULT_TOL, Quat, _new,
                         hamilton)

__all__ = [
    "BiQuat",
    "PolarFormC",
    "CONJUGATION_KINDS",
    "from_quat",
    "real_part",
    "json_form",
    "bmul",
    "conjugate",
    "inner_h",
    "inner_q",
    "norm_h",
    "normalized",
    "inverse_h",
    "polar_c",
    "is_central",
    "is_real",
]

CONJUGATION_KINDS = ("complex", "quaternion", "hermitian")


class BiQuat(namedtuple("BiQuat", "c1 c2 c3 c4")):
    """Element c1 + c2 i^ + c3 j^ + c4 k^ with complex ck."""

    __slots__ = ()

    __add__, __radd__ = Quat.__add__, Quat.__radd__
    __sub__, __neg__ = Quat.__sub__, Quat.__neg__

    def __mul__(self, other):
        if isinstance(other, BiQuat):
            return bmul(self, other)
        if isinstance(other, (int, float, complex)):
            return BiQuat(self.c1 * other, self.c2 * other,
                          self.c3 * other, self.c4 * other)
        return NotImplemented

    __rmul__ = __mul__


class PolarFormC(namedtuple("PolarFormC", "magnitude axis angle degenerate",
                            defaults=(False,))):
    """magnitude * (cos(angle) + axis * sin(angle)) with complex angle.

    ``magnitude`` is complex and ``axis`` is a pure BiQuat with
    axis*axis = -1.  The bool ``degenerate`` (default False) marks inputs
    with vanishing vector part, whose axis defaults to k^.
    """

    __slots__ = ()


def from_quat(q: Quat) -> BiQuat:
    """Embed a real quaternion (imaginary parts zero)."""
    return BiQuat(complex(q.c1), complex(q.c2), complex(q.c3), complex(q.c4))


def real_part(q: BiQuat) -> Quat:
    return _new(Quat, (q.c1.real, q.c2.real, q.c3.real, q.c4.real))


def json_form(q: BiQuat) -> dict:
    """The {"re": [...], "im": [...]} form of q, with float entries."""
    return {"re": [complex(c).real for c in q],
            "im": [complex(c).imag for c in q]}


def bmul(p: BiQuat, q: BiQuat) -> BiQuat:
    """Biquaternion product p q."""
    return hamilton(BiQuat, p, q)


def conjugate(q: BiQuat, kind: str) -> BiQuat:
    """One of the three conjugations; ``kind`` picks which."""
    if kind == "complex":
        return _new(BiQuat, (q.c1.conjugate(), q.c2.conjugate(),
                             q.c3.conjugate(), q.c4.conjugate()))
    if kind == "quaternion":
        return _new(BiQuat, (q.c1, -q.c2, -q.c3, -q.c4))
    if kind == "hermitian":
        return _new(BiQuat, (q.c1.conjugate(), -q.c2.conjugate(),
                             -q.c3.conjugate(), -q.c4.conjugate()))
    raise ValueError(f"unknown conjugation kind: {kind!r}")


def inner_h(p: BiQuat, q: BiQuat) -> complex:
    """Hermitian inner product <p|q>, the scalar part of p * q^dagger."""
    return (p.c1 * q.c1.conjugate() + p.c2 * q.c2.conjugate()
            + p.c3 * q.c3.conjugate() + p.c4 * q.c4.conjugate())


def inner_q(p: BiQuat, q: BiQuat) -> complex:
    """Quaternionic (complex bilinear) inner product, the scalar part of
    p * conj_quaternion(q).  inner_q(q, q) = 0 characterizes null q."""
    return p.c1 * q.c1 + p.c2 * q.c2 + p.c3 * q.c3 + p.c4 * q.c4


def norm_h(q: BiQuat) -> float:
    """Hermitian squared norm, the sum of |ck|^2.  Always real >= 0."""
    c1, c2, c3, c4 = q
    x1, y1 = c1.real, c1.imag
    x2, y2 = c2.real, c2.imag
    x3, y3 = c3.real, c3.imag
    x4, y4 = c4.real, c4.imag
    return (x1 * x1 + y1 * y1 + x2 * x2 + y2 * y2
            + x3 * x3 + y3 * y3 + x4 * x4 + y4 * y4)


def _scaled(q: BiQuat, e: int) -> BiQuat:
    """q * 2**e, part by part; OverflowError beyond the float maximum."""
    return BiQuat(*(complex(math.ldexp(c.real, e), math.ldexp(c.imag, e))
                    for c in q))


def _rescaled_h(q: BiQuat, zero_message: str) -> tuple[BiQuat, float, int]:
    """(q * 2**-e, its norm_h, e), as ``quaternion._rescaled``: e = 0
    while norm_h is normal, else 2**e is just above q's largest real or
    imaginary part.  ValueError for q = 0 (zero_message) or non-finite q."""
    n = norm_h(q)
    if _MIN_NORMAL <= n <= _MAX_FLOAT:
        return q, n, 0
    parts = [x for c in q for x in (c.real, c.imag)]
    if not all(map(math.isfinite, parts)):
        raise ValueError("non-finite component")
    if not any(parts):
        raise ValueError(zero_message)
    e = math.frexp(max(map(abs, parts)))[1]
    q = _scaled(q, -e)
    return q, norm_h(q), e


def normalized(q: BiQuat) -> BiQuat:
    """Scale q to unit Hermitian norm.  The result does not depend on q's
    scale, so ``_rescaled_h`` keeps norm_h normal with no scale-back.
    ValueError for a zero or non-finite q."""
    q, n, _ = _rescaled_h(q, "cannot normalize the zero biquaternion")
    s = 1.0 / (n ** 0.5)
    return BiQuat(q.c1 * s, q.c2 * s, q.c3 * s, q.c4 * s)


def is_real(q: BiQuat, tol: float = DEFAULT_TOL) -> bool:
    """True when every coefficient is real within tol."""
    return (abs(q.c1.imag) <= tol and abs(q.c2.imag) <= tol
            and abs(q.c3.imag) <= tol and abs(q.c4.imag) <= tol)


def _is_imaginary(q: BiQuat) -> bool:
    return all(abs(c.real) <= DEFAULT_TOL for c in q)


def inverse_h(q: BiQuat) -> BiQuat:
    """Inverse q^dagger / norm_h(q).

    Valid only when conjugate(q, "complex") = +-q, i.e. the coefficients
    are all real or all imaginary; then q * q^dagger is the real scalar
    norm_h(q).  Other inputs raise, as do null/zero ones.  A norm_h that
    over- or underflows is scaled away exactly; ValueError for a
    non-finite q or a result beyond the floats.
    """
    if not (is_real(q) or _is_imaginary(q)):
        raise ValueError(
            "inverse formula inapplicable: coefficients are neither all "
            "real nor all imaginary")
    q, n, e = _rescaled_h(q, "non-invertible: zero biquaternion")
    d = conjugate(q, "hermitian")
    try:
        return _scaled(BiQuat(d.c1 / n, d.c2 / n, d.c3 / n, d.c4 / n), -e)
    except OverflowError:
        raise ValueError("inverse is not a finite float") from None


def polar_c(q: BiQuat) -> PolarFormC:
    """Complex polar decomposition magnitude * (cos z + axis sin z).

    magnitude is the principal square root of inner_q(q, q), so null
    biquaternions (inner_q(q, q) = 0) have no polar form and raise.  The
    same holds when the vector part is nonzero yet null, since no unit
    axis exists for it.  All branch choices are principal.

    The null tests are absolute: q is refused when |inner_q(q, q)| <=
    DEFAULT_TOL, so BiQuat(1e-5, 0, 0, 0) (inner_q 1e-10) is null.
    A norm_h that over- or underflows is first scaled away exactly
    (``_rescaled_h``), so those tests then apply to q * 2**-e and only the
    magnitude is scaled back; axis and angle do not depend on the scale.
    ValueError for a non-finite q or a magnitude beyond the floats.
    """
    q, _, e = _rescaled_h(q, "no polar form: null biquaternion")
    n = inner_q(q, q)
    if abs(n) <= DEFAULT_TOL:
        raise ValueError("no polar form: null biquaternion")
    mag = cmath.sqrt(n)
    try:
        scaled_mag = complex(math.ldexp(mag.real, e), math.ldexp(mag.imag, e))
    except OverflowError:
        raise ValueError(
            "magnitude of the polar form is not a finite float") from None
    v2 = q.c2 * q.c2 + q.c3 * q.c3 + q.c4 * q.c4
    s = cmath.sqrt(v2)
    if abs(s) <= DEFAULT_TOL:
        if max(abs(q.c2), abs(q.c3), abs(q.c4)) > DEFAULT_TOL:
            raise ValueError("no polar form: null vector part")
        # Pure scalar: cos z = c1/mag is +-1 and the axis is conventional.
        z = -1j * cmath.log(q.c1 / mag)
        return PolarFormC(scaled_mag, BiQuat(0j, 0j, 0j, 1 + 0j), z, True)
    axis = BiQuat(0j, q.c2 / s, q.c3 / s, q.c4 / s)
    # exp(iz) = cos z + i sin z determines z through the principal log.
    z = -1j * cmath.log(q.c1 / mag + 1j * (s / mag))
    return PolarFormC(scaled_mag, axis, z, False)


def is_central(q: BiQuat) -> bool:
    """True when q commutes with everything (vector part vanishes)."""
    return all(abs(c) <= DEFAULT_TOL for c in q[1:])
