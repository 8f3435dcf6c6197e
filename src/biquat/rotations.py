"""Rotation maps built from quaternion multiplication.

A unit quaternion q = cos(theta) + qhat sin(theta) acts in several ways:
one-sided multiplication turns the plane spanned by x and qhat*x through
theta, the sandwich q x q^-1 fixes the plane of 1 and qhat and turns the
perpendicular plane through 2*theta, and the complexified variants below
extend this to biquaternions (including Lorentz boosts).
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import quaternion as rq
from .biquaternion import (BiQuat, bmul, conjugate, inner_q, is_real,
                           norm_h)
from .quaternion import DEFAULT_TOL, Quat, require_unit_norm

__all__ = [
    "Triad",
    "make_triad",
    "rotate_onesided",
    "conjugate_rotation",
    "rotate_vec3",
    "rotate_biquat",
    "lorentz_map",
    "complex_rotation",
]


class Triad(namedtuple("Triad", "qhat vhat what")):
    """Right-handed orthonormal frame of pure Quats, qhat*vhat = what."""

    __slots__ = ()


def _require_unit(q: Quat) -> None:
    require_unit_norm(rq.norm(q), "rotation quaternion must have unit norm")


def make_triad(qhat: Quat) -> Triad:
    """Complete a pure unit quaternion to a right-handed triad.

    The second leg is deterministic: take the coordinate axis least
    aligned with qhat (lowest index on ties), project out the qhat
    component and normalize; the third leg is the product qhat*vhat.
    """
    if abs(qhat.c1) > DEFAULT_TOL:
        raise ValueError("triad axis must be a pure quaternion")
    _require_unit(qhat)
    v = (qhat.c2, qhat.c3, qhat.c4)
    k = min(range(3), key=lambda i: abs(v[i]))
    e = [0.0, 0.0, 0.0]
    e[k] = 1.0
    d = v[k]  # = e . v
    w = (e[0] - d * v[0], e[1] - d * v[1], e[2] - d * v[2])
    wlen = math.sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])
    vhat = Quat(0.0, w[0] / wlen, w[1] / wlen, w[2] / wlen)
    return Triad(qhat, vhat, rq.mul(qhat, vhat))


def rotate_onesided(q: Quat, x: Quat, side: str) -> Quat:
    """Multiply by a unit quaternion on one side ("left" -> qx, "right" -> xq).

    Either map turns x toward qhat*x (resp. x*qhat) through the angle of
    q while preserving norms.
    """
    _require_unit(q)
    if side == "left":
        return rq.mul(q, x)
    if side == "right":
        return rq.mul(x, q)
    raise ValueError(f"side must be 'left' or 'right', not {side!r}")


def conjugate_rotation(q: Quat, x: Quat) -> Quat:
    """Sandwich map q x q^-1 for unit q.

    Fixes scalars and the qhat axis, rotates the plane perpendicular to
    qhat through twice the angle of q.
    """
    _require_unit(q)
    return rq.mul(rq.mul(q, x), rq.conj(q))


def rotate_vec3(q: Quat, v) -> tuple[float, float, float]:
    """conjugate_rotation applied to a plain 3-vector."""
    r = conjugate_rotation(q, rq.from_vector(v))
    return (r.c2, r.c3, r.c4)


def rotate_biquat(q: BiQuat, w: BiQuat) -> BiQuat:
    """Sandwich map q w conj_quaternion(q) for a real unit q.

    The real-quaternion rotation acting coefficientwise on a
    biquaternion: the vector part of w turns about the axis of q through
    twice its angle, the scalar part is fixed.
    """
    if not is_real(q):
        raise ValueError("rotation biquaternion must have real coefficients")
    require_unit_norm(norm_h(q), "rotation biquaternion must have unit norm")
    return bmul(bmul(q, w), conjugate(q, "quaternion"))


def _require_quaternionic_unit(q: BiQuat) -> None:
    # inner_q(q, q) is the scalar part of q * conj_quaternion(q), bit for
    # bit; the vector part cancels exactly in floats.
    require_unit_norm(inner_q(q, q), "map requires q * conj_quaternion(q) "
                      "= 1 (quaternionic unit)")


def lorentz_map(q: BiQuat, x: BiQuat) -> BiQuat:
    """q^dagger x q for quaternionic-unit q.

    Preserves the complex invariant inner_q(x, x); boost-like q (with
    conj_quaternion(q) = conj_complex(q)) realize hyperbolic rotations of
    the scalar against the i*vector components.
    """
    _require_quaternionic_unit(q)
    return bmul(bmul(conjugate(q, "hermitian"), x), q)


def complex_rotation(q: BiQuat, x: BiQuat) -> BiQuat:
    """conj_quaternion(q) x q for quaternionic-unit q.

    Rotation of the vector part of x about the axis of q through twice
    its (complex) polar angle; reduces to the inverse sandwich map on
    real inputs.
    """
    _require_quaternionic_unit(q)
    return bmul(bmul(conjugate(q, "quaternion"), x), q)
