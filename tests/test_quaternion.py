"""Real quaternion layer: frozen values, algebraic laws, polar form."""

import math
import random

import pytest

from biquat.exact import ExactBiQuat, oracle_mul
from biquat.quaternion import (ONE, ZERO, PolarForm, Quat, angle_between,
                               conj, from_polar, from_vector, inner, inverse,
                               is_parallel, is_perpendicular, magnitude, mul,
                               norm, polar, scalar_part, vector_part)

I_ = Quat(0, 1, 0, 0)
J_ = Quat(0, 0, 1, 0)
K_ = Quat(0, 0, 0, 1)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _close(p: Quat, q: Quat, tol=1e-12) -> bool:
    return all(abs(a - b) <= tol for a, b in zip(p, q))


def _rand_quat(rng, scale=2.0) -> Quat:
    return Quat(*(rng.uniform(-scale, scale) for _ in range(4)))


def _rand_unit(rng) -> Quat:
    while True:
        q = Quat(*(rng.gauss(0.0, 1.0) for _ in range(4)))
        m = magnitude(q)
        if m > 1e-3:
            return Quat(q.c1 / m, q.c2 / m, q.c3 / m, q.c4 / m)


# --- multiplication table and frozen products ------------------------

def test_basis_relations():
    assert mul(I_, J_) == K_
    assert mul(J_, K_) == I_
    assert mul(K_, I_) == J_
    assert mul(J_, I_) == -K_
    assert mul(K_, J_) == -I_
    assert mul(I_, K_) == -J_
    for e in (I_, J_, K_):
        assert mul(e, e) == -ONE
    assert mul(mul(I_, J_), K_) == -ONE


def test_frozen_products():
    assert mul(Quat(1, 1, 0, 0), Quat(1, 0, 1, 0)) == Quat(1, 1, 1, 1)
    assert mul(Quat(0, 0, 0, 1), Quat(0, 1, 0, 0)) == Quat(0, 0, 1, 0)
    # A scalar factor passes straight through to each coefficient.
    assert mul(Quat(2, 0, 0, 0), Quat(0, 0, 3, 4)) == Quat(0, 0, 6, 8)
    assert mul(Quat(0, 2, 0, 0), Quat(0, 0, 3, 4)) == Quat(0, 0, -8, 6)
    assert mul(Quat(0, 0, 2, 0), Quat(0, 0, 3, 4)) == Quat(-6, 8, 0, 0)
    assert mul(Quat(0, 0, 0, 2), Quat(0, 0, 3, 4)) == Quat(-8, -6, 0, 0)


def test_noncommutative():
    p, q = Quat(1, 2, 3, 4), Quat(5, 6, 7, 8)
    assert mul(p, q) != mul(q, p)


def test_mul_matches_oracle_on_integers():
    rng = random.Random(41)
    for _ in range(300):
        p = Quat(*(float(rng.randint(-9, 9)) for _ in range(4)))
        q = Quat(*(float(rng.randint(-9, 9)) for _ in range(4)))
        ep = ExactBiQuat((p.c1, p.c2, p.c3, p.c4, 0, 0, 0, 0))
        eq = ExactBiQuat((q.c1, q.c2, q.c3, q.c4, 0, 0, 0, 0))
        want = oracle_mul(ep, eq).to_floats()
        got = mul(p, q)
        assert tuple(complex(c) for c in got) == want


def test_integer_associativity_and_distributivity_exact():
    # Integer coefficients keep every intermediate exact in floats, so
    # these hold as equalities, not approximations.
    rng = random.Random(42)
    for _ in range(400):
        p, q, r = (Quat(*(float(rng.randint(-9, 9)) for _ in range(4)))
                   for _ in range(3))
        assert mul(mul(p, q), r) == mul(p, mul(q, r))
        assert mul(p, q + r) == mul(p, q) + mul(p, r)
        assert mul(p + q, r) == mul(p, r) + mul(q, r)


def test_operator_sugar():
    p, q = Quat(1, 2, 3, 4), Quat(5, 6, 7, 8)
    assert p * q == mul(p, q)
    assert p + q == Quat(6, 8, 10, 12) and type(p + q) is Quat
    assert p - q == Quat(-4, -4, -4, -4)
    assert -p == Quat(-1, -2, -3, -4)
    assert p * 2 == Quat(2, 4, 6, 8)
    assert 2 * p == Quat(2, 4, 6, 8)
    with pytest.raises(TypeError):
        p * "x"


# --- parts, conjugate, norms -----------------------------------------

def test_parts_and_embedding():
    q = Quat(1, 2, 3, 4)
    assert scalar_part(q) == 1
    assert vector_part(q) == (2, 3, 4)
    assert from_vector((2, 3, 4)) == Quat(0, 2, 3, 4)


def test_conj_and_norm():
    q = Quat(1, 2, 3, 4)
    assert conj(q) == Quat(1, -2, -3, -4)
    assert norm(q) == 30
    assert magnitude(q) == math.sqrt(30)
    assert mul(q, conj(q)) == Quat(30, 0, 0, 0)
    assert mul(conj(q), q) == Quat(30, 0, 0, 0)


@pytest.mark.parametrize("q, want", [
    (Quat(1e200, 0, 0, 0), 1e200),
    (Quat(1e-170, 0, 0, 0), 1e-170),
    (Quat(0, 0, 0, -5e-324), 5e-324),
    (Quat(1e308, 1e308, 0, 0), math.sqrt(2) * 1e308),
    (ZERO, 0.0),
    (Quat(-0.0, 0.0, -0.0, 0.0), 0.0),
])
def test_magnitude_when_the_squared_norm_over_or_underflows(q, want):
    assert magnitude(q) == pytest.approx(want, rel=1e-15, abs=0.0)


def test_magnitude_is_inf_only_beyond_the_float_maximum():
    assert magnitude(Quat(FLOAT_MAX, 0, 0, 0)) == FLOAT_MAX
    assert magnitude(Quat(FLOAT_MAX, FLOAT_MAX, 0, 0)) == math.inf


def test_magnitude_is_unchanged_where_the_squared_norm_is_normal():
    rng = random.Random(53)
    for _ in range(2000):
        q = _rand_quat(rng) * 10.0 ** rng.randint(-150, 150)
        assert magnitude(q) == math.sqrt(norm(q))


def test_conj_reverses_products():
    rng = random.Random(43)
    for _ in range(500):
        p, q = _rand_quat(rng), _rand_quat(rng)
        lhs = conj(mul(p, q))
        rhs = mul(conj(q), conj(p))
        assert _close(lhs, rhs)


def test_norm_multiplicative():
    rng = random.Random(44)
    for _ in range(1000):
        p, q = _rand_quat(rng), _rand_quat(rng)
        assert norm(mul(p, q)) == pytest.approx(norm(p) * norm(q), rel=1e-12)


def test_scalar_part_symmetric():
    rng = random.Random(45)
    for _ in range(1000):
        p, q = _rand_quat(rng), _rand_quat(rng)
        assert abs(scalar_part(mul(p, q)) - scalar_part(mul(q, p))) <= 1e-12


# --- inverse ----------------------------------------------------------

def test_inverse_values():
    assert inverse(Quat(2, 0, 0, 0)) == Quat(0.5, 0, 0, 0)
    assert inverse(Quat(1, 1, 0, 0)) == Quat(0.5, -0.5, 0, 0)


def test_inverse_roundtrip():
    rng = random.Random(46)
    for _ in range(500):
        q = _rand_quat(rng)
        if norm(q) < 1e-6:
            continue
        assert _close(mul(q, inverse(q)), ONE, 1e-12)
        assert _close(mul(inverse(q), q), ONE, 1e-12)


def test_inverse_antihomomorphism():
    rng = random.Random(47)
    for _ in range(500):
        p, q = _rand_unit(rng), _rand_unit(rng)
        lhs = inverse(mul(p, q))
        rhs = mul(inverse(q), inverse(p))
        assert _close(lhs, rhs, 1e-10)


def test_inverse_of_zero_raises():
    with pytest.raises(ValueError, match="non-invertible"):
        inverse(ZERO)


@pytest.mark.parametrize("q, want", [
    (Quat(1e200, 0, 0, 0), (1e-200, 0, 0, 0)),    # N overflows
    (Quat(1e-170, 0, 0, 0), (1e170, 0, 0, 0)),    # N underflows to 0
    (Quat(1e-160, 0, 0, 0), (1e160, 0, 0, 0)),    # N is subnormal
    (Quat(3e200, 4e200, 0, 0), (1.2e-201, -1.6e-201, 0, 0)),
    (Quat(0, 0, 3e-170, -4e-170), (0, 0, -1.2e169, 1.6e169)),
])
def test_inverse_when_the_squared_norm_over_or_underflows(q, want):
    got = inverse(q)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-15, abs=0.0)


def test_inverse_roundtrip_at_extreme_magnitudes():
    rng = random.Random(51)
    for _ in range(500):
        q = _rand_quat(rng) * 10.0 ** rng.randint(-300, 300)
        assert _close(mul(q, inverse(q)), ONE, 1e-12)


@pytest.mark.parametrize("q", [
    Quat(1e-320, 0, 0, 0),   # the inverse is above the float maximum
    Quat(math.inf, 0, 0, 0),
    Quat(1, math.nan, 0, 0),
])
def test_inverse_refuses_a_result_beyond_the_floats(q):
    with pytest.raises(ValueError, match="not a finite float"):
        inverse(q)


def test_inverse_is_unchanged_where_the_squared_norm_is_normal():
    rng = random.Random(52)
    for _ in range(2000):
        q = _rand_quat(rng) * 10.0 ** rng.randint(-150, 150)
        n = norm(q)
        assert inverse(q) == (q.c1 / n, -q.c2 / n, -q.c3 / n, -q.c4 / n)


# --- inner product and angles ----------------------------------------

def test_inner_values():
    assert inner(Quat(1, 2, 3, 4), Quat(5, 6, 7, 8)) == 70
    assert inner(I_, J_) == 0


def test_inner_is_scalar_of_p_conj_q():
    rng = random.Random(48)
    for _ in range(300):
        p, q = _rand_quat(rng), _rand_quat(rng)
        assert inner(p, q) == pytest.approx(
            scalar_part(mul(p, conj(q))), abs=1e-12)


def test_perpendicular_and_parallel():
    assert is_perpendicular(I_, J_)
    assert is_perpendicular(ONE, K_)
    assert not is_perpendicular(I_, I_)
    assert is_parallel(Quat(0, 1, 0, 0), Quat(0, 2, 0, 0))
    assert is_parallel(Quat(1, 1, 0, 0), Quat(2, 2, 0, 0))
    assert not is_parallel(I_, J_)


def test_angle_between():
    assert angle_between(ONE, I_) == pytest.approx(math.pi / 2)
    assert angle_between(ONE, Quat(1, 1, 0, 0)) == pytest.approx(math.pi / 4)
    assert angle_between(I_, -I_) == pytest.approx(math.pi)
    assert angle_between(I_, I_) == 0.0
    with pytest.raises(ValueError, match="zero quaternion"):
        angle_between(ZERO, I_)


@pytest.mark.parametrize("p, q, want", [
    (Quat(1e-170, 0, 0, 0), Quat(0, 1e-170, 0, 0), math.pi / 2),
    (Quat(1e200, 0, 0, 0), Quat(1e200, 1e200, 0, 0), math.pi / 4),
    # Each N is normal, but their product over- or underflows.
    (Quat(1e100, 0, 0, 0), Quat(1e100, 1e100, 0, 0), math.pi / 4),
    (Quat(1e-100, 0, 0, 0), Quat(1e-100, 1e-100, 0, 0), math.pi / 4),
    (Quat(1e-170, 0, 0, 0), Quat(-1e170, 0, 0, 0), math.pi),
    (Quat(0, 5e-324, 0, 0), Quat(0, 1e300, 0, 0), 0.0),
])
def test_angle_between_at_extreme_magnitudes(p, q, want):
    assert angle_between(p, q) == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("p", [Quat(math.inf, 0, 0, 0),
                               Quat(0, math.nan, 0, 0)])
def test_angle_between_refuses_a_non_finite_component(p):
    with pytest.raises(ValueError, match="non-finite"):
        angle_between(p, ONE)


def test_angle_between_is_unchanged_where_the_norms_are_normal():
    rng = random.Random(53)
    for _ in range(2000):
        p = _rand_quat(rng) * 10.0 ** rng.randint(-75, 75)
        q = _rand_quat(rng) * 10.0 ** rng.randint(-75, 75)
        c = inner(p, q) / math.sqrt(norm(p) * norm(q))
        assert angle_between(p, q) == math.acos(max(-1.0, min(1.0, c)))


# --- polar form -------------------------------------------------------

def test_polar_known_values():
    form = polar(Quat(1, 1, 0, 0))
    assert form.magnitude == pytest.approx(math.sqrt(2), abs=1e-15)
    assert form.axis == (1, 0, 0)
    assert form.angle == pytest.approx(math.pi / 4, abs=1e-15)
    assert not form.degenerate

    form = polar(Quat(0, 0, 0, -1))
    assert form.angle == pytest.approx(math.pi / 2)
    assert form.axis == (0, 0, -1)


def test_polar_degenerate_scalar():
    form = polar(Quat(3, 0, 0, 0))
    assert form.degenerate
    assert form.magnitude == 3
    assert form.angle == 0.0
    assert form.axis == (0, 0, 1)
    assert polar(Quat(-3, 0, 0, 0)).angle == math.pi


def test_polar_of_zero_raises():
    with pytest.raises(ValueError, match="no polar form"):
        polar(ZERO)


FLOAT_MAX = 1.7976931348623157e308


def test_polar_when_the_squared_norm_overflows():
    form = polar(Quat(1e200, 1e200, 1e200, 1e200))
    assert form.magnitude == 2e200
    assert form.angle == pytest.approx(math.atan2(math.sqrt(3), 1), abs=1e-15)
    assert form.axis == pytest.approx((3 ** -0.5,) * 3, abs=1e-15)
    assert not form.degenerate
    assert polar(Quat(-FLOAT_MAX, 0, 0, 0)) == PolarForm(
        FLOAT_MAX, (0, 0, 1), math.pi, True)
    form = polar(Quat(0, 0, 1e300, -1e300))
    assert form.magnitude == pytest.approx(math.sqrt(2) * 1e300, rel=1e-15)
    assert form.angle == math.pi / 2
    assert form.axis == pytest.approx((0, INV_SQRT2, -INV_SQRT2), abs=1e-15)


def test_polar_when_the_squared_norm_underflows():
    form = polar(Quat(1e-170, 1e-170, 0, 0))
    assert form.magnitude == pytest.approx(math.sqrt(2) * 1e-170, rel=1e-15)
    assert form.degenerate  # a vector part within tol of zero has no axis
    # With no tolerance the axis and angle survive the rescaling.
    form = polar(Quat(1e-170, 1e-170, 0, 0), tol=0.0)
    assert form.angle == pytest.approx(math.pi / 4, abs=1e-15)
    assert form.axis == (1, 0, 0)
    for k in range(4):
        c = [0.0] * 4
        c[k] = 5e-324
        assert polar(Quat(*c)).magnitude == 5e-324


@pytest.mark.parametrize("q", [
    Quat(FLOAT_MAX, FLOAT_MAX, 0, 0),
    Quat(0, 1.5e308, 0, -1.5e308),
    Quat(math.inf, 0, 0, 0),
    Quat(0, 1, math.nan, 0),
    Quat(0, math.nan, 0, 0),
])
def test_polar_refuses_a_magnitude_beyond_the_floats(q):
    with pytest.raises(ValueError, match="not a finite float"):
        polar(q)


def test_polar_is_unchanged_where_the_squared_norm_is_normal():
    rng = random.Random(50)
    for _ in range(2000):
        q = _rand_quat(rng) * 10.0 ** rng.randint(-150, 150)
        mag = math.sqrt(norm(q))
        vlen = math.sqrt(q.c2 * q.c2 + q.c3 * q.c3 + q.c4 * q.c4)
        form = polar(q, tol=0.0)
        assert form.magnitude == mag
        assert form.axis == (q.c2 / vlen, q.c3 / vlen, q.c4 / vlen)
        assert form.angle == math.atan2(vlen, q.c1)


def test_from_polar_known():
    q = from_polar(PolarForm(math.sqrt(2), (1, 0, 0), math.pi / 4))
    assert _close(q, Quat(1, 1, 0, 0), 1e-12)


def test_from_polar_rejects_bad_axis():
    with pytest.raises(ValueError, match="unit vector"):
        from_polar(PolarForm(1.0, (1, 1, 0), 0.5))


@pytest.mark.parametrize("magnitude,angle", [
    (math.inf, 0.0), (-math.inf, 0.5), (math.nan, 0.5),
    (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf),
])
def test_from_polar_refuses_a_non_finite_magnitude_or_angle(magnitude, angle):
    with pytest.raises(ValueError, match="magnitude and angle must be finite"):
        from_polar(PolarForm(magnitude, (0.0, 0.0, 1.0), angle))


def test_from_polar_keeps_finite_extremes():
    assert from_polar(PolarForm(1.7976931348623157e308, (0, 0, 1), 0.0)) == (
        Quat(1.7976931348623157e308, 0.0, 0.0, 0.0))
    assert from_polar(PolarForm(5e-324, (1, 0, 0), math.pi / 2)).c2 == 5e-324


@pytest.mark.parametrize("magnitude", [-2.0, -5e-324, -1.7976931348623157e308])
def test_from_polar_refuses_a_negative_magnitude(magnitude):
    with pytest.raises(ValueError, match="magnitude must not be negative"):
        from_polar(PolarForm(magnitude, (1.0, 0.0, 0.0), 0.5))


@pytest.mark.parametrize("axis,angle", [
    ((1.0000000005, 0.0, 0.0), math.pi / 2),
    ((0.0, 0.0, -1.0000000005), -math.pi / 2),
    ((0.0, 1.0000000005, 0.0), math.pi / 2),
])
def test_from_polar_refuses_a_part_that_overflows(axis, angle):
    # The axis lies within DEFAULT_TOL of unit length, so the guard lets
    # it through; s times the axis part then exceeds the float maximum.
    with pytest.raises(ValueError, match="overflows"):
        from_polar(PolarForm(1.7976931348623157e308, axis, angle))


def test_from_polar_keeps_a_zero_magnitude_of_either_sign():
    assert from_polar(PolarForm(0.0, (1, 0, 0), 0.5)) == Quat(0, 0, 0, 0)
    assert from_polar(PolarForm(-0.0, (1, 0, 0), 0.5)) == Quat(0, 0, 0, 0)


def test_polar_roundtrip():
    rng = random.Random(49)
    for _ in range(500):
        q = _rand_quat(rng)
        if norm(q) < 1e-6:
            continue
        form = polar(q)
        assert 0.0 <= form.angle <= math.pi
        back = from_polar(form)
        scale = max(1.0, magnitude(q))
        assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(q, back))
