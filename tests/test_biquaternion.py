"""Complex-coefficient layer.

The interesting structure beyond the real algebra: three conjugations,
two inner products, zero divisors, the conditional inverse, and the
complex polar form.  The 2x2 matrix representation at the bottom is an
independent model of the same algebra, so agreement there is evidence
the multiplication is right, not a restatement of it.
"""

import cmath
import math
import random

import pytest

from biquat.biquaternion import (CONJUGATION_KINDS, BiQuat, bmul, conjugate,
                                 from_quat, inner_h, inner_q, inverse_h,
                                 is_central, is_real, norm_h, normalized,
                                 PolarFormC, polar_c, real_part)
from biquat.exact import ExactBiQuat, exact_conj, oracle_mul
from biquat.quaternion import Quat, conj, mul

from exact_draws import random_exact_biquat

X = BiQuat(0, 1j, 0, 0)
Y = BiQuat(0, 0, 1j, 0)
Z = BiQuat(0, 0, 0, 1j)
ONE_B = BiQuat(1, 0, 0, 0)


def _close(p: BiQuat, q: BiQuat, tol=1e-12) -> bool:
    return all(abs(a - b) <= tol for a, b in zip(p, q))


def _rand_biquat(rng, scale=2.0) -> BiQuat:
    return BiQuat(*(complex(rng.uniform(-scale, scale),
                            rng.uniform(-scale, scale)) for _ in range(4)))


def _rand_quat(rng, scale=2.0) -> Quat:
    return Quat(*(rng.uniform(-scale, scale) for _ in range(4)))


# --- multiplication ---------------------------------------------------

def test_pauli_realization():
    for s in (X, Y, Z):
        assert bmul(s, s) == ONE_B
    assert bmul(X, Y) == 1j * Z
    assert bmul(Y, Z) == 1j * X
    assert bmul(Z, X) == 1j * Y
    assert bmul(Y, X) == -1j * Z


def test_bmul_reduces_to_mul_bit_for_bit():
    rng = random.Random(50)
    for _ in range(500):
        p, q = _rand_quat(rng), _rand_quat(rng)
        b = bmul(from_quat(p), from_quat(q))
        f = mul(p, q)
        for got, want in zip(b, f):
            assert got.imag == 0.0
            # Equality of repr pins the sign of zero as well.
            assert repr(got.real) == repr(want)


def test_zero_divisors_exist():
    # (1 + i i^)(1 - i i^) = 0 with both factors nonzero: the complex
    # algebra is not a division algebra.
    a = BiQuat(1, 1j, 0, 0)
    b = BiQuat(1, -1j, 0, 0)
    assert bmul(a, b) == BiQuat(0, 0, 0, 0)
    assert inner_q(a, a) == 0


def test_scalar_and_operator_sugar():
    p = BiQuat(1, 2j, 0, 0)
    assert p * 2 == BiQuat(2, 4j, 0, 0)
    assert 1j * p == BiQuat(1j, -2, 0, 0)
    assert p + p == BiQuat(2, 4j, 0, 0) and type(p + p) is BiQuat
    assert p - p == BiQuat(0, 0, 0, 0)
    assert -p == BiQuat(-1, -2j, 0, 0)
    q = BiQuat(0, 1, 0, 0)
    assert p * q == bmul(p, q)


@pytest.mark.parametrize("expr", [
    "(0, 0, 0, 0) + q", "(1, 2) + b", "0 + q", "0 + b", "q + (0, 0, 0, 0)",
    "b + (1, 2)", "q + b", "b + q",
])
def test_addition_refuses_other_operands(expr):
    # A tuple on the left must not concatenate with a Quat or BiQuat.
    with pytest.raises(TypeError, match="unsupported operand"):
        eval(expr, {"q": Quat(1, 0, 0, 0), "b": BiQuat(1, 0, 0, 0)})


@pytest.mark.parametrize("expr", [
    'q * "a"', 'b * "a"', "q * b", "b * q", "q - 1", "q - b", "b - q",
])
def test_products_and_differences_refuse_other_operands(expr):
    with pytest.raises(TypeError):
        eval(expr, {"q": Quat(1, 0, 0, 0), "b": BiQuat(1, 0, 0, 0)})


# --- conjugations ------------------------------------------------------

def test_conjugation_values():
    q = BiQuat(1 + 2j, 3 - 1j, 0.5j, -2)
    assert conjugate(q, "complex") == BiQuat(1 - 2j, 3 + 1j, -0.5j, -2)
    assert conjugate(q, "quaternion") == BiQuat(1 + 2j, -3 + 1j, -0.5j, 2)
    assert conjugate(q, "hermitian") == BiQuat(1 - 2j, -3 - 1j, 0.5j, 2)


def test_conjugations_are_involutions():
    rng = random.Random(51)
    for _ in range(200):
        q = _rand_biquat(rng)
        for kind in CONJUGATION_KINDS:
            assert conjugate(conjugate(q, kind), kind) == q


def test_hermitian_is_composition():
    rng = random.Random(52)
    for _ in range(200):
        q = _rand_biquat(rng)
        via = conjugate(conjugate(q, "complex"), "quaternion")
        assert via == conjugate(q, "hermitian")


def test_conjugation_product_rules_float():
    # Complex conjugation distributes over products; the other two
    # reverse the factor order.
    rng = random.Random(53)
    for _ in range(300):
        p, q = _rand_biquat(rng), _rand_biquat(rng)
        pq = bmul(p, q)
        assert _close(conjugate(pq, "complex"),
                      bmul(conjugate(p, "complex"), conjugate(q, "complex")))
        assert _close(conjugate(pq, "quaternion"),
                      bmul(conjugate(q, "quaternion"),
                           conjugate(p, "quaternion")))
        assert _close(conjugate(pq, "hermitian"),
                      bmul(conjugate(q, "hermitian"),
                           conjugate(p, "hermitian")))


def test_conjugation_product_rules_exact():
    """Same laws, no tolerance: rational oracle arithmetic."""
    rng = random.Random(54)
    for _ in range(300):
        p = random_exact_biquat(rng, limit=30)
        q = random_exact_biquat(rng, limit=30)
        pq = oracle_mul(p, q)
        assert exact_conj(pq, "complex") == oracle_mul(
            exact_conj(p, "complex"), exact_conj(q, "complex"))
        assert exact_conj(pq, "quaternion") == oracle_mul(
            exact_conj(q, "quaternion"), exact_conj(p, "quaternion"))
        assert exact_conj(pq, "hermitian") == oracle_mul(
            exact_conj(q, "hermitian"), exact_conj(p, "hermitian"))


def test_unknown_conjugation_kind():
    with pytest.raises(ValueError, match="unknown conjugation kind"):
        conjugate(ONE_B, "transpose")


# --- inner products and norms ------------------------------------------

def test_inner_h_values():
    q = BiQuat(1j, 0.5, 0, -0.5j)
    assert inner_h(q, q) == pytest.approx(1.5)
    assert inner_h(X, Y) == 0
    assert inner_h(X, X) == 1


def test_inner_q_detects_null():
    assert inner_q(BiQuat(1, 1j, 0, 0), BiQuat(1, 1j, 0, 0)) == 0
    assert inner_q(ONE_B, ONE_B) == 1
    # inner_q is the scalar part of p * conj_quaternion(q).
    rng = random.Random(55)
    for _ in range(200):
        p, q = _rand_biquat(rng), _rand_biquat(rng)
        s = bmul(p, conjugate(q, "quaternion")).c1
        assert abs(inner_q(p, q) - s) <= 1e-12


def test_norm_h_and_normalized():
    q = BiQuat(3, 4j, 0, 0)
    assert norm_h(q) == 25
    u = normalized(q)
    assert norm_h(u) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError, match="cannot normalize"):
        normalized(BiQuat(0, 0, 0, 0))


@pytest.mark.parametrize("q, want", [
    (BiQuat(1e200, 0, 0, 0), BiQuat(1, 0, 0, 0)),
    (BiQuat(1e-170, 0, 0, 0), BiQuat(1, 0, 0, 0)),
    (BiQuat(0, 3e200j, 0, -4e200), BiQuat(0, 0.6j, 0, -0.8)),
    (BiQuat(3e-170 + 4e-170j, 0, 0, 0), BiQuat(0.6 + 0.8j, 0, 0, 0)),
    (BiQuat(0, 0, 5e-324j, 0), BiQuat(0, 0, 1j, 0)),
])
def test_normalized_when_the_norm_over_or_underflows(q, want):
    assert _close(normalized(q), want, 1e-15)


def test_normalized_is_unchanged_where_the_norm_is_normal():
    rng = random.Random(57)
    for _ in range(2000):
        q = _rand_biquat(rng) * 10.0 ** rng.randint(-150, 150)
        s = 1.0 / (norm_h(q) ** 0.5)
        assert normalized(q) == (q.c1 * s, q.c2 * s, q.c3 * s, q.c4 * s)


@pytest.mark.parametrize("q", [BiQuat(math.inf, 0, 0, 0),
                               BiQuat(0, complex(0, math.nan), 0, 0)])
def test_normalized_refuses_a_non_finite_component(q):
    with pytest.raises(ValueError, match="non-finite"):
        normalized(q)


def test_symmetrized_norm_identity():
    # q q^dagger + q* q^bar averages to the real scalar norm_h(q): the
    # vector parts of the two products cancel exactly.
    rng = random.Random(56)
    for _ in range(300):
        q = _rand_biquat(rng)
        a = bmul(q, conjugate(q, "hermitian"))
        b = bmul(conjugate(q, "complex"), conjugate(q, "quaternion"))
        s = (a + b) * 0.5
        n = norm_h(q)
        assert abs(s.c1 - n) <= 1e-12 * max(1.0, n)
        assert abs(s.c2) <= 1e-12 * max(1.0, n)
        assert abs(s.c3) <= 1e-12 * max(1.0, n)
        assert abs(s.c4) <= 1e-12 * max(1.0, n)


def test_norm_h_is_the_sum_of_squares_in_part_order():
    # Bit for bit the eight squares summed left to right, real part
    # before imaginary part, c1 to c4, at the edges of the floats too.
    rng = random.Random(29)
    edges = (0.0, -0.0, 5e-324, -5e-324, 1e-160, 1e154, 1e308, -1e308,
             math.inf, -math.inf, math.nan, 1.0, -0.5)

    def part():
        return rng.choice(edges) if rng.random() < 0.4 else rng.uniform(-2, 2)

    for _ in range(3000):
        q = BiQuat(*(complex(part(), part()) for _ in range(4)))
        want = (q.c1.real * q.c1.real + q.c1.imag * q.c1.imag
                + q.c2.real * q.c2.real + q.c2.imag * q.c2.imag
                + q.c3.real * q.c3.real + q.c3.imag * q.c3.imag
                + q.c4.real * q.c4.real + q.c4.imag * q.c4.imag)
        assert repr(norm_h(q)) == repr(want)


def test_norm_h_multiplicative_for_real_factor():
    rng = random.Random(57)
    for _ in range(500):
        p = _rand_biquat(rng)
        q = from_quat(_rand_quat(rng))
        want = norm_h(p) * norm_h(q)
        assert norm_h(bmul(p, q)) == pytest.approx(want, rel=1e-12)
        assert norm_h(bmul(q, p)) == pytest.approx(want, rel=1e-12)


def test_norm_h_not_multiplicative_in_general():
    p = BiQuat(1, 1j, 0, 0)
    q = BiQuat(1, -1j, 0, 0)
    assert norm_h(bmul(p, q)) == 0.0   # zero divisors annihilate
    assert norm_h(p) * norm_h(q) == 4.0


# --- predicates ---------------------------------------------------------

def test_is_real_and_central():
    assert is_real(from_quat(Quat(1, 2, 3, 4)))
    assert not is_real(BiQuat(1, 1e-6j, 0, 0))
    assert is_real(BiQuat(1, 1e-12j, 0, 0))  # inside default tolerance
    assert is_central(BiQuat(2 + 3j, 0, 0, 0))
    assert not is_central(X)


def test_real_part_roundtrip():
    q = Quat(0.5, -1.5, 2.0, 0.0)
    assert real_part(from_quat(q)) == q


# --- conditional inverse -------------------------------------------------

def test_inverse_h_real_and_imaginary():
    q = from_quat(Quat(1, 1, 0, 0))
    inv = inverse_h(q)
    assert _close(bmul(q, inv), ONE_B)
    assert _close(bmul(inv, q), ONE_B)

    assert inverse_h(X) == X
    assert _close(bmul(X, inverse_h(X)), ONE_B)
    w = BiQuat(2j, 0, -1j, 0)
    assert _close(bmul(w, inverse_h(w)), ONE_B)


@pytest.mark.parametrize("q, want", [
    (BiQuat(1e200, 0, 0, 0), BiQuat(1e-200, 0, 0, 0)),
    (BiQuat(1e-170, 0, 0, 0), BiQuat(1e170, 0, 0, 0)),
    (BiQuat(0, 2e200j, 0, 0), BiQuat(0, 5e-201j, 0, 0)),
    (BiQuat(1e-170j, 0, 0, 0), BiQuat(-1e170j, 0, 0, 0)),
])
def test_inverse_h_when_the_norm_over_or_underflows(q, want):
    assert all(g == pytest.approx(w, rel=1e-15, abs=0.0)
               for g, w in zip(inverse_h(q), want))


def test_inverse_h_roundtrip_at_extreme_magnitudes():
    rng = random.Random(58)
    for _ in range(500):
        q = from_quat(_rand_quat(rng)) * 10.0 ** rng.randint(-300, 300)
        if rng.random() < 0.5:
            q = q * 1j
        assert _close(bmul(q, inverse_h(q)), ONE_B)


def test_inverse_h_is_unchanged_where_the_norm_is_normal():
    rng = random.Random(59)
    for _ in range(2000):
        q = from_quat(_rand_quat(rng)) * 10.0 ** rng.randint(-150, 150)
        n = norm_h(q)
        d = conjugate(q, "hermitian")
        assert inverse_h(q) == (d.c1 / n, d.c2 / n, d.c3 / n, d.c4 / n)


@pytest.mark.parametrize("q, match", [
    (BiQuat(1e-320, 0, 0, 0), "not a finite float"),
    (BiQuat(math.inf, 0, 0, 0), "non-finite"),
    (BiQuat(0, complex(0, math.nan), 0, 0), "non-finite"),
])
def test_inverse_h_refuses_a_non_finite_input_or_result(q, match):
    with pytest.raises(ValueError, match=match):
        inverse_h(q)


def test_inverse_h_rejects_mixed_and_zero():
    with pytest.raises(ValueError, match="neither all real nor all imaginary"):
        inverse_h(BiQuat(1, 1j, 0, 0))
    with pytest.raises(ValueError, match="non-invertible"):
        inverse_h(BiQuat(0, 0, 0, 0))


# --- complex polar form ---------------------------------------------------

def test_polar_c_real_input_matches_real_polar():
    form = polar_c(from_quat(Quat(1, 1, 0, 0)))
    assert form.magnitude == pytest.approx(math.sqrt(2))
    assert abs(form.angle - math.pi / 4) <= 1e-15
    assert _close(form.axis, BiQuat(0, 1, 0, 0))
    assert not form.degenerate


def test_polar_c_hyperbolic_angle():
    # cosh(1) + i sinh(1) i^ has unit complex magnitude and angle i:
    # cos(i) = cosh(1), sin(i) = i sinh(1).
    q = BiQuat(math.cosh(1.0), 1j * math.sinh(1.0), 0, 0)
    form = polar_c(q)
    assert abs(form.magnitude - 1.0) <= 1e-12
    assert abs(form.angle - 1j) <= 1e-12
    assert _close(form.axis, BiQuat(0, 1, 0, 0))


def test_polar_c_reconstruction():
    rng = random.Random(58)
    rebuilt = 0
    for _ in range(300):
        q = _rand_biquat(rng)
        try:
            form = polar_c(q)
        except ValueError:
            continue
        c, s = cmath.cos(form.angle), cmath.sin(form.angle)
        back = BiQuat(form.magnitude * c, 0, 0, 0) + (form.magnitude * s) * form.axis
        scale = max(1.0, math.sqrt(norm_h(q)))
        assert all(abs(a - b) <= 1e-9 * scale for a, b in zip(q, back))
        rebuilt += 1
    assert rebuilt > 250  # random inputs are almost never null


def test_polar_c_degenerate_scalar():
    form = polar_c(BiQuat(2j, 0, 0, 0))
    assert form.degenerate
    assert form.axis == BiQuat(0, 0, 0, 1)
    assert abs(form.magnitude * cmath.cos(form.angle) - 2j) <= 1e-12


def test_polar_c_rejects_null():
    with pytest.raises(ValueError, match="null biquaternion"):
        polar_c(BiQuat(1, 1j, 0, 0))
    # Nonzero, non-null element whose vector part alone is null: no
    # unit axis exists even though the magnitude does.
    with pytest.raises(ValueError, match="null vector part"):
        polar_c(BiQuat(2, 1, 1j, 0))


@pytest.mark.parametrize("q, mag, axis, angle", [
    (BiQuat(1e200, 0, 0, 0), 1e200, BiQuat(0, 0, 0, 1), 0),
    (BiQuat(1e-170, 0, 0, 0), 1e-170, BiQuat(0, 0, 0, 1), 0),
    (BiQuat(5e-324, 0, 0, 0), 5e-324, BiQuat(0, 0, 0, 1), 0),
    (BiQuat(1e200, 1e200, 0, 0), math.sqrt(2) * 1e200, BiQuat(0, 1, 0, 0),
     math.pi / 4),
    (BiQuat(0, 0, 3e-170, 0), 3e-170, BiQuat(0, 0, 1, 0), math.pi / 2),
])
def test_polar_c_when_the_norm_over_or_underflows(q, mag, axis, angle):
    form = polar_c(q)
    assert abs(form.magnitude - mag) <= 1e-15 * mag
    assert _close(form.axis, axis, 1e-15)
    assert abs(form.angle - angle) <= 1e-15
    assert form.degenerate == (axis == BiQuat(0, 0, 0, 1))


@pytest.mark.parametrize("q, match", [
    (BiQuat(1e200, 1e200j, 0, 0), "null biquaternion"),  # null, not inf-inf
    (BiQuat(1e-5, 0, 0, 0), "null biquaternion"),  # absolute tol, normal N
    (BiQuat(1.7e308, 1.7e308, 0, 0), "not a finite float"),
    (BiQuat(math.inf, 0, 0, 0), "non-finite"),
    (BiQuat(1, complex(0, math.nan), 0, 0), "non-finite"),
])
def test_polar_c_refusals_at_extreme_magnitudes(q, match):
    with pytest.raises(ValueError, match=match):
        polar_c(q)


def _polar_c_unscaled(q, tol=1e-9):
    # polar_c as it read before the rescale, the reference where norm_h
    # is a normal float.
    n = inner_q(q, q)
    if abs(n) <= tol:
        raise ValueError("no polar form: null biquaternion")
    mag = cmath.sqrt(n)
    v2 = q.c2 * q.c2 + q.c3 * q.c3 + q.c4 * q.c4
    s = cmath.sqrt(v2)
    if abs(s) <= tol:
        if max(abs(q.c2), abs(q.c3), abs(q.c4)) > tol:
            raise ValueError("no polar form: null vector part")
        z = -1j * cmath.log(q.c1 / mag)
        return PolarFormC(mag, BiQuat(0j, 0j, 0j, 1 + 0j), z, True)
    axis = BiQuat(0j, q.c2 / s, q.c3 / s, q.c4 / s)
    z = -1j * cmath.log(q.c1 / mag + 1j * (s / mag))
    return PolarFormC(mag, axis, z, False)


def _outcome(f, q):
    try:
        return repr(f(q))  # repr tells signed zeros apart
    except ValueError as exc:
        return str(exc)


def test_polar_c_is_unchanged_where_the_norm_is_normal():
    rng = random.Random(60)
    seen = set()
    for k in range(2000):
        q = _rand_biquat(rng) * 10.0 ** rng.randint(-150, 150)
        if k % 4 == 1:  # pure scalar: the degenerate branch
            q = BiQuat(q.c1, 0j, 0j, 0j)
        elif k % 4 == 2:  # null: the refusal
            q = BiQuat(q.c1, 1j * q.c1, 0j, 0j)
        assert 2.2250738585072014e-308 <= norm_h(q) <= 1.7976931348623157e308
        want = _outcome(_polar_c_unscaled, q)
        assert _outcome(polar_c, q) == want
        seen.add(want[:11])
    assert {"PolarFormC(", "no polar fo"} <= seen


# --- matrix representation ------------------------------------------------

# 2x2 complex matrices as row tuples, with the product and the usual
# allclose rule written out, so the check needs no third-party package.
_SX = ((0, 1), (1, 0))
_SY = ((0, -1j), (1j, 0))
_SZ = ((1, 0), (0, -1))
_ID = ((1, 0), (0, 1))


def _rep(q: BiQuat) -> tuple:
    """c1 I - i (c2 sx + c3 sy + c4 sz), entry by entry."""
    return tuple(tuple(q.c1 * e + q.c2 * (-1j * x) + q.c3 * (-1j * y)
                       + q.c4 * (-1j * z) for e, x, y, z in zip(*rows))
                 for rows in zip(_ID, _SX, _SY, _SZ))


def _matmul(a: tuple, b: tuple) -> tuple:
    return tuple(tuple(a[r][0] * b[0][c] + a[r][1] * b[1][c] for c in range(2))
                 for r in range(2))


def _allclose(a: tuple, b: tuple, rtol=1e-05, atol=1e-08) -> bool:
    """Every entry within atol + rtol * |b| of b's, as allclose reads it."""
    return all(abs(x - y) <= atol + rtol * abs(y)
               for ra, rb in zip(a, b, strict=True)
               for x, y in zip(ra, rb, strict=True))


def test_matrix_representation_is_homomorphism():
    rng = random.Random(59)
    for _ in range(300):
        p, q = _rand_biquat(rng), _rand_biquat(rng)
        assert _allclose(_rep(bmul(p, q)), _matmul(_rep(p), _rep(q)),
                         atol=1e-12)


def test_pauli_elements_map_to_pauli_matrices():
    assert _allclose(_rep(X), _SX)
    assert _allclose(_rep(Y), _SY)
    assert _allclose(_rep(Z), _SZ)


def test_matrix_check_rejects_what_it_should():
    # The plain-Python check can fail: a wrong Pauli matrix, a product
    # taken in the wrong order, and a zero entry moved by 1e-9 against
    # atol 1e-12.  On an entry of modulus 1, rtol's 1e-05 admits 1e-9.
    assert not _allclose(_rep(X), _SY)
    rng = random.Random(59)
    for _ in range(20):
        p, q = _rand_biquat(rng), _rand_biquat(rng)
        assert not _allclose(_rep(bmul(q, p)), _matmul(_rep(p), _rep(q)),
                             atol=1e-12)
    prod = _matmul(_rep(X), _rep(Y))
    assert prod[0][1] == 0 and abs(prod[0][0]) == 1
    off = ((prod[0][0], prod[0][1] + 1e-9), prod[1])
    assert not _allclose(off, prod, atol=1e-12)
    assert not _allclose(prod, off, atol=1e-12)
    on = ((prod[0][0] + 1e-9, prod[0][1]), prod[1])
    assert _allclose(on, prod, atol=1e-12)


def test_norm_h_relation_documented():
    # The product norm N(pq) only factors when one side is real (see
    # test_norm_h_multiplicative_for_real_factor); for general inputs
    # the symmetrized identity above is the correct replacement.  Spot
    # values showing the naive factorization failing:
    p = BiQuat(1, 1j, 0, 0)
    q = BiQuat(1, -1j, 0, 0)
    print(f"norm_h(pq)={norm_h(bmul(p, q))} vs product "
          f"{norm_h(p) * norm_h(q)} (not equal, by design)")
    assert norm_h(bmul(p, q)) != norm_h(p) * norm_h(q)
