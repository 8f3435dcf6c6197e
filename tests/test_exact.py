"""The rational oracle: structure table, exact ops, agreement with floats."""

import ast
import inspect
import math
import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from biquat import exact
from biquat.biquaternion import BiQuat, bmul, conjugate
from biquat.exact import (STRUCTURE, ExactBiQuat, ExactScalar,
                          check_basis_associativity, exact_conj, oracle_mul,
                          random_dyadic, random_exact_biquat, random_rational)


def _exact(*coords) -> ExactBiQuat:
    return ExactBiQuat(tuple(Fraction(c) for c in coords))


# --- structure table -----------------------------------------------------

def test_identity_basis_element():
    for b in range(8):
        assert STRUCTURE[0][b] == (1, b)
        assert STRUCTURE[b][0] == (1, b)


def test_structure_spot_values():
    # Index 4s+u: s says whether the commuting i is present, u picks the
    # quaternion unit.
    assert STRUCTURE[1][2] == (1, 3)    # i^ j^ = k^
    assert STRUCTURE[2][1] == (-1, 3)   # j^ i^ = -k^
    assert STRUCTURE[1][1] == (-1, 0)   # i^ i^ = -1
    assert STRUCTURE[4][4] == (-1, 0)   # i * i = -1
    assert STRUCTURE[5][5] == (1, 0)    # (i i^)^2 = +1
    assert STRUCTURE[4][1] == (1, 5)    # i * i^ = i i^
    assert STRUCTURE[5][6] == (-1, 3)   # (i i^)(i j^) = -k^


def test_basis_associativity():
    assert check_basis_associativity()


# --- exact scalar ----------------------------------------------------------

def test_exact_scalar_arithmetic():
    a = ExactScalar.of(Fraction(3, 5), Fraction(-2, 7))
    b = ExactScalar.of(1, 1)
    assert str(a) == "3/5-2/7i"
    assert str(ExactScalar.of(0, Fraction(1, 2))) == "1/2i"
    assert str(ExactScalar.of(2)) == "2"
    assert a + b == ExactScalar.of(Fraction(8, 5), Fraction(5, 7))
    assert a - a == ExactScalar.of(0)
    assert -b == ExactScalar.of(-1, -1)
    assert b * b == ExactScalar.of(0, 2)
    assert a * 5 == ExactScalar.of(3, Fraction(-10, 7))
    assert b.conjugate() == ExactScalar.of(1, -1)
    assert b.abs2() == 2
    assert b.to_complex() == 1 + 1j


def test_exact_scalar_is_an_immutable_value():
    s = ExactScalar.of(Fraction(1, 2), -3)
    assert s == ExactScalar(Fraction(1, 2), Fraction(-3))
    assert hash(s) == hash(ExactScalar.of(Fraction(2, 4), -3))
    assert s != ExactScalar.of(Fraction(1, 2), 3)
    assert repr(s) == "ExactScalar(re=Fraction(1, 2), im=Fraction(-3, 1))"
    with pytest.raises(AttributeError):
        s.re = Fraction(0)
    with pytest.raises(AttributeError):
        s.extra = 1
    assert 2 * s == s * 2 == ExactScalar.of(1, -6)
    assert s * 3 == Fraction(3) * s == ExactScalar.of(Fraction(3, 2), -9)


@pytest.mark.parametrize("expr", [
    "s * 2.5", "2.5 * s", "s * 1j", "(1, 2) + s", "s + (1, 2)", "0 + s",
    "s + 1", "s - (1, 2)", "(1, 2) * s",
])
def test_exact_scalar_refuses_other_operands(expr):
    # A tuple on either side must not concatenate or repeat it.
    with pytest.raises(TypeError):
        eval(expr, {"s": ExactScalar.of(1, 2)})


# --- exact biquaternion ------------------------------------------------------

def test_exact_biquat_construction_and_parts():
    x = _exact(1, 2, 3, 4, 5, 6, 7, 8)
    assert x.component(1) == ExactScalar.of(1, 5)
    assert x.component(4) == ExactScalar.of(4, 8)
    assert x.scalars()[2] == ExactScalar.of(3, 7)
    assert str(_exact(0, 1, 0, 0, 2, 0, 0, 0)) == "(2i, 1, 0, 0)"
    with pytest.raises(ValueError, match="exactly 8"):
        ExactBiQuat((Fraction(1),))


def test_equal_values_are_equal_and_hash_equal():
    # Each of these reaches 1/2 + (1/6) i through a different unreduced
    # numerator/denominator pair; the stored form must not show it.
    x = _exact(Fraction(1, 2), 0, 0, 0, Fraction(1, 6), 0, 0, 0)
    ways = [
        ExactBiQuat(("2/4", 0, 0, 0, Fraction(2, 12), 0, 0, 0)),
        ExactBiQuat((0.5, 0, 0, 0, Fraction(1, 6), 0.0, 0, 0)),
        x + x - x,
        -(-x),
        oracle_mul(_exact(6, 0, 0, 0, 0, 0, 0, 0),
                   _exact(Fraction(1, 12), 0, 0, 0, Fraction(1, 36), 0, 0, 0)),
        exact_conj(exact_conj(x, "quaternion"), "quaternion"),
    ]
    for y in ways:
        assert y == x
        assert hash(y) == hash(x)
    zero = _exact(0, 0, 0, 0, 0, 0, 0, 0)
    assert x - x == zero and hash(x - x) == hash(zero)
    assert x != _exact(Fraction(1, 2), 0, 0, 0, Fraction(1, 3), 0, 0, 0)
    assert len({x, *ways, zero}) == 2
    with pytest.raises(AttributeError):
        x.den = 1


# Zeros, small and large integers, and fractions with large numerators
# or denominators, of either sign.
_PRINTED = st.one_of(
    st.just(0),
    st.integers(-5, 5),
    st.integers(),
    st.fractions(),
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40),
              st.integers(1, 10 ** 20)),
)


@given(st.lists(_PRINTED, min_size=8, max_size=8))
def test_str_is_the_text_of_the_fraction_scalars(coords):
    x = ExactBiQuat(coords)
    assert str(x) == "(" + ", ".join(str(s) for s in x.scalars()) + ")"


def test_coords_returns_the_fractions_passed_in():
    vals = (Fraction(1, 3), Fraction(-5, 7), 0, Fraction(2 ** 60 + 1, 3 ** 40),
            Fraction(-9, 2 ** 70), 4, Fraction(22, 6), Fraction(-1, 97))
    x = ExactBiQuat(vals)
    assert x.coords == tuple(Fraction(v) for v in vals)
    assert all(type(c) is Fraction for c in x.coords)
    assert [(s.re, s.im) for s in x.scalars()] == [
        (Fraction(vals[k]), Fraction(vals[k + 4])) for k in range(4)]


def test_to_floats_is_bit_identical_to_float_of_fraction():
    # Non-dyadic rationals round, and parts above 2**53 round again, so
    # only a correctly rounded division gives float(Fraction)'s bits.
    rng = random.Random(81)
    fixed = (Fraction(1, 3), Fraction(-2, 7), Fraction(2 ** 53 + 1),
             Fraction(-(2 ** 100 + 1), 3 ** 50), Fraction(1, 3 * 2 ** 1074),
             Fraction(5, 3 * 2 ** 1073), Fraction(0), Fraction(10 ** 30, 7))
    samples = [fixed]
    for _ in range(2000):
        bits = rng.choice((10, 53, 60, 120))
        samples.append(tuple(
            Fraction(rng.randint(-2 ** bits, 2 ** bits),
                     rng.randint(1, 2 ** rng.choice((10, 53, 60, 120))))
            for _ in range(8)))
    for coords in samples:
        got = ExactBiQuat(coords).to_floats()
        want = [complex(float(coords[k]), float(coords[k + 4]))
                for k in range(4)]
        assert [(z.real.hex(), z.imag.hex()) for z in got] == [
            (z.real.hex(), z.imag.hex()) for z in want]


@pytest.mark.parametrize("dyadic,draw", [(True, random_dyadic),
                                         (False, random_rational)])
def test_random_exact_biquat_is_eight_scalar_draws(dyadic, draw):
    # Same seed, same values, same stream position afterwards: the
    # seeded samples of the acceptance criteria are those of eight
    # random_dyadic / random_rational draws per biquaternion.
    for seed, limit in ((99, 97), (2025, 30), (75, 20), (1, 1), (2, 1000),
                        (3, 2 ** 70)):
        got_rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(300):
            got = random_exact_biquat(got_rng, limit=limit, dyadic=dyadic)
            want = ExactBiQuat(tuple(draw(ref_rng, limit) for _ in range(8)))
            assert got == want
        assert got_rng.getstate() == ref_rng.getstate()


def test_random_exact_biquat_edge_limits():
    # limit 0 is one value for a dyadic draw and an empty range for a
    # rational denominator; a negative limit is empty either way.
    got_rng, ref_rng = random.Random(5), random.Random(5)
    got = random_exact_biquat(got_rng, limit=0, dyadic=True)
    assert got == ExactBiQuat(tuple(random_dyadic(ref_rng, 0)
                                    for _ in range(8)))
    assert got_rng.getstate() == ref_rng.getstate()
    for limit, dyadic in ((0, False), (-1, True), (-1, False)):
        with pytest.raises(ValueError, match="empty range"):
            random_exact_biquat(random.Random(5), limit=limit, dyadic=dyadic)
    with pytest.raises(TypeError):
        random_exact_biquat(random.Random(5), limit=2.5)


def test_exact_biquat_vector_ops():
    x = _exact(1, 0, 0, 0, 1, 0, 0, 0)
    y = _exact(0, 2, 0, 0, 0, 0, 0, 0)
    assert (x + y).coords == (1, 2, 0, 0, 1, 0, 0, 0)
    assert (x - y).coords == (1, -2, 0, 0, 1, 0, 0, 0)
    assert (-x).coords == (-1, 0, 0, 0, -1, 0, 0, 0)


def test_float_embedding_roundtrip():
    q = BiQuat(0.5 + 0.25j, -3.0, 0.1j, 7.0 - 2.0j)
    back = ExactBiQuat.from_biquat(q).to_floats()
    assert back == tuple(q)
    # 0.1 is not dyadic, but Fraction(float) keeps the exact binary
    # value, so the round trip is still lossless.
    assert ExactBiQuat.from_biquat(q).coords[6] == Fraction(0.1)


def test_oracle_mul_known_products():
    one = _exact(1, 0, 0, 0, 0, 0, 0, 0)
    ih = _exact(0, 1, 0, 0, 0, 0, 0, 0)
    jh = _exact(0, 0, 1, 0, 0, 0, 0, 0)
    kh = _exact(0, 0, 0, 1, 0, 0, 0, 0)
    assert oracle_mul(ih, jh) == kh
    assert oracle_mul(ih, ih) == -one
    x = _exact(0, 0, 0, 0, 0, 1, 0, 0)  # i i^
    assert oracle_mul(x, x) == one


def test_oracle_mul_golden_sandwich():
    # (1 + j^) (i - i i^) (1 + j^) = -2 i i^ + 2 i j^, the first golden
    # example before normalization.
    p = _exact(1, 0, 1, 0, 0, 0, 0, 0)
    q = _exact(0, 0, 0, 0, 1, -1, 0, 0)
    out = oracle_mul(oracle_mul(p, q), p)
    assert out == _exact(0, 0, 0, 0, 0, -2, 2, 0)


def test_oracle_mul_rational_inputs():
    p = ExactBiQuat((Fraction(1, 3), 0, 0, 0, 0, 0, 0, 0))
    q = ExactBiQuat((Fraction(3, 7), 0, 0, 0, Fraction(1, 2), 0, 0, 0))
    out = oracle_mul(p, q)
    assert out.component(1) == ExactScalar.of(Fraction(1, 7), Fraction(1, 6))


# --- the generated product ------------------------------------------------

def _reference_mul(p, q, structure=STRUCTURE):
    # The product read off the table one term at a time, in Fractions.
    out = [Fraction(0)] * 8
    for a, pa in enumerate(p.coords):
        for b, qb in enumerate(q.coords):
            sign, c = structure[a][b]
            out[c] += sign * pa * qb
    return ExactBiQuat(out)


def _basis(k):
    return ExactBiQuat(tuple(int(i == k) for i in range(8)))


def _sparse_pair(rng):
    # Identity-shaped: a real rotor on two units, a state with two
    # complex amplitudes, as in the p q p identities of verify-theorem.
    p, q = [0] * 8, [0] * 8
    for k in rng.sample(range(4), 2):
        p[k] = random_rational(rng, 30)
    for k in rng.sample(range(4), 2):
        q[k], q[k + 4] = random_rational(rng, 30), random_rational(rng, 30)
    return ExactBiQuat(p), ExactBiQuat(q)


def _sample_pairs(seed):
    rng = random.Random(seed)
    pairs = [(_basis(a), _basis(b)) for a in range(8) for b in range(8)]
    for _ in range(200):
        pairs.append((random_exact_biquat(rng, dyadic=True),
                      random_exact_biquat(rng, dyadic=True)))
        pairs.append((random_exact_biquat(rng), random_exact_biquat(rng)))
        pairs.append(_sparse_pair(rng))
    return pairs


def test_generated_product_equals_the_table_read_term_by_term():
    for p, q in _sample_pairs(82):
        assert oracle_mul(p, q) == _reference_mul(p, q)


def test_generated_product_follows_a_flipped_sign():
    # Flip one entry at a time: the product generated from that table
    # changes on exactly the basis pair that uses the entry, and agrees
    # with the term-by-term reference over the same flipped table.
    # The original keeps its source: each text has its own file name.
    pairs = _sample_pairs(83)[64:94]  # past the basis pairs
    source = inspect.getsource(oracle_mul)
    for a in range(8):
        for b in range(8):
            table = [list(row) for row in STRUCTURE]
            sign, c = table[a][b]
            table[a][b] = (-sign, c)
            mul = exact._generate_product(table)
            changed = {(x, y) for x in range(8) for y in range(8)
                       if mul(_basis(x), _basis(y))
                       != oracle_mul(_basis(x), _basis(y))}
            assert changed == {(a, b)}
            for p, q in pairs:
                assert mul(p, q) == _reference_mul(p, q, table)
    assert inspect.getsource(oracle_mul) == source


def test_generated_product_is_a_documented_function_of_this_module():
    # The perfbench tracer wraps only functions whose __module__ is the
    # module that binds them.
    assert oracle_mul.__module__ == "biquat.exact"
    assert oracle_mul.__name__ == "oracle_mul"
    assert oracle_mul.__doc__


def _raw_gcd(p, q):
    # gcd of the unreduced product: the reference's numerators over
    # p.den * q.den, and that denominator.
    den = p.den * q.den
    return math.gcd(den, *(int(c * den) for c in _reference_mul(p, q).coords))


@pytest.mark.parametrize("p,q,raw_gcd", [
    # 1/2 * 1/3 over 6: already reduced.
    (_exact(Fraction(1, 2), 0, 0, 0, 0, 0, 0, 0),
     _exact(Fraction(1, 3), 0, 0, 0, 0, 0, 0, 1), 1),
    # (1/2 + i^/4)(2 + 2 j^) = 1 + i^/2 + j^ + k^/2 over 4, gcd 2.
    (_exact(Fraction(1, 2), Fraction(1, 4), 0, 0, 0, 0, 0, 0),
     _exact(2, 0, 2, 0, 0, 0, 0, 0), 2),
    # (1 + i i^)(1 - i i^) / 6 = 0: every numerator vanishes.
    (_exact(Fraction(1, 2), 0, 0, 0, 0, Fraction(1, 2), 0, 0),
     _exact(Fraction(1, 3), 0, 0, 0, 0, Fraction(-1, 3), 0, 0), 6),
    (_exact(0, 0, 0, 0, 0, 0, 0, 0),
     _exact(Fraction(1, 7), 0, 0, 0, 0, 0, 0, Fraction(2, 9)), 63),
])
def test_oracle_mul_reduces_as_fractions_do(p, q, raw_gcd):
    assert _raw_gcd(p, q) == raw_gcd
    out = oracle_mul(p, q)
    assert (out.nums, out.den) == _via_fraction(_reference_mul(p, q).coords)
    assert all(type(n) is int for n in out.nums) and type(out.den) is int
    if not any(out.nums):
        assert out.den == 1


@pytest.mark.parametrize("nums,den", [
    ((1, 2, 3, 4, 5, 6, 7, 8), 1),
    ((1, 2, 3, 4, 5, 6, 7, 8), 9),
    ((2, -4, 6, 0, 8, 10, -12, 14), 6),
    ((3, 0, 0, 0, 0, 0, 0, -9), 27),
    ((0, 0, 0, 0, 0, 0, 0, 0), 7),
    ((10 ** 40, -(10 ** 30), 0, 0, 0, 0, 0, 5 * 10 ** 20), 10 ** 25),
])
def test_reduction_matches_fractions(nums, den):
    want = _via_fraction([Fraction(n, den) for n in nums])
    for x in (ExactBiQuat.from_ratio(nums, den), exact._reduced(nums, den),
              exact._reduced(list(nums), den)):
        assert (x.nums, x.den) == want
        assert all(type(n) is int for n in x.nums) and type(x.den) is int


def test_from_ratio_stores_integers_and_refuses_floats():
    x = ExactBiQuat.from_ratio((True, False, 0, 0, 0, 0, 0, True), True)
    assert (x.nums, x.den) == ((1, 0, 0, 0, 0, 0, 0, 1), 1)
    assert all(type(n) is int for n in x.nums) and type(x.den) is int
    with pytest.raises(TypeError):
        ExactBiQuat.from_ratio((1.0, 0, 0, 0, 0, 0, 0, 0), 1)
    with pytest.raises(TypeError):
        ExactBiQuat.from_ratio((1, 0, 0, 0, 0, 0, 0, 0), 2.0)
    for nums, den in (((1,) * 7, 1), ((1,) * 8, 0), ((1,) * 8, False)):
        with pytest.raises(ValueError, match="8 numerators and a positive"):
            ExactBiQuat.from_ratio(nums, den)


def test_exact_imports_nothing_from_the_float_route():
    tree = ast.parse(Path(exact.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
    parts = {part for name in names for part in name.split(".")}
    assert not parts & {"quaternion", "biquaternion", "entanglement"}


# --- constructor --------------------------------------------------------------

class _Frac(Fraction):
    # A subclass may redefine what it reports; the constructor must read
    # it through Fraction(), as for any type other than Fraction and int.
    def as_integer_ratio(self):
        return (0, 1)


def _via_fraction(coords):
    fracs = [Fraction(c) for c in coords]
    den = math.lcm(*(f.denominator for f in fracs))
    return tuple(f.numerator * (den // f.denominator) for f in fracs), den


@pytest.mark.parametrize("coords", [
    (1, -2, 0, 3, 10 ** 40, 0, -7, 5),
    (True, False, 1, 0, True, 0, 0, 2),
    (Fraction(1, 3), Fraction(-5, 6), 0, Fraction(7), 1, 2, 3, 4),
    (_Frac(1, 3), _Frac(2, 5), 0, 0, 0, 0, 0, Fraction(1, 2)),
    (0.5, -0.1, 5e-324, 1e300, 0.0, -0.0, 2.0 ** -1074, 3),
    ("1/3", " -2/7 ", "0.25", "1e-3", 0, 0, 0, 0),
    (Decimal("0.1"), Decimal("-3.75"), Decimal(2), 0, 0, 0, 0, 0),
])
def test_constructor_matches_conversion_through_fraction(coords):
    x = ExactBiQuat(coords)
    assert (x.nums, x.den) == _via_fraction(coords)
    assert all(type(n) is int for n in x.nums) and type(x.den) is int


def _raised(f, *args):
    with pytest.raises(Exception) as info:
        f(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "x"])
def test_constructor_refuses_what_fraction_refuses(bad):
    coords = (1, 0, 0, 0, bad, 0, 0, 0)
    assert _raised(ExactBiQuat, coords) == _raised(Fraction, bad)


@pytest.mark.parametrize("bad,raised", [
    (math.nan, (ValueError, "cannot convert NaN to integer ratio")),
    (math.inf, (OverflowError, "cannot convert Infinity to integer ratio")),
    ("x", (ValueError, "Invalid literal for Fraction: 'x'")),
    ("1/0", (ZeroDivisionError, "Fraction(1, 0)")),
    (None, (TypeError, "argument should be a string or a Rational instance")),
])
def test_constructor_error_types_and_texts(bad, raised):
    # The same on 3.10-3.13, after an int or after seven Fractions.
    for coords in ((1, 0, 0, 0, bad, 0, 0, 0),
                   (Fraction(1, 2),) * 7 + (bad,)):
        assert _raised(ExactBiQuat, coords) == raised


def test_constructor_refuses_seven_coordinates():
    assert _raised(ExactBiQuat, (0,) * 7) == (
        ValueError, "ExactBiQuat needs exactly 8 coordinates")


@pytest.mark.parametrize("n", [0, 9])
def test_constructor_refuses_other_lengths(n):
    for coords in ((0,) * n, (Fraction(1, 2),) * n):
        assert _raised(ExactBiQuat, coords) == (
            ValueError, "ExactBiQuat needs exactly 8 coordinates")


def test_fraction_keeps_the_slots_the_constructor_reads():
    # ExactBiQuat reads eight Fractions through these two slots.
    assert Fraction.__slots__ == ("_numerator", "_denominator")


def _reference(coords) -> ExactBiQuat:
    # The coordinates as a sum of rational multiples of the basis,
    # through Fraction and ExactBiQuat.__add__ only.
    total = ExactBiQuat.from_ratio((0,) * 8, 1)
    for k, c in enumerate(coords):
        f = Fraction(c)
        nums = tuple(f.numerator if m == k else 0 for m in range(8))
        total = total + ExactBiQuat.from_ratio(nums, f.denominator)
    return total


_big = st.integers(-2 ** 80, 2 ** 80)
_fractions = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, _big, st.integers(1, 2 ** 80)),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50)))
_coordinates = st.one_of(
    _fractions, _big, st.integers(-3, 3), st.booleans(),
    st.builds(_Frac, st.integers(-50, 50), st.integers(1, 50)),
    st.sampled_from((0.0, -0.0)),
    st.builds(math.ldexp, st.integers(-2 ** 53, 2 ** 53),
              st.integers(-80, 80)))


@given(st.one_of(st.tuples(*[_fractions] * 8),
                 st.tuples(*[_coordinates] * 8)))
def test_constructor_matches_the_fraction_sum(coords):
    x, want = ExactBiQuat(coords), _reference(coords)
    assert (x.nums, x.den) == (want.nums, want.den) == _via_fraction(coords)
    assert hash(x) == hash(want)
    assert all(type(n) is int for n in x.nums) and type(x.den) is int


# --- conjugations reverse products (hypothesis) ------------------------------

_rationals = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                       st.integers(1, 10 ** 6))
_exact_biquats = st.builds(ExactBiQuat,
                           st.tuples(*[_rationals] * 8))


@given(_exact_biquats, _exact_biquats)
def test_conjugations_preserve_or_reverse_exact_products(x, y):
    xy = oracle_mul(x, y)
    c = {kind: (exact_conj(x, kind), exact_conj(y, kind))
         for kind in ("complex", "quaternion", "hermitian")}
    assert exact_conj(xy, "complex") == oracle_mul(*c["complex"])
    for kind in ("quaternion", "hermitian"):
        cx, cy = c[kind]
        assert exact_conj(xy, kind) == oracle_mul(cy, cx)


def test_exact_conj_matches_float_conjugate():
    rng = random.Random(75)
    for _ in range(200):
        x = random_exact_biquat(rng, limit=20)
        f = BiQuat(*x.to_floats())
        for kind in ("complex", "quaternion", "hermitian"):
            got = exact_conj(x, kind).to_floats()
            assert got == tuple(conjugate(f, kind))


def test_each_conjugation_negates_its_flips_term_by_term():
    assert set(exact._CONJUGATIONS) == set(exact._CONJ_FLIPS)
    rng = random.Random(84)
    samples = [_basis(k) for k in range(8)]
    samples += [random_exact_biquat(rng) for _ in range(100)]
    for x in samples:
        for kind, flips in exact._CONJ_FLIPS.items():
            got = exact_conj(x, kind)
            assert got.den == x.den
            assert got.coords == tuple(-c if k in flips else c
                                       for k, c in enumerate(x.coords))


def test_exact_conj_involution_and_errors():
    rng = random.Random(76)
    x = random_exact_biquat(rng)
    for kind in ("complex", "quaternion", "hermitian"):
        assert exact_conj(exact_conj(x, kind), kind) == x
    for kind in ("other", "Complex", ""):
        with pytest.raises(ValueError, match="unknown conjugation kind"):
            exact_conj(x, kind)


@pytest.mark.parametrize("kind", [["complex"], "bogus", None, {}])
def test_exact_conj_refuses_what_conjugate_refuses(kind):
    x = _exact(1, 2, 3, 4, 5, 6, 7, 8)
    assert _raised(exact_conj, x, kind) == _raised(
        conjugate, BiQuat(*x.to_floats()), kind) == (
        ValueError, f"unknown conjugation kind: {kind!r}")


# --- agreement with the float path -------------------------------------------

def test_oracle_matches_bmul_on_rationals():
    """General rational inputs stay within a few ulp of the exact value.

    Each output component sums eight signed cross terms, so the error
    scale is the product of the coefficient 1-norms, not the (possibly
    cancelled) output magnitude.
    """
    rng = random.Random(77)
    for _ in range(2000):
        a = random_exact_biquat(rng)
        b = random_exact_biquat(rng)
        af = a.to_floats()
        bf = b.to_floats()
        scale = sum(abs(c) for c in af) * sum(abs(c) for c in bf)
        want = oracle_mul(a, b).to_floats()
        got = bmul(BiQuat(*af), BiQuat(*bf))
        for w, g in zip(want, got):
            assert abs(w - g) <= 1e-14 * max(1.0, scale)


def test_oracle_matches_bmul_exactly_on_dyadics():
    # Dyadic coordinates make every float operation in bmul exact, so
    # equality here is literal, not approximate.
    rng = random.Random(78)
    for _ in range(2000):
        a = random_exact_biquat(rng, dyadic=True)
        b = random_exact_biquat(rng, dyadic=True)
        want = oracle_mul(a, b).to_floats()
        got = bmul(BiQuat(*a.to_floats()), BiQuat(*b.to_floats()))
        assert tuple(got) == want


# --- random generators ---------------------------------------------------------

def test_random_rational_bounds():
    rng = random.Random(79)
    for _ in range(500):
        f = random_rational(rng, limit=13)
        assert abs(f.numerator) <= 13 * f.denominator  # value bound
        assert f.denominator <= 13


def test_random_dyadic_is_dyadic():
    rng = random.Random(80)
    for _ in range(500):
        f = random_dyadic(rng)
        d = f.denominator
        assert d & (d - 1) == 0  # power of two
        assert float(f) == f  # exactly representable
