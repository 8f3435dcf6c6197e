"""Exact rational arithmetic for complexified quaternions.

This is the oracle side of a dual-route design: elements live as eight
rational coordinates over the real basis

    (1, i^, j^, k^, i, i i^, i j^, i k^)

and products are accumulated through an explicit structure-constant
table derived from the defining relations alone.  ``oracle_mul`` is not
written by hand: at import it is generated from that table as one
straight-line sum per output coordinate, followed inline by the
reduction (one gcd of the eight sums and the denominator, then the
result built directly, with no intermediate list).  Nothing here touches
the floating complex-coefficient path in ``biquaternion``, so agreement
between the two is evidence, not tautology.

Coordinates are held as integer numerators over one denominator.  The
hot paths are fixed-arity straight-line code over the eight coordinates,
with no per-coordinate loop: the constructor reads eight ratios, takes
one lcm and writes the scaled numerators as one tuple.  It reads eight
``Fraction`` inputs from their slots, and any other mix through
``_ratio``, the one coordinate reader, which ``verify`` shares.
``_reduced`` takes one gcd.  Each conjugation is one tuple display,
generated at import from ``_CONJ_FLIPS``, the table of the coordinates
it negates.  ``str`` prints the text of the ``Fraction`` coordinates
from the integers, without building a ``Fraction``.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction

from . import _codegen

__all__ = [
    "ExactScalar",
    "ExactBiQuat",
    "STRUCTURE",
    "oracle_mul",
    "exact_conj",
    "check_basis_associativity",
]

_Rational = (int, Fraction)


class ExactScalar(namedtuple("ExactScalar", "re im")):
    """Complex number with exact rational real and imaginary parts, the
    Fractions ``re`` and ``im``."""

    __slots__ = ()

    @classmethod
    def of(cls, re, im=0) -> "ExactScalar":
        return cls(Fraction(re), Fraction(im))

    def __add__(self, other):
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return ExactScalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return ExactScalar(self.re - other.re, self.im - other.im)

    def __radd__(self, other):
        # Reached only when other's + declined: refuse here, or a tuple on
        # the left would concatenate with this one.
        raise TypeError(f"unsupported operand type(s) for +: "
                        f"{type(other).__name__!r} and 'ExactScalar'")

    def __neg__(self):
        return ExactScalar(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, ExactScalar):
            return ExactScalar(self.re * other.re - self.im * other.im,
                               self.re * other.im + self.im * other.re)
        if isinstance(other, _Rational):
            return ExactScalar(self.re * other, self.im * other)
        return NotImplemented

    # A rational factor commutes, exactly.
    __rmul__ = __mul__

    def conjugate(self) -> "ExactScalar":
        return ExactScalar(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        (a, b), (c, d) = _ratio(self.re), _ratio(self.im)
        return _complex_text(a * d, c * b, b * d)


def _hamilton_table():
    # Products of (1, i^, j^, k^) as (sign, unit index).
    return (
        ((1, 0), (1, 1), (1, 2), (1, 3)),
        ((1, 1), (-1, 0), (1, 3), (-1, 2)),
        ((1, 2), (-1, 3), (-1, 0), (1, 1)),
        ((1, 3), (1, 2), (-1, 1), (-1, 0)),
    )


def _build_structure():
    """8x8 table of (sign, index): basis[a] * basis[b] = sign * basis[index].

    Index a = 4*s + u encodes i^s times the quaternion unit u; the
    commuting i contributes only the sign flip when both factors carry it.
    """
    ham = _hamilton_table()
    table = []
    for a in range(8):
        sa, ua = divmod(a, 4)
        row = []
        for b in range(8):
            sb, ub = divmod(b, 4)
            sign, uc = ham[ua][ub]
            if sa and sb:
                sign = -sign
            row.append((sign, ((sa + sb) % 2) * 4 + uc))
        table.append(tuple(row))
    return tuple(table)


STRUCTURE = _build_structure()


class ExactBiQuat:
    """Eight exact rational coordinates over the basis above.

    coords[0:4] are the real parts of c1..c4, coords[4:8] the imaginary
    parts.  They are stored as eight integer numerators over one positive
    common denominator, reduced so that the numerators and the
    denominator share no factor.  That form is canonical, so equal values
    have equal fields and ``==`` and ``hash`` compare fields.  Fractions
    are built only at the edges: the constructor (for a coordinate that
    is neither an int nor a Fraction), ``coords``, ``component`` and
    ``scalars``, and ``repr``, which shows ``coords``.  ``str`` writes
    the text of ``scalars()`` from the integers, one gcd per coordinate.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coords):
        if len(coords) != 8:
            raise ValueError("ExactBiQuat needs exactly 8 coordinates")
        c0, c1, c2, c3, c4, c5, c6, c7 = coords
        # Eight Fractions are read from their slots, with no call each.
        if (type(c0) is Fraction and type(c1) is Fraction
                and type(c2) is Fraction and type(c3) is Fraction
                and type(c4) is Fraction and type(c5) is Fraction
                and type(c6) is Fraction and type(c7) is Fraction):
            n0, n1, n2, n3, n4, n5, n6, n7 = (
                c0._numerator, c1._numerator, c2._numerator, c3._numerator,
                c4._numerator, c5._numerator, c6._numerator, c7._numerator)
            d0, d1, d2, d3, d4, d5, d6, d7 = (
                c0._denominator, c1._denominator, c2._denominator,
                c3._denominator, c4._denominator, c5._denominator,
                c6._denominator, c7._denominator)
        else:
            ((n0, d0), (n1, d1), (n2, d2), (n3, d3),
             (n4, d4), (n5, d5), (n6, d6), (n7, d7)) = map(_ratio, coords)
        den = math.lcm(d0, d1, d2, d3, d4, d5, d6, d7)
        # The lcm of reduced denominators is the least common one, so
        # no further reduction is needed.
        _set_nums(self, (n0 * (den // d0), n1 * (den // d1),
                         n2 * (den // d2), n3 * (den // d3),
                         n4 * (den // d4), n5 * (den // d5),
                         n6 * (den // d6), n7 * (den // d7)))
        _set_den(self, den)

    @classmethod
    def from_scalars(cls, scalars) -> "ExactBiQuat":
        s1, s2, s3, s4 = scalars
        return cls((s1.re, s2.re, s3.re, s4.re, s1.im, s2.im, s3.im, s4.im))

    @classmethod
    def from_ratio(cls, nums, den: int) -> "ExactBiQuat":
        """Eight integer numerators over one positive integer denominator,
        reduced here by their gcd.

        Each value is read through ``operator.index``: a bool is stored
        as the int it equals, and a float raises ``TypeError``.
        """
        if len(nums) != 8 or den <= 0:
            raise ValueError("ExactBiQuat.from_ratio needs 8 numerators and "
                             "a positive denominator")
        return _reduced(map(operator.index, nums), operator.index(den))

    @classmethod
    def from_biquat(cls, q) -> "ExactBiQuat":
        # Fraction(float) is exact, so this embedding loses nothing.
        return cls(tuple(complex(c).real for c in q)
                   + tuple(complex(c).imag for c in q))

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    def component(self, k: int) -> ExactScalar:
        """1-based complex coefficient ck."""
        return ExactScalar(Fraction(self.nums[k - 1], self.den),
                           Fraction(self.nums[k + 3], self.den))

    def scalars(self) -> tuple[ExactScalar, ...]:
        return tuple(self.component(k) for k in (1, 2, 3, 4))

    def to_floats(self) -> tuple[complex, complex, complex, complex]:
        # int / int true division is correctly rounded, as float(Fraction)
        # is, so every value converts to the same bits.
        (n0, n1, n2, n3, n4, n5, n6, n7), d = self.nums, self.den
        return (complex(n0 / d, n4 / d), complex(n1 / d, n5 / d),
                complex(n2 / d, n6 / d), complex(n3 / d, n7 / d))

    def __setattr__(self, name, value):
        raise AttributeError("ExactBiQuat is immutable")

    def __delattr__(self, name):
        raise AttributeError("ExactBiQuat is immutable")

    def __reduce__(self):
        return ExactBiQuat, (self.coords,)

    def __eq__(self, other):
        if not isinstance(other, ExactBiQuat):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __add__(self, other):
        if not isinstance(other, ExactBiQuat):
            return NotImplemented
        den = math.lcm(self.den, other.den)
        f, g = den // self.den, den // other.den
        return _reduced([a * f + b * g for a, b in zip(self.nums, other.nums)],
                        den)

    def __sub__(self, other):
        if not isinstance(other, ExactBiQuat):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return _canonical(tuple(-a for a in self.nums), self.den)

    def __repr__(self) -> str:
        return f"ExactBiQuat(coords={self.coords!r})"

    def __str__(self) -> str:
        # The text of str(s) for each s in scalars(), from the integers.
        n, d = self.nums, self.den
        return "(" + ", ".join(_complex_text(n[k], n[k + 4], d)
                               for k in range(4)) + ")"


def _ratio(c) -> tuple[int, int]:
    """Reduced (numerator, positive denominator) of one coordinate: an int
    is its own ratio, any other type goes through ``Fraction``."""
    if type(c) is int:
        return c, 1
    f = c if type(c) is Fraction else Fraction(c)
    return f._numerator, f._denominator


def _ratio_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for an int n and a positive int d."""
    g = math.gcd(n, d)
    return str(n // d) if g == d else f"{n // g}/{d // g}"


def _complex_text(re: int, im: int, d: int) -> str:
    """str(ExactScalar) of (re + im i) / d for a positive int d."""
    if im == 0:
        return _ratio_text(re, d)
    if re == 0:
        return _ratio_text(im, d) + "i"
    sign = "+" if im > 0 else "-"
    return f"{_ratio_text(re, d)}{sign}{_ratio_text(abs(im), d)}i"


# The slot setters write past the __setattr__ that keeps values immutable.
_set_nums = ExactBiQuat.nums.__set__
_set_den = ExactBiQuat.den.__set__


def _canonical(nums: tuple[int, ...], den: int) -> ExactBiQuat:
    """ExactBiQuat from numerators already in canonical form over den."""
    x = object.__new__(ExactBiQuat)
    _set_nums(x, nums)
    _set_den(x, den)
    return x


def _reduced(nums, den: int) -> ExactBiQuat:
    """ExactBiQuat nums / den for eight int nums and any positive int den,
    reduced by gcd."""
    n0, n1, n2, n3, n4, n5, n6, n7 = nums
    g = math.gcd(den, n0, n1, n2, n3, n4, n5, n6, n7)
    if g == 1:
        return _canonical((n0, n1, n2, n3, n4, n5, n6, n7), den)
    return _canonical((n0 // g, n1 // g, n2 // g, n3 // g,
                       n4 // g, n5 // g, n6 // g, n7 // g), den // g)


# The generated code's globals: what builds an ExactBiQuat past __init__.
_BUILD = dict(_gcd=math.gcd, _new=object.__new__, ExactBiQuat=ExactBiQuat,
              _set_nums=_set_nums, _set_den=_set_den)


def _generate_product(structure):
    """Compile the exact product from an 8x8 (sign, index) table.

    Each output coordinate ``n{c}`` becomes one straight-line sum: the
    products ``p{a}*q{b}`` with sign +1 first, then those with sign -1,
    all read from ``structure``, so the code follows the table and is
    never written by hand.  The reduction by the gcd of the sums and the
    denominator follows inline, as in ``_reduced``.
    """
    plus = [[] for _ in range(8)]
    minus = [[] for _ in range(8)]
    for a, row in enumerate(structure):
        for b, (sign, c) in enumerate(row):
            (plus if sign > 0 else minus)[c].append(f"p{a}*q{b}")
    sums = []
    for c in range(8):
        text = " + ".join(plus[c]) or "0"
        sums.append(" - ".join([text, *minus[c]]))
    n = ", ".join(f"n{c}" for c in range(8))
    return _codegen.function(__name__, "oracle_mul", [
        "def oracle_mul(p, q):",
        '    """Exact product p q through the structure-constant table."""',
        "    " + ", ".join(f"p{a}" for a in range(8)) + " = p.nums",
        "    " + ", ".join(f"q{b}" for b in range(8)) + " = q.nums",
        "    den = p.den * q.den",
        *(f"    n{c} = {text}" for c, text in enumerate(sums)),
        f"    g = _gcd(den, {n})",
        "    x = _new(ExactBiQuat)",
        "    if g == 1:",
        f"        _set_nums(x, ({n}))",
        "        _set_den(x, den)",
        "    else:",
        "        _set_nums(x, (" + ", ".join(f"n{c} // g" for c in range(8))
        + "))",
        "        _set_den(x, den // g)",
        "    return x",
    ], **_BUILD)


oracle_mul = _generate_product(STRUCTURE)


# Coordinate sets negated by each conjugation (complex / quaternion
# conjugation flip i resp. the units; hermitian is their composition).
_CONJ_FLIPS = {
    "complex": (4, 5, 6, 7),
    "quaternion": (1, 2, 3, 5, 6, 7),
    "hermitian": (1, 2, 3, 4),
}


def _generate_conjugations(flips_by_kind):
    """Compile one straight-line function per conjugation kind.

    Each returns ``x`` with the coordinates ``flips_by_kind[kind]``
    negated, as one tuple display over the same denominator: negation
    keeps the form canonical.
    """
    n = ", ".join(f"n{k}" for k in range(8))
    conjugations = {}
    for kind, flips in flips_by_kind.items():
        out = ", ".join(f"-n{k}" if k in flips else f"n{k}" for k in range(8))
        conjugations[kind] = _codegen.function(__name__, f"conj_{kind}", [
            f"def conj_{kind}(x):",
            f"    {n} = x.nums",
            "    y = _new(ExactBiQuat)",
            f"    _set_nums(y, ({out}))",
            "    _set_den(y, x.den)",
            "    return y",
        ], **_BUILD)
    return conjugations


_CONJUGATIONS = _generate_conjugations(_CONJ_FLIPS)


def exact_conj(x: ExactBiQuat, kind: str) -> ExactBiQuat:
    try:
        conj = _CONJUGATIONS[kind]
    except (KeyError, TypeError):
        raise ValueError(f"unknown conjugation kind: {kind!r}") from None
    return conj(x)


def check_basis_associativity() -> bool:
    """(e_a e_b) e_c == e_a (e_b e_c) for all 512 basis triples."""
    for a in range(8):
        for b in range(8):
            s_ab, ab = STRUCTURE[a][b]
            for c in range(8):
                s1, left = STRUCTURE[ab][c]
                s_bc, bc = STRUCTURE[b][c]
                s2, right = STRUCTURE[a][bc]
                if left != right or s_ab * s1 != s_bc * s2:
                    return False
    return True
