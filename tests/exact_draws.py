"""Seeded draws of exact rationals and biquaternions for the tests.

Every seeded test of the exact route draws its samples here, so a seed
names the same values in every test and on every Python version.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction

from biquat.exact import ExactBiQuat, _reduced

_DYADIC_MAX_POWER = 6


def random_rational(rng: random.Random, limit: int = 97) -> Fraction:
    """Fraction with |numerator| and denominator bounded by limit."""
    return Fraction(rng.randint(-limit, limit), rng.randint(1, limit))


def random_dyadic(rng: random.Random, limit: int = 97,
                  max_power: int = _DYADIC_MAX_POWER) -> Fraction:
    """Dyadic rational: float conversion and small float sums of
    products stay exact, which lets equivalence tests demand equality."""
    return Fraction(rng.randint(-limit, limit), 2 ** rng.randint(0, max_power))


def random_exact_biquat(rng: random.Random, limit: int = 97,
                        dyadic: bool = False) -> ExactBiQuat:
    """Eight ``random_dyadic`` (or ``random_rational``) draws, as integers.

    Each draw repeats ``getrandbits`` until below the range's width, as
    ``Random.randint`` does (3.10-3.13): same values, same stream.
    """
    bits, span = rng.getrandbits, 2 * operator.index(limit) + 1
    top = _DYADIC_MAX_POWER + 1 if dyadic else limit
    if span < 1 or top < 1:
        raise ValueError(f"empty range for limit {limit!r}")
    ks, kt = span.bit_length(), top.bit_length()
    pairs = []
    for _ in range(8):
        while (n := bits(ks)) >= span:
            pass
        while (d := bits(kt)) >= top:
            pass
        pairs.append((n - limit, 1 << d if dyadic else d + 1))
    den = math.lcm(*(d for _, d in pairs))
    return _reduced([n * (den // d) for n, d in pairs], den)
