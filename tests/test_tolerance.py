"""One absolute tolerance, DEFAULT_TOL: which public functions take an
override, and where the predicates with the fixed tolerance switch."""

import inspect
import math

import pytest

import biquat
from biquat.biquaternion import BiQuat, is_central
from biquat.quaternion import (DEFAULT_TOL, ONE, Quat, is_parallel,
                               is_perpendicular)
from biquat.rotations import make_triad

EDGE = DEFAULT_TOL
ABOVE = math.nextafter(DEFAULT_TOL, 1)


def test_only_support_polar_and_is_real_take_a_tol():
    # Each of these three has a caller that sets it; every other check
    # reads DEFAULT_TOL.
    takes_tol = {name for name in biquat.__all__
                 if inspect.isfunction(obj := getattr(biquat, name))
                 and "tol" in inspect.signature(obj).parameters}
    assert takes_tol == {"support", "polar", "is_real"}


def test_is_perpendicular_switches_just_above_the_tolerance():
    # inner(Quat(t, 0, 0, 0), ONE) is t exactly.
    assert is_perpendicular(Quat(EDGE, 0, 0, 0), ONE)
    assert not is_perpendicular(Quat(ABOVE, 0, 0, 0), ONE)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_is_parallel_switches_just_above_the_tolerance(k):
    # The vector part of p conj(ONE) is p's own, exactly.
    def p(t):
        c = [1.0, 0.0, 0.0, 0.0]
        c[k] = t
        return Quat(*c)
    assert is_parallel(p(EDGE), ONE)
    assert is_parallel(p(-EDGE), ONE)
    assert not is_parallel(p(ABOVE), ONE)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("unit", [1, 1j])
def test_is_central_switches_just_above_the_tolerance(k, unit):
    def q(t):
        c = [1 + 0j, 0j, 0j, 0j]
        c[k] = t * unit
        return BiQuat(*c)
    assert is_central(q(EDGE))
    assert not is_central(q(ABOVE))


def test_make_triad_pure_axis_check_switches_just_above_the_tolerance():
    # 1 + t^2 rounds to 1, so only the pure-axis check can refuse these.
    for t in (EDGE, -EDGE):
        assert make_triad(Quat(t, 1.0, 0.0, 0.0)).vhat == Quat(0, 0, 1, 0)
    with pytest.raises(ValueError, match="triad axis must be a pure"):
        make_triad(Quat(ABOVE, 1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="triad axis must be a pure"):
        make_triad(Quat(-ABOVE, 1.0, 0.0, 0.0))
