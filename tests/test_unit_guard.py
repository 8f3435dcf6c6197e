"""Every unit-norm guard fails closed: NaN in the checked argument raises."""

import math

import pytest

from biquat.biquaternion import BiQuat
from biquat.entanglement import (StateAmp, Variant, check_restrictions,
                                 concurrence, embed_state, entangle,
                                 entangle_map)
from biquat.quaternion import PolarForm, Quat, from_polar
from biquat.rotations import (complex_rotation, conjugate_rotation,
                              lorentz_map, make_triad, rotate_biquat,
                              rotate_onesided)

NAN = math.nan
S = math.sqrt(0.5)
ROTOR = Quat(S, 0, S, 0)
STATE = BiQuat(S * 1j, -S * 1j, 0, 0)
NAN_QUAT = Quat(NAN, 0, 0, 0)
NAN_BIQUAT = BiQuat(NAN, 0, 0, 0)
ONE_B = BiQuat(1, 0, 0, 0)

ROTOR_MSG = "rotor must be a unit quaternion"
STATE_MSG = "state must be normalized"
ROTATION_MSG = "rotation quaternion must have unit norm"
QUATERNIONIC_MSG = r"\(quaternionic unit\)"


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: concurrence(NAN_BIQUAT), STATE_MSG,
                 id="concurrence"),
    pytest.param(lambda: embed_state(StateAmp(NAN, 0, Variant.V12)),
                 "state amplitudes are not normalized", id="embed_state"),
    pytest.param(lambda: entangle_map(NAN_QUAT, STATE), ROTOR_MSG,
                 id="entangle_map"),
    pytest.param(lambda: check_restrictions(NAN_QUAT, STATE), ROTOR_MSG,
                 id="check_restrictions-p"),
    pytest.param(lambda: check_restrictions(ROTOR, NAN_BIQUAT), STATE_MSG,
                 id="check_restrictions-q"),
    pytest.param(lambda: entangle(NAN_QUAT, STATE), ROTOR_MSG,
                 id="entangle-p"),
    pytest.param(lambda: entangle(ROTOR, NAN_BIQUAT), STATE_MSG,
                 id="entangle-q"),
    pytest.param(lambda: rotate_onesided(NAN_QUAT, ROTOR, "left"),
                 ROTATION_MSG, id="rotate_onesided"),
    pytest.param(lambda: conjugate_rotation(NAN_QUAT, ROTOR), ROTATION_MSG,
                 id="conjugate_rotation"),
    pytest.param(lambda: rotate_biquat(NAN_BIQUAT, ONE_B),
                 "rotation biquaternion must have unit norm",
                 id="rotate_biquat"),
    pytest.param(lambda: lorentz_map(NAN_BIQUAT, ONE_B), QUATERNIONIC_MSG,
                 id="lorentz_map"),
    pytest.param(lambda: complex_rotation(NAN_BIQUAT, ONE_B),
                 QUATERNIONIC_MSG, id="complex_rotation"),
    pytest.param(lambda: make_triad(Quat(0, NAN, 0, 0)), ROTATION_MSG,
                 id="make_triad"),
    pytest.param(lambda: from_polar(PolarForm(1.0, (NAN, 0.0, 0.0), 0.5)),
                 "axis must be a unit vector", id="from_polar"),
])
def test_nan_in_checked_argument_raises_the_guard(call, message):
    with pytest.raises(ValueError, match=message):
        call()
