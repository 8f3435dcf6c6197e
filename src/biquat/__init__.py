"""Biquaternion algebra with an entangling map on two-qubit states.

The package is organized as one module per layer:

    quaternion      real quaternions: product, conjugate, norm, polar form
    biquaternion    complex coefficients, three conjugations, null elements
    rotations       one-sided maps, conjugation rotations, Lorentz maps
    entanglement    state embedding, restrictions R1-R3, the map p q p
    exact           rational-arithmetic oracle used to cross-check floats
    verify          the eight-case concurrence law and golden examples
    cli             the ``biquat`` command

Everything here is pure Python on top of the standard library.
"""

from .quaternion import (DEFAULT_TOL, ONE, ZERO, PolarForm, Quat,
                         angle_between, conj, from_polar, from_vector, inner,
                         inverse, is_parallel, is_perpendicular, magnitude,
                         mul, norm, polar, scalar_part, vector_part)
from .biquaternion import (BiQuat, PolarFormC, bmul, conjugate, from_quat,
                           inner_h, inner_q, inverse_h, is_central, is_real,
                           json_form, norm_h, normalized, polar_c, real_part)
from .rotations import (Triad, complex_rotation, conjugate_rotation,
                        lorentz_map, make_triad, rotate_biquat,
                        rotate_onesided, rotate_vec3)
from .entanglement import (EntangleOutcome, RestrictionError,
                           RestrictionReport, StateAmp, Variant,
                           check_restrictions, concurrence, embed_state,
                           entangle, entangle_map, predicted_concurrence,
                           support)
from .exact import (ExactBiQuat, ExactScalar, check_basis_associativity,
                    exact_conj, oracle_mul)
from .verify import (ENTANGLE_CASES, closed_form_product, verify_examples,
                     verify_theorem)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL", "ONE", "ZERO", "PolarForm", "Quat", "angle_between",
    "conj", "from_polar", "from_vector", "inner", "inverse", "is_parallel",
    "is_perpendicular", "magnitude", "mul", "norm", "polar", "scalar_part",
    "vector_part",
    "BiQuat", "PolarFormC", "bmul", "conjugate", "from_quat", "inner_h",
    "inner_q", "inverse_h", "is_central", "is_real", "json_form", "norm_h",
    "normalized", "polar_c", "real_part",
    "Triad", "complex_rotation", "conjugate_rotation", "lorentz_map",
    "make_triad", "rotate_biquat", "rotate_onesided", "rotate_vec3",
    "EntangleOutcome", "RestrictionError", "RestrictionReport", "StateAmp",
    "Variant", "check_restrictions", "concurrence", "embed_state",
    "entangle", "entangle_map", "predicted_concurrence", "support",
    "ExactBiQuat", "ExactScalar", "check_basis_associativity", "exact_conj",
    "oracle_mul",
    "ENTANGLE_CASES", "closed_form_product", "verify_examples",
    "verify_theorem",
    "__version__",
]
