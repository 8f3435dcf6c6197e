"""Biquaternion algebra with an entangling map on two-qubit states.

The package is organized as one module per layer:

    quaternion      real quaternions: product, conjugate, norm, polar form
    biquaternion    complex coefficients, three conjugations, null elements
    rotations       one-sided maps, conjugation rotations, Lorentz maps
    entanglement    state embedding, restrictions R1-R3, the map p q p
    exact           rational-arithmetic oracle used to cross-check floats
    verify          the eight-case concurrence law and golden examples
    cli             the ``biquat`` command

``import biquat`` loads the float route only: the first four layers.
``exact`` and ``verify``, with ``fractions``, ``random`` and ``ast``
behind them, load on first use: the first access to one of their names
here (``biquat.oracle_mul``, ``biquat.verify``), or an explicit
``import biquat.exact``.  The command line imports ``verify`` only in
its two ``verify-*`` handlers, so every other command runs without the
exact route.

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

__version__ = "0.1.0"

# Names loaded on first access, by the submodule that defines them.
_LAZY = {
    "ExactBiQuat": "exact", "ExactScalar": "exact",
    "check_basis_associativity": "exact", "exact_conj": "exact",
    "oracle_mul": "exact",
    "ENTANGLE_CASES": "verify", "closed_form_product": "verify",
    "verify_examples": "verify", "verify_theorem": "verify",
}

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
    *_LAZY,
    "__version__",
]


def __getattr__(name):
    # PEP 562: called only for names not yet in this module's namespace.
    # Importing a submodule binds it here, so "exact" and "verify" come
    # through once; a lazy name is read from its module on every access,
    # so it is always that module's current binding.
    module = _LAZY.get(name, name)
    if module not in _LAZY.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    mod = import_module(f"{__name__}.{module}")
    return mod if name == module else getattr(mod, name)


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY.values()})
