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

from . import quaternion, biquaternion, rotations, entanglement
from .quaternion import *
from .biquaternion import *
from .rotations import *
from .entanglement import *

__version__ = "0.1.0"

# Names loaded on first access, by the submodule that defines them.
_LAZY = {
    "ExactBiQuat": "exact", "ExactScalar": "exact",
    "check_basis_associativity": "exact", "exact_conj": "exact",
    "oracle_mul": "exact",
    "ENTANGLE_CASES": "verify", "closed_form_product": "verify",
    "verify_examples": "verify", "verify_theorem": "verify",
}

# The float route's names are its four modules' own __all__, listed once.
__all__ = [*quaternion.__all__, *biquaternion.__all__, *rotations.__all__,
           *entanglement.__all__, *_LAZY, "__version__"]


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
