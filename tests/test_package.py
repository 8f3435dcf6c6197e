"""What ``import biquat`` loads, and the names it must still resolve.

The float route loads at startup; the exact route and the verifier load
on first use.  Each check that depends on what is already imported runs
in a fresh ``python -S`` interpreter: no site hooks import anything, and
this test process, which has long since loaded every layer, cannot hide
a name that resolves only because some earlier import bound it.
"""

import copy
import functools
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import biquat

SRC = str(Path(biquat.__file__).resolve().parents[1])
LAZY = {"exact", "verify"}


def _fresh(code: str):
    """Run ``code`` in a new ``python -S`` and decode the JSON it prints.

    The code is read from stdin: from 3.13 on, ``-c`` loads ``linecache``
    at start-up, before the code runs."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-S", "-"], input=code, env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _loaded_after(statement: str, names) -> list:
    # json, which loads re, is imported only once the names are read.
    return _fresh(f"import sys\n{statement}\n"
                  f"got = [n for n in {list(names)!r} if n in sys.modules]\n"
                  "import json\nprint(json.dumps(got))")


def test_cli_import_loads_only_the_float_route():
    absent = ["biquat.exact", "biquat.verify", "dataclasses", "inspect",
              "fractions", "random", "ast", "csv", "argparse", "linecache",
              "tokenize"]
    present = ["biquat.quaternion", "biquat.biquaternion",
               "biquat.rotations", "biquat.entanglement"]
    assert _loaded_after("import biquat.cli", absent + present) == present


@pytest.mark.parametrize("module", ["biquat", "biquat.cli", "biquat.exact",
                                    "biquat.verify"])
def test_import_loads_no_typing(module):
    # The value and report types are collections.namedtuple classes, so no
    # import loads typing, nor, for the float route, the re it would load.
    absent = ["typing", "re"] if module == "biquat" else ["typing"]
    assert _loaded_after(f"import {module}", absent) == []


def test_cli_main_never_loads_argparse():
    # The command table's reader answers a well-formed argv, a help
    # request and a usage error alike.
    assert _fresh(
        "import io, json, sys\n"
        "from contextlib import redirect_stderr, redirect_stdout\n"
        "from biquat.cli import main\n"
        "got = []\n"
        "for argv in (['entangle', '--p', '0.6, 0, 0.8, 0',\n"
        "              '--q', '0.6i, -0.8i, 0, 0'], ['--help'], ['bogus']):\n"
        "    with redirect_stdout(io.StringIO()), "
        "redirect_stderr(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    got.append([code, 'argparse' in sys.modules])\n"
        "print(json.dumps(got))") == [[0, False], [0, False], [1, False]]


def test_generated_source_shows_once_linecache_is_loaded():
    # linecache loads after the import that compiles oracle_mul: its
    # source shows from the next generated function on.
    assert _fresh("import json, sys, biquat.exact\n"
                  "before = 'linecache' in sys.modules\n"
                  "import inspect\n"
                  "from biquat.exact import oracle_mul\n"
                  "def shown():\n"
                  "    try:\n"
                  "        return inspect.getsource(oracle_mul)[:21]\n"
                  "    except OSError:\n"
                  "        return None\n"
                  "got = [before, shown()]\n"
                  "from biquat import verify\n"
                  "verify._compiled('(alpha, beta, 0, 0)', 1, 3)\n"
                  "print(json.dumps(got + [shown()]))"
                  ) == [False, None, "def oracle_mul(p, q):"]


def test_exact_import_loads_no_verifier():
    # Neither the verifier nor random: the seeded draws of the tests live
    # in tests/exact_draws.py, not in the library.
    assert _loaded_after("import biquat.exact",
                         ["biquat.exact", "biquat.verify", "random"]
                         ) == ["biquat.exact"]


def test_verifier_loads_no_ast_and_random_only_for_the_law():
    # The closed forms are read from the compiler's own tree: ast loads
    # only to word a rejected text, random only for the law's draws.
    assert _fresh(
        "import json, sys\n"
        "got = []\n"
        "def loaded():\n"
        "    got.append([n in sys.modules for n in ('ast', 'random')])\n"
        "import biquat.verify as v\n"
        "loaded()\n"
        "v.verify_examples()\n"
        "loaded()\n"
        "from biquat.exact import ExactScalar\n"
        "v.closed_form_product(1, ExactScalar.of(1), ExactScalar.of(0, 1),\n"
        "                      (1, 2))\n"
        "loaded()\n"
        "v.verify_theorem(1, 7)\n"
        "loaded()\n"
        "print(json.dumps(got))"
        ) == [[False, False]] * 3 + [[False, True]]


def test_lazy_submodules_are_attributes_of_a_fresh_package():
    assert _fresh("import json, types, biquat\n"
                  "print(json.dumps({m: isinstance(getattr(biquat, m), "
                  "types.ModuleType) for m in ('exact', 'verify')}))"
                  ) == {"exact": True, "verify": True}


def test_all_is_the_float_modules_lists_and_the_lazy_names():
    from biquat import biquaternion, entanglement, quaternion, rotations
    want = [*quaternion.__all__, *biquaternion.__all__, *rotations.__all__,
            *entanglement.__all__, *biquat._LAZY, "__version__"]
    assert biquat.__all__ == want
    assert len(set(want)) == len(want)
    assert {"CONJUGATION_KINDS", "ADMISSIBLE_P_SUPPORTS"} <= set(want)


def test_every_public_name_resolves_from_a_fresh_package():
    # A lazy name must be the very object its module binds.
    assert _fresh("import json, biquat\n"
                  "got = {n: getattr(biquat, n) for n in biquat.__all__}\n"
                  "from biquat import exact, verify\n"
                  "print(json.dumps([n for m in (exact, verify)\n"
                  "                  for n in m.__all__ if n in got\n"
                  "                  and got[n] is not getattr(m, n)]))"
                  ) == []


def test_star_import_binds_every_public_name():
    assert _fresh("import json, biquat\n"
                  "ns = {}\n"
                  "exec('from biquat import *', ns)\n"
                  "print(json.dumps(sorted(set(biquat.__all__) - set(ns))))"
                  ) == []


def test_dir_lists_the_lazy_names_before_they_load():
    listed = _fresh("import json, biquat\n"
                    "print(json.dumps(dir(biquat)))")
    assert set(biquat.__all__) | LAZY <= set(listed)
    assert set(biquat.__all__) | LAZY <= set(dir(biquat))


@pytest.mark.parametrize("name", ["no_such_name", "STRUCTURE"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(biquat, name)
    assert not hasattr(biquat, name)


# Each value and report type of the package: its module, its fields and
# their defaults.
NAMED_TYPES = {
    "Quat": ("quaternion", "c1 c2 c3 c4", {}),
    "PolarForm": ("quaternion", "magnitude axis angle degenerate",
                  {"degenerate": False}),
    "BiQuat": ("biquaternion", "c1 c2 c3 c4", {}),
    "PolarFormC": ("biquaternion", "magnitude axis angle degenerate",
                   {"degenerate": False}),
    "Triad": ("rotations", "qhat vhat what", {}),
    "StateAmp": ("entanglement", "alpha beta variant", {}),
    "RestrictionReport": ("entanglement", "r1_pass r2_pass r3_pass "
                          "p_support q_support concurrence_p detail", {}),
    "EntangleOutcome": ("entanglement", "result concurrence_before "
                        "concurrence_after report", {}),
    "ExactScalar": ("exact", "re im", {}),
    "EntangleCase": ("verify", "case_id variant p_support closed_form "
                     "stated_form note", {"stated_form": None, "note": ""}),
    "CaseResult": ("verify", "case identity_pass identity_points "
                   "identity_failures law_pass law_samples law_max_error",
                   {}),
    "TheoremReport": ("verify", "samples seed identity_points cases", {}),
    "_GoldenExample": ("verify", "example_id p_support variant alpha beta "
                       "stated_scaled p_text q_text stated_text", {}),
    "ExampleResult": ("verify", "example computed exact_match "
                      "magnitude_match sign_mismatch_components "
                      "concurrence_one note", {}),
    "ExamplesReport": ("verify", "examples", {}),
}


@functools.cache
def _named_values() -> dict:
    """A value of each type in NAMED_TYPES, made by the call that makes
    it, by type name."""
    from biquat import verify
    p = biquat.Quat(0.6, 0.0, 0.8, 0.0)
    q = biquat.BiQuat(0.48 + 0.36j, 0.64 + 0.48j, 0j, 0j)
    outcome = biquat.entangle(p, q)
    theorem = verify.verify_theorem(1, 7)
    examples = verify.verify_examples()
    values = [p, biquat.polar(p), q, biquat.polar_c(q),
              biquat.make_triad(biquat.Quat(0.0, 0.6, 0.8, 0.0)),
              biquat.StateAmp(0.6, 0.8j, biquat.Variant.V13), outcome,
              outcome.report, biquat.exact.ExactScalar.of(1, -2),
              verify.ENTANGLE_CASES[1], theorem, theorem.cases[0],
              verify.GOLDEN_EXAMPLES[0], examples, examples.examples[1]]
    return {type(v).__name__: v for v in values}


@pytest.mark.parametrize("name", NAMED_TYPES)
def test_named_types_keep_fields_slots_and_round_trips(name):
    module, fields, defaults = NAMED_TYPES[name]
    value = _named_values()[name]
    cls = type(value)
    assert (cls.__module__, cls.__qualname__) == (f"biquat.{module}", name)
    assert cls._fields == tuple(fields.split())
    assert cls._field_defaults == defaults
    # No instance __dict__: a new attribute is refused, as is a field.
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        setattr(value, cls._fields[0], None)
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.deepcopy(value), value._replace(),
               value._replace(**value._asdict())]
    for other in copies:
        assert type(other) is cls
        assert other == value
        assert repr(other) == repr(value)
