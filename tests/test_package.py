"""What ``import biquat`` loads, and the names it must still resolve.

The float route loads at startup; the exact route and the verifier load
on first use.  Each check that depends on what is already imported runs
in a fresh ``python -S`` interpreter: no site hooks import anything, and
this test process, which has long since loaded every layer, cannot hide
a name that resolves only because some earlier import bound it.
"""

import json
import os
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
    return _fresh(f"import json, sys\n{statement}\n"
                  f"print(json.dumps([n for n in {list(names)!r} "
                  "if n in sys.modules]))")


def test_cli_import_loads_only_the_float_route():
    absent = ["biquat.exact", "biquat.verify", "dataclasses", "inspect",
              "fractions", "random", "ast", "csv", "argparse", "linecache",
              "tokenize"]
    present = ["biquat.quaternion", "biquat.biquaternion",
               "biquat.rotations", "biquat.entanglement"]
    assert _loaded_after("import biquat.cli", absent + present) == present


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
