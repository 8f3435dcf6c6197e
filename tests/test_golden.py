"""Golden reports: the exact stdout of fixed CLI commands.

Each file under ``tests/golden/`` holds the byte-exact output of one
command, so any change to a report's wording, number formatting or
float results shows up as a diff here.  The files are compared as
bytes: ``sweep`` writes CSV with CRLF line ends.

To record them again after an intended report change, run from the
repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from biquat.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

_S = "0.7071067811865476"  # sqrt(1/2), as the README writes it

_COMMANDS = {
    "verify-theorem": ["verify-theorem", "--samples", "200", "--seed", "7"],
    "verify-examples": ["verify-examples"],
    "sweep": ["sweep", "--grid", "3"],
    # The checked map and the gate: the README's entangle example and an
    # accepted check on another variant pair.
    "entangle": ["entangle", "--p", f"{_S}, 0, {_S}, 0",
                 "--q", f"{_S}i, -{_S}i, 0, 0"],
    "check": ["check", "--p", f"{_S}, {_S}, 0, 0", "--q", "0.6, 0, 0.8i, 0"],
    # One call of each rotation map.
    "rotate-left": ["rotate", "--map", "left", "--q", f"{_S}, {_S}, 0, 0",
                    "--x", "0, 0, 1, 0"],
    "rotate-right": ["rotate", "--map", "right", "--q", "0.6, 0, 0, 0.8",
                     "--x", "1, -2, 3, 0.5"],
    "rotate-conj": ["rotate", "--map", "conj", "--q", f"{_S}, 0, 0, {_S}",
                    "--x", "0.25, 1, -0.5, 2"],
    "rotate-psi": ["rotate", "--map", "psi", "--q", "0.5, 0.5, 0.5, 0.5",
                   "--x", "1, 0.5i, -2, 1+1i"],
    "rotate-lorentz": ["rotate", "--map", "lorentz",
                       "--q", "1.1276259652063807, 0.5210953054937474i, 0, 0",
                       "--x", "1, 0, 0, 0"],
    "rotate-mu": ["rotate", "--map", "mu",
                  "--q", "1.1276259652063807, 0, 0, 0.5210953054937474i",
                  "--x", "0.3, 1, 0.5i, -1-0.25i"],
}

# file name -> argv; every command with and without --json.
GOLDEN = {}
for _name, _argv in _COMMANDS.items():
    GOLDEN[f"{_name}.txt"] = _argv
    GOLDEN[f"{_name}.json.txt"] = ["--json", *_argv]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_golden_directory_holds_exactly_the_table():
    # CI runs the installed script over GOLDEN as well, so a file the
    # table does not name would be checked by nothing.
    assert {f.name for f in GOLDEN_DIR.iterdir()} == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden_file(name):
    code, out, err = _run(GOLDEN[name])
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN_DIR / name).read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in GOLDEN.items():
        code, out, err = _run(argv)
        if code or err:
            sys.exit(f"{name}: exit {code}, stderr {err!r}")
        (GOLDEN_DIR / name).write_bytes(out.encode())
