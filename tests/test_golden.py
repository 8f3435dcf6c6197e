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
    "polar": ["polar", "0.5, -1, 2, 0.25"],
    "concurrence": ["concurrence", f"{_S}, 0, 0, {_S}i"],
    # The two rejections, exit code 2: a rotor whose support {1, 2}
    # shares two directions with the state's (R3), and the README's
    # single-direction rotor (R2 and R3).
    "entangle-rejected": (["entangle", "--p", f"{_S}, {_S}, 0, 0",
                           "--q", f"{_S}i, -{_S}i, 0, 0"], 2),
    "check-rejected": (["check", "--p", "0, 1, 0, 0", "--q", "1, 0, 0, 0"],
                       2),
    # The help, written from the command table: the top level and one
    # command.
    "help": ["--help"],
    "rotate-help": ["rotate", "--help"],
}

# file name -> (argv, exit code); every command with and without --json.
# A _COMMANDS entry is an argv, exit code 0, or an (argv, code) pair.
GOLDEN = {}
for _name, _entry in _COMMANDS.items():
    _argv, _code = _entry if isinstance(_entry, tuple) else (_entry, 0)
    GOLDEN[f"{_name}.txt"] = (_argv, _code)
    GOLDEN[f"{_name}.json.txt"] = (["--json", *_argv], _code)


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
    argv, want_code = GOLDEN[name]
    code, out, err = _run(argv)
    assert (code, err) == (want_code, "")
    assert out.encode() == (GOLDEN_DIR / name).read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (argv, want_code) in GOLDEN.items():
        code, out, err = _run(argv)
        if code != want_code or err:
            sys.exit(f"{name}: exit {code} (want {want_code}), "
                     f"stderr {err!r}")
        (GOLDEN_DIR / name).write_bytes(out.encode())
