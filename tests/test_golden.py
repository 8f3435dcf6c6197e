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

_COMMANDS = {
    "verify-theorem": ["verify-theorem", "--samples", "200", "--seed", "7"],
    "verify-examples": ["verify-examples"],
    "sweep": ["sweep", "--grid", "3"],
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
