"""The kill table: planted faults that named tests must catch.

Each row of ``TABLE`` plants one fault (a mutant) in a copy of the
repository: it replaces ``old``, which must occur exactly once in
``file``, by ``new``.  It then runs pytest on the row's test ids in the
copy.  The mutant is killed when those tests fail, and survives when
they pass.  ``catch`` says what kind of test the row names: a
``verdict`` (a test of a property, a differential or the verifier's
report) or a ``pin`` (a fixed digest or golden bytes).

A row with ``survivor`` set records a known gap: the mutant is expected
to survive its tests until the ROADMAP item it names lands.  A listed
survivor is a recorded gap, not a pass.

The table fails, with exit code 1, when:

* an ``old`` text no longer occurs exactly once in its file, so that a
  refactor cannot retire a mutant in silence (checked before any run);
* the unmutated copy fails the tests of any row;
* a mutant survives without being listed as a survivor;
* a listed survivor is killed (its listing is out of date);
* pytest ends a run in error rather than with passes or failures (a
  test id that no longer exists, say).

This file is not collected by Tier-1 (it is not named ``test_*``).  Run
it from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py            # every row
    python tests/mutants.py NAME ...   # the rows of these names
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    catch: str
    survivor: str | None = None


_SCALED = ('tail.append(f"    return {_concurrence(c)}")',
           'tail.append(f"    return ({_concurrence(c)}) * (1 + 1e-14)")')

# Item 17's rotation faults: between the rounding level and the 1e-10
# tolerances of the rotation laws, only an output byte shows them.  The
# conj fault is a few ulp, inside any worst-case bound, so its golden pin
# may stay its only catch once item 17 lands.
_LORENTZ = ('    return bmul(bmul(conjugate(q, "hermitian"), x), q)',
            '    r = bmul(bmul(conjugate(q, "hermitian"), x), q)\n'
            "    return BiQuat(r.c1 * (1 + 1e-13), *r[1:])")
_CONJ = ("    return rq.mul(rq.mul(q, x), rq.conj(q))",
         "    r = rq.mul(rq.mul(q, x), rq.conj(q))\n"
         "    return Quat(r.c1, r.c2 * (1 + 2 ** -50), r.c3, r.c4)")
# Zero minus a term drops the term instead of negating it: r4 of the sweep
# kernel, -(p3*q2), becomes zero.
_DROPPED = ("        if self is _ZERO:\n"
            '            return _Code(f"(-{other})")',
            "        if self is _ZERO:\n            return _ZERO")

TABLE = (
    Mutant("hamilton-sign-flip", "src/biquat/quaternion.py",
           "p1 * q2 + p2 * q1 + p3 * q4 - p4 * q3,",
           "p1 * q2 + p2 * q1 - p3 * q4 - p4 * q3,",
           ("tests/test_acceptance.py::test_criterion_8_oracle_equivalence",),
           "verdict"),
    Mutant("plain-i-rule-dropped", "src/biquat/cli.py",
           r"(?<=[0-9.])i[0-9.eE+\- \t\n\r,]*", r"i[0-9.eE+\- \t\n\r,]*",
           ("tests/test_cli.py::test_parse_equals_the_per_piece_reader",),
           "verdict"),
    Mutant("law-kernel-off-mask-guard-dropped", "src/biquat/entanglement.py",
           '"\\n            or ".join([off, *(',
           '"\\n            or ".join([*(',
           ("tests/test_entanglement.py"
            "::test_law_kernel_declines_what_it_would_get_wrong",),
           "verdict"),
    Mutant("law-kernel-q-guard-made-nonzero", "src/biquat/entanglement.py",
           'f"not abs(q{k + 1}.{part}) >= {2.0 ** -1000!r}"',
           'f"not abs(q{k + 1}.{part}) > 0.0"',
           ("tests/test_entanglement.py"
            "::test_law_kernel_declines_what_it_would_get_wrong[subnormal]",),
           "verdict"),
    # Only a rotor concurrence of exactly DEFAULT_TOL tells < from <=;
    # 2 * 5e-10 is one.
    Mutant("gate-r1-made-strict", "src/biquat/entanglement.py",
           "if c_p <= DEFAULT_TOL else None", "if c_p < DEFAULT_TOL else None",
           ("tests/test_entanglement.py"
            "::test_restriction_r1_admits_a_rotor_concurrence_at_the_tol",),
           "verdict"),
    Mutant("r3-one-shared-made-at-least-one", "src/biquat/entanglement.py",
           "(pm & qm).bit_count() == 1", "(pm & qm).bit_count() >= 1",
           ("tests/test_entanglement.py"
            "::test_gate_equals_the_frozenset_reference_on_every_mask",),
           "verdict"),
    Mutant("case-1-closed-form-sign-flip", "src/biquat/verify.py",
           '"(alpha*(a1^2-a3^2), beta*(a1^2+a3^2), 2*alpha*a1*a3, 0)",',
           '"(alpha*(a1^2-a3^2), beta*(a1^2+a3^2), -2*alpha*a1*a3, 0)",',
           ("tests/test_verify.py::test_verify_theorem_passes",),
           "verdict"),
    # Both closed-form mutants fail the degree check; the second is zero
    # at all 12 identity points, so nothing else in the report sees it.
    Mutant("case-5-closed-form-a1-cubed", "src/biquat/verify.py",
           '"(alpha*(a1^2-a2^2), 2*alpha*a1*a2, beta*(a1^2+a2^2), 0)",',
           '"(alpha*(a1^3-a2^2), 2*alpha*a1*a2, beta*(a1^2+a2^2), 0)",',
           ("tests/test_verify.py::test_verify_theorem_passes",),
           "verdict"),
    Mutant("case-1-term-zero-at-12-points", "src/biquat/verify.py",
           '"(alpha*(a1^2-a3^2), beta*(a1^2+a3^2), 2*alpha*a1*a3, 0)",',
           '"(alpha*(a1^2-a3^2) + alpha*beta*a1, beta*(a1^2+a3^2), '
           '2*alpha*a1*a3, 0)",',
           ("tests/test_verify.py::test_verify_theorem_passes",),
           "verdict"),
    # The degree check must fail a term wrong in one degree only; each
    # planted form equals p q p at all 12 identity points.
    Mutant("degree-check-or-made-and", "src/biquat/verify.py",
           "if sum(ex[:4]) != 1 or sum(ex[4:]) != 2]",
           "if sum(ex[:4]) != 1 and sum(ex[4:]) != 2]",
           ("tests/test_verify.py"
            "::test_each_mutant_fails_only_its_own_case[rotor-degree-only]",),
           "verdict"),
    Mutant("degree-check-or-made-and", "src/biquat/verify.py",
           "if sum(ex[:4]) != 1 or sum(ex[4:]) != 2]",
           "if sum(ex[:4]) != 1 and sum(ex[4:]) != 2]",
           ("tests/test_verify.py"
            "::test_each_mutant_fails_only_its_own_case[state-degree-only]",),
           "verdict"),
    Mutant("degree-line-writes-a-first-power", "src/biquat/verify.py",
           'f"^{e}" * (e > 1)', 'f"^{e}" * (e >= 1)',
           ("tests/test_verify.py"
            "::test_a_degree_failure_writes_a_first_power_bare",),
           "verdict"),
    Mutant("walk-skips-list-fields", "src/biquat/verify.py",
           "(value if type(value) is list else [value])", "[value]",
           ("tests/test_verify.py"
            "::test_closed_form_may_name_only_its_own_symbols",),
           "verdict"),
    Mutant("verify-imports-ast-at-the-top", "src/biquat/verify.py",
           "import _ast\nimport functools\n",
           "import _ast\nimport ast\nimport functools\n",
           ("tests/test_package.py"
            "::test_verifier_loads_no_ast_and_random_only_for_the_law",),
           "verdict"),
    # The verifier's law tolerance, 1e-10, is far above this fault, so
    # verify-theorem still reports PASS.
    Mutant("concurrence-kernel-scaled-by-1e-14", "src/biquat/entanglement.py",
           *_SCALED,
           ("tests/test_verify.py::test_verify_theorem_passes",
            "tests/test_acceptance.py::test_criterion_4_theorem_suite"),
           "verdict", survivor="ROADMAP item 4"),
    Mutant("concurrence-kernel-scaled-by-1e-14", "src/biquat/entanglement.py",
           *_SCALED,
           ("tests/test_verify.py"
            "::test_verify_theorem_report_is_the_same_on_every_version",),
           "pin"),
    Mutant("concurrence-kernel-scaled-by-1e-14", "src/biquat/entanglement.py",
           *_SCALED,
           ("tests/test_entanglement.py"
            "::test_concurrence_kernel_matches_the_sandwich_in_each_case",),
           "verdict"),
    Mutant("comma-pass-finiteness-dropped", "src/biquat/cli.py",
           "if len(parts) == 4 and all(map(cmath.isfinite, parts)):",
           "if len(parts) == 4:",
           ("tests/test_cli.py"
            "::test_non_finite_input_is_a_parse_error[argv1]",),
           "verdict"),
    Mutant("json-bool-written-as-int", "src/biquat/cli.py",
           'bool: {True: "true", False: "false"}.__getitem__,',
           "bool: int.__repr__,",
           ("tests/test_cli.py"
            "::test_json_writer_equals_json_dumps_with_indent",),
           "verdict"),
    # The leak as it was: a bare descriptor, which nothing closes (a file
    # object left open would still be closed when main returns).
    Mutant("null-descriptor-left-open", "src/biquat/cli.py",
           'with open(os.devnull, "wb") as null:\n'
           "                os.dup2(null.fileno(), sys.stdout.fileno())",
           "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())",
           ("tests/test_cli.py::test_a_failed_flush_leaks_no_descriptor",),
           "verdict"),
    # NaN > DEFAULT_TOL is false, so a NaN rotor norm would pass the gate.
    Mutant("gate-rotor-norm-nan-blind", "src/biquat/entanglement.py",
           "if not abs(p1 * p1 + p2 * p2 + p3 * p3 + p4 * p4 - 1.0) "
           "<= DEFAULT_TOL:",
           "if abs(p1 * p1 + p2 * p2 + p3 * p3 + p4 * p4 - 1.0) "
           "> DEFAULT_TOL:",
           ("tests/test_unit_guard.py"
            "::test_nan_in_checked_argument_raises_the_guard[entangle-p]",),
           "verdict"),
    Mutant("trace-second-product-factors-swapped",
           "src/biquat/entanglement.py",
           "    return lines, bmul(r, p)", "    return lines, bmul(p, r)",
           ("tests/test_entanglement.py"
            "::test_sweep_kernel_is_bit_identical_to_the_full_sandwich",),
           "verdict"),
    # The bits cannot see an operand swap: every bit-identity test passes
    # on it, and only the trace's text, pinned to hamilton's, fails.
    Mutant("trace-factor-order-swapped", "src/biquat/entanglement.py",
           'return _Code(f"({self}*{other})")',
           'return _Code(f"({other}*{self})")',
           ("tests/test_codegen.py"
            "::test_trace_writes_hamiltons_sums_as_written",),
           "pin"),
    Mutant("law-loop-blind-to-nan", "src/biquat/verify.py",
           "if err > max_err or err != err:", "if err > max_err:",
           ("tests/test_verify.py::test_a_nan_law_sample_fails_its_case[1]",),
           "verdict"),
    # typing.NamedTuple builds the same class, fields, slots and pickles,
    # so only the fresh import boundary sees it.
    Mutant("triad-back-on-typing-namedtuple", "src/biquat/rotations.py",
           'class Triad(namedtuple("Triad", "qhat vhat what")):\n'
           '    """Right-handed orthonormal frame of pure Quats, '
           'qhat*vhat = what."""\n\n    __slots__ = ()\n',
           "from typing import NamedTuple\n\n\nclass Triad(NamedTuple):\n"
           '    """Right-handed orthonormal frame of pure Quats, '
           'qhat*vhat = what."""\n\n'
           "    qhat: Quat\n    vhat: Quat\n    what: Quat\n",
           ("tests/test_package.py::test_import_loads_no_typing[biquat]",),
           "verdict"),
    Mutant("state-norm-check-dropped", "src/biquat/entanglement.py",
           '    require_unit_norm(norm_h(q), '
           '"state amplitudes are not normalized")\n', "",
           ("tests/test_entanglement.py"
            "::test_embed_state_requires_normalization",),
           "verdict"),
    # Grid 1 has one phase, so only grids of 2 and more see it.
    Mutant("sweep-alpha-from-beta-phase", "src/biquat/cli.py",
           "alpha = ma * unit", "alpha = ma * units[-1]",
           ("tests/test_cli.py::test_sweep_writes_the_bytes_of_csv_writer"
            "_over_the_full_sandwich",),
           "verdict"),
    Mutant("trace-nonzero-term-dropped", "src/biquat/entanglement.py",
           *_DROPPED,
           ("tests/test_entanglement.py"
            "::test_sweep_kernel_is_bit_identical_to_the_full_sandwich",),
           "verdict"),
    Mutant("trace-nonzero-term-dropped", "src/biquat/entanglement.py",
           *_DROPPED,
           ("tests/test_entanglement.py"
            "::test_entangle_is_bit_identical_to_the_full_sandwich",),
           "verdict"),
    Mutant("lorentz-first-part-scaled-by-1e-13", "src/biquat/rotations.py",
           *_LORENTZ,
           ("tests/test_acceptance.py::test_criterion_7_rotation_suite",
            "tests/test_rotations.py"
            "::test_lorentz_preserves_quadratic_invariant"),
           "verdict", survivor="ROADMAP item 17"),
    Mutant("lorentz-first-part-scaled-by-1e-13", "src/biquat/rotations.py",
           *_LORENTZ,
           ("tests/test_golden.py"
            "::test_output_matches_golden_file[rotate-lorentz.txt]",),
           "pin"),
    Mutant("conj-rotation-part-scaled-by-2**-50", "src/biquat/rotations.py",
           *_CONJ,
           ("tests/test_acceptance.py::test_criterion_7_rotation_suite",
            "tests/test_rotations.py"
            "::test_conjugate_rotation_turns_by_twice_the_angle",
            "tests/test_rotations.py::test_conjugate_rotation_composes"),
           "verdict", survivor="ROADMAP item 17"),
    Mutant("conj-rotation-part-scaled-by-2**-50", "src/biquat/rotations.py",
           *_CONJ,
           ("tests/test_golden.py"
            "::test_output_matches_golden_file[rotate-conj.txt]",),
           "pin"),
    Mutant("biquat-slots-dropped", "src/biquat/biquaternion.py",
           '    """Element c1 + c2 i^ + c3 j^ + c4 k^ with complex ck."""'
           "\n\n    __slots__ = ()\n",
           '    """Element c1 + c2 i^ + c3 j^ + c4 k^ with complex ck."""\n',
           ("tests/test_package.py"
            "::test_named_types_keep_fields_slots_and_round_trips[BiQuat]",),
           "verdict"),
)

# What the copy leaves out: history, caches and benchmark output.
_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                 ".pytest_cache", ".out", "*.egg-info")


def stale_rows(rows) -> list[str]:
    """One line for each row whose old text is not in its file once."""
    bad = []
    for row in rows:
        count = (ROOT / row.file).read_text(encoding="utf-8").count(row.old)
        if count != 1:
            bad.append(f"{row.name}: the old text occurs {count} times in "
                       f"{row.file}: {row.old!r}")
    return bad


def _pytest(copy: Path, ids) -> tuple[int, str, float]:
    """pytest's exit code, its output and the seconds the run took."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *ids], cwd=copy, env=env, capture_output=True, text=True)
    return (done.returncode, done.stdout + done.stderr,
            time.perf_counter() - start)


def main(names) -> int:
    unknown = set(names) - {row.name for row in TABLE}
    if unknown:
        print(f"no row named {', '.join(sorted(unknown))}")
        return 1
    rows = [row for row in TABLE if not names or row.name in names]
    bad = stale_rows(rows)
    if bad:
        print("the kill table is stale:", *bad, sep="\n  ")
        return 1
    with tempfile.TemporaryDirectory(prefix="biquat-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        ids = list(dict.fromkeys(t for row in rows for t in row.tests))
        code, output, seconds = _pytest(copy, ids)
        if code != 0:
            print(output[-3000:])
            print(f"the unmutated copy fails its tests (pytest exit {code})")
            return 1
        print(f"unmutated copy: {len(ids)} test ids pass ({seconds:.1f} s)")
        failures = 0
        for row in rows:
            path = copy / row.file
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(row.old, row.new), encoding="utf-8")
            try:
                code, output, seconds = _pytest(copy, row.tests)
            finally:
                path.write_text(text, encoding="utf-8")
            outcome = {0: "survived", 1: "killed"}.get(code)
            if outcome is None:
                print(output[-3000:])
                verdict = f"ERROR: pytest exit {code}"
            elif row.survivor is None:
                verdict = "ok" if outcome == "killed" else "FAIL: not listed"
            elif outcome == "survived":
                verdict = f"listed survivor until {row.survivor}"
            else:
                verdict = "FAIL: listed as a survivor, now killed"
            failures += not verdict.startswith(("ok", "listed"))
            print(f"{row.name:36} {row.catch:8} {outcome or '-':9} "
                  f"{seconds:5.1f} s  {verdict}")
    if failures:
        print(f"{failures} row(s) of the kill table failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
