"""The perfbench workloads: seeded inputs, the timed call, the check.

Every workload is a closed loop with one client: the harness sends the
next operation only after the previous one has returned.  Inputs are
generated from the seed before timing starts.  Expected values come from
the benchmark's own closed forms, the documented exit codes and the
bit-exact agreement of the float and exact routes, never from a second
call of the code path under test.

Layers are reached through module attributes (``entanglement.entangle``,
not a bound copy) so that the wrappers of ``tracer`` see every call.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from biquat import (biquaternion, cli, entanglement, exact, quaternion,
                    rotations, verify)

# The paper's tolerance for the concurrence law C = 4|alpha beta a_i a_j|.
LAW_TOL = 1e-10
# Rotor supports the paper admits; a state on pair V pairs with the ones
# sharing exactly one direction with V, which gives the eight cases.
ADMISSIBLE = ((1, 2), (1, 3), (2, 4), (3, 4))
VARIANTS = ((1, 2), (3, 4), (1, 3), (2, 4))
CASES = tuple((v, s) for v in VARIANTS for s in ADMISSIBLE
              if len(set(v) & set(s)) == 1)
_S = math.sqrt(0.5)
# Documented exit codes of the biquat command.
EXIT_OK, EXIT_USAGE, EXIT_REJECTED = 0, 1, 2


class Op(NamedTuple):
    """One operation: ``call`` is timed, ``check`` judges its outcome.

    ``raises`` is the exception class the call must raise, or None when
    it must return; ``check`` then gets the exception or the return value.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    raises: type | None = None


class CliRun(NamedTuple):
    code: int
    out: str
    err: str


# --- closed forms computed by the benchmark itself ---------------------

def law_concurrence(alpha, beta, ai, aj) -> float:
    return 4.0 * abs(alpha) * abs(beta) * abs(ai * aj)


def state_concurrence(c) -> float:
    return 2.0 * abs(c[0] * c[3] - c[1] * c[2])


def sum_squares(c):
    """sum c_k^2: the squared norm of a real quaternion, inner_q(x, x)
    of a biquaternion."""
    return sum(x * x for x in c)


def hamilton(p, q):
    """Quaternion product over any coefficient type."""
    p1, p2, p3, p4 = p
    q1, q2, q3, q4 = q
    return (p1 * q1 - p2 * q2 - p3 * q3 - p4 * q4,
            p1 * q2 + p2 * q1 + p3 * q4 - p4 * q3,
            p1 * q3 - p2 * q4 + p3 * q1 + p4 * q2,
            p1 * q4 + p2 * q3 - p3 * q2 + p4 * q1)


def _exact_text(c: complex) -> str:
    # The oracle's rendering of a Gaussian-integer coefficient.
    re, im = int(c.real), int(c.imag)
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


def golden_scaled(p_support, variant, alpha, beta) -> str:
    """p q p for a golden example, with p and q scaled by sqrt(2)."""
    p = [0, 0, 0, 0]
    q = [0j, 0j, 0j, 0j]
    for k in p_support:
        p[k - 1] = 1
    q[variant[0] - 1], q[variant[1] - 1] = alpha, beta
    return "(" + ", ".join(map(_exact_text, hamilton(hamilton(p, q), p))) + ")"


# Golden examples: rotor support, state pair, alpha, beta.
GOLDEN = (((1, 3), (1, 2), 1j, -1j), ((3, 4), (1, 3), 1j, -1j),
          ((3, 4), (2, 4), 1j, 1j))
GOLDEN_SCALED = [golden_scaled(*g) for g in GOLDEN]


# --- input generation ---------------------------------------------------

def _place(pairs, size=4, zero=0.0):
    c = [zero] * size
    for k, v in pairs:
        c[k - 1] = v
    return c


def _angle_pair(rng):
    """(cos t, sin t), both at least sin(0.1) in magnitude."""
    t = rng.uniform(0.1, math.pi / 2 - 0.1) + rng.randrange(4) * math.pi / 2
    return math.cos(t), math.sin(t)


def _amplitudes(rng):
    ma, mb = _angle_pair(rng)
    return (abs(ma) * cmath.exp(1j * rng.uniform(-math.pi, math.pi)),
            abs(mb) * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))


def _unit_quat(rng):
    while True:
        c = [rng.gauss(0.0, 1.0) for _ in range(4)]
        n = math.sqrt(sum_squares(c))
        if n > 1e-3:
            return [x / n for x in c]


def _boost(rng):
    """cosh h + i sinh h n: a quaternionic unit, q conj_quaternion(q) = 1."""
    h = rng.uniform(-1.0, 1.0)
    n = _unit_quat(rng)[1:]
    n_len = math.sqrt(sum_squares(n))
    return [complex(math.cosh(h))] + [1j * math.sinh(h) * x / n_len for x in n]


def _rand_biquat(rng):
    return [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]


def _unit_biquat(rng):
    c = _rand_biquat(rng)
    n = math.sqrt(sum(abs(x) ** 2 for x in c))
    return [x / n for x in c]


def _close(a, b, tol) -> bool:
    return abs(a - b) <= tol


def _all_close(a, b, tol) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= tol for x, y in zip(a, b))


def _mix(rng, shares, make, blocks):
    """``blocks`` times the fixed ``shares`` (kind, count), shuffled."""
    kinds = [kind for kind, n in shares for _ in range(n)] * blocks
    rng.shuffle(kinds)
    return [make(kind) for kind in kinds]


class Workload:
    name = ""
    # Ops per traced pass.
    trace_ops = 1
    # Interpreter arguments for one set-up measurement (run from the root).
    setup_argv: tuple[str, ...] = ()

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.rng = random.Random(f"{self.name}/{seed}")
        self.work_dir = work_dir
        # Exit codes of cli.main, counted by Cli.run_cli.
        self.exit_codes: Counter = Counter()
        self.ops: list[Op] = self.build()

    def build(self) -> list[Op]:
        raise NotImplementedError

    def info(self) -> dict:
        return {"pool": len(self.ops),
                "kinds": dict(Counter(op.kind for op in self.ops))}


def _clean(run: CliRun, code: int) -> bool:
    return run.code == code and "Traceback" not in run.err


# --- oracle --------------------------------------------------------------

class Oracle(Workload):
    """Exact-route traffic: dense dyadic cross-checks, rational conjugation
    rules and closed-form identities, three to one to one."""

    name = "oracle"
    pool = 2048
    trace_ops = 256
    dyadic_limit, dyadic_max_power, rational_limit = 97, 6, 30
    setup_argv = ("-c", "from fractions import Fraction as F\n"
                        "from biquat import biquaternion as b, exact as e\n"
                        "x = e.ExactBiQuat(tuple(F(k - 3, 2 ** k) "
                        "for k in range(8)))\n"
                        "f = b.BiQuat(*x.to_floats())\n"
                        "assert e.oracle_mul(x, x).to_floats() == "
                        "tuple(b.bmul(f, f))\n")

    def build(self):
        make = (self._rational, self._identity, self._dyadic, self._dyadic,
                self._dyadic)
        return [make[k % 5]() for k in range(self.pool)]

    def _dyadic_coords(self):
        rng = self.rng
        nums = [rng.choice((-1, 1)) * rng.randint(1, self.dyadic_limit)
                for _ in range(8)]
        dens = [2 ** rng.randint(0, self.dyadic_max_power) for _ in range(8)]
        coords = tuple(Fraction(n, d) for n, d in zip(nums, dens))
        # n / 2^k is exact in binary floating point.
        floats = biquaternion.BiQuat(*(complex(nums[k] / dens[k],
                                               nums[k + 4] / dens[k + 4])
                                       for k in range(4)))
        return coords, floats

    def _dyadic(self):
        (a, fa), (b, fb) = self._dyadic_coords(), self._dyadic_coords()

        def call():
            x, y = exact.ExactBiQuat(a), exact.ExactBiQuat(b)
            return (exact.oracle_mul(x, y).to_floats(),
                    biquaternion.bmul(fa, fb))

        def check(out):
            want, got = out
            return tuple(got) == tuple(want)

        return Op("dyadic", call, check)

    def _rational(self):
        rng, lim = self.rng, self.rational_limit
        a, b = (tuple(Fraction(rng.randint(-lim, lim), rng.randint(1, lim))
                      for _ in range(8)) for _ in range(2))

        def call():
            x, y = exact.ExactBiQuat(a), exact.ExactBiQuat(b)
            xy = exact.oracle_mul(x, y)
            conj, mul = exact.exact_conj, exact.oracle_mul
            return [(conj(xy, "complex"),
                     mul(conj(x, "complex"), conj(y, "complex"))),
                    (conj(xy, "quaternion"),
                     mul(conj(y, "quaternion"), conj(x, "quaternion"))),
                    (conj(xy, "hermitian"),
                     mul(conj(y, "hermitian"), conj(x, "hermitian")))]

        def check(pairs):
            return all(lhs == rhs for lhs, rhs in pairs)

        return Op("rational", call, check)

    def _identity(self):
        # The identity route of verify-theorem at one random rational
        # point: p q p by the oracle against the case's closed form.
        rng, lim = self.rng, self.rational_limit
        case = rng.choice(verify.ENTANGLE_CASES)
        re_a, im_a, re_b, im_b, ai, aj = (
            Fraction(rng.randint(-lim, lim), rng.randint(1, lim))
            for _ in range(6))
        alpha = exact.ExactScalar(re_a, im_a)
        beta = exact.ExactScalar(re_b, im_b)
        p = _place(zip(case.p_support, (ai, aj)), size=8, zero=Fraction(0))
        i, j = case.variant.positions
        q = _place([(i, re_a), (i + 4, im_a), (j, re_b), (j + 4, im_b)],
                   size=8, zero=Fraction(0))

        def call():
            x, y = exact.ExactBiQuat(p), exact.ExactBiQuat(q)
            return (exact.oracle_mul(exact.oracle_mul(x, y), x),
                    verify.closed_form_product(case.case_id, alpha, beta,
                                               (ai, aj)))

        return Op("identity", call, lambda out: out[0] == out[1])

    def info(self):
        return dict(super().info(), dyadic_limit=self.dyadic_limit,
                    dyadic_max_power=self.dyadic_max_power,
                    rational_limit=self.rational_limit)


# --- library -------------------------------------------------------------

class Library(Workload):
    """Checked library calls: the gate and map, rejections, rotations."""

    name = "library"
    blocks = 200
    trace_ops = 1000
    shares = (("entangle", 12), ("reject_r1", 1), ("reject_r2", 1),
              ("reject_r3", 1), ("onesided", 2), ("sandwich", 1),
              ("lorentz", 2))
    setup_argv = ("-c", "from biquat import biquaternion as b, "
                        "entanglement as e, quaternion as q\n"
                        "s = 0.5 ** 0.5\n"
                        "out = e.entangle(q.Quat(s, 0, s, 0), "
                        "b.BiQuat(s * 1j, -s * 1j, 0, 0))\n"
                        "assert abs(out.concurrence_after - 1) < 1e-10\n")

    def build(self):
        return _mix(self.rng, self.shares, self._make, self.blocks)

    def _make(self, kind):
        rng = self.rng
        if kind == "entangle":
            variant, sup = rng.choice(CASES)
            alpha, beta = _amplitudes(rng)
            ai, aj = _angle_pair(rng)
            p = quaternion.Quat(*_place(zip(sup, (ai, aj))))
            q = biquaternion.BiQuat(*_place(zip(variant, (alpha, beta)),
                                            zero=0j))
            want = law_concurrence(alpha, beta, ai, aj)

            def call():
                return (entanglement.entangle(p, q),
                        entanglement.predicted_concurrence(p, q))

            def check(out):
                outcome, predicted = out
                return (_close(outcome.concurrence_after, want, LAW_TOL)
                        and _close(outcome.concurrence_before, 0.0, 1e-12)
                        and _close(predicted, want, LAW_TOL))

            return Op(kind, call, check)
        if kind.startswith("reject_"):
            return self._reject(kind)
        if kind == "lorentz":
            qb = biquaternion.BiQuat(*_boost(rng))
            x = biquaternion.BiQuat(*_rand_biquat(rng))
            want = sum_squares(x)

            def call():
                return rotations.lorentz_map(qb, x)

            return Op(kind, call,
                      lambda r: _close(sum_squares(r), want, 1e-10))
        q = quaternion.Quat(*_unit_quat(rng))
        x = quaternion.Quat(*(rng.uniform(-1, 1) for _ in range(4)))
        want = sum_squares(x)
        if kind == "onesided":
            side = rng.choice(("left", "right"))

            def call():
                return rotations.rotate_onesided(q, x, side)

            return Op(kind, call,
                      lambda r: _close(sum_squares(r), want, 1e-10))

        def call():
            return rotations.conjugate_rotation(q, x)

        return Op(kind, call, lambda r: (_close(sum_squares(r), want, 1e-10)
                                         and _close(r[0], x[0], 1e-10)))

    def _reject(self, kind):
        rng = self.rng
        variant, sup = rng.choice(CASES)
        alpha, beta = _amplitudes(rng)
        q = biquaternion.BiQuat(*_place(zip(variant, (alpha, beta)), zero=0j))
        if kind == "reject_r1":
            # Support {1,4} or {2,3}: concurrence 2|c1 c4 - c2 c3| > 0.
            p = _place(zip(rng.choice(((1, 4), (2, 3))), _angle_pair(rng)))
        elif kind == "reject_r2":
            p = _place([(rng.randint(1, 4), rng.choice((-1.0, 1.0)))])
        else:
            # An admissible support sharing zero or two directions.
            bad = [s for s in ADMISSIBLE if len(set(s) & set(variant)) != 1]
            p = _place(zip(rng.choice(bad), _angle_pair(rng)))
        p = quaternion.Quat(*p)
        flag, label = f"r{kind[-1]}_pass", f"R{kind[-1]}:"

        def call():
            return entanglement.entangle(p, q)

        def check(err):
            return (getattr(err.report, flag) is False
                    and label in err.report.detail)

        return Op(kind, call, check, entanglement.RestrictionError)

    def info(self):
        return dict(super().info(), shares=dict(self.shares))


# --- cli -----------------------------------------------------------------

def _lit(c: complex) -> str:
    if c.imag == 0:
        return repr(c.real)
    sign = "+" if c.imag > 0 else "-"
    return f"{c.real!r}{sign}{abs(c.imag)!r}i"


def _text(c, as_json: bool) -> str:
    """A biquaternion argument in the plain or the JSON form."""
    c = [complex(x) for x in c]
    if as_json:
        return json.dumps({"re": [x.real for x in c],
                           "im": [x.imag for x in c]})
    return ", ".join(_lit(x) for x in c)


def _plain_values(line: str) -> list[complex]:
    return [complex(t.strip().replace("i", "j")) for t in line.split(",")]


def _line_value(out: str, prefix: str) -> float:
    for line in out.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):])
    raise ValueError(f"no line starting with {prefix!r}")


def _json_values(obj) -> list[complex]:
    return [complex(r, i) for r, i in zip(obj["re"], obj["im"])]


def _check_examples(run: CliRun, as_json: bool) -> bool:
    if not _clean(run, EXIT_OK):
        return False
    if as_json:
        d = json.loads(run.out)
        computed = [e["computed_scaled"] for e in d["examples"]]
        return (d["all_pass"] is True and computed == GOLDEN_SCALED
                and all(e["concurrence_one"] for e in d["examples"]))
    computed = [line.split(None, 1)[1] for line in run.out.splitlines()
                if line.startswith("  computed ")]
    return (computed == GOLDEN_SCALED
            and run.out.rstrip().endswith("overall: pass"))


class Cli(Workload):
    """One-shot in-process ``cli.main(argv)`` calls, output captured."""

    name = "cli"
    blocks = 5
    trace_ops = 240
    grid = 3
    shares = (("entangle", 12), ("entangle_rejected", 5), ("check", 6),
              ("concurrence", 8), ("rotate", 12), ("polar", 6),
              ("malformed", 10), ("sweep", 1), ("examples", 2))
    setup_argv = ("-m", "biquat", "--json", "entangle",
                  "--p", f"{_S!r}, 0, {_S!r}, 0",
                  "--q", f"{_S!r}i, -{_S!r}i, 0, 0")

    def build(self):
        self.sweep_path = self.work_dir / "sweep.csv"
        return _mix(self.rng, self.shares, self._make, self.blocks)

    def run_cli(self, argv) -> CliRun:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        self.exit_codes[code] += 1
        return CliRun(code, out.getvalue(), err.getvalue())

    def _op(self, kind, argv, check):
        return Op(kind, lambda: self.run_cli(argv), check)

    def _make(self, kind):
        rng = self.rng
        as_json = rng.random() < 0.5
        flag = ["--json"] if as_json else []
        if kind in ("entangle", "entangle_rejected", "check"):
            return self._gate(kind, flag, as_json)
        if kind == "concurrence":
            state = _unit_biquat(rng)
            want = state_concurrence(state)

            def check(run):
                got = (json.loads(run.out)["concurrence"] if as_json
                       else float(run.out))
                return _clean(run, EXIT_OK) and _close(got, want, 1e-12)

            return self._op(kind, flag + ["concurrence",
                                          _text(state, rng.random() < 0.3)],
                            check)
        if kind == "rotate":
            return self._rotate(flag, as_json)
        if kind == "polar":
            x = [rng.uniform(-2, 2) for _ in range(4)]
            vlen = math.sqrt(sum_squares(x[1:]))
            magnitude = math.sqrt(sum_squares(x))
            angle = math.atan2(vlen, x[0])

            def check(run):
                if as_json:
                    d = json.loads(run.out)
                    got = d["magnitude"], d["angle"]
                else:
                    got = (_line_value(run.out, "magnitude: "),
                           _line_value(run.out, "angle: "))
                return (_clean(run, EXIT_OK)
                        and _all_close(got, (magnitude, angle), 1e-12))

            return self._op(kind, flag + ["polar", _text(x, False)], check)
        if kind == "malformed":
            return self._malformed(flag)
        if kind == "examples":
            return self._op(kind, flag + ["verify-examples"],
                            lambda run: _check_examples(run, as_json))
        argv = ["--json", "sweep", "--grid", str(self.grid),
                "--out", str(self.sweep_path)]
        return self._op(kind, argv, self._check_sweep)

    def _gate(self, kind, flag, as_json):
        rng = self.rng
        variant, sup = rng.choice(CASES)
        alpha, beta = _amplitudes(rng)
        ai, aj = _angle_pair(rng)
        accept = kind == "entangle" or (kind == "check" and rng.random() < 0.5)
        if not accept:
            bad = [s for s in ADMISSIBLE if len(set(s) & set(variant)) != 1]
            sup = rng.choice(bad)
        p = _place(zip(sup, (ai, aj)))
        q = _place(zip(variant, (alpha, beta)), zero=0j)
        argv = flag + [kind if kind == "check" else "entangle",
                       "--p", _text(p, False),
                       "--q", _text(q, rng.random() < 0.3)]
        want = law_concurrence(alpha, beta, ai, aj)
        code = EXIT_OK if accept else EXIT_REJECTED

        def check(run):
            if not _clean(run, code):
                return False
            if kind == "check":
                return not as_json or json.loads(run.out)["passed"] is accept
            if not accept:
                if as_json:
                    d = json.loads(run.out)
                    return (d["rejected"] is True
                            and d["report"]["r3_pass"] is False)
                return run.out.startswith("rejected: ") and "R3:" in run.out
            if as_json:
                d = json.loads(run.out)
                after, before = d["concurrence_after"], d["concurrence_before"]
            else:
                after = _line_value(run.out, "concurrence after: ")
                before = _line_value(run.out, "concurrence before: ")
            return _close(after, want, LAW_TOL) and _close(before, 0.0, 1e-12)

        return self._op(kind, argv, check)

    def _rotate(self, flag, as_json):
        rng = self.rng
        kind = rng.choice(("left", "right", "conj", "psi", "lorentz", "mu"))
        if kind in ("left", "right", "conj"):
            q, x = _unit_quat(rng), [rng.uniform(-1, 1) for _ in range(4)]
        else:
            q = _unit_quat(rng) if kind == "psi" else _boost(rng)
            x = _rand_biquat(rng)
        # Real maps keep the squared norm, the others inner_q(x, x); the
        # sandwich q x q^-1 also fixes the scalar part.
        want = sum_squares(x)

        def check(run):
            if not _clean(run, EXIT_OK):
                return False
            r = (_json_values(json.loads(run.out)["result"]) if as_json
                 else _plain_values(run.out))
            if kind in ("left", "right", "conj"):
                if any(c.imag for c in r):
                    return False
                r = [c.real for c in r]
            ok = _close(sum_squares(r), want, 1e-10)
            return ok and (kind != "conj" or _close(r[0], x[0], 1e-10))

        argv = flag + ["rotate", "--map", kind, "--q", _text(q, False),
                       "--x", _text(x, rng.random() < 0.3)]
        return self._op("rotate", argv, check)

    def _malformed(self, flag):
        rng = self.rng
        n = repr(rng.uniform(-1, 1))
        unit = _text(_unit_biquat(rng), False)
        argv = rng.choice((
            ["concurrence", f"{n}, {n}, {n}"],
            ["concurrence", f"{n}, 2x, 0, 0"],
            ["concurrence", '{"re": [%s, 0, 0], "im": [0, 0, 0]}' % n],
            ["concurrence", '{"re": [%s, 0' % n],
            ["concurrence", f"{2 + abs(float(n))}, 0, 0, 0"],
            ["entangle", "--p", f"{n}i, 0, 0, 0", "--q", unit],
            ["entangle", "--p", "1, 0, 0, 0"],
            ["rotate", "--map", "left", "--q", f"2, {n}, 0, 0",
             "--x", "1, 0, 0, 0"],
            ["sweep", "--grid", "0"],
            ["bogus", n],
        ))

        def check(run):
            return _clean(run, EXIT_USAGE) and run.out == "" and run.err != ""

        return self._op("malformed", flag + argv, check)

    def _check_sweep(self, run):
        if not _clean(run, EXIT_OK):
            return False
        n = self.grid ** 4
        with open(self.sweep_path, newline="") as f:
            rows = list(csv.reader(f))
        if (json.loads(run.out)["rows"] != n or len(rows) != n + 1
                or rows[0] != ["alpha", "beta", "a_i", "a_j", "concurrence",
                               "maximal"]):
            return False
        for alpha, beta, ai, aj, c, _ in rows[1:]:
            a, b = _plain_values(f"{alpha},{beta}")
            want = law_concurrence(a, b, float(ai), float(aj))
            if not _close(float(c), want, LAW_TOL):
                return False
        return True

    def info(self):
        return dict(super().info(), shares=dict(self.shares),
                    sweep_grid=self.grid)


WORKLOADS = {w.name: w for w in (Oracle, Library, Cli)}
