"""Acceptance gate: nine numbered criteria, one printed line each.

Every criterion states its own tolerances and runtime budget; the
budgets are asserted, not aspirational.  Run with `pytest -s` (the
default addopts here) to see the lines inline.
"""

import io
import math
import random
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from time import perf_counter

import pytest

from biquat.biquaternion import BiQuat, bmul, from_quat, inner_q, norm_h
from biquat.cli import format_biquat, main as cli_main, parse_biquat
from biquat.entanglement import (StateAmp, Variant, concurrence, embed_state,
                                 entangle, entangle_map,
                                 predicted_concurrence)
from biquat.exact import (ExactBiQuat, check_basis_associativity, exact_conj,
                          oracle_mul)
from biquat.quaternion import (Quat, angle_between, from_vector, inverse,
                               magnitude, mul, norm, polar, scalar_part)
from biquat.rotations import conjugate_rotation, lorentz_map, make_triad
from biquat.verify import verify_examples, verify_theorem

from exact_draws import random_exact_biquat

INV_SQRT2 = 1.0 / math.sqrt(2.0)
I_SQRT2 = 1j * INV_SQRT2


class _Timing:
    """Where a timed criterion records the elapsed time it asserts on."""

    elapsed = None

    def __str__(self):
        # The label states the budget; this puts the time beside it.
        if self.elapsed is None:
            return ""
        if self.elapsed < 0.01:
            return f" (took {self.elapsed * 1e3:.3f} ms)"
        return f" (took {self.elapsed:.2f} s)"


@contextmanager
def criterion(number, label):
    timing = _Timing()
    try:
        yield timing
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {label}{timing}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {label}{timing}")


def _rand_quat(rng, scale=2.0):
    return Quat(*(rng.uniform(-scale, scale) for _ in range(4)))


def _rand_unit(rng):
    while True:
        q = Quat(*(rng.gauss(0.0, 1.0) for _ in range(4)))
        m = magnitude(q)
        if m > 1e-3:
            return Quat(*(c / m for c in q))


def _rand_unit_vec(rng):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(x * x for x in v))
        if n > 1e-3:
            return (v[0] / n, v[1] / n, v[2] / n)


def test_criterion_1_golden_example_one():
    with criterion(
            1, "golden example 1: map, concurrence 0 -> 1, < 1 ms") as timing:
        p = Quat(INV_SQRT2, 0, INV_SQRT2, 0)
        q = BiQuat(I_SQRT2, -I_SQRT2, 0, 0)
        entangle(p, q)  # warm attribute caches before timing
        t0 = perf_counter()
        out = entangle(p, q)
        elapsed = timing.elapsed = perf_counter() - t0
        want = BiQuat(0, -I_SQRT2, I_SQRT2, 0)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(out.result, want))
        assert abs(out.concurrence_before - 0.0) <= 1e-12
        assert abs(out.concurrence_after - 1.0) <= 1e-12
        assert elapsed < 1e-3


def test_criterion_2_golden_example_three():
    with criterion(2, "golden example 3: map and concurrence at 1e-12"):
        p = Quat(0, 0, INV_SQRT2, INV_SQRT2)
        q = BiQuat(0, I_SQRT2, 0, I_SQRT2)
        out = entangle(p, q)
        want = BiQuat(0, I_SQRT2, -I_SQRT2, 0)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(out.result, want))
        assert abs(out.concurrence_after - 1.0) <= 1e-12


def test_criterion_3_golden_example_two_audit():
    with criterion(3, "golden example 2 audit: magnitudes, C = 1, sign flag"):
        report = verify_examples()
        two = {e.example_id: e for e in report.examples}[2]
        # The exact recomputation is (-i, 0, 0, +i)/sqrt(2); scaled by
        # 2*sqrt(2) that is -2i and +2i on the outer components.
        assert two.computed == ExactBiQuat((0, 0, 0, 0, -2, 0, 0, 2))
        assert two.magnitude_match
        assert two.sign_mismatch_components == (4,)
        assert two.concurrence_one
        assert not two.exact_match  # the flag, not a silent correction

        p = Quat(0, 0, INV_SQRT2, INV_SQRT2)
        q = BiQuat(I_SQRT2, 0, -I_SQRT2, 0)
        out = entangle(p, q)
        assert abs(out.concurrence_after - 1.0) <= 1e-12
        got = out.result
        want_mag = (INV_SQRT2, 0.0, 0.0, INV_SQRT2)
        for g, m in zip(got, want_mag):
            assert abs(abs(g) - m) <= 1e-12
        assert abs(got.c1 - (-I_SQRT2)) <= 1e-12
        assert abs(got.c4 - I_SQRT2) <= 1e-12


def test_criterion_4_theorem_suite():
    with criterion(
            4, "eight-case law: exact identity + float law, < 5 s") as timing:
        t0 = perf_counter()
        report = verify_theorem(samples=1000, seed=7)
        elapsed = timing.elapsed = perf_counter() - t0
        assert report.all_pass
        assert len(report.cases) == 8
        for case in report.cases:
            assert case.identity_pass
            assert case.identity_points >= 9
            assert case.law_pass
            assert case.law_samples == 1000
            assert case.law_max_error <= 1e-10
        assert elapsed < 5.0


def test_criterion_5_maximal_entanglement():
    with criterion(5, "all-1/sqrt(2) point: C = 1 in all 8 cases, pi/4"):
        pairings = ((Variant.V12, (1, 3)), (Variant.V12, (2, 4)),
                    (Variant.V34, (1, 3)), (Variant.V34, (2, 4)),
                    (Variant.V13, (1, 2)), (Variant.V13, (3, 4)),
                    (Variant.V24, (1, 2)), (Variant.V24, (3, 4)))
        for variant, sup in pairings:
            q = embed_state(StateAmp(INV_SQRT2, INV_SQRT2, variant))
            c = [0.0] * 4
            c[sup[0] - 1] = INV_SQRT2
            c[sup[1] - 1] = INV_SQRT2
            p = Quat(*c)
            assert abs(concurrence(entangle_map(p, q)) - 1.0) <= 1e-12
            assert abs(predicted_concurrence(p, q) - 1.0) <= 1e-12
            # Equal mixing means a pi/4 angle.  For a rotor with a
            # scalar component that IS the polar angle; a pure-vector
            # rotor sits at polar angle pi/2 with the pi/4 in its
            # mixing ratio instead.
            form = polar(p)
            if 1 in sup:
                assert abs(form.angle - math.pi / 4) <= 1e-12
            else:
                assert abs(form.angle - math.pi / 2) <= 1e-12
                assert abs(math.atan2(p[sup[1] - 1], p[sup[0] - 1])
                           - math.pi / 4) <= 1e-12


def test_criterion_6_algebra_property_suite():
    with criterion(
            6, "algebra properties at 10^4 samples each, < 5 s") as timing:
        t0 = perf_counter()
        rng = random.Random(2024)

        for _ in range(10_000):
            p, q = _rand_quat(rng), _rand_quat(rng)
            assert norm(mul(p, q)) == pytest.approx(norm(p) * norm(q),
                                                    rel=1e-12)

        for _ in range(10_000):
            p, q = _rand_quat(rng), _rand_quat(rng)
            assert abs(scalar_part(mul(p, q))
                       - scalar_part(mul(q, p))) <= 1e-12

        for _ in range(10_000):
            p, q = _rand_unit(rng), _rand_unit(rng)
            lhs = inverse(mul(p, q))
            rhs = mul(inverse(q), inverse(p))
            assert all(abs(a - b) <= 1e-10 for a, b in zip(lhs, rhs))

        exact_rng = random.Random(2025)
        for _ in range(10_000):
            a = random_exact_biquat(exact_rng, limit=30)
            b = random_exact_biquat(exact_rng, limit=30)
            ab = oracle_mul(a, b)
            assert exact_conj(ab, "complex") == oracle_mul(
                exact_conj(a, "complex"), exact_conj(b, "complex"))
            assert exact_conj(ab, "quaternion") == oracle_mul(
                exact_conj(b, "quaternion"), exact_conj(a, "quaternion"))
            assert exact_conj(ab, "hermitian") == oracle_mul(
                exact_conj(b, "hermitian"), exact_conj(a, "hermitian"))

        for _ in range(10_000):
            w = BiQuat(*(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                         for _ in range(4)))
            q = from_quat(_rand_quat(rng))
            assert norm_h(bmul(w, q)) == pytest.approx(
                norm_h(w) * norm_h(q), rel=1e-12)

        elapsed = timing.elapsed = perf_counter() - t0
        assert elapsed < 5.0


def test_criterion_7_rotation_suite():
    with criterion(7, "rotation laws at 10^3 samples, 1e-10, < 2 s") as timing:
        t0 = perf_counter()
        rng = random.Random(31)

        for _ in range(1000):
            q = _rand_unit(rng)
            x = _rand_quat(rng)
            if norm(x) < 1e-6:
                continue
            assert abs(angle_between(x, mul(q, x))
                       - polar(q).angle) <= 1e-10

        for _ in range(1000):
            q = _rand_unit(rng)
            form = polar(q)
            if form.degenerate:
                continue
            qhat = from_vector(form.axis)
            c, s = math.cos(form.angle), math.sin(form.angle)
            x = _rand_quat(rng)
            qhx = mul(qhat, x)
            assert all(abs(a - b) <= 1e-10
                       for a, b in zip(mul(q, x), x * c + qhx * s))
            assert all(abs(a - b) <= 1e-10
                       for a, b in zip(mul(q, qhx), qhx * c - x * s))

        for _ in range(1000):
            theta = rng.uniform(0.0, math.pi)
            qhat = from_vector(_rand_unit_vec(rng))
            t = make_triad(qhat)
            q = Quat(math.cos(theta), 0, 0, 0) + qhat * math.sin(theta)
            c, s = math.cos(theta), math.sin(theta)
            assert all(abs(a - b) <= 1e-10
                       for a, b in zip(mul(q, t.vhat),
                                       t.vhat * c + t.what * s))
            assert all(abs(a - b) <= 1e-10
                       for a, b in zip(mul(q, t.what),
                                       t.what * c - t.vhat * s))

        for _ in range(1000):
            theta = rng.uniform(0.0, math.pi)
            qhat = from_vector(_rand_unit_vec(rng))
            t = make_triad(qhat)
            q = Quat(math.cos(theta), 0, 0, 0) + qhat * math.sin(theta)
            assert all(abs(a - b) <= 1e-10
                       for a, b in zip(conjugate_rotation(q, qhat), qhat))
            got = conjugate_rotation(q, t.vhat)
            want = t.vhat * math.cos(2 * theta) + t.what * math.sin(2 * theta)
            assert all(abs(a - b) <= 1e-10 for a, b in zip(got, want))

        for _ in range(1000):
            u = rng.uniform(-1.0, 1.0)
            n = _rand_unit_vec(rng)
            s = math.sinh(u)
            boost = BiQuat(math.cosh(u), 1j * s * n[0], 1j * s * n[1],
                           1j * s * n[2])
            q = from_quat(_rand_unit(rng)) * boost
            x = BiQuat(*(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                         for _ in range(4)))
            y = lorentz_map(q, x)
            assert abs(inner_q(y, y) - inner_q(x, x)) <= 1e-10

        elapsed = timing.elapsed = perf_counter() - t0
        assert elapsed < 2.0


def test_criterion_8_oracle_equivalence():
    with criterion(8, "bmul vs oracle exact on 10^5 pairs + 512 triples, "
                      "< 10 s") as timing:
        t0 = perf_counter()
        assert check_basis_associativity()
        rng = random.Random(99)
        for _ in range(100_000):
            a = random_exact_biquat(rng, dyadic=True)
            b = random_exact_biquat(rng, dyadic=True)
            want = oracle_mul(a, b).to_floats()
            got = bmul(BiQuat(*a.to_floats()), BiQuat(*b.to_floats()))
            assert tuple(got) == want
        elapsed = timing.elapsed = perf_counter() - t0
        assert elapsed < 10.0


def _quiet_cli(argv):
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        return cli_main(argv)


def test_criterion_9_cli_roundtrip_and_exit_codes(monkeypatch):
    with criterion(9, "parse/format identity at 10^4 values, exit codes 0-3"):
        rng = random.Random(17)
        for _ in range(10_000):
            parts = []
            for _ in range(4):
                kind = rng.randrange(4)
                if kind == 0:
                    parts.append(complex(rng.randint(-1000, 1000), 0))
                elif kind == 1:
                    parts.append(complex(0, rng.gauss(0, 100)))
                elif kind == 2:
                    parts.append(complex(rng.uniform(-1e8, 1e8),
                                         rng.uniform(-1e-8, 1e-8)))
                else:
                    parts.append(complex(rng.gauss(0, 1), rng.gauss(0, 1)))
            q = BiQuat(*parts)
            assert parse_biquat(format_biquat(q, "plain")) == q
            assert parse_biquat(format_biquat(q, "json")) == q

        assert _quiet_cli(["concurrence", "1,0,0,0"]) == 0
        assert _quiet_cli(["concurrence", "1,2,3"]) == 1
        assert _quiet_cli(["check", "--p", "0,1,0,0", "--q", "1,0,0,0"]) == 2

        class _Failing:
            all_pass = False

            def to_text(self):
                return "forced failure for the exit-code contract"

            def to_dict(self):
                return {"all_pass": False}

        monkeypatch.setattr("biquat.verify.verify_theorem",
                            lambda samples, seed: _Failing())
        assert _quiet_cli(["verify-theorem"]) == 3
