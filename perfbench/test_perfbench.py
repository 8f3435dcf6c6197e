"""Tests of the benchmark itself: its checks catch wrong answers, its
tracer measures and restores, and its output follows BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from biquat import biquaternion, entanglement, quaternion  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def failures(wl, count=None) -> int:
    tally = run.Tally()
    for op in wl.ops[:count]:
        run.run_op(op, tally)
    return tally.failed


@pytest.mark.parametrize("name,count", [("oracle", 200), ("library", 400),
                                        ("cli", 256)])
def test_correct_program_passes_every_check(tmp_path, name, count):
    wl = workloads.WORKLOADS[name](3, tmp_path)
    assert failures(wl, count) == 0


def test_inputs_follow_the_seed(tmp_path):
    a, b, c = (workloads.Library(s, tmp_path) for s in (5, 5, 6))
    assert [op.kind for op in a.ops] == [op.kind for op in b.ops]
    assert [op.kind for op in a.ops] != [op.kind for op in c.ops]


def _wrong_law(alpha, beta, ai, aj):
    return 4.0 * abs(alpha) * abs(beta) * abs(ai * aj) + 1e-6


def test_wrong_law_expectation_is_counted(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "law_concurrence", _wrong_law)
    assert failures(workloads.Library(3, tmp_path), 400) > 0
    assert failures(workloads.Cli(3, tmp_path), 256) > 0


def test_wrong_exit_code_expectation_is_counted(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "EXIT_REJECTED", workloads.EXIT_OK)
    assert failures(workloads.Cli(3, tmp_path), 256) > 0


def test_wrong_cross_route_input_is_counted(tmp_path, monkeypatch):
    original = workloads.Oracle._dyadic_coords

    def nudged(self):
        coords, floats = original(self)
        return coords, floats._replace(c1=floats.c1 + 2.0 ** -20)

    monkeypatch.setattr(workloads.Oracle, "_dyadic_coords", nudged)
    assert failures(workloads.Oracle(3, tmp_path), 8) > 0


def test_wrong_golden_expectation_is_counted(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "GOLDEN_SCALED",
                        ["(0, 2i, -2i, 0)"] + workloads.GOLDEN_SCALED[1:])
    wl = workloads.Cli(3, tmp_path)
    examples = [op for op in wl.ops if op.kind == "examples"][:4]
    tally = run.Tally()
    for op in examples:
        run.run_op(op, tally)
    assert tally.failed == len(examples) > 0


def test_wrong_identity_expectation_is_counted(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.verify, "closed_form_product",
                        lambda case_id, alpha, beta, a: None)
    assert failures(workloads.Oracle(3, tmp_path), 10) == 2


def test_uncaught_exception_is_counted():
    def boom():
        raise RuntimeError("boom")

    tally = run.Tally()
    run.run_op(workloads.Op("x", boom, lambda out: True), tally)
    run.run_op(workloads.Op("x", boom, lambda out: True, ValueError), tally)
    assert (tally.attempted, tally.failed) == (2, 2)


def test_self_time_subtracts_direct_children():
    spans = [["a", "", 0, 100, -1, True], ["b", "", 10, 40, 0, True],
             ["c", "", 15, 25, 1, True], ["d", "", 50, 90, 0, True]]
    assert tracer.self_times(spans) == [30, 20, 10, 40]


def test_tracer_records_spans_and_restores_bindings():
    bound = entanglement.bmul
    tr = tracer.Tracer()
    tr.install()
    try:
        assert entanglement.bmul is not bound
        s = 0.5 ** 0.5
        entanglement.entangle(quaternion.Quat(s, 0, s, 0),
                              biquaternion.BiQuat(s * 1j, -s * 1j, 0, 0))
    finally:
        tr.uninstall()
    assert entanglement.bmul is bound
    m = tracer.layer_metrics(tr.spans, Counter())
    assert m["biquaternion.bmul.calls"] == 2
    assert m["entanglement.accept_ratio"] == 1.0
    assert m["entanglement.norm_checks_per_entangle"] == 6


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed",
         "1", "--seconds", "0.2", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"),
                                       ("1", "per_layer")])
def test_result_line_follows_benchmark_json(trace, key):
    proc = _run(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH[key]}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
