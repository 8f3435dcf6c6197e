"""biquat benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``oracle``, ``library`` and ``cli``.
The run checks every output and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give each metric by name and unit, the error rate, and the run's
context (Python version, nproc, git sha, seed, input size, sample
counts).

``--trace 0`` measures the end-to-end metrics, untraced:

    setup_s      wall time for a fresh interpreter to import the package
                 and finish the workload's first operation: the median
                 of 9 samples, each the fastest of 3 interpreters started
                 one at a time between segments of the timed loop
    ops_per_s    operations per second at the inputs' best latencies
    op_p50_us    median over the inputs of their best latency
    op_p99_us    99th percentile of the same
    peak_rss_mb  peak resident memory of this process

The warm timed loop cycles through the workload's pool of inputs, so each
input is sent many times; its latency is the fastest of its repetitions
(checks run between operations, untimed).  On a shared machine whose
speed changes from second to second this is what repeats from run to
run; the throughput actually observed is reported in the context line.

``--trace 1`` alternates untraced and traced passes over the first
``trace_ops`` operations of the pool and reports the per-layer metrics of
``tracer.layer_metrics`` (times are per pass, each the best over the
traced passes for the reason given above), the count of
``Fraction.__new__`` calls per operation, the per-module self import
times of ``python -X importtime`` and ``trace.overhead_ratio``.  The
spans of the last traced pass are written to ``perfbench/.out/``.

Python bytecode goes to ``perfbench/.out/pycache`` so that nothing is
written under ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / ".out"
PYCACHE = OUT / "pycache"

SETUP_SAMPLES = 9
SETUP_TRIES = 3
IMPORTTIME_SPAWNS = 3
WARMUP_S = 0.5
IMPORT_MODULES = ("biquat", "quaternion", "biquaternion", "rotations",
                  "entanglement", "exact", "verify", "cli")


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


def run_op(op, tally, call=None) -> int:
    """Run and check one operation; return its latency in ns."""
    call = call or op.call
    start = time.perf_counter_ns()
    try:
        out, err = call(), None
    except Exception as e:  # a failure is counted, never fatal
        out, err = None, e
    elapsed = time.perf_counter_ns() - start
    try:
        if err is None:
            ok = op.raises is None and op.check(out)
        else:
            ok = isinstance(err, op.raises or ()) and op.check(err)
    except Exception:
        ok = False
    tally.attempted += 1
    tally.failed += not ok
    return elapsed


class Timing:
    """Best latency of each input of the pool over the run's repetitions.

    The pool is cycled, so every input is sent many times in a run.  Its
    fastest repetition is its cost without interference from other work
    on the machine; the run's total time is kept as well.
    """

    def __init__(self, size):
        self.best = array("q", [-1]) * size
        self.ops = 0
        self.total_ns = 0

    def add(self, index, ns):
        if self.best[index] < 0 or ns < self.best[index]:
            self.best[index] = ns
        self.ops += 1
        self.total_ns += ns


def run_for(ops, seconds, tally, timing=None, start=0) -> int:
    """Cycle through ``ops`` for ``seconds``; return the next index."""
    deadline = time.perf_counter() + seconds
    k = start
    while k == start or time.perf_counter() < deadline:
        i = k % len(ops)
        ns = run_op(ops[i], tally)
        if timing is not None:
            timing.add(i, ns)
        k += 1
    return k


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(args, tally):
    """Run a fresh interpreter to completion; return (seconds, stderr)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=120, text=True)
    elapsed = time.perf_counter() - start
    tally.attempted += 1
    tally.failed += proc.returncode != 0 or "Traceback" in proc.stderr
    return elapsed, proc.stderr


def import_self_ms(tally) -> dict[str, float]:
    """Median per-module self import time of ``import biquat.cli``."""
    spawn(["-c", "pass"], tally)  # fills the bytecode cache
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORTTIME_SPAWNS):
        _, err = spawn(["-X", "importtime", "-c", "import biquat.cli"], tally)
        for line in err.splitlines():
            if not line.startswith("import time:"):
                continue
            fields = line[len("import time:"):].split("|")
            name = fields[2].strip()
            short = "biquat" if name == "biquat" else name[len("biquat."):]
            if name.startswith("biquat") and short in samples:
                samples[short].append(int(fields[0]) / 1e3)
    return {f"setup.import.{m}_ms": statistics.median(v) if v else 0.0
            for m, v in samples.items()}


def git_sha() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(wl, seconds, tally):
    # The set-up interpreters run one at a time between segments of the
    # timed loop, so that they sample the same stretch of machine time as
    # the operations do.  Each set-up sample is the fastest of a group of
    # interpreters started about a third of the run apart.
    k = run_for(wl.ops, WARMUP_S, tally)
    spawns = SETUP_SAMPLES * SETUP_TRIES
    times, timing = [], Timing(len(wl.ops))
    for _ in range(spawns):
        times.append(spawn(wl.setup_argv, tally)[0])
        k = run_for(wl.ops, seconds / spawns, tally, timing, start=k)
    setup = [min(times[g::SETUP_SAMPLES]) for g in range(SETUP_SAMPLES)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    best = sorted(ns for ns in timing.best if ns >= 0)
    n = len(best)
    p99 = statistics.quantiles(best, n=100)[98] if n > 1 else best[0]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (n / (sum(best) / 1e9), "1/s"),
        "op_p50_us": (statistics.median(best) / 1e3, "us"),
        "op_p99_us": (p99 / 1e3, "us"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    samples = {"setup_s": SETUP_SAMPLES, "setup_tries": SETUP_TRIES,
               "inputs": n, "timed_ops": timing.ops,
               "p99_inputs_beyond": n - math.ceil(0.99 * n),
               "observed_ops_per_s": timing.ops / (timing.total_ns / 1e9)}
    return metrics, samples


def traced(wl, seconds, tally):
    import tracer

    ops = wl.ops[:wl.trace_ops]
    run_for(wl.ops, WARMUP_S, tally)
    plain, traced_ns, passes = [], [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        plain.append(sum(run_op(op, tally) for op in ops))
        wl.exit_codes.clear()
        tr = tracer.Tracer()
        tr.install()
        try:
            traced_ns.append(sum(
                run_op(op, tally, tr.wrap(f"op.{op.kind}", "perfbench",
                                          op.call))
                for op in ops))
        finally:
            tr.uninstall()
        spans = tr.spans
        passes.append(tracer.layer_metrics(spans, wl.exit_codes))

    fractions = tracer.count_fraction_new(
        lambda: [run_op(op, tally) for op in ops])
    values = {name: min(p[name] for p in passes) for name in passes[0]}
    values["exact.fraction_new_per_op"] = fractions / len(ops)
    values.update(import_self_ms(tally))
    values["trace.overhead_ratio"] = min(traced_ns) / min(plain)

    path = OUT / f"trace-{wl.name}-seed{wl.seed}.json"
    with open(path, "w") as f:
        json.dump({"workload": wl.name, "seed": wl.seed, "ops": len(ops),
                   "fields": ["name", "via", "start_ns", "end_ns", "parent",
                              "ok"],
                   "spans": spans}, f)
    metrics = {name: (v, _unit(name)) for name, v in values.items()}
    return metrics, {"traced_passes": len(passes), "ops_per_pass": len(ops),
                     "spans_file": str(path.relative_to(ROOT))}


def _unit(name) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us_per_call"):
        return "us"
    if name.endswith((".calls", "_per_op", "_per_entangle")) or (
            ".exit_code." in name):
        return "count"
    return "ratio"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "biquat" / "__init__.py").is_file():
        print(f"perfbench: no biquat package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    sys.pycache_prefix = str(PYCACHE)
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    tally = Tally()
    if args.trace:
        metrics, samples = traced(wl, args.seconds, tally)
    else:
        metrics, samples = end_to_end(wl, args.seconds, tally)

    context = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
               "seconds": args.seconds, "python": platform.python_version(),
               "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
               "input": wl.info(), "samples": samples}
    print("context " + json.dumps(context, sort_keys=True))
    print(f"error_rate {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} operations failed)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
