"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --runs 10 [--workload W ...] [--trace 0|1]
                                 [--first-seed 1] [--out FILE]

Runs ``run.py`` once per seed, one run at a time, for each workload and
prints, per metric, the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median (the run-to-run spread that the bounds in ``BENCHMARK.json`` are
compared with).  ``--out`` also writes the summary and every run's result
as JSON, which is how the files under ``perfbench/results/`` are made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    context = json.loads(next(line for line in lines
                              if line.startswith("context "))[8:])
    return {"seed": seed, "context": context, **result}


def summarise(runs) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0],) * 3)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3,
                     "iqr_share": (q3 - q1) / med if med else 0.0}
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    help="default: every workload in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = [run_once(workload, seed, args.seconds, args.trace)
                for seed in range(args.first_seed,
                                  args.first_seed + args.runs)]
        summary = summarise(runs)
        report[workload] = {"summary": summary, "runs": runs}
        print(f"== {workload}: {len(runs)} runs, "
              f"{sum(r['failed'] for r in runs)} failed operations")
        for name, s in summary.items():
            bound = bounds.get(name)
            note = f"  bound {bound}" if bound is not None else ""
            print(f"{name:42s} {s['median']:12.6g} {s['unit']:6s} "
                  f"iqr/median {s['iqr_share']:.4f}{note}")
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True)
                            + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
