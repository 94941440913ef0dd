"""Print every metric of every workload, each workload in a fresh interpreter.

    python3 perfbench/report.py [--seed 0] [--trace]

Runs ``run.py`` once per workload at full size for BENCHMARK.json's
``run_seconds``, with tracing off, and prints each end-to-end metric with
its unit and sample count; ``--trace`` adds a traced run per workload and
prints the per-layer metrics too.  Exits 1 when any run fails its output
checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str):
    """Run one workload in its own interpreter; return (result, record)."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--size", size,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((OUT / f"{name}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    all_correct = True
    for workload in bench["workloads"]:
        for trace in (0, 1) if args.trace else (0,):
            result, record = run_workload(
                workload["name"], args.seed, bench["run_seconds"], trace, "full"
            )
            all_correct &= result["correct"]
            print(f"{workload['name']} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in record["metrics"].items():
                print(f"  {name:48s} {metric['value']:>16.6g} "
                      f"{metric['unit']:9s} n={metric['samples']}")
    env = record["environment"]
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
