"""Self-test of the benchmark at a tiny size, in well under a minute.

    python3 perfbench/selftest.py

For every workload it runs ``run.py --size tiny`` untraced and traced, each
in a fresh interpreter, and checks that:

- the last output line has exactly the keys correct, attempted, failed
  and metrics, and the run passed its output checks;
- every metric in BENCHMARK.json is emitted with its unit, the end-to-end
  ones positive and the per-layer ones finite;
- the traced and untraced runs agree on accuracy and outputs (output
  hashes on cli_roundtrip);
- an untraced run installs no wrappers, and a traced run wraps every
  listed layer function and the noise probe, and removes them again.
"""

from __future__ import annotations

import json
import math
import sys

from report import ROOT, run_workload


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for workload in bench["workloads"]:
        name = workload["name"]
        runs = {trace: run_workload(name, 0, 1, trace, "tiny") for trace in (0, 1)}
        for trace, (result, record) in runs.items():
            tag = f"{name} trace={trace}"
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result has exactly the four result keys")
            expect(result["correct"] and result["attempted"] >= 1
                   and result["failed"] == 0, f"{tag}: outputs pass their checks")
            emitted = {n: m["unit"] for n, m in result["metrics"].items()}
            expect(emitted == units[trace], f"{tag}: every metric emitted with its unit")
            values = [m["value"] for m in result["metrics"].values()]
            if trace == 0:
                expect(all(v > 0 for v in values), f"{tag}: end-to-end metrics positive")
            else:
                expect(all(math.isfinite(v) for v in values),
                       f"{tag}: per-layer metrics finite")
        (_, plain), (_, traced) = runs[0], runs[1]
        expect(plain["accuracy"] == traced["accuracy"]
               and plain["outputs"] == traced["outputs"],
               f"{name}: traced and untraced runs give the same accuracy and outputs")
        expect(plain["wrappers_installed"] == 0, f"{name}: untraced run installs no wrappers")
        expect(traced["traced_matches_untraced"],
               f"{name}: traced passes match the untraced pass within the traced run")
        expect(traced["missing_bindings"] == [] and traced["wrappers_installed"] > 0
               and traced["wrappers_left"] == 0,
               f"{name}: traced run wraps every listed function and removes them")
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
