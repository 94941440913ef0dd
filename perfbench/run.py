"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload loso_decode --seed 0 --seconds 10 --trace 0

Run from the repository root.  The program is imported from ``src/`` next
to this directory.  With ``--trace 0`` the run repeats the workload's
set-up until ``SETUP_SHARE * --seconds`` have passed (at least
``MIN_SETUPS`` times), then repeats its measured pass until the measured
time is within half a pass of ``--seconds``, and reports the end-to-end
metrics as medians.  With ``--trace 1`` it sets up once under the tracer,
runs one traced pass, then an untraced and a second traced pass whose wall
times give the tracing overhead, and reports the per-layer metrics.  The
last line of standard output is one JSON object; a fuller record
(environment, sample counts, output checks and hashes) and the spans of a
traced run go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from tracer import LAYERS, Tracer, installed_wrappers, metric_units, peak_rss_mb

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

# Set-up is timed on a time budget, like the passes, so that a sub-second
# set-up gets many samples and a slow one still gets a median of several.
SETUP_SHARE = 0.15
MIN_SETUPS = 3


def _import_program():
    """Import lfpdecode from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import lfpdecode
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import lfpdecode from {src}: {exc}")
    if Path(lfpdecode.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: lfpdecode was found outside {src}")


def _blas_threads():
    """OpenBLAS's own thread count, or None when it cannot be queried."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(
        len(path.read_text().splitlines()) for path in (ROOT / "src").rglob("*.py")
    )
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "seed": seed,
        "src_lines": src_lines,
    }


def _program_modules():
    return [importlib.import_module("lfpdecode")] + [
        importlib.import_module(f"lfpdecode.{layer}") for layer in LAYERS
    ]


def _timed_pass(workload, ctx, tracer=None):
    """One measured pass, traced when given a tracer: (wall s, cpu s, outcome)."""
    if workload.reset is not None:
        workload.reset(ctx)
    if tracer is not None:
        tracer.install()
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        raw = workload.run(ctx)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, cpu, workload.check(ctx, raw)


def run_untraced(workload, params, seed, seconds, workdir):
    setup_times = []
    while len(setup_times) < MIN_SETUPS or sum(setup_times) < SETUP_SHARE * seconds:
        ctx = None  # free the previous inputs before building new ones
        start = time.perf_counter()
        ctx = workload.setup(seed, params, workdir)
        setup_times.append(time.perf_counter() - start)
    walls, outcomes = [], []
    # stop within half a (median) pass of --seconds, above or below it
    while not walls or sum(walls) + statistics.median(walls) / 2 < seconds:
        wall, _, outcome = _timed_pass(workload, ctx)
        walls.append(wall)
        outcomes.append(outcome)
    rates = [o.work / w for o, w in zip(outcomes, walls)]
    ops = [ok for o in outcomes for _, ok in o.ops]
    metrics = {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        "work_per_s": (statistics.median(rates), "1/s", len(rates)),
        "accuracy": (statistics.median(o.accuracy for o in outcomes), "fraction",
                     len(outcomes)),
        "ok_ops_frac": (sum(ops) / len(ops), "fraction", len(ops)),
    }
    record = {
        "wrappers_installed": installed_wrappers(_program_modules()),
        "walls": walls,
        "setup_times": setup_times,
    }
    return metrics, ops, outcomes, record


def run_traced(workload, params, seed, workdir, spans_path):
    tracer = Tracer(_program_modules())
    tracer.install()
    wrapped = installed_wrappers(tracer.modules)
    try:
        ctx = workload.setup(seed, params, workdir)
    finally:
        tracer.uninstall()
    # the first traced pass runs cold, so rss_rise_mb sees where the peak is
    # set; the overhead compares the two warm passes that follow it
    _, _, traced = _timed_pass(workload, ctx, tracer)
    tracer.write_spans(spans_path)
    ref_wall, ref_cpu, reference = _timed_pass(workload, ctx)
    warm_wall, _, warm = _timed_pass(workload, ctx, Tracer(tracer.modules))

    values = tracer.metrics()
    values["process.cpu_s"] = ref_cpu
    values["process.trace_overhead_s"] = warm_wall - ref_wall
    metrics = {
        name: (values[name], unit, 1) for name, (unit, _) in metric_units().items()
    }
    outcomes = [reference, traced, warm]
    ops = [ok for o in outcomes for _, ok in o.ops]
    # tracing must not change what the program computes
    same = all(o.accuracy == reference.accuracy and o.outputs == reference.outputs
               for o in outcomes)
    # a layer function the tracer could not wrap would read as never called
    missing = sorted(tracer.missing)
    record = {
        "wrappers_installed": wrapped,
        "wrappers_left": installed_wrappers(tracer.modules),
        "missing_bindings": missing,
        "untraced_wall_s": ref_wall,
        "traced_wall_s": warm_wall,
        "traced_matches_untraced": same,
        "spans": len(tracer.spans),
    }
    return metrics, ops + [same] + [False] * len(missing), outcomes, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload in seconds (self-test)")
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    params = SimpleNamespace(**workload.sizes[args.size])
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    workdir = OUT / f"work-{stem}-{os.getpid()}"
    try:
        if args.trace:
            metrics, ops, outcomes, record = run_traced(
                workload, params, args.seed, workdir, OUT / f"{stem}-spans.jsonl"
            )
        else:
            metrics, ops, outcomes, record = run_untraced(
                workload, params, args.seed, args.seconds, workdir
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = ops.count(False)
    record.update(
        workload=args.workload,
        size=args.size,
        trace=args.trace,
        environment=environment(args.seed),
        correct=failed == 0,
        attempted=len(ops),
        failed=failed,
        metrics={n: {"value": v, "unit": u, "samples": k}
                 for n, (v, u, k) in metrics.items()},
        outputs=outcomes[0].outputs,
        accuracy=outcomes[0].accuracy,
    )
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"{args.workload} seed={args.seed} size={args.size} trace={args.trace} "
          f"work item={workload.work_unit}")
    for key, value in record["environment"].items():
        print(f"  env {key}: {value}")
    for key, value in record["outputs"].items():
        print(f"  output {key}: {value}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:48s} {value:>16.6g} {unit:12s} n={samples}")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
