"""The benchmark's workloads.

Each workload builds its inputs from the seed in ``setup``, runs its
operations one after another in ``run`` (a closed loop with one caller:
each operation starts when the previous one returns) and judges the
outputs in ``check``, outside the timed region.  Operations go through the
public module attributes of ``lfpdecode`` so that the traced pass sees
every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from lfpdecode import classify, cli, experiments, fileio, shrinkage, synth


@dataclass
class Outcome:
    """What one pass produced: per-operation verdicts and derived figures."""

    ops: list[tuple[str, bool]]
    work: float
    accuracy: float
    outputs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    sizes: dict
    setup: object
    run: object
    check: object
    reset: object = None


def _call(fn, *args, **kwargs):
    """Run one operation; an exception makes it a failed operation."""
    try:
        return fn(*args, **kwargs)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


def _class_model(n_classes: int, seed: int):
    spec = shrinkage.EllipsoidSpec(2.0, 10.0)
    return synth.make_class_model(n_classes, spec, 5, 0.5, 0.1, seed=seed)


# ---------------------------------------------------------------------------
# loso_decode: the criterion-8 configuration


def _loso_setup(seed, p, workdir):
    model = _class_model(p.classes, seed)
    noise = synth.NoiseModel(sigma=p.sigma, seed=seed)
    dataset = synth.generate_dataset(
        model, p.trials, p.channels, p.samples, p.sessions, noise, seed=seed + 1
    )
    return SimpleNamespace(p=p, dataset=dataset)


def _loso_run(ctx):
    p, dataset = ctx.p, ctx.dataset
    search = _call(
        classify.grid_search,
        dataset,
        scheme="loso",
        truncations=(p.truncation,),
        components=(p.grid_components,),
        low_pass_only=True,
    )
    config = classify.PipelineConfig.bjs(p.samples, components=p.bjs_components)
    reports = _call(experiments.benchmark_classifiers, dataset, [config], scheme="loso")
    return search, reports


def _loso_check(ctx, raw):
    search, reports = raw
    accs = []
    grid_ok = search is not None and len(search.rows) == 2 * ctx.p.truncation + 1
    if search is not None:
        accs += [row.accuracy for row in search.rows]
        grid_ok = grid_ok and search.best_accuracy >= 0.90
    bjs_ok = reports is not None
    if reports is not None:
        accs.append(reports[0].overall_accuracy)
        bjs_ok = reports[0].overall_accuracy >= 0.90
    return Outcome(
        ops=[("grid_search", grid_ok), ("benchmark_classifiers", bjs_ok)],
        work=len(accs) * len(ctx.dataset.sessions),
        accuracy=statistics.fmean(accs) if accs else 0.0,
        outputs={
            "grid_best_accuracy": search.best_accuracy if search else None,
            "bjs_accuracy": reports[0].overall_accuracy if reports else None,
        },
    )


LOSO = Workload(
    name="loso_decode",
    work_unit="folds",
    sizes={
        "full": dict(classes=8, trials=90, channels=32, samples=500, sessions=9,
                     sigma=24.0, truncation=5, grid_components=165,
                     bjs_components=190),
        "tiny": dict(classes=4, trials=12, channels=4, samples=128, sessions=3,
                     sigma=1.0, truncation=5, grid_components=20,
                     bjs_components=20),
    },
    setup=_loso_setup,
    run=_loso_run,
    check=_loso_check,
)


# ---------------------------------------------------------------------------
# cli_roundtrip: synth -> benchmark, estimate, experiment through cli.main


def _cli_setup(seed, p, workdir):
    model = _class_model(p.classes, seed)
    noise = synth.NoiseModel(sigma=p.sigma, seed=seed)
    reference = synth.generate_dataset(
        model, p.trials, p.channels, p.samples, p.sessions, noise, seed=seed
    )
    reference.params["geometry"] = "random"
    inputs = Path(workdir) / "input"
    inputs.mkdir(parents=True, exist_ok=True)
    grid = np.arange(p.signal_samples) / p.signal_samples
    rng = np.random.default_rng(seed)
    signal = (np.sin(2 * np.pi * grid) + 0.5 * np.cos(6 * np.pi * grid)
              + 0.3 * rng.standard_normal(grid.size))
    fileio.write_signal(signal, str(inputs / "signal.csv"))
    out = Path(workdir) / "out"
    ds = str(out / "ds.csv")
    argvs = [
        ["synth", "--out", ds, "--classes", str(p.classes),
         "--trials-per-class", str(p.trials), "--channels", str(p.channels),
         "--samples", str(p.samples), "--sessions", str(p.sessions),
         "--sigma", repr(p.sigma), "--noise-seed", str(seed), "--seed", str(seed)],
        ["benchmark", "--dataset", ds, "--out", str(out / "bench"),
         "--pipeline", "bjs", "--components", str(p.components)],
        ["estimate", "--input", str(inputs / "signal.csv"), "--out",
         str(out / "est"), "--method", "bjs"],
        ["experiment", "--name", "rates", "--out", str(out / "exp"),
         "--epsilons", p.rate_epsilons, "--trials", str(p.rate_trials),
         "--thetas", str(p.rate_thetas), "--seed", str(seed)],
    ]
    return SimpleNamespace(
        p=p, reference=reference, out=out, ds=ds, argvs=argvs, verified_csv=set()
    )


def _cli_reset(ctx):
    shutil.rmtree(ctx.out, ignore_errors=True)
    ctx.out.mkdir(parents=True)


def _cli_run(ctx):
    with contextlib.redirect_stdout(io.StringIO()):
        return [_call(cli.main, argv) for argv in ctx.argvs]


def _same_dataset(a, b) -> bool:
    return (
        a.n_classes == b.n_classes
        and a.seed == b.seed
        and a.params == b.params
        and a.n_trials == b.n_trials
        and all(
            x.label == y.label and x.session == y.session
            and np.array_equal(x.channels, y.channels)
            for x, y in zip(a.trials, b.trials)
        )
    )


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _cli_check(ctx, raw):
    codes = raw
    names = [argv[0] for argv in ctx.argvs]
    ok = {name: code == 0 for name, code in zip(names, codes)}
    hashes = {
        str(path.relative_to(ctx.out)): _sha256(path)
        for path in sorted(ctx.out.rglob("*"))
        if path.is_file()
    }
    # bytes identical to a CSV already read back equal need no second read
    csv_hash = hashes.get("ds.csv")
    if ok["synth"] and csv_hash not in ctx.verified_csv:
        read_back = _call(fileio.read_dataset, ctx.ds)
        ok["synth"] = read_back is not None and _same_dataset(read_back, ctx.reference)
        if ok["synth"]:
            ctx.verified_csv.add(csv_hash)
    accuracy = 0.0
    if ok["benchmark"]:
        # overall_accuracy is the last column; pipeline labels contain commas
        lines = (ctx.out / "bench_report.csv").read_text().splitlines()[1:]
        accuracy = statistics.fmean(float(line.rsplit(",", 1)[1]) for line in lines)
    csv_rows = ctx.reference.n_trials * ctx.p.channels * ctx.p.samples if ok["synth"] else 0
    return Outcome(
        ops=list(ok.items()),
        # synth writes every dataset CSV row and benchmark reads it back
        work=2 * csv_rows,
        accuracy=accuracy,
        outputs={"exit_codes": codes, "sha256": hashes},
    )


CLI = Workload(
    name="cli_roundtrip",
    work_unit="CSV rows",
    sizes={
        "full": dict(classes=8, trials=20, channels=32, samples=500, sessions=3,
                     sigma=1.0, components=100, signal_samples=500,
                     rate_epsilons="0.5,0.2,0.1", rate_trials=100, rate_thetas=10),
        "tiny": dict(classes=3, trials=4, channels=2, samples=128, sessions=2,
                     sigma=0.5, components=4, signal_samples=128,
                     rate_epsilons="0.5,0.2", rate_trials=100, rate_thetas=3),
    },
    setup=_cli_setup,
    run=_cli_run,
    check=_cli_check,
    reset=_cli_reset,
)

WORKLOADS = {w.name: w for w in (LOSO, CLI)}
