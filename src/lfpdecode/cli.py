"""Command-line front end.

Four subcommands wrap the library: ``synth`` writes a synthetic dataset,
``estimate`` denoises a single signal, ``benchmark`` cross-validates a
classification pipeline on a dataset file, and ``experiment`` runs the
canned Monte-Carlo studies.  Options resolve as defaults < config file
(flat key=value with dotted prefixes) < command-line flags, and unknown
config keys are rejected.  Exit codes: 0 success, 2 validation or IO
error, 3 runtime or numeric error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fileio
from .basis import CoefficientVector, SampledSignal, forward_transform, reconstruct
from .classify import PipelineConfig, ShrinkageProfile, cross_validate, grid_search
from .experiments import (
    adaptivity_ratio_bjs,
    consistency_experiment,
    phase_ablation,
    risk_curve_pinsker,
)
from .shrinkage import (
    EllipsoidSpec,
    bjs_coefficient_count,
    bjs_sampled_rows,
    pinsker_mu,
    pinsker_weights,
)
from .synth import (
    ClassConstructionError,
    NoiseModel,
    generate_dataset,
    make_class_model,
    make_magnitude_class_model,
    make_phase_class_model,
)

__all__ = ["main", "build_parser"]


# Option parse functions; argparse names them in "invalid <name> value" errors.
def boolean(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in {"true", "1", "yes", "on"}:
        return True
    if lowered in {"false", "0", "no", "off"}:
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def float_or_auto(raw: str) -> float | None:
    value = None if raw == "auto" else float(raw)
    if value is not None and not 0.0 <= value < np.inf:  # NaN fails too
        raise ValueError(f"not 'auto' or a finite nonnegative number: {raw!r}")
    return value


def positive_int(raw: str) -> int:
    if (value := int(raw)) < 1:
        raise ValueError(f"not a positive integer: {raw!r}")
    return value


# every comma-separated item must parse, so an empty value or item is an
# error; argparse prints an ArgumentTypeError's own message, naming the rule
def _parse_items(raw: str, parse, what: str) -> list:
    try:
        return [parse(tok) for tok in raw.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"every comma-separated item must be {what}: {raw!r}"
        ) from None


def int_list(raw: str) -> list[int]:
    return _parse_items(raw, int, "an integer")


def positive_int_list(raw: str) -> list[int]:
    return _parse_items(raw, positive_int, "a positive integer")


def float_list(raw: str) -> list[float]:
    return _parse_items(raw, float, "a number")


@dataclass(frozen=True)
class Opt:
    """One resolvable option: config-file key, flag, parse function, default.

    ``kind`` parses both the flag's and the config file's string; a
    ``boolean`` option's flag takes no value and sets True.  ``only`` names
    the pipeline, method or mode the option applies to; setting it for
    another one is an error (see :func:`_reject_inapplicable`).
    """

    key: str
    kind: Callable[[str], object]
    default: object
    help: str = ""
    choices: tuple = ()
    flag: str = ""
    only: str = ""

    @property
    def dest(self) -> str:
        return self.key.replace(".", "_")

    @property
    def flag_name(self) -> str:
        if self.flag:
            return self.flag
        return "--" + self.key.rsplit(".", 1)[-1].replace("_", "-")


def _add_opts(parser: argparse.ArgumentParser, opts: list[Opt]) -> None:
    for opt in opts:
        kwargs: dict = {"dest": opt.dest, "default": None, "help": opt.help}
        if opt.kind is boolean:
            kwargs.update(action="store_const", const=True)
        else:
            kwargs.update(type=opt.kind)
        parser.add_argument(opt.flag_name, **kwargs)


def _resolve(args: argparse.Namespace, opts: list[Opt]) -> tuple[dict, set[str]]:
    """Merge defaults, config file and flags; reject unknown config keys.

    Returns the merged values and the keys that a flag or the config file
    set explicitly.
    """
    file_cfg: dict[str, str] = {}
    if getattr(args, "config", None):
        file_cfg = fileio.read_config(args.config)
    known = {opt.key for opt in opts}
    unknown = sorted(set(file_cfg) - known)
    if unknown:
        raise ValueError(
            f"unknown config keys: {', '.join(unknown)}; "
            f"valid keys: {', '.join(sorted(known))}"
        )
    out: dict = {}
    explicit: set[str] = set()
    for opt in opts:
        value = getattr(args, opt.dest, None)
        if value is not None or opt.key in file_cfg:
            explicit.add(opt.key)
        if value is None and opt.key in file_cfg:
            try:
                value = opt.kind(file_cfg[opt.key])
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"config key {opt.key}: {exc}") from None
        elif value is None:
            value = opt.default
        if opt.choices and value not in opt.choices:
            raise ValueError(
                f"{opt.key} must be one of {', '.join(map(str, opt.choices))}"
            )
        out[opt.key] = value
    return out, explicit


def _reject_inapplicable(opts: list[Opt], explicit: set[str], active) -> None:
    """Raise if an option was set explicitly for something not in ``active``."""
    unused = [
        f"{opt.flag_name} ({opt.key}) applies only to {opt.only}"
        for opt in opts
        if opt.only and opt.only not in active and opt.key in explicit
    ]
    if unused:
        raise ValueError("; ".join(unused))


# ---------------------------------------------------------------------------
# synth

_GEOMETRIES = ("random", "phase", "magnitude")

SYNTH_OPTS = [
    Opt("synth.classes", int, 8, "number of classes"),
    Opt("synth.trials_per_class", int, 10, "trials per class"),
    Opt("synth.channels", int, 4, "channels per trial"),
    Opt("synth.samples", int, 500, "samples per channel (N)"),
    Opt("synth.sessions", int, 3, "number of recording sessions"),
    Opt("synth.truncation", positive_int, 5, "harmonics per prototype (T)"),
    Opt("synth.separation", float, 0.5, "half the guaranteed class gap (s)"),
    Opt("synth.spread", float, 0.1, "within-class ball radius"),
    Opt("synth.geometry", str, "random", "prototype geometry", _GEOMETRIES),
    Opt("ellipsoid.alpha", float, 2.0, "smoothness exponent"),
    Opt("ellipsoid.radius", float, 10.0, "ellipsoid radius"),
    Opt("noise.sigma", float, 1.0, "sample noise sd"),
    Opt("noise.seed", int, 0, "noise stream id", flag="--noise-seed"),
    Opt("seed", int, 0, "master seed"),
]


def _build_model(cfg: dict):
    spec = EllipsoidSpec(cfg["ellipsoid.alpha"], cfg["ellipsoid.radius"])
    maker = {
        "random": make_class_model,
        "phase": make_phase_class_model,
        "magnitude": make_magnitude_class_model,
    }[cfg.get("synth.geometry", "random")]
    return maker(
        cfg["synth.classes"],
        spec,
        cfg["synth.truncation"],
        cfg["synth.separation"],
        cfg["synth.spread"],
        cfg["seed"],
    )


def _build_dataset(cfg: dict):
    model = _build_model(cfg)
    noise = NoiseModel(sigma=cfg["noise.sigma"], seed=cfg["noise.seed"])
    dataset = generate_dataset(
        model,
        cfg["synth.trials_per_class"],
        cfg["synth.channels"],
        cfg["synth.samples"],
        cfg["synth.sessions"],
        noise,
        cfg["seed"],
    )
    dataset.params["geometry"] = cfg["synth.geometry"]
    return dataset


def cmd_synth(args: argparse.Namespace) -> int:
    cfg, _ = _resolve(args, SYNTH_OPTS)
    dataset = _build_dataset(cfg)
    fileio.write_dataset(dataset, args.out)
    print(
        f"wrote {args.out}: {dataset.n_trials} trials, "
        f"{dataset.n_classes} classes, {dataset.n_channels} channels, "
        f"N={dataset.n_samples}"
    )
    return 0


# ---------------------------------------------------------------------------
# estimate

ESTIMATE_OPTS = [
    Opt("estimate.method", str, "pinsker", "estimator", ("pinsker", "bjs")),
    Opt("estimate.truncation", positive_int, 5, "harmonic truncation T (pinsker)",
        only="pinsker"),
    Opt("estimate.block_limit", int, 2, "blocks passed through unshrunk (bjs)",
        only="bjs"),
    Opt("ellipsoid.alpha", float, 2.0, "smoothness exponent (pinsker)",
        only="pinsker"),
    Opt("ellipsoid.radius", float, 10.0, "ellipsoid radius (pinsker)",
        only="pinsker"),
]


def cmd_estimate(args: argparse.Namespace) -> int:
    cfg, explicit = _resolve(args, ESTIMATE_OPTS)
    _reject_inapplicable(ESTIMATE_OPTS, explicit, {cfg["estimate.method"]})
    signal = SampledSignal(fileio.read_signal(args.input))
    n = signal.n_samples
    if cfg["estimate.method"] == "pinsker":
        vector = forward_transform(signal, cfg["estimate.truncation"])
        spec = EllipsoidSpec(cfg["ellipsoid.alpha"], cfg["ellipsoid.radius"])
        mu = pinsker_mu(spec, vector.epsilon)
        observed = vector.coeffs
        shrunk = pinsker_weights(spec, mu, len(vector)) * vector.coeffs
    else:
        shrunk = bjs_sampled_rows(
            signal.samples[None, :], cfg["estimate.block_limit"]
        )[0]
        count = bjs_coefficient_count(n)
        observed = np.zeros(shrunk.size)
        observed[:count] = forward_transform(signal, (count - 1) // 2).coeffs
    rows = [(k + 1, observed[k], shrunk[k]) for k in range(shrunk.size)]
    fileio.write_table(
        f"{args.out}_coefficients.csv", ["k", "observed", "shrunk"], rows
    )
    recon = reconstruct(CoefficientVector(shrunk), n)
    fileio.write_signal(recon.samples, f"{args.out}_reconstruction.csv")
    print(f"wrote {args.out}_coefficients.csv and {args.out}_reconstruction.csv")
    return 0


# ---------------------------------------------------------------------------
# benchmark

_GRID = "a grid search (--grid)"

BENCHMARK_OPTS = [
    Opt("benchmark.pipeline", str, "pinsker", "feature pipeline",
        ("pinsker", "bjs"), flag="--pipeline"),
    Opt("benchmark.scheme", str, "loso", "loso or kfold:<k>", flag="--scheme"),
    Opt("pipeline.truncation", positive_int, 5, "harmonic truncation T (pinsker)",
        only="pinsker"),
    Opt("pipeline.components", int, -1,
        "PCA components; 0 keeps all, -1 picks the pipeline default"),
    Opt("pipeline.ridge", float_or_auto, None, "LDA ridge or 'auto'"),
    Opt("pipeline.block_limit", int, 2, "blocks passed through unshrunk (bjs)",
        only="bjs"),
    Opt("grid.enabled", boolean, False, "grid-search shrinkage profiles",
        flag="--grid"),
    Opt("grid.truncations", positive_int_list, None, "grid of T values"),
    # these tune a search but do not by themselves request one
    Opt("grid.components", int_list, None, "grid of PCA sizes",
        flag="--grid-components", only=_GRID),
    Opt("grid.mu_values", float_list, [], "water-filling levels to try",
        only=_GRID),
    Opt("grid.low_pass_only", boolean, False, "restrict masks to low-pass",
        only=_GRID),
]

_PIPELINE_DEFAULT_COMPONENTS = {"pinsker": 165, "bjs": 190}

# grid axis -> the single-run option it replaces; alone, that option is the
# axis's one point
_GRID_AXES = {"grid.truncations": "pipeline.truncation",
              "grid.components": "pipeline.components"}


def _full_band_profile(truncation: int) -> ShrinkageProfile:
    count = 2 * truncation + 1
    return ShrinkageProfile(
        np.ones(count), truncation, label=f"mask[1:{count}]"
    )


def _summary_lines(dataset, scheme, label, report) -> list[str]:
    per_class = " ".join(
        f"{k + 1}={report.per_class_accuracy[k]:.4f}"
        for k in range(report.per_class_accuracy.size)
    )
    lines = [
        f"scheme: {scheme}",
        f"trials: {dataset.n_trials}",
        f"classes: {dataset.n_classes}",
        f"channels: {dataset.n_channels}",
        f"n_samples: {dataset.n_samples}",
        f"config: {label}",
        f"overall accuracy: {report.overall_accuracy:.4f}",
        f"worst-class error: {report.worst_class_error:.4f}",
        f"per-class accuracy: {per_class}",
    ]
    for note in report.notes:
        lines.append(f"note: {note}")
    return lines


def _write_confusion(path: str, confusion: np.ndarray) -> None:
    k = confusion.shape[0]
    header = ["true_label"] + [f"pred_{j + 1}" for j in range(k)]
    rows = [[i + 1, *confusion[i]] for i in range(k)]
    fileio.write_table(path, header, rows)


def cmd_benchmark(args: argparse.Namespace) -> int:
    cfg, explicit = _resolve(args, BENCHMARK_OPTS)
    pipeline = cfg["benchmark.pipeline"]
    scheme = cfg["benchmark.scheme"]
    components = cfg["pipeline.components"]
    if components == -1:
        components = _PIPELINE_DEFAULT_COMPONENTS[pipeline]
    elif components < 0:
        raise ValueError(
            "--components (pipeline.components) must be at least 0, "
            "or -1 for the pipeline default"
        )
    ridge = cfg["pipeline.ridge"]
    grid_requested = cfg["grid.enabled"] or cfg["grid.truncations"] is not None
    _reject_inapplicable(
        BENCHMARK_OPTS, explicit, {pipeline, _GRID} if grid_requested else {pipeline}
    )
    if pipeline == "bjs" and grid_requested:
        raise ValueError(
            "grid search applies only to the pinsker pipeline; "
            "the bjs pipeline has no shrinkage profile to tune"
        )
    if grid_requested:
        flags = {opt.key: opt.flag_name for opt in BENCHMARK_OPTS}
        both = [
            f"{flags[axis]} ({axis}) replaces {flags[single]} ({single}); set one"
            for axis, single in _GRID_AXES.items()
            if axis in explicit and single in explicit
        ]
        if both:
            raise ValueError("; ".join(both))
        if any(c < 0 for c in cfg["grid.components"] or ()):
            raise ValueError(
                "--grid-components (grid.components) items must be at least 0; "
                "-1 means the pipeline default only for --components"
            )
    dataset = fileio.read_dataset(args.dataset)
    if grid_requested:
        truncations = cfg["grid.truncations"] or [cfg["pipeline.truncation"]]
        comp_grid = cfg["grid.components"] or [components]
        spec = None
        if cfg["grid.mu_values"]:
            params = dataset.params
            if "alpha" not in params or "radius" not in params:
                raise ValueError(
                    "grid.mu_values needs ellipsoid alpha/radius in the "
                    "dataset metadata"
                )
            spec = EllipsoidSpec(float(params["alpha"]), float(params["radius"]))
        result = grid_search(
            dataset,
            scheme=scheme,
            truncations=truncations,
            components=comp_grid,
            spec=spec,
            mu_values=cfg["grid.mu_values"],
            ridge=ridge,
            low_pass_only=cfg["grid.low_pass_only"],
        )
        rows = [
            (r.truncation, r.pattern, r.components, r.accuracy)
            for r in result.rows
        ]
        report = result.best_report
        best_label = result.best_config.label
    else:
        if pipeline == "bjs":
            truncation = "-"
            config = PipelineConfig.bjs(
                dataset.n_samples,
                pass_limit=cfg["pipeline.block_limit"],
                components=components,
                ridge=ridge,
            )
        else:
            truncation = cfg["pipeline.truncation"]
            config = PipelineConfig(
                dataset.n_samples, _full_band_profile(truncation),
                components=components, ridge=ridge,
            )
        report = cross_validate(dataset, config, scheme=scheme)
        rows = [(truncation, config.label, components, report.overall_accuracy)]
        best_label = config.label

    fileio.write_table(
        f"{args.out}_report.csv",
        ["truncation", "pattern", "components", "overall_accuracy"],
        rows,
    )
    _write_confusion(f"{args.out}_confusion.csv", report.confusion)
    lines = [f"pipeline: {pipeline}"] + _summary_lines(
        dataset, scheme, best_label, report
    )
    fileio.atomic_write_text(f"{args.out}_summary.txt", "\n".join(lines) + "\n")
    print(
        f"{pipeline} {scheme}: accuracy {report.overall_accuracy:.4f} "
        f"({best_label})"
    )
    return 0


# ---------------------------------------------------------------------------
# experiment

RATES_OPTS = [
    Opt("ellipsoid.alpha", float, 2.0, "smoothness exponent"),
    Opt("ellipsoid.radius", float, 10.0, "ellipsoid radius"),
    Opt("experiment.epsilons", float_list, [0.5, 0.2, 0.1, 0.05],
        "decreasing noise levels"),
    Opt("experiment.trials", int, 200, "noise draws per parameter"),
    Opt("experiment.thetas", int, 50, "random boundary parameters"),
    Opt("seed", int, 0, "master seed"),
]

ADAPTIVITY_OPTS = [
    Opt("experiment.alphas", float_list, [1.0, 2.0, 3.0], "smoothness grid"),
    Opt("experiment.radii", float_list, [5.0, 10.0], "radius grid"),
    Opt("experiment.epsilon", float, 0.02, "noise level"),
]

CONSISTENCY_OPTS = [
    Opt("synth.classes", int, 8, "number of classes"),
    Opt("synth.truncation", positive_int, 5, "harmonics per prototype"),
    Opt("synth.separation", float, 0.5, "half the guaranteed class gap"),
    Opt("synth.spread", float, 0.1, "within-class ball radius"),
    Opt("ellipsoid.alpha", float, 2.0, "smoothness exponent"),
    Opt("ellipsoid.radius", float, 10.0, "ellipsoid radius"),
    Opt("experiment.samples", int_list, [64, 256, 1024],
        "increasing sample counts", flag="--sample-grid"),
    Opt("experiment.trials", int, 500, "trials per class and sample count"),
    Opt("noise.sigma", float, 1.0, "sample noise sd"),
    Opt("noise.seed", int, 0, "noise stream id", flag="--noise-seed"),
    Opt("seed", int, 0, "master seed"),
]

PHASE_OPTS = [
    Opt("synth.classes", int, 8, "number of classes"),
    Opt("synth.trials_per_class", int, 40, "trials per class"),
    Opt("synth.channels", int, 8, "channels per trial"),
    Opt("synth.samples", int, 256, "samples per channel"),
    Opt("synth.sessions", int, 8, "number of sessions"),
    Opt("synth.truncation", positive_int, 5, "harmonics per prototype"),
    Opt("synth.separation", float, 0.6, "half the guaranteed class gap"),
    Opt("synth.spread", float, 0.02, "within-class ball radius"),
    Opt("synth.geometry", str, "phase", "class geometry",
        ("phase", "magnitude")),
    Opt("ellipsoid.alpha", float, 2.0, "smoothness exponent"),
    Opt("ellipsoid.radius", float, 10.0, "ellipsoid radius"),
    Opt("noise.sigma", float, 1.0, "sample noise sd"),
    Opt("noise.seed", int, 0, "noise stream id", flag="--noise-seed"),
    Opt("pipeline.truncation", positive_int, 5, "classifier truncation",
        flag="--pipeline-truncation"),
    Opt("pipeline.components", int, 0, "PCA components (0 keeps all)"),
    Opt("pipeline.ridge", float_or_auto, None, "LDA ridge or 'auto'"),
    Opt("benchmark.scheme", str, "loso", "loso or kfold:<k>", flag="--scheme"),
    Opt("seed", int, 0, "master seed"),
]


def _experiment_rates(cfg: dict):
    spec = EllipsoidSpec(cfg["ellipsoid.alpha"], cfg["ellipsoid.radius"])
    points = risk_curve_pinsker(
        spec,
        cfg["experiment.epsilons"],
        cfg["experiment.trials"],
        seed=cfg["seed"],
        n_thetas=cfg["experiment.thetas"],
    )
    rows = [(p.epsilon, p.risk, p.std_error, p.trials) for p in points]
    eps = np.array([p.epsilon for p in points])
    risk = np.array([p.risk for p in points])
    lines = [
        f"alpha: {spec.alpha:.17g}",
        f"radius: {spec.radius:.17g}",
        f"first risk (eps={eps[0]:.17g}): {risk[0]:.17g}",
        f"last risk (eps={eps[-1]:.17g}): {risk[-1]:.17g}",
    ]
    if eps.size >= 2:
        slope = float(np.polyfit(np.log(eps), np.log(risk), 1)[0])
        lines.append(f"log-log slope (informational): {slope:.17g}")
    header = ["epsilon", "risk", "std_error", "trials"]
    return header, rows, lines, f"risk {risk[0]:.17g} -> {risk[-1]:.17g}"


def _experiment_adaptivity(cfg: dict):
    specs = [
        EllipsoidSpec(alpha, radius)
        for alpha in cfg["experiment.alphas"]
        for radius in cfg["experiment.radii"]
    ]
    rows = adaptivity_ratio_bjs(specs, cfg["experiment.epsilon"])
    table = [
        (r.alpha, r.radius, r.bjs_lower, r.bjs_risk, r.pinsker_risk, r.ratio)
        for r in rows
    ]
    worst = max(r.ratio for r in rows)
    lines = [
        f"epsilon: {cfg['experiment.epsilon']:.17g}",
        f"specs: {len(specs)}",
        f"max risk ratio: {worst:.17g}",
    ]
    header = ["alpha", "radius", "bjs_lower", "bjs_upper", "pinsker_risk", "ratio"]
    return header, table, lines, f"max ratio {worst:.17g}"


def _experiment_consistency(cfg: dict):
    rows = consistency_experiment(
        _build_model(cfg),
        cfg["experiment.samples"],
        cfg["experiment.trials"],
        NoiseModel(sigma=cfg["noise.sigma"], seed=cfg["noise.seed"]),
        seed=cfg["seed"],
    )
    table = [
        (r.n_samples, r.worst_class_error, r.error_se, r.chebyshev_bound,
         r.bound_se)
        for r in rows
    ]
    final = rows[-1].worst_class_error
    lines = [
        f"classes: {cfg['synth.classes']}",
        f"trials per class: {cfg['experiment.trials']}",
        f"final worst-class error (N={rows[-1].n_samples}): {final:.17g}",
    ]
    header = ["n_samples", "worst_class_error", "error_se", "chebyshev_bound",
              "bound_se"]
    return header, table, lines, f"final worst-class error {final:.17g}"


def _experiment_phase(cfg: dict):
    dataset = _build_dataset(cfg)
    config = PipelineConfig(
        dataset.n_samples,
        _full_band_profile(cfg["pipeline.truncation"]),
        components=cfg["pipeline.components"],
        ridge=cfg["pipeline.ridge"],
    )
    result = phase_ablation(dataset, config, scheme=cfg["benchmark.scheme"])
    full, magnitude = result.full, result.magnitude
    table = [
        ("full", full.overall_accuracy, full.worst_class_error),
        ("magnitude", magnitude.overall_accuracy, magnitude.worst_class_error),
    ]
    lines = [
        f"geometry: {cfg['synth.geometry']}",
        f"full accuracy: {full.overall_accuracy:.17g}",
        f"magnitude accuracy: {magnitude.overall_accuracy:.17g}",
        f"accuracy drop: {result.accuracy_drop:.17g}",
    ]
    header = ["variant", "overall_accuracy", "worst_class_error"]
    return header, table, lines, f"accuracy drop {result.accuracy_drop:.17g}"


# name -> (options, runner); a runner returns the csv header and rows, the
# summary lines and the stdout message, and cmd_experiment writes them
_EXPERIMENTS = {
    "rates": (RATES_OPTS, _experiment_rates),
    "adaptivity": (ADAPTIVITY_OPTS, _experiment_adaptivity),
    "consistency": (CONSISTENCY_OPTS, _experiment_consistency),
    "phase": (PHASE_OPTS, _experiment_phase),
}


def _experiment_opts() -> list[Opt]:
    """Every experiment's options, one per destination, for the shared parser."""
    merged: dict[str, Opt] = {}
    for opts, _ in _EXPERIMENTS.values():
        for opt in opts:
            merged.setdefault(opt.dest, opt)
    return list(merged.values())


def cmd_experiment(args: argparse.Namespace) -> int:
    opts, runner = _EXPERIMENTS[args.name]
    owned = {opt.dest for opt in opts}
    foreign = [
        opt.flag_name
        for opt in _experiment_opts()
        if opt.dest not in owned and getattr(args, opt.dest) is not None
    ]
    if foreign:
        raise ValueError(
            f"experiment {args.name} does not take {', '.join(foreign)}"
        )
    cfg, _ = _resolve(args, opts)
    header, rows, lines, message = runner(cfg)
    path = os.path.join(args.out, args.name)
    fileio.write_table(f"{path}.csv", header, rows)
    fileio.atomic_write_text(f"{path}_summary.txt", "\n".join(lines) + "\n")
    print(f"{args.name}: {message}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfpdecode",
        description="shrinkage estimation and classification of sampled signals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--config", help="flat key=value config file")
    p_synth.add_argument("--out", required=True, help="dataset CSV path")
    _add_opts(p_synth, SYNTH_OPTS)
    p_synth.set_defaults(func=cmd_synth)

    p_est = sub.add_parser("estimate", help="denoise a single signal file")
    p_est.add_argument("--config", help="flat key=value config file")
    p_est.add_argument("--input", required=True, help="signal CSV path")
    p_est.add_argument("--out", required=True, help="output path prefix")
    _add_opts(p_est, ESTIMATE_OPTS)
    p_est.set_defaults(func=cmd_estimate)

    p_bench = sub.add_parser("benchmark", help="cross-validate a pipeline")
    p_bench.add_argument("--config", help="flat key=value config file")
    p_bench.add_argument("--dataset", required=True, help="dataset CSV path")
    p_bench.add_argument("--out", required=True, help="output path prefix")
    _add_opts(p_bench, BENCHMARK_OPTS)
    p_bench.set_defaults(func=cmd_benchmark)

    p_exp = sub.add_parser("experiment", help="run a canned study")
    p_exp.add_argument(
        "--name", required=True, choices=sorted(_EXPERIMENTS),
        help="experiment to run",
    )
    p_exp.add_argument("--config", help="flat key=value config file")
    p_exp.add_argument("--out", required=True, help="output directory")
    _add_opts(p_exp, _experiment_opts())
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return int(args.func(args))
    except (ValueError, OSError, ClassConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
