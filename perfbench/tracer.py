"""In-memory span tracer for the traced benchmark pass.

The tracer replaces each layer function listed in ``LAYERS`` with a wrapper
in every ``lfpdecode`` module that binds it, records one span per call
(name, start, end, parent) and a few counts derived from argument shapes,
and puts the original functions back on ``uninstall``.  Nothing under
``src/`` is modified; an untraced run never constructs a tracer.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np

# layer -> {metric name: attribute the callers bind}
LAYERS = {
    "basis": {"transform_rows": "transform_rows", "basis_matrix": "basis_matrix"},
    "shrinkage": {"bjs_rows": "_bjs_rows", "pinsker_weights": "pinsker_weights"},
    "synth": {
        "generate_dataset": "generate_dataset",
        "make_class_model": "make_class_model",
        "sample_sobolev": "sample_sobolev",
        "perturb_within_class": "perturb_within_class",
    },
    "classify": {
        "dataset_feature_matrix": "dataset_feature_matrix",
        "cross_validate_features": "cross_validate_features",
        "grid_search": "grid_search",
        "pca_fit": "pca_fit",
        "pca_apply": "pca_apply",
        "lda_train": "lda_train",
        "lda_predict": "lda_predict",
        "decode_rows": "_decode_rows",
    },
    "experiments": {
        "risk_curve_pinsker": "risk_curve_pinsker",
        "benchmark_classifiers": "benchmark_classifiers",
    },
    "fileio": {
        "write_dataset": "write_dataset",
        "read_dataset": "read_dataset",
        "write_table": "write_table",
        "write_signal": "write_signal",
        "atomic_write_text": "atomic_write_text",
    },
    "cli": {
        "synth": "cmd_synth",
        "benchmark": "cmd_benchmark",
        "estimate": "cmd_estimate",
        "experiment": "cmd_experiment",
    },
}

# Count-only probe (no span) on the parameter sample that each Monte-Carlo
# risk experiment draws its noisy observations around.
NOISE_PROBE = "_boundary_thetas"

COUNTS = {
    "basis.transform_rows.flops_computed": ("flop", "lower"),
    "basis.transform_rows.unique_input_ratio": ("fraction", "higher"),
    "shrinkage.bjs_rows.rows": ("count", "lower"),
    "synth.prototype_accept_ratio": ("fraction", "higher"),
    "classify.pca_fit.flops_computed": ("flop", "lower"),
    "experiments.noise_draws": ("count", "lower"),
    "fileio.write_dataset.bytes": ("B", "lower"),
    "fileio.read_dataset.bytes": ("B", "lower"),
    "process.cpu_s": ("s", "lower"),
    "process.trace_overhead_s": ("s", "lower"),
}


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name with its (unit, better) pair, in order."""
    out: dict[str, tuple[str, str]] = {}
    for layer, fns in LAYERS.items():
        for fn in fns:
            out[f"{layer}.{fn}.calls"] = ("count", "lower")
            out[f"{layer}.{fn}.busy_s"] = ("s", "lower")
            out[f"{layer}.{fn}.self_s"] = ("s", "lower")
        out[f"{layer}.errors"] = ("count", "lower")
        out[f"{layer}.rss_rise_mb"] = ("MB", "lower")
    out.update(COUNTS)
    return out


def installed_wrappers(modules) -> int:
    """Number of module bindings that currently hold a tracer wrapper."""
    return sum(
        hasattr(value, "__perfbench_span__")
        for module in modules
        for value in vars(module).values()
    )


def peak_rss_mb() -> float:
    """Process high-water resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _svd_flops(shape) -> float:
    # thin R-SVD with U1, Sigma and V (Golub & Van Loan, Fig. 8.6.1)
    m, k = max(shape), min(shape)
    return 6.0 * m * k * k + 20.0 * k**3


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    start: float
    rss_start: float
    outermost: bool
    hooks_at_open: float
    end: float = 0.0
    busy_s: float = 0.0
    child_s: float = 0.0
    rss_rise: float = 0.0
    error: bool = False
    args: dict = field(default_factory=dict)


class Tracer:
    """Collects spans and counts while its wrappers are installed."""

    def __init__(self, modules):
        self.modules = list(modules)
        self.t0 = time.perf_counter()
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.layer_depth = {layer: 0 for layer in LAYERS}
        self.counts = {name: 0.0 for name in COUNTS}
        self.hook_s = 0.0  # time spent computing counts, kept out of spans
        self.prototypes_requested = 0
        self.transform_inputs: set = set()
        self._patched: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()  # listed functions the program lacks
        self._wrappers: dict[int, object] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for layer, fns in LAYERS.items():
            home = importlib.import_module(f"lfpdecode.{layer}")
            for fn, attr in fns.items():
                self._patch(home, attr, f"{layer}.{fn}", layer, self._span_wrapper)
        home = importlib.import_module("lfpdecode.experiments")
        self._patch(home, NOISE_PROBE, NOISE_PROBE, "experiments", self._probe_wrapper)

    def _patch(self, home, attr, name, layer, make) -> None:
        original = getattr(home, attr, None)
        if original is None:
            self.missing.add(name)
            return
        wrapper = self._wrappers.get(id(original))
        if wrapper is None:
            wrapper = make(original, name, layer)
            wrapper.__perfbench_span__ = name
            self._wrappers[id(original)] = wrapper
        for module in self.modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, name, layer):
        sig = inspect.signature(fn)
        counted = name in _HOOKS
        hook = _HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name, layer)
            if counted:
                span.args = sig.bind(*args, **kwargs).arguments
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                tracer._close(span, ok)
            if hook is not None:
                started = time.perf_counter()
                hook(tracer, span.args, result)
                tracer.hook_s += time.perf_counter() - started
            span.args = {}  # do not keep feature matrices alive
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _probe_wrapper(self, fn, name, layer):
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            trials = tracer.stack[-1].args.get("trials", 0) if tracer.stack else 0
            tracer.counts["experiments.noise_draws"] += trials * np.shape(result)[0]
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _open(self, name: str, layer: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(
            id=len(self.spans),
            name=name,
            layer=layer,
            parent=parent,
            start=time.perf_counter() - self.t0,
            rss_start=peak_rss_mb(),
            outermost=self.layer_depth[layer] == 0,
            hooks_at_open=self.hook_s,
        )
        self.layer_depth[layer] += 1
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span: Span, ok: bool) -> None:
        span.end = time.perf_counter() - self.t0
        span.busy_s = span.end - span.start - (self.hook_s - span.hooks_at_open)
        span.error = not ok
        self.stack.pop()
        self.layer_depth[span.layer] -= 1
        if self.stack:
            self.stack[-1].child_s += span.busy_s
        span.rss_rise = peak_rss_mb() - span.rss_start

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        units = metric_units()
        out = {name: 0.0 for name in units}
        for span in self.spans:
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.busy_s"] += span.busy_s
            out[f"{span.name}.self_s"] += span.busy_s - span.child_s
            if span.outermost:
                out[f"{span.layer}.errors"] += span.error
                out[f"{span.layer}.rss_rise_mb"] += span.rss_rise
        for name, value in self.counts.items():
            out[name] = float(value)
        calls = out["basis.transform_rows.calls"]
        out["basis.transform_rows.unique_input_ratio"] = (
            len(self.transform_inputs) / calls if calls else 0.0
        )
        draws = out["synth.sample_sobolev.calls"]
        out["synth.prototype_accept_ratio"] = (
            self.prototypes_requested / draws if draws else 0.0
        )
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for s in self.spans:
                record = {"id": s.id, "name": s.name, "parent": s.parent,
                          "start": s.start, "end": s.end, "busy_s": s.busy_s,
                          "error": s.error}
                handle.write(json.dumps(record) + "\n")


# -- counts derived from argument shapes -------------------------------------


def _transform_rows(tracer, args, result):
    rows = np.ascontiguousarray(args["rows"], dtype=float)
    m, n = rows.shape
    count = 2 * int(args["truncation"]) + 1
    tracer.counts["basis.transform_rows.flops_computed"] += 2.0 * m * n * count
    digest = hashlib.blake2b(memoryview(rows).cast("B"), digest_size=16).digest()
    tracer.transform_inputs.add((digest, rows.shape, count))


def _bjs_rows(tracer, args, result):
    tracer.counts["shrinkage.bjs_rows.rows"] += np.shape(args["rows"])[0]


def _make_class_model(tracer, args, result):
    tracer.prototypes_requested += int(args["n_classes"])


def _pca_fit(tracer, args, result):
    tracer.counts["classify.pca_fit.flops_computed"] += _svd_flops(
        np.shape(args["features"])
    )


def _file_bytes(counter):
    def hook(tracer, args, result):
        tracer.counts[counter] += os.path.getsize(args["path"])

    return hook


_HOOKS = {
    "basis.transform_rows": _transform_rows,
    "shrinkage.bjs_rows": _bjs_rows,
    "synth.make_class_model": _make_class_model,
    "classify.pca_fit": _pca_fit,
    # binds its arguments only, so the boundary-theta probe can read
    # ``trials`` from the open span
    "experiments.risk_curve_pinsker": None,
    "fileio.write_dataset": _file_bytes("fileio.write_dataset.bytes"),
    "fileio.read_dataset": _file_bytes("fileio.read_dataset.bytes"),
}
