"""Command-line interface tests.

Each test drives ``main`` in-process and checks exit codes and output
files.  Determinism is asserted byte for byte.
"""

import glob
import hashlib
import math
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lfpdecode import cli, cpus, fileio
from lfpdecode.cli import main
from lfpdecode.shrinkage import EllipsoidSpec, pinsker_mu


def _paths_at(out):
    """The paths at an --out path or prefix: itself and every suffixed name."""
    return set(glob.glob(glob.escape(out) + "*")) if out else set()


def run(*argv):
    # a rejected run (exit 2) must leave nothing new at its --out
    argv = list(argv)
    out = argv[argv.index("--out") + 1] if "--out" in argv else ""
    before = _paths_at(out)
    code = main(argv)
    if code == 2:
        assert _paths_at(out) == before
    return code


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


SMALL_SYNTH = [
    "--classes", "3", "--trials-per-class", "4", "--channels", "2",
    "--samples", "64", "--sessions", "2", "--truncation", "3",
    "--sigma", "0.4", "--seed", "11",
]


def test_synth_writes_expected_row_count(tmp_path):
    out = str(tmp_path / "ds.csv")
    assert run("synth", "--out", out, *SMALL_SYNTH) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == fileio.DATASET_HEADER
    assert len(lines) == 1 + 12 * 2 * 64  # header + trials*channels*samples
    meta = Path(fileio.meta_path(out)).read_text()
    assert "n_trials=12" in meta and "sigma=0.4" in meta


def test_synth_rerun_is_byte_identical(tmp_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert run("synth", "--out", a, *SMALL_SYNTH) == 0
    assert run("synth", "--out", b, *SMALL_SYNTH) == 0
    assert read_bytes(a) == read_bytes(b)
    assert read_bytes(fileio.meta_path(a)) == read_bytes(fileio.meta_path(b))


def test_synth_config_file_matches_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "synth.classes = 3\nsynth.trials_per_class = 4\n"
        "synth.channels = 2\nsynth.samples = 64\nsynth.sessions = 2\n"
        "synth.truncation = 3\nnoise.sigma = 0.4\nseed = 11\n"
    )
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert run("synth", "--out", a, *SMALL_SYNTH) == 0
    assert run("synth", "--config", str(cfg), "--out", b) == 0
    assert read_bytes(a) == read_bytes(b)


def test_synth_impossible_separation_exits_2(tmp_path, capsys):
    out = str(tmp_path / "ds.csv")
    code = run("synth", "--out", out, "--separation", "50", "--seed", "0")
    assert code == 2
    err = capsys.readouterr().err
    assert "separation" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("flag, rule", [
    ("--separation", "separation must be positive and finite"),
    ("--spread", "within_spread must lie in [0, separation/2)"),
])
@pytest.mark.parametrize("geometry", ["random", "phase", "magnitude"])
def test_synth_nan_or_infinite_gap_exits_2(tmp_path, capsys, flag, rule, geometry):
    out = str(tmp_path / "ds.csv")
    for value in ("nan", "inf"):
        assert run("synth", "--out", out, "--geometry", geometry, flag, value) == 2
        assert rule in capsys.readouterr().err
        assert not os.path.exists(out)


def test_synth_failed_helper_exits_2(tmp_path, capsys, monkeypatch):
    # SMALL_SYNTH has 12 trials: with 2 CPUs a helper writes trials 6..11
    monkeypatch.setattr(cpus, "usable_cpus", lambda: 2)
    monkeypatch.setattr(fileio, "_MIN_WRITE_SHARE", 1)
    monkeypatch.setattr(fileio, "_WRITE_HELPER", [sys.executable, "-c", "raise SystemExit(1)"])
    out = str(tmp_path / "ds.csv")
    assert run("synth", "--out", out, *SMALL_SYNTH) == 2
    assert "helper for trials 6..11 exited with status 1" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_benchmark_failed_read_helper_exits_2(tmp_path, capsys, monkeypatch):
    ds = str(tmp_path / "ds.csv")
    assert run("synth", "--out", ds, *SMALL_SYNTH) == 0
    # 2 shares: a helper parses the second half of the rows
    monkeypatch.setattr(cpus, "usable_cpus", lambda: 2)
    monkeypatch.setattr(fileio, "_MIN_READ_SHARE", 1)
    monkeypatch.setattr(fileio, "_READ_HELPER", [sys.executable, "-c", "raise SystemExit(1)"])
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    assert run("benchmark", "--dataset", ds, "--out", str(tmp_path / "bench"),
               "--pipeline", "bjs") == 2
    assert "reader helper for bytes" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["ds.csv", "ds.meta", "temp"]
    assert os.listdir(temp) == []


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nope.nothing = 1\n")
    assert run("synth", "--config", str(cfg), "--out",
               str(tmp_path / "x.csv")) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_estimate_zero_signal_gives_zero_everywhere(tmp_path):
    sig = str(tmp_path / "sig.csv")
    fileio.write_signal(np.zeros(64), sig)
    out = str(tmp_path / "z")
    assert run("estimate", "--input", sig, "--out", out, "--method", "bjs") == 0
    table = np.loadtxt(out + "_coefficients.csv", delimiter=",", skiprows=1)
    assert_allclose(table[:, 1:], 0.0)
    recon = fileio.read_signal(out + "_reconstruction.csv")
    assert_allclose(recon, np.zeros(64))


def test_estimate_pinsker_shrinks_against_known_factor(tmp_path):
    # noiseless harmonic: y_5 = 3 exactly; the only change the estimator
    # makes is the water-filling factor on coordinate 5
    n = 256
    x = np.arange(n) / n
    f = 1.0 + 3.0 * math.sqrt(2.0) * np.sin(4.0 * math.pi * x)
    sig = str(tmp_path / "sig.csv")
    fileio.write_signal(f, sig)
    out = str(tmp_path / "p")
    assert run("estimate", "--input", sig, "--out", out, "--method", "pinsker",
               "--truncation", "3", "--alpha", "2.0", "--radius", "10.0") == 0
    table = np.loadtxt(out + "_coefficients.csv", delimiter=",", skiprows=1)
    spec = EllipsoidSpec(2.0, 10.0)
    mu = pinsker_mu(spec, 1.0 / math.sqrt(n))
    factor = max(0.0, 1.0 - 16.0 / mu)  # weight of the second sine harmonic
    assert_allclose(table[4, 1], 3.0, atol=1e-10)
    assert_allclose(table[4, 2], 3.0 * factor, rtol=1e-10)
    assert_allclose(table[0, 2], table[0, 1], rtol=1e-12)  # constant untouched


def test_estimate_bjs_passes_low_harmonics_through(tmp_path):
    # k=5 sits in a pass-through block, higher blocks carry nothing, so the
    # reconstruction reproduces the input signal
    n = 128
    x = np.arange(n) / n
    f = 1.0 + 3.0 * math.sqrt(2.0) * np.sin(4.0 * math.pi * x)
    sig = str(tmp_path / "sig.csv")
    fileio.write_signal(f, sig)
    out = str(tmp_path / "b")
    assert run("estimate", "--input", sig, "--out", out, "--method", "bjs") == 0
    recon = fileio.read_signal(out + "_reconstruction.csv")
    assert_allclose(recon, f, atol=1e-9)


def test_estimate_bjs_bytes_are_pinned(tmp_path):
    # a 9-cycle component puts live (shrunk, not zeroed) energy in block
    # 16..31; the SHA-256 values are those of the outputs before the
    # blockwise path was shared.  At N = 303, 1/sqrt(N) and N**-0.5 differ
    # in the last bit and so do the outputs, so even that drift in the
    # noise level shows, as does any in band, cutoff or padding
    n = 303
    x = np.arange(n) / n
    noise = 0.2 * np.random.default_rng(1).normal(size=n)
    f = (1.0 + 0.8 * np.cos(18.0 * math.pi * x)
         + 0.3 * np.sin(40.0 * math.pi * x) + noise)
    sig = str(tmp_path / "sig.csv")
    fileio.write_signal(f, sig)
    out = str(tmp_path / "b")
    assert run("estimate", "--input", sig, "--out", out, "--method", "bjs") == 0
    table = np.loadtxt(out + "_coefficients.csv", delimiter=",", skiprows=1)
    ratio = table[15:31, 2] / table[15:31, 1]
    assert np.all((ratio > 0.0) & (ratio < 1.0))
    digests = {
        name: hashlib.sha256(read_bytes(f"{out}_{name}.csv")).hexdigest()
        for name in ("coefficients", "reconstruction")
    }
    assert digests == {
        "coefficients":
            "2c6a2b38736d8ef2d73db11820211a692332f181932af0bb4677d1291ab05214",
        "reconstruction":
            "0917aa9660d65974dd96cd07bddeaf452304d44583d4f564bfdd92ae44d7482a",
    }


@pytest.mark.parametrize(
    "flags, keys",
    [
        (["--method", "bjs", "--truncation", "9", "--alpha", "3"],
         "estimate.method = bjs\nestimate.truncation = 9\nellipsoid.alpha = 3\n"),
        (["--block-limit", "4"], "estimate.block_limit = 4\n"),
        (["--method", "pinsker", "--block-limit", "4"],
         "estimate.method = pinsker\nestimate.block_limit = 4\n"),
    ],
    ids=["bjs-with-pinsker-options", "default-pinsker-with-block-limit",
         "pinsker-with-block-limit"],
)
def test_estimate_options_of_the_other_method_exit_2(tmp_path, capsys, flags,
                                                      keys):
    sig = str(tmp_path / "sig.csv")
    fileio.write_signal(np.random.default_rng(3).normal(size=128), sig)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(keys)
    out = str(tmp_path / "e")
    for source in (flags, ["--config", str(cfg)]):
        assert run("estimate", "--input", sig, "--out", out, *source) == 2
        assert "applies only to" in capsys.readouterr().err
        assert not os.path.exists(out + "_coefficients.csv")


def test_estimate_rerun_is_byte_identical(tmp_path):
    sig = str(tmp_path / "sig.csv")
    rng = np.random.default_rng(3)
    fileio.write_signal(rng.normal(size=64), sig)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (a, b):
        assert run("estimate", "--input", sig, "--out", out) == 0
    assert read_bytes(a + "_coefficients.csv") == read_bytes(b + "_coefficients.csv")
    assert read_bytes(a + "_reconstruction.csv") == read_bytes(b + "_reconstruction.csv")


def test_estimate_too_few_samples_exits_2(tmp_path, capsys):
    sig = str(tmp_path / "sig.csv")
    fileio.write_signal(np.ones(16), sig)
    assert run("estimate", "--input", sig, "--out", str(tmp_path / "o"),
               "--method", "pinsker", "--truncation", "4") == 2
    assert "frequency overflow" in capsys.readouterr().err


@pytest.mark.parametrize("n", [2, 3, 6])
def test_estimate_bjs_band_without_a_harmonic_exits_2(tmp_path, capsys, n):
    sig = str(tmp_path / "sig.csv")
    fileio.write_signal(np.arange(float(n)), sig)
    assert run("estimate", "--input", sig, "--out", str(tmp_path / "o"),
               "--method", "bjs", "--block-limit", "0") == 2
    assert (f"blockwise James-Stein needs at least 7 samples, got N={n}"
            in capsys.readouterr().err)


def test_estimate_fractional_sample_index_exits_2(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    fileio.write_signal(np.arange(64.0), str(sig))
    sig.write_text(sig.read_text().replace("\n5,5\n", "\n5.5,5\n"))
    assert run("estimate", "--input", str(sig), "--out", str(tmp_path / "o")) == 2
    assert "integer" in capsys.readouterr().err


def test_benchmark_writes_report_confusion_summary(tmp_path):
    ds = str(tmp_path / "ds.csv")
    assert run("synth", "--out", ds, *SMALL_SYNTH) == 0
    out = str(tmp_path / "bench")
    assert run("benchmark", "--dataset", ds, "--out", out,
               "--pipeline", "bjs", "--components", "0") == 0
    confusion = np.loadtxt(out + "_confusion.csv", delimiter=",", skiprows=1)
    assert confusion[:, 0].tolist() == [1.0, 2.0, 3.0]
    assert confusion[:, 1:].sum() == 12  # every trial lands in one cell
    assert confusion[:, 1:].sum(axis=1).tolist() == [4.0, 4.0, 4.0]
    summary = Path(out + "_summary.txt").read_text()
    assert "pipeline: bjs" in summary and "overall accuracy" in summary
    report = Path(out + "_report.csv").read_text().splitlines()
    assert report[0] == "truncation,pattern,components,overall_accuracy"


def test_benchmark_grid_rows_cover_masks(tmp_path):
    ds = str(tmp_path / "ds.csv")
    assert run("synth", "--out", ds, *SMALL_SYNTH) == 0
    out = str(tmp_path / "grid")
    assert run("benchmark", "--dataset", ds, "--out", out,
               "--pipeline", "pinsker", "--grid", "--low-pass-only",
               "--truncations", "3", "--grid-components", "0") == 0
    rows = Path(out + "_report.csv").read_text().splitlines()
    assert len(rows) == 1 + 7  # header + masks [1:1]..[1:7]


@pytest.mark.parametrize("raw", ["abc", "2.5", ""])
def test_benchmark_non_integer_kfold_exits_2(tmp_path, capsys, raw):
    ds = str(tmp_path / "ds.csv")
    assert run("synth", "--out", ds, *SMALL_SYNTH) == 0
    out = str(tmp_path / "x")
    assert run("benchmark", "--dataset", ds, "--out", out,
               "--scheme", f"kfold:{raw}") == 2
    assert f"kfold:<k> needs an integer k, got {raw!r}" in capsys.readouterr().err
    assert not os.path.exists(out + "_report.csv")


def test_benchmark_bjs_band_without_a_harmonic_exits_2(tmp_path, capsys):
    ds = str(tmp_path / "ds.csv")
    assert run("synth", "--out", ds, "--classes", "3", "--trials-per-class", "4",
               "--channels", "2", "--samples", "6", "--truncation", "1") == 0
    out = str(tmp_path / "x")
    assert run("benchmark", "--dataset", ds, "--out", out,
               "--pipeline", "bjs", "--block-limit", "0") == 2
    assert ("blockwise James-Stein needs at least 7 samples, got N=6"
            in capsys.readouterr().err)
    assert not os.path.exists(out + "_report.csv")


def test_benchmark_grid_with_bjs_exits_2(tmp_path, capsys):
    ds = str(tmp_path / "ds.csv")
    assert run("synth", "--out", ds, *SMALL_SYNTH) == 0
    assert run("benchmark", "--dataset", ds, "--out", str(tmp_path / "x"),
               "--pipeline", "bjs", "--grid") == 2
    assert "pinsker" in capsys.readouterr().err


@pytest.mark.parametrize("pipeline", ["pinsker", "bjs"])
@pytest.mark.parametrize(
    "flags",
    [["--grid-components", "5"], ["--low-pass-only"], ["--mu-values", "1.0"]],
    ids=["grid-components", "low-pass-only", "mu-values"],
)
def test_benchmark_grid_options_without_grid_exit_2(tmp_path, capsys, pipeline,
                                                     flags):
    ds = str(tmp_path / "ds.csv")
    assert run("synth", "--out", ds, *SMALL_SYNTH) == 0
    out = str(tmp_path / "x")
    assert run("benchmark", "--dataset", ds, "--out", out,
               "--pipeline", pipeline, *flags) == 2
    assert flags[0] in capsys.readouterr().err
    assert not os.path.exists(out + "_report.csv")


@pytest.mark.parametrize(
    "flags, keys",
    [
        (["--pipeline", "bjs", "--truncation", "7"],
         "benchmark.pipeline = bjs\npipeline.truncation = 7\n"),
        (["--pipeline", "pinsker", "--block-limit", "5"],
         "benchmark.pipeline = pinsker\npipeline.block_limit = 5\n"),
    ],
    ids=["bjs-with-truncation", "pinsker-with-block-limit"],
)
def test_benchmark_options_of_the_other_pipeline_exit_2(tmp_path, capsys,
                                                        flags, keys):
    ds = str(tmp_path / "ds.csv")
    assert run("synth", "--out", ds, *SMALL_SYNTH) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(keys)
    out = str(tmp_path / "x")
    for source in (flags, ["--config", str(cfg)]):
        assert run("benchmark", "--dataset", ds, "--out", out, *source) == 2
        assert "applies only to" in capsys.readouterr().err
        assert not os.path.exists(out + "_report.csv")


@pytest.mark.parametrize(
    "flags, keys, named",
    [
        (["--grid", "--truncations", "3", "--truncation", "7",
          "--components", "9", "--grid-components", "0"],
         "grid.enabled = true\ngrid.truncations = 3\npipeline.truncation = 7\n"
         "pipeline.components = 9\ngrid.components = 0\n",
         ["--truncations", "--grid-components"]),
        (["--truncations", "3", "--truncation", "3"],
         "grid.truncations = 3\npipeline.truncation = 3\n", ["--truncations"]),
        (["--grid", "--components", "0", "--grid-components", "0"],
         "grid.enabled = true\npipeline.components = 0\ngrid.components = 0\n",
         ["--grid-components"]),
    ],
    ids=["both-axes", "truncation", "components"],
)
def test_benchmark_grid_axis_and_its_single_option_exit_2(tmp_path, capsys, flags,
                                                          keys, named):
    # a grid axis replaces its single-run option; setting both would drop one
    ds = str(tmp_path / "ds.csv")
    assert run("synth", "--out", ds, *SMALL_SYNTH) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(keys)
    out = str(tmp_path / "x")
    for source in (flags, ["--config", str(cfg)]):
        assert run("benchmark", "--dataset", ds, "--out", out, *source) == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in named)
        assert not os.path.exists(out + "_report.csv")


def test_benchmark_grid_single_options_are_one_point_axes(tmp_path):
    ds = str(tmp_path / "ds.csv")
    assert run("synth", "--out", ds, *SMALL_SYNTH) == 0
    out = str(tmp_path / "x")
    assert run("benchmark", "--dataset", ds, "--out", out, "--grid",
               "--low-pass-only", "--truncation", "3", "--components", "0") == 0
    rows = Path(out + "_report.csv").read_text().splitlines()[1:]
    assert len(rows) == 7
    assert all(row.startswith("3,") and row.split(",")[-2] == "0" for row in rows)


def test_benchmark_has_no_seed(tmp_path, capsys):
    # nothing in a benchmark run is random, so a seed would do nothing
    ds = str(tmp_path / "ds.csv")
    assert run("synth", "--out", ds, *SMALL_SYNTH) == 0
    out = str(tmp_path / "x")
    assert run("benchmark", "--dataset", ds, "--out", out, "--seed", "99") == 2
    assert "--seed" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 99\n")
    assert run("benchmark", "--dataset", ds, "--out", out,
               "--config", str(cfg)) == 2
    assert "unknown config keys: seed" in capsys.readouterr().err
    assert not os.path.exists(out + "_report.csv")


def test_benchmark_missing_dataset_exits_2(tmp_path):
    assert run("benchmark", "--dataset", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path / "x")) == 2


def test_unknown_experiment_name_exits_2(tmp_path, capsys):
    assert run("experiment", "--name", "bogus",
               "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "rates" in err and "phase" in err


@pytest.mark.parametrize(
    "argv, foreign",
    [
        (["--name", "adaptivity", "--seed", "3", "--trials", "50"],
         ["--trials", "--seed"]),
        (["--name", "rates", "--sample-grid", "1,2", "--classes", "99",
          "--scheme", "bogus"],
         ["--sample-grid", "--classes", "--scheme"]),
    ],
    ids=["adaptivity", "rates"],
)
def test_experiment_rejects_flags_it_does_not_own(tmp_path, capsys, argv,
                                                  foreign):
    out = str(tmp_path / "exp")
    assert run("experiment", *argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert all(flag in err for flag in foreign)
    assert not os.path.exists(out)


def test_experiment_rates_outputs(tmp_path):
    out = str(tmp_path / "exp")
    assert run("experiment", "--name", "rates", "--out", out,
               "--epsilons", "0.5,0.2", "--trials", "100",
               "--thetas", "5") == 0
    rows = Path(out, "rates.csv").read_text().splitlines()
    assert rows[0] == "epsilon,risk,std_error,trials"
    assert len(rows) == 3
    summary = Path(out, "rates_summary.txt").read_text()
    assert "log-log slope" in summary


def test_experiment_adaptivity_outputs(tmp_path):
    out = str(tmp_path / "exp")
    assert run("experiment", "--name", "adaptivity", "--out", out,
               "--alphas", "2", "--radii", "5", "--epsilon", "0.05") == 0
    rows = Path(out, "adaptivity.csv").read_text().splitlines()
    assert rows[0] == "alpha,radius,bjs_lower,bjs_upper,pinsker_risk,ratio"
    assert len(rows) == 2
    summary = Path(out, "adaptivity_summary.txt").read_text()
    assert "max risk ratio" in summary


def test_experiment_rerun_is_byte_identical(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    args = ["experiment", "--name", "rates", "--epsilons", "0.4,0.2",
            "--trials", "100", "--thetas", "4", "--seed", "3"]
    assert run(*args, "--out", a) == 0
    assert run(*args, "--out", b) == 0
    assert read_bytes(os.path.join(a, "rates.csv")) == \
        read_bytes(os.path.join(b, "rates.csv"))


def test_experiment_consistency_matches_library(tmp_path):
    from lfpdecode.experiments import consistency_experiment
    from lfpdecode.synth import NoiseModel, make_class_model

    out = str(tmp_path / "exp")
    assert run("experiment", "--name", "consistency", "--out", out,
               "--classes", "3", "--truncation", "3",
               "--sample-grid", "64,128", "--trials", "30", "--seed", "5") == 0
    table = np.loadtxt(os.path.join(out, "consistency.csv"),
                       delimiter=",", skiprows=1)
    model = make_class_model(3, EllipsoidSpec(2.0, 10.0), 3, 0.5, 0.1, seed=5)
    rows = consistency_experiment(model, [64, 128], 30, NoiseModel(1.0, 0),
                                  seed=5)
    assert_allclose(table[0], [64, rows[0].worst_class_error, rows[0].error_se,
                               rows[0].chebyshev_bound, rows[0].bound_se])


def test_experiment_phase_matches_library(tmp_path):
    from lfpdecode.classify import PipelineConfig, ShrinkageProfile
    from lfpdecode.experiments import phase_ablation
    from lfpdecode.synth import NoiseModel, generate_dataset, make_phase_class_model

    out = tmp_path / "exp"
    assert run("experiment", "--name", "phase", "--out", str(out),
               "--classes", "3", "--trials-per-class", "4", "--channels", "2",
               "--samples", "64", "--sessions", "2", "--truncation", "3",
               "--pipeline-truncation", "3", "--seed", "2") == 0
    assert sorted(os.listdir(out)) == ["phase.csv", "phase_summary.txt"]
    model = make_phase_class_model(3, EllipsoidSpec(2.0, 10.0), 3, 0.6, 0.02, 2)
    dataset = generate_dataset(model, 4, 2, 64, 2, NoiseModel(1.0, 0), 2)
    profile = ShrinkageProfile(np.ones(7), 3, label="mask[1:7]")
    result = phase_ablation(dataset, PipelineConfig(64, profile), scheme="loso")
    rows = (out / "phase.csv").read_text().splitlines()
    assert rows[0] == "variant,overall_accuracy,worst_class_error"
    accuracy = {row.split(",")[0]: float(row.split(",")[1]) for row in rows[1:]}
    assert accuracy == {"full": result.full.overall_accuracy,
                        "magnitude": result.magnitude.overall_accuracy}


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["synth", "--classes", "x"], "--classes"),
        (["synth", "--sigma", "x"], "--sigma"),
        (["experiment", "--name", "rates", "--epsilons", "0.5,x"], "--epsilons"),
        (["benchmark", "--dataset", "ds.csv", "--truncations", "3,x"],
         "--truncations"),
        (["benchmark", "--dataset", "ds.csv", "--ridge", "xyz"], "--ridge"),
    ],
    ids=["int", "float", "float-list", "int-list", "float-or-auto"],
)
def test_bad_flag_value_exits_2_naming_the_flag(tmp_path, capsys, argv, flag):
    out = str(tmp_path / "x")
    assert run(*argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "config key" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "command, key, raw",
    [
        ("synth", "synth.classes", "x"),
        ("synth", "noise.sigma", "x"),
        ("rates", "experiment.epsilons", "0.5,x"),
        ("benchmark", "grid.truncations", "3,x"),
        ("benchmark", "pipeline.ridge", "xyz"),
        ("benchmark", "grid.low_pass_only", "maybe"),
    ],
    ids=["int", "float", "float-list", "int-list", "float-or-auto", "bool"],
)
def test_bad_config_value_exits_2_naming_the_key(tmp_path, capsys, command, key,
                                                 raw):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {raw}\n")
    out = str(tmp_path / "x")
    argv = {
        "synth": ["synth"],
        "rates": ["experiment", "--name", "rates"],
        "benchmark": ["benchmark", "--dataset", str(tmp_path / "ds.csv")],
    }[command]
    assert run(*argv, "--config", str(cfg), "--out", out) == 2
    assert f"config key {key}" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "flags, keys",
    [
        (["--ridge", "auto"], "pipeline.ridge = auto\n"),
        (["--grid", "--truncations", "3", "--grid-components", "0",
          "--low-pass-only"],
         "grid.enabled = true\ngrid.truncations = 3\ngrid.components = 0\n"
         "grid.low_pass_only = yes\n"),
    ],
    ids=["ridge-auto", "low-pass-only"],
)
def test_flag_and_config_key_give_the_same_bytes(tmp_path, flags, keys):
    ds = str(tmp_path / "ds.csv")
    assert run("synth", "--out", ds, *SMALL_SYNTH) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(keys)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run("benchmark", "--dataset", ds, "--out", a, *flags) == 0
    assert run("benchmark", "--dataset", ds, "--out", b,
               "--config", str(cfg)) == 0
    for suffix in ("_report.csv", "_confusion.csv", "_summary.txt"):
        assert read_bytes(a + suffix) == read_bytes(b + suffix)


def test_benchmark_components_minus_one_alone_picks_the_default(tmp_path,
                                                               capsys):
    ds = str(tmp_path / "ds.csv")
    assert run("synth", "--out", ds, *SMALL_SYNTH) == 0
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run("benchmark", "--dataset", ds, "--out", a,
               "--components", "-1") == 0
    assert run("benchmark", "--dataset", ds, "--out", b,
               "--components", "165") == 0
    assert read_bytes(a + "_report.csv") == read_bytes(b + "_report.csv")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("benchmark.pipeline = bjs\npipeline.components = -7\n")
    out = str(tmp_path / "x")
    for source in (["--pipeline", "bjs", "--components", "-7"],
                   ["--config", str(cfg)]):
        assert run("benchmark", "--dataset", ds, "--out", out, *source) == 2
        assert "--components" in capsys.readouterr().err
        assert not os.path.exists(out + "_report.csv")


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--name", "consistency", "--sample-grid", ""], "--sample-grid"),
        (["--name", "consistency", "--classes", "3", "--sample-grid", "64",
          "--trials", "1"], "trials_per_class"),
        (["--name", "consistency", "--sample-grid", "8,64"], "N = 8 "),
        (["--name", "consistency", "--sample-grid=-64"], "n_grid"),
        (["--name", "rates", "--epsilons", "0.5", "--trials", "100",
          "--thetas", "-3"], "n_thetas"),
        (["--name", "adaptivity", "--epsilon", "nan"], "epsilon must lie in (0, 1)"),
    ],
    ids=["empty-sample-grid", "one-trial", "short-sample-grid", "negative-sample-grid",
         "negative-thetas", "nan-epsilon"],
)
def test_experiment_inputs_the_library_rejects_exit_2(tmp_path, capsys, argv,
                                                      named):
    out = tmp_path / "exp"
    assert run("experiment", *argv, "--out", str(out)) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


# (name, the arguments it needs, its options) for every command and experiment
_COMMANDS = [
    ("synth", ["synth"], cli.SYNTH_OPTS),
    ("estimate", ["estimate", "--input", "sig.csv"], cli.ESTIMATE_OPTS),
    ("benchmark", ["benchmark", "--dataset", "ds.csv"], cli.BENCHMARK_OPTS),
] + [
    (name, ["experiment", "--name", name], opts)
    for name, (opts, _) in sorted(cli._EXPERIMENTS.items())
]
LIST_OPTIONS = [
    pytest.param(argv, opt, id=f"{name}-{opt.key}")
    for name, argv, opts in _COMMANDS
    for opt in opts
    if opt.kind in (cli.int_list, cli.float_list)
]


@pytest.mark.parametrize("argv, opt", LIST_OPTIONS)
@pytest.mark.parametrize("raw", ["", " , ", "1,,2"],
                         ids=["empty", "blank-items", "empty-item"])
def test_empty_list_value_exits_2_naming_the_option(tmp_path, capsys, argv,
                                                    opt, raw):
    # an empty list would fall back to a default or fail later with a
    # message that names neither the flag nor the config key, and an empty
    # item would be dropped silently
    argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{opt.key} = {raw}\n")
    out = str(tmp_path / "x")
    for source, named in (
        ([f"{opt.flag_name}={raw}"], f"argument {opt.flag_name}"),
        (["--config", str(cfg)], f"config key {opt.key}"),
    ):
        assert run(*argv, *source, "--out", out) == 2
        assert named in capsys.readouterr().err
        assert _paths_at(out) == set()


@pytest.mark.parametrize(
    "argv, opt, raw, rule",
    [
        (["benchmark", "--dataset", "ds.csv"], "grid.truncations", "3,x",
         "every comma-separated item must be an integer"),
        (["experiment", "--name", "rates"], "experiment.epsilons", "0.5,",
         "every comma-separated item must be a number"),
    ],
    ids=["int_list", "float_list"],
)
@pytest.mark.parametrize("route", ["flag", "config"])
def test_list_value_error_names_the_rule(tmp_path, capsys, argv, opt, raw, rule,
                                         route):
    argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
    flag = "--" + opt.rsplit(".", 1)[1]
    if route == "flag":
        source, named = [f"{flag}={raw}"], f"argument {flag}: {rule}"
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{opt} = {raw}\n")
        source, named = ["--config", str(cfg)], f"config key {opt}: {rule}"
    assert run(*argv, *source, "--out", str(tmp_path / "x")) == 2
    err = capsys.readouterr().err
    assert named in err
    assert repr(raw) in err


def test_missing_subcommand_exits_2(capsys):
    assert run() == 2
    capsys.readouterr()


@pytest.mark.parametrize("command,opts", [
    ("synth", cli.SYNTH_OPTS),
    ("estimate", cli.ESTIMATE_OPTS),
    ("benchmark", cli.BENCHMARK_OPTS),
    ("experiment", cli._experiment_opts()),
])
def test_help_lists_every_option(command, opts, capsys):
    assert main([command, "--help"]) == 0
    # whole flags, so that --noise-seed does not stand in for --seed
    shown = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
    assert [opt.flag_name for opt in opts if opt.flag_name not in shown] == []
