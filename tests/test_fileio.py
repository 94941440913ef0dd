"""File format round-trip tests."""

import hashlib
import os
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lfpdecode import fileio
from lfpdecode.shrinkage import EllipsoidSpec
from lfpdecode.synth import (
    LabeledDataset,
    NoiseModel,
    Trial,
    generate_dataset,
    make_class_model,
)


def test_float_formatting_roundtrips_exactly():
    rng = np.random.default_rng(0)
    values = list(rng.normal(size=50)) + [1e-300, 1e300, 0.1, -0.0, 3.0]
    for x in values:
        assert float(fileio.fmt_float(x)) == float(x)


def test_cell_formatting_rules():
    assert fileio._cell(3) == "3"
    assert fileio._cell(np.int64(5)) == "5"
    assert fileio._cell("abc") == "abc"
    with pytest.raises(TypeError):
        fileio._cell(True)


def test_atomic_write_replaces_content(tmp_path):
    path = tmp_path / "x.txt"
    fileio.atomic_write_text(str(path), "one\n")
    fileio.atomic_write_text(str(path), "two\n")
    assert path.read_text() == "two\n"
    # no stray temp files left behind
    assert os.listdir(tmp_path) == ["x.txt"]


def test_dataset_roundtrip(tmp_path):
    model = make_class_model(3, EllipsoidSpec(2.0, 10.0), 3, 0.5, 0.1, seed=0)
    ds = generate_dataset(model, 2, 2, 32, 2, NoiseModel(sigma=0.3), seed=1)
    path = str(tmp_path / "ds.csv")
    fileio.write_dataset(ds, path)
    back = fileio.read_dataset(path)
    assert back.n_trials == ds.n_trials
    assert back.n_classes == ds.n_classes
    for ta, tb in zip(ds.trials, back.trials):
        assert_allclose(tb.channels, ta.channels)  # exact via 17-digit floats
        assert tb.label == ta.label and tb.session == ta.session
    assert back.params["sigma"] == 0.3
    assert back.params["alpha"] == 2.0


def _pinned_dataset():
    # small integer cubes are exact and IEEE 754 division is correctly
    # rounded, so these values (and the pinned digests) match on every platform
    grid = np.arange(3 * 2 * 8, dtype=float).reshape(3, 2, 8)
    values = (grid - 20.0) ** 3 / 7.0 + 1.0 / (grid + 3.0)
    trials = [
        Trial(channels=values[i], label=i % 2 + 1, session=i + 1) for i in range(3)
    ]
    return LabeledDataset(
        trials=trials, n_classes=2, seed=4,
        params={"sigma": 0.3, "geometry": "random"},
    )


def _sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def test_dataset_bytes_are_pinned(tmp_path):
    # pinned digests: writing the CSV trial by trial must not move a byte
    path = str(tmp_path / "ds.csv")
    fileio.write_dataset(_pinned_dataset(), path)
    assert _sha256(path) == (
        "a634e75ef1475a2bb54e6564782ea7336b5b83686df9371a15dd2ec152294833"
    )
    assert _sha256(fileio.meta_path(path)) == (
        "6a3a4c2f893d278e3714a592a3ba43eb9d27523f4431460501150d257494cf5f"
    )
    assert sorted(os.listdir(tmp_path)) == ["ds.csv", "ds.meta"]


def test_dataset_rejects_fractional_integer_columns(tmp_path):
    path = tmp_path / "ds.csv"
    fileio.write_dataset(_pinned_dataset(), str(path))
    lines = path.read_text().splitlines()
    assert lines[1].startswith("0,1,1,1,0,")
    for column in range(5):
        cells = lines[1].split(",")
        cells[column] = str(int(cells[column]) + 0.7)
        path.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
        with pytest.raises(ValueError, match="must be integers"):
            fileio.read_dataset(str(path))


def _pinned_lines(tmp_path):
    path = tmp_path / "ds.csv"
    fileio.write_dataset(_pinned_dataset(), str(path))
    return path, path.read_text().splitlines()


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def _assert_same_dataset(a, b):
    assert (a.n_classes, a.seed, a.params) == (b.n_classes, b.seed, b.params)
    assert a.n_trials == b.n_trials
    for ta, tb in zip(a.trials, b.trials):
        assert np.array_equal(ta.channels, tb.channels)
        assert (ta.label, ta.session) == (tb.label, tb.session)


def test_dataset_rows_read_back_in_any_order(tmp_path):
    path, lines = _pinned_lines(tmp_path)
    rows = lines[1:]
    order = np.random.default_rng(5).permutation(len(rows))
    _write_lines(path, [lines[0]] + [rows[i] for i in order])
    _assert_same_dataset(fileio.read_dataset(str(path)), _pinned_dataset())


def _duplicated_row(rows):
    return rows + [rows[7]]


def _duplicate_over_another(rows):
    return [rows[7] if i == 8 else row for i, row in enumerate(rows)]


def _missing_sample(rows):
    return rows[:5] + rows[6:]


def _cell_changed(column, value, row=20):
    def edit(rows):
        cells = rows[row].split(",")
        cells[column] = value
        return rows[:row] + [",".join(cells)] + rows[row + 1:]
    return edit


def _row_width(width):
    def edit(rows):
        cells = rows[20].split(",")
        cells = cells[:width] + ["0"] * (width - len(cells))
        return rows[:20] + [",".join(cells)] + rows[21:]
    return edit


def _rows_dropped(column, value):
    return lambda rows: [row for row in rows if row.split(",")[column] != value]


# the pinned dataset has 3 trials x 2 channels x 8 samples, trial-major rows
@pytest.mark.parametrize("edit", [
    _duplicated_row,
    _duplicate_over_another,
    _missing_sample,
    _cell_changed(2, "1"),  # row 20 is in trial 1, label 2
    _cell_changed(1, "9"),  # and session 2
    _row_width(5),
    _row_width(7),
    lambda rows: [],
    _cell_changed(4, "-1", row=7),  # in place of the last sample of channel 1
    _cell_changed(3, "0", row=15),  # in place of channel 2, the last channel
    _rows_dropped(0, "2"),  # the last trial
    _rows_dropped(3, "2"),  # the last channel of every trial
    _rows_dropped(4, "7"),  # the last sample of every channel
], ids=["duplicated-row", "duplicate-over-another", "missing-sample",
        "label-changes", "session-changes", "5-columns", "7-columns",
        "header-only", "sample-index-below-0", "channel-below-1",
        "fewer-trials-than-sidecar", "fewer-channels-than-sidecar",
        "fewer-samples-than-sidecar"])
def test_dataset_rejects_malformed_rows(tmp_path, edit):
    path, lines = _pinned_lines(tmp_path)
    _write_lines(path, [lines[0]] + edit(lines[1:]))
    with pytest.raises(ValueError):
        fileio.read_dataset(str(path))


# "1.0" and "1e0" name integers but are float literals, rejected like "1.7"
@pytest.mark.parametrize("cell", ["1.7", "nan", "1.0", "1e0"])
@pytest.mark.parametrize("column", range(5))
def test_dataset_keys_must_be_integer_literals(tmp_path, column, cell):
    path, lines = _pinned_lines(tmp_path)
    _write_lines(path, [lines[0]] + _cell_changed(column, cell)(lines[1:]))
    with pytest.raises(ValueError, match="must be integers"):
        fileio.read_dataset(str(path))


# values whose shortest form, exponent, sign or rounding a formatter could get wrong
EDGE_VALUES = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
    1.7976931348623157e308, 1.0 / 3.0, -2.0 / 3.0, 0.1, 3.0, -7.0, 1e16,
    1e17, 123456789012345678.0, 0.5, 1e-5, 1e-4,
]


def test_dataset_writer_matches_per_value_formatting(tmp_path):
    rng = np.random.default_rng(9)
    wide = rng.normal(size=(3, 4, 2 * len(EDGE_VALUES))) * 10.0 ** rng.integers(
        -300, 300, size=(3, 4, 2 * len(EDGE_VALUES)))
    wide[0, 0, ::2] = EDGE_VALUES
    wide[2, 2, ::2] = EDGE_VALUES[::-1]
    # every other sample of every other channel: a non-contiguous view
    trials = [
        Trial(channels=wide[i, ::2, ::2], label=i + 1, session=3 - i)
        for i in range(3)
    ]
    assert not trials[0].channels.flags.c_contiguous
    # Trial rejects non-finite samples; write them into the array afterwards
    # so the formatter still sees them
    trials[1].channels[0, 0] = np.inf
    trials[1].channels[1, 1] = -np.inf
    trials[1].channels[0, 1] = np.nan
    ds = LabeledDataset(trials=trials, n_classes=3, seed=2)
    expected = [fileio.DATASET_HEADER]
    for tid, trial in enumerate(ds.trials):
        for ch, row in enumerate(trial.channels, start=1):
            for s, v in enumerate(row):
                expected.append(
                    f"{tid},{trial.session},{trial.label},{ch},{s},"
                    f"{fileio.fmt_float(v)}"
                )
    path = tmp_path / "ds.csv"
    fileio.write_dataset(ds, str(path))
    assert path.read_text() == "\n".join(expected) + "\n"
    assert "\n1,2,2,1,0,inf\n" in path.read_text()


def test_signal_writer_matches_per_value_formatting(tmp_path):
    values = np.array(EDGE_VALUES + [np.inf, -np.inf, np.nan] + [2.5] * 4)[::2]
    expected = [fileio.SIGNAL_HEADER]
    expected += [f"{i},{fileio.fmt_float(v)}" for i, v in enumerate(values)]
    path = tmp_path / "sig.csv"
    fileio.write_signal(values, str(path))
    assert path.read_text() == "\n".join(expected) + "\n"


def test_written_files_follow_the_umask(tmp_path):
    old = os.umask(0o022)
    try:
        fileio.write_dataset(_pinned_dataset(), str(tmp_path / "ds.csv"))
        fileio.write_table(str(tmp_path / "t.csv"), ["a"], [(1,)])
        os.umask(0o077)
        fileio.write_signal(np.zeros(4), str(tmp_path / "private.csv"))
    finally:
        os.umask(old)
    modes = {
        name: os.stat(tmp_path / name).st_mode & 0o777
        for name in os.listdir(tmp_path)
    }
    assert modes == {
        "ds.csv": 0o644, "ds.meta": 0o644, "t.csv": 0o644, "private.csv": 0o600,
    }


def test_dataset_requires_sidecar(tmp_path):
    model = make_class_model(3, EllipsoidSpec(2.0, 10.0), 3, 0.5, 0.1, seed=0)
    ds = generate_dataset(model, 1, 1, 32, 1, NoiseModel(sigma=0.3), seed=1)
    path = str(tmp_path / "ds.csv")
    fileio.write_dataset(ds, path)
    os.remove(fileio.meta_path(path))
    with pytest.raises(ValueError, match="sidecar"):
        fileio.read_dataset(path)


def test_dataset_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong,header\n0,1\n")
    with pytest.raises(ValueError, match="header"):
        fileio.read_dataset(str(path))


def test_signal_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    samples = rng.normal(size=64)
    path = str(tmp_path / "sig.csv")
    fileio.write_signal(samples, path)
    back = fileio.read_signal(path)
    assert_allclose(back, samples)


def test_signal_index_coverage_checked(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("sample_index,value\n0,1.0\n2,2.0\n")
    with pytest.raises(ValueError):
        fileio.read_signal(str(path))


def test_signal_rejects_header_only_file(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("sample_index,value\n")
    with pytest.raises(ValueError, match="no rows"):
        fileio.read_signal(str(path))


def test_signal_rejects_fractional_index(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("sample_index,value\n0,1.0\n1.5,2.0\n")
    with pytest.raises(ValueError, match="integer"):
        fileio.read_signal(str(path))


def test_config_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "synth.classes = 8\n"
        "noise.sigma=1.5\n"
        "label = phase coded \n"
    )
    cfg = fileio.read_config(str(path))
    assert cfg == {
        "synth.classes": "8",
        "noise.sigma": "1.5",
        "label": "phase coded",
    }


def test_config_rejects_duplicates_and_garbage(tmp_path):
    dup = tmp_path / "dup.cfg"
    dup.write_text("a = 1\na = 2\n")
    with pytest.raises(ValueError, match="duplicate"):
        fileio.read_config(str(dup))
    bad = tmp_path / "bad.cfg"
    bad.write_text("just some words\n")
    with pytest.raises(ValueError):
        fileio.read_config(str(bad))


def test_write_table(tmp_path):
    path = str(tmp_path / "t.csv")
    fileio.write_table(path, ["a", "b"], [(1, 0.5), (2, 0.25)])
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,0.5"
