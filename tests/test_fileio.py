"""File format round-trip tests."""

import contextlib
import hashlib
import io
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import lfpdecode.cpus
from lfpdecode import fileio, rowparse
from lfpdecode.shrinkage import EllipsoidSpec
from lfpdecode.synth import (
    LabeledDataset,
    NoiseModel,
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
    assert_allclose(back.cube, ds.cube)  # exact via 17-digit floats
    assert_array_equal(back.labels, ds.labels)
    assert_array_equal(back.session_ids, ds.session_ids)
    assert back.params["sigma"] == 0.3
    assert back.params["alpha"] == 2.0


def _pinned_dataset():
    # small integer cubes are exact and IEEE 754 division is correctly
    # rounded, so these values (and the pinned digests) match on every platform
    grid = np.arange(3 * 2 * 8, dtype=float).reshape(3, 2, 8)
    values = (grid - 20.0) ** 3 / 7.0 + 1.0 / (grid + 3.0)
    return LabeledDataset(
        cube=values, labels=[1, 2, 1], session_ids=[1, 2, 3], n_classes=2, seed=4,
        params={"sigma": 0.3, "geometry": "random"},
    )


def _sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _force_shares(monkeypatch, cpus):
    """Split every dataset write and read into one share per forced CPU,
    however small the dataset."""
    monkeypatch.setattr(lfpdecode.cpus, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(fileio, "_MIN_WRITE_SHARE", 1)
    monkeypatch.setattr(fileio, "_MIN_READ_SHARE", 1)


# CPU counts forced on the writer: its trials split into that many
# contiguous shares, one written here and each other by a helper process;
# the pinned and the edge-value datasets have 3 trials, so 2 shares are
# uneven, 3 are a trial each and 4 CPUs are capped at 3 shares
SHARES = pytest.mark.parametrize(
    "cpus", [1, 2, 3, 4],
    ids=["one-share", "two-shares", "three-shares", "more-cpus-than-trials"],
)

# CPU counts forced on the reader: the rows after the header split into
# that many byte ranges, one parsed here and each other by a helper
# process; the pinned dataset's 48 trial-major rows split near rows 24, or
# 16 and 32, so trial 1's rows (16..31) straddle a boundary either way
READ_SHARES = [1, 2, 3]


@SHARES
def test_dataset_bytes_are_pinned(tmp_path, monkeypatch, cpus):
    # pinned digests: neither writing the CSV trial by trial nor splitting
    # it into shares may move a byte
    _force_shares(monkeypatch, cpus)
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
    assert_array_equal(a.cube, b.cube)
    assert_array_equal(a.labels, b.labels)
    assert_array_equal(a.session_ids, b.session_ids)


def _shares_of_rows(path):
    """The reader's share index of each row line of the CSV at ``path``."""
    starts = [start for start, _ in fileio._read_shares(str(path))]
    with open(path, "rb") as handle:
        handle.readline()
        offsets = [handle.tell()]
        offsets += [handle.tell() for _ in iter(handle.readline, b"")][:-1]
    return np.searchsorted(starts, offsets, side="right") - 1


class _InlineHelper:
    """Stands in for a reader helper process: runs the script's ``main`` in
    this process, with its standard output on the same file.  The checks
    are the helper's own, without the ~0.1 s a helper takes to import
    numpy; the tests below that start real helpers cover the rest."""

    def __init__(self, argv, stdin, stdout, stderr):
        err = io.StringIO()
        with contextlib.redirect_stdout(SimpleNamespace(buffer=stdout)), \
                contextlib.redirect_stderr(err):
            try:
                rowparse.main(argv[len(fileio._READ_HELPER):])
                self.returncode = 0
            except SystemExit as exc:
                self.returncode = exc.code
        self._err = err.getvalue().encode()
        self.stderr = io.BytesIO()

    def communicate(self):
        return b"", self._err


def _force_inline_shares(monkeypatch, cpus):
    """Force ``cpus`` shares on the reader, with inline helpers."""
    _force_shares(monkeypatch, cpus)
    monkeypatch.setattr(subprocess, "Popen", _InlineHelper)


def test_dataset_rows_read_back_in_any_order(tmp_path, monkeypatch):
    path, lines = _pinned_lines(tmp_path)
    rows = lines[1:]
    order = np.random.default_rng(5).permutation(len(rows))
    for cpus in READ_SHARES:
        _force_shares(monkeypatch, cpus)
        for text in (lines, [lines[0]] + [rows[i] for i in order]):
            _write_lines(path, text)
            shares = _shares_of_rows(path)
            assert np.unique(shares).tolist() == list(range(cpus))
            # trial 1's rows lie in more than one share
            trial_1 = [i for i, row in enumerate(text[1:]) if row.startswith("1,")]
            assert len(np.unique(shares[trial_1])) >= min(cpus, 2)
            _assert_same_dataset(fileio.read_dataset(str(path)), _pinned_dataset())


def test_dataset_rows_may_end_in_crlf(tmp_path, monkeypatch):
    # shares split at "\n" and keep the "\r", which np.loadtxt accepts
    path, lines = _pinned_lines(tmp_path)
    path.write_bytes("".join(line + "\r\n" for line in lines).encode())
    for cpus in READ_SHARES:
        _force_inline_shares(monkeypatch, cpus)
        _assert_same_dataset(fileio.read_dataset(str(path)), _pinned_dataset())


@pytest.mark.parametrize("cpus", READ_SHARES,
                         ids=["one-share", "two-shares", "three-shares"])
def test_dataset_reads_back_from_every_share_count(tmp_path, monkeypatch, cpus):
    pinned, edge = tmp_path / "pinned.csv", tmp_path / "edge.csv"
    fileio.write_dataset(_pinned_dataset(), str(pinned))
    fileio.write_dataset(_edge_value_dataset(), str(edge))
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    _force_shares(monkeypatch, cpus)
    assert len(fileio._read_shares(str(pinned))) == cpus
    _assert_same_dataset(fileio.read_dataset(str(pinned)), _pinned_dataset())
    _assert_same_dataset(fileio.read_dataset(str(edge)), _edge_value_dataset())
    # the helpers' rows went to anonymous temp files
    assert sorted(os.listdir(tmp_path)) == [
        "edge.csv", "edge.meta", "pinned.csv", "pinned.meta", "temp"]
    assert os.listdir(temp) == []


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


def _trial_ids_mapped(ids):
    def edit(rows):
        split = (row.split(",", 1) for row in rows)
        return [f"{ids[int(tid)]},{rest}" for tid, rest in split]
    return edit


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
    _trial_ids_mapped([-4, 1, 9]),  # three distinct ids, not 0..2
    _cell_changed(0, "3", row=47),  # in place of trial 2, the last trial
], ids=["duplicated-row", "duplicate-over-another", "missing-sample",
        "label-changes", "session-changes", "5-columns", "7-columns",
        "header-only", "sample-index-below-0", "channel-below-1",
        "fewer-trials-than-sidecar", "fewer-channels-than-sidecar",
        "fewer-samples-than-sidecar", "trial-ids-not-0-to-2",
        "trial-id-equals-n-trials"])
def test_dataset_rejects_malformed_rows(tmp_path, monkeypatch, edit):
    # the same error at every share count, whichever share meets the fault
    path, lines = _pinned_lines(tmp_path)
    _write_lines(path, [lines[0]] + edit(lines[1:]))
    errors = set()
    for cpus in READ_SHARES:
        _force_inline_shares(monkeypatch, cpus)
        with pytest.raises(ValueError) as caught:
            fileio.read_dataset(str(path))
        errors.add((caught.type, str(caught.value)))
    assert len(errors) == 1, errors


def test_dataset_rejects_lone_cr_line_ends(tmp_path, monkeypatch):
    path, lines = _pinned_lines(tmp_path)
    path.write_bytes("".join(line + "\r" for line in lines).encode())
    for cpus in READ_SHARES:
        _force_inline_shares(monkeypatch, cpus)
        with pytest.raises(ValueError, match='not a lone "\\\\r"'):
            fileio.read_dataset(str(path))


# lines a valid dataset CSV may hold between its rows: np.loadtxt skips
# them, and must not warn that it did
@pytest.mark.parametrize(
    "ending, extra",
    [("\n", ""), ("\r\n", ""), ("\n", "# a comment"), ("\r\n", "# a comment")],
    ids=["blank", "blank-crlf", "comment", "comment-crlf"],
)
@pytest.mark.filterwarnings("error")
def test_dataset_skips_blank_and_comment_lines_at_every_share_count(
    tmp_path, monkeypatch, ending, extra
):
    # the extra line goes before each row in turn and after the last, so
    # at 2 and 3 shares it starts a share, ends one and sits inside one
    path, lines = _pinned_lines(tmp_path)
    starts_a_share = set()
    for at in range(1, len(lines) + 1):
        text = lines[:at] + [extra] + lines[at:]
        path.write_bytes("".join(line + ending for line in text).encode())
        for cpus in READ_SHARES:
            _force_inline_shares(monkeypatch, cpus)
            _assert_same_dataset(fileio.read_dataset(str(path)), _pinned_dataset())
            offset = len("".join(line + ending for line in text[:at]).encode())
            if offset in [start for start, _ in fileio._read_shares(str(path))][1:]:
                starts_a_share.add(cpus)
    assert starts_a_share == {2, 3}


# "1.0" and "1e0" name integers but are float literals, rejected like "1.7"
@pytest.mark.parametrize("cell", ["1.7", "nan", "1.0", "1e0"])
@pytest.mark.parametrize("column", range(5))
def test_dataset_keys_must_be_integer_literals(tmp_path, monkeypatch, column, cell):
    path, lines = _pinned_lines(tmp_path)
    _write_lines(path, [lines[0]] + _cell_changed(column, cell)(lines[1:]))
    # row 20 is parsed here at 1 and 2 shares, by a helper at 3
    for cpus in READ_SHARES:
        _force_inline_shares(monkeypatch, cpus)
        with pytest.raises(ValueError, match="must be integers"):
            fileio.read_dataset(str(path))


# values whose shortest form, exponent, sign or rounding a formatter could get wrong
EDGE_VALUES = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
    1.7976931348623157e308, 1.0 / 3.0, -2.0 / 3.0, 0.1, 3.0, -7.0, 1e16,
    1e17, 123456789012345678.0, 0.5, 1e-5, 1e-4,
]


def _edge_value_dataset():
    """3 trials of 2 channels x 19 samples holding EDGE_VALUES and wide
    random exponents."""
    rng = np.random.default_rng(9)
    wide = rng.normal(size=(3, 4, 2 * len(EDGE_VALUES))) * 10.0 ** rng.integers(
        -300, 300, size=(3, 4, 2 * len(EDGE_VALUES)))
    wide[0, 0, ::2] = EDGE_VALUES
    wide[2, 2, ::2] = EDGE_VALUES[::-1]
    # every other sample of every other channel: a non-contiguous view
    return LabeledDataset(cube=wide[:, ::2, ::2], labels=[1, 2, 3],
                          session_ids=[3, 2, 1], n_classes=3, seed=2)


@SHARES
def test_dataset_writer_matches_per_value_formatting(tmp_path, monkeypatch, cpus):
    _force_shares(monkeypatch, cpus)
    ds = _edge_value_dataset()
    assert not ds.cube.flags.c_contiguous
    # the dataset rejects non-finite samples; write them into its cube
    # afterwards so the formatter still sees them
    ds.cube[1, 0, 0] = np.inf
    ds.cube[1, 1, 1] = -np.inf
    ds.cube[1, 0, 1] = np.nan
    expected = [fileio.DATASET_HEADER]
    for tid, channels in enumerate(ds.cube):
        session, label = ds.session_ids[tid], ds.labels[tid]
        for ch, row in enumerate(channels, start=1):
            for s, v in enumerate(row):
                expected.append(
                    f"{tid},{session},{label},{ch},{s},{fileio.fmt_float(v)}"
                )
    path = tmp_path / "ds.csv"
    fileio.write_dataset(ds, str(path))
    assert path.read_text() == "\n".join(expected) + "\n"
    assert "\n1,2,2,1,0,inf\n" in path.read_text()


class _RecordedPopen(subprocess.Popen):
    """subprocess.Popen that keeps every process it starts."""

    started = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.started.append(self)


@pytest.fixture
def helpers(monkeypatch):
    """Force two shares; the list of helper processes started."""
    _force_shares(monkeypatch, 2)
    monkeypatch.setattr(_RecordedPopen, "started", [])
    monkeypatch.setattr(subprocess, "Popen", _RecordedPopen)
    return _RecordedPopen.started


def _dataset_files(tmp_path):
    """The pinned dataset written at ds.csv, and its two files' bytes."""
    path = tmp_path / "ds.csv"
    fileio.write_dataset(_pinned_dataset(), str(path))
    files = [path, Path(fileio.meta_path(str(path)))]
    return path, files, [file.read_bytes() for file in files]


def test_failed_helper_leaves_the_old_pair(tmp_path, monkeypatch, helpers):
    path, files, before = _dataset_files(tmp_path)
    monkeypatch.setattr(fileio, "_WRITE_HELPER", [sys.executable, "-c", "raise SystemExit(3)"])
    # the helper's share, 256 KiB, is more than a pipe holds; it is written
    # to a file before the helper starts, so a helper that reads none of it
    # fails only by its exit status
    ds = LabeledDataset(np.ones((3, 2, 8192)), labels=[1, 2, 1],
                        session_ids=[1, 2, 3], n_classes=2)
    with pytest.raises(OSError, match=r"helper for trials 1\.\.2 exited with status 3"):
        fileio.write_dataset(ds, str(path))
    assert [file.read_bytes() for file in files] == before
    assert sorted(os.listdir(tmp_path)) == ["ds.csv", "ds.meta"]
    # every helper, the first write's too, was waited for
    assert [proc.returncode for proc in helpers] == [0, 3]


def test_writer_helpers_use_anonymous_files_and_no_thread(
        tmp_path, monkeypatch, helpers):
    # a helper reads its share from an anonymous file in the temp directory
    # and formats it into an anonymous part, so no thread feeds it and no
    # name but the two temp files of the CSV and its sidecar shows beside
    # the old pair while this process formats its own share
    folder, temp = tmp_path / "data", tmp_path / "temp"
    folder.mkdir()
    temp.mkdir()
    path, files, before = _dataset_files(folder)
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    started, listed = [], []
    start, write_trials = threading.Thread.start, fileio.trialrows.write_trials

    def counted_start(thread):
        started.append(thread)
        start(thread)

    def listing_write_trials(*args):
        listed.append(sorted(os.listdir(folder)))
        write_trials(*args)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    monkeypatch.setattr(fileio.trialrows, "write_trials", listing_write_trials)
    fileio.write_dataset(_pinned_dataset(), str(path))
    assert [file.read_bytes() for file in files] == before
    assert started == []
    (names,) = listed
    temps = [name for name in names if re.fullmatch(r"\.tmp-[0-9a-f]{16}~", name)]
    assert len(temps) == 2 and sorted(set(names) - set(temps)) == ["ds.csv", "ds.meta"]
    assert [proc.returncode for proc in helpers] == [0, 0]
    monkeypatch.setattr(fileio, "_WRITE_HELPER", [sys.executable, "-c", "raise SystemExit(3)"])
    with pytest.raises(OSError, match="exited with status 3"):
        fileio.write_dataset(_pinned_dataset(), str(path))
    assert helpers[-1].returncode == 3
    assert sorted(os.listdir(folder)) == ["ds.csv", "ds.meta"]
    assert os.listdir(temp) == []


def test_writer_failure_kills_a_running_helper(tmp_path, monkeypatch, helpers):
    path, files, before = _dataset_files(tmp_path)
    # a helper that would outlive the test unless it is killed
    monkeypatch.setattr(fileio, "_WRITE_HELPER", [sys.executable, "-c", "import time; time.sleep(60)"])

    def disk_full(*args):
        raise OSError("no space left")

    monkeypatch.setattr(fileio.trialrows, "write_trials", disk_full)
    start = time.monotonic()
    with pytest.raises(OSError, match="no space left"):
        fileio.write_dataset(_pinned_dataset(), str(path))
    assert time.monotonic() - start < 30
    assert [file.read_bytes() for file in files] == before
    assert sorted(os.listdir(tmp_path)) == ["ds.csv", "ds.meta"]
    assert [proc.returncode for proc in helpers] == [0, -signal.SIGKILL]


def test_read_helper_rejection_raises_its_reason(tmp_path, helpers):
    path, lines = _pinned_lines(tmp_path)
    # row 40 is in trial 2, which the helper parses at 2 shares
    for edit, match in [(_cell_changed(0, "1.7", row=40), "must be integers"),
                        (_cell_changed(2, "2", row=40), "inconsistent label")]:
        _write_lines(path, [lines[0]] + edit(lines[1:]))
        with pytest.raises(ValueError, match=match):
            fileio.read_dataset(str(path))
    # the first read's helper rejected its rows; the second's label change
    # shows only beside this process's rows of trial 2
    assert [proc.returncode for proc in helpers[-2:]] == [rowparse.REJECTED, 0]


def test_failed_read_helper_leaves_nothing_behind(tmp_path, monkeypatch, helpers):
    path, _ = _pinned_lines(tmp_path)
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    monkeypatch.setattr(fileio, "_READ_HELPER", [sys.executable, "-c", "raise SystemExit(3)"])
    with pytest.raises(OSError, match=r"reader helper for bytes \d+\.\.\d+ exited with status 3"):
        fileio.read_dataset(str(path))
    assert helpers[-1].returncode == 3
    assert sorted(os.listdir(tmp_path)) == ["ds.csv", "ds.meta", "temp"]
    assert os.listdir(temp) == []


def test_read_failure_kills_a_running_helper(tmp_path, monkeypatch, helpers):
    path, lines = _pinned_lines(tmp_path)
    # row 3 is in this process's share; the helper would sleep a minute
    _write_lines(path, [lines[0]] + _cell_changed(4, "1.7", row=3)(lines[1:]))
    monkeypatch.setattr(fileio, "_READ_HELPER", [sys.executable, "-c", "import time; time.sleep(60)"])
    start = time.monotonic()
    with pytest.raises(ValueError, match="must be integers"):
        fileio.read_dataset(str(path))
    assert time.monotonic() - start < 30
    assert helpers[-1].returncode == -signal.SIGKILL


def test_dataset_reads_from_a_read_only_directory(tmp_path, monkeypatch):
    folder = tmp_path / "read-only"
    folder.mkdir()
    path, _ = _pinned_lines(folder)
    _force_shares(monkeypatch, 2)
    folder.chmod(0o555)
    try:
        back = fileio.read_dataset(str(path))
    finally:
        folder.chmod(0o755)
    _assert_same_dataset(back, _pinned_dataset())
    assert sorted(os.listdir(folder)) == ["ds.csv", "ds.meta"]


def test_sidecar_failure_leaves_the_old_pair(tmp_path):
    # a bool has no cell form; the new CSV must not land beside the old sidecar
    path, files, before = _dataset_files(tmp_path)
    ds = _pinned_dataset()
    ds.cube += 1.0
    ds.params["flag"] = True
    with pytest.raises(TypeError):
        fileio.write_dataset(ds, str(path))
    assert [file.read_bytes() for file in files] == before
    assert sorted(os.listdir(tmp_path)) == ["ds.csv", "ds.meta"]


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


# 10**15 trials would be a cube of ~128 PB, which no allocator can make: a
# reader that trusted the count would raise MemoryError, not ValueError
@pytest.mark.parametrize("key,value", [
    ("n_trials", "1000000000000000"),
    ("n_channels", "2.5"),
    ("n_samples", "abc"),
    ("n_trials", "0"),
    ("n_classes", "3.7"),
    ("seed", "0.9"),
    ("n_classes", "abc"),
])
def test_dataset_sidecar_counts_checked_before_allocation(tmp_path, key, value):
    path, _ = _pinned_lines(tmp_path)
    side = Path(fileio.meta_path(str(path)))
    lines = side.read_text().splitlines()
    edited = [
        f"{key}={value}" if line.startswith(f"{key}=") else line for line in lines
    ]
    assert edited != lines
    _write_lines(side, edited)
    with pytest.raises(ValueError, match="sidecar"):
        fileio.read_dataset(str(path))


@pytest.mark.parametrize("extra,match", [
    ("seed=5", "duplicate key"),
    ("just some words", "key=value"),
])
def test_dataset_sidecar_rejects_duplicate_and_garbage_lines(tmp_path, extra, match):
    path, _ = _pinned_lines(tmp_path)
    side = Path(fileio.meta_path(str(path)))
    _write_lines(side, side.read_text().splitlines() + [extra])
    with pytest.raises(ValueError, match=match):
        fileio.read_dataset(str(path))


def test_dataset_read_memory_is_one_cube_plus_one_trial(tmp_path, monkeypatch):
    # tracemalloc sees numpy's buffers; a reader holding every row at once
    # (48 bytes a row against the cube's 8 per sample) peaks at ~6x the cube,
    # and so would scattering a helper's rows (16 bytes each) all at once
    values = np.random.default_rng(3).normal(size=(64, 2, 100))
    index = np.arange(64)
    path = str(tmp_path / "ds.csv")
    fileio.write_dataset(
        LabeledDataset(values, index % 4 + 1, index % 2 + 1, n_classes=4), path
    )
    for cpus in (1, 2):
        _force_shares(monkeypatch, cpus)
        tracemalloc.start()
        try:
            back = fileio.read_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_array_equal(back.cube, values)
        assert peak < 3 * values.nbytes


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
