"""On-disk formats: long-form dataset CSV with a key=value metadata sidecar,
single-channel signal CSV, generic result tables, and flat config files.

All floats are written with 17 significant digits so values round-trip
exactly, and every write lands atomically (temp file + rename).  The
dataset writer splits the trials into one contiguous share per CPU this
process may use (at most one share per trial).  It formats the first
share into its temp file while a helper process (:mod:`lfpdecode.trialrows`
run as a script) formats each other share into a part file next to the
target, which takes disk room until the parts are appended in order; the
bytes are the same for any number of shares, and the same as
:func:`fmt_float` on each value.  The CSV and its sidecar are renamed
into place only once both are written.  The reader parses one trial's
rows at a time into a cube sized from the sidecar and returns the dataset
holding that cube.  Key columns (every column of a dataset or signal CSV
but the value) must be integer literals: ``1.0`` is rejected like ``1.7``.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import secrets
import shutil
import subprocess
import sys
import threading

import numpy as np

from . import trialrows
from .synth import LabeledDataset

__all__ = [
    "fmt_float",
    "atomic_write_text",
    "meta_path",
    "write_dataset",
    "read_dataset",
    "write_signal",
    "read_signal",
    "write_table",
    "read_config",
]

DATASET_HEADER = "trial_id,session,label,channel,sample_index,value"
SIGNAL_HEADER = "sample_index,value"


def fmt_float(x) -> str:
    """17-significant-digit decimal form; round-trips float64 exactly."""
    return format(float(x), ".17g")


def _cell(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        raise TypeError("booleans have no CSV cell form")
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return fmt_float(x)
    return str(x)


def _temp_path(path: str) -> str:
    """A fresh hidden name in the directory of ``path``."""
    return os.path.join(
        os.path.dirname(os.path.abspath(path)), f".tmp-{secrets.token_hex(8)}~"
    )


@contextlib.contextmanager
def _replacing(*paths: str):
    """Text handles on temp files, each renamed onto its path once all are closed.

    The temp files are created with mode 0666 less the process umask, as a
    plain ``open`` would; on any error they are removed and no path is
    touched.
    """
    temps = []
    try:
        with contextlib.ExitStack() as stack:
            handles = []
            for path in paths:
                os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
                tmp = _temp_path(path)
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                temps.append(tmp)
                handles.append(stack.enter_context(os.fdopen(fd, "w")))
            yield handles
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write text to ``path`` via a temp file and rename, never in place."""
    with _replacing(path) as (handle,):
        handle.write(text)


def meta_path(path: str) -> str:
    """Sidecar path: same basename with a .meta suffix."""
    return os.path.splitext(path)[0] + ".meta"


# the process that writes a share of a dataset's trials: trialrows run as a
# script, isolated and without site packages, since it needs neither numpy
# nor this package
_HELPER = [sys.executable, "-I", "-S", trialrows.__file__]


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _feed(fd: int, arrays) -> None:
    """Write the bytes of C-contiguous arrays to ``fd``, then close it.

    A helper that stops reading makes the write fail; its exit status
    reports that, so the error is dropped here.
    """
    try:
        with open(fd, "wb") as pipe:
            for array in arrays:
                pipe.write(array)
    except OSError:
        pass


@contextlib.contextmanager
def _share_helper(dataset: LabeledDataset, lo: int, hi: int, path: str):
    """Start a helper process that writes the rows of trials lo..hi-1 into a
    part file next to ``path``.

    Yields a function that waits for the helper and appends its part to a
    binary handle, raising OSError if the helper failed.  On exit a helper
    still running is killed and waited for, and the part file is removed.
    """
    name = f"dataset writer helper for trials {lo}..{hi - 1}"
    argv = [*_HELPER, str(lo), str(hi - lo), str(dataset.n_channels),
            str(dataset.n_samples)]
    # sessions, labels, then the share's values, which a contiguous cube
    # hands over as a view
    arrays = [
        np.ascontiguousarray(dataset.session_ids[lo:hi], dtype=np.int64),
        np.ascontiguousarray(dataset.labels[lo:hi], dtype=np.int64),
        np.ascontiguousarray(dataset.cube[lo:hi], dtype=np.float64),
    ]
    part_path = _temp_path(path)
    part = open(part_path, "x+b")
    try:
        with part:
            read, write = os.pipe()
            try:
                proc = subprocess.Popen(
                    argv, stdin=read, stdout=part, stderr=subprocess.PIPE
                )
            except BaseException:
                os.close(write)
                raise
            finally:
                os.close(read)
            # a thread feeds the helper while this process formats its share
            feeder = threading.Thread(target=_feed, args=(write, arrays))

            def append_to(out) -> None:
                _, err = proc.communicate()
                if proc.returncode:
                    lines = err.decode(errors="replace").strip().splitlines()
                    raise OSError(
                        f"{name} exited with status {proc.returncode}"
                        + (f": {lines[-1]}" if lines else "")
                    )
                part.seek(0)
                shutil.copyfileobj(part, out, 1 << 20)

            try:
                feeder.start()
                yield append_to
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
                proc.stderr.close()
                feeder.join()
    finally:
        os.unlink(part_path)


def write_dataset(dataset: LabeledDataset, path: str) -> None:
    """Write a dataset as one CSV row per sample plus a .meta sidecar.

    Columns are trial_id (0-based), session, label, channel (1-based) and
    sample_index (0-based) with the sample value last.  The trials are
    split into k contiguous shares, k the number of CPUs this process may
    use but at most n_trials.  This process formats the first share; each
    other share is formatted by a helper process into a part file next to
    ``path``, so until the parts are appended the disk holds the helpers'
    shares twice.  The bytes are the same for every k.  Neither file is
    replaced until both are written; a helper that fails raises OSError,
    and no part or temp file is left behind.
    """
    meta = {
        "n_trials": dataset.n_trials,
        "n_channels": dataset.n_channels,
        "n_samples": dataset.n_samples,
        "n_classes": dataset.n_classes,
        "seed": dataset.seed,
    }
    meta.update(dataset.params)
    # built before any file is opened, so a value with no cell form
    # leaves both files as they were
    sidecar = "".join(f"{key}={_cell(value)}\n" for key, value in meta.items())
    n = dataset.n_trials
    k = min(_usable_cpus(), n)
    bounds = [n * i // k for i in range(k + 1)]
    with _replacing(path, meta_path(path)) as (handle, side), \
            contextlib.ExitStack() as helpers:
        side.write(sidecar)
        # helpers first, so they format their shares while this process
        # formats the first one, a trial at a time
        appends = [
            helpers.enter_context(_share_helper(dataset, lo, hi, path))
            for lo, hi in zip(bounds[1:-1], bounds[2:])
        ]
        share = slice(0, bounds[1])
        handle.write(DATASET_HEADER + "\n")
        trialrows.write_trials(
            handle, dataset.n_channels, dataset.n_samples, 0,
            dataset.session_ids[share].tolist(), dataset.labels[share].tolist(),
            (trial.ravel().tolist() for trial in dataset.cube[share]),
        )
        handle.flush()
        for append_to in appends:
            append_to(handle.buffer)


def _parse_scalar(raw: str):
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _first_row(handle, header: str, what: str) -> str:
    """Check the header line of an open CSV and return its first row line.

    A wrong header, or no row after it, raises ValueError.
    """
    found = handle.readline().strip()
    if found != header:
        raise ValueError(f"unexpected {what} header {found!r}; want {header!r}")
    line = _next_row(handle)
    if line is None:
        raise ValueError(f"{what} file has no rows")
    return line


def _next_row(handle) -> str | None:
    """The next line np.loadtxt would parse, or None at the end of the file.

    np.loadtxt skips only empty lines and lines with "#" in the first column.
    """
    return next((line for line in handle if line[:1] not in "#\n"), None)


def _parse_rows(line: str, handle, header: str, what: str,
                max_rows=None) -> np.ndarray:
    """Parse ``line`` and up to ``max_rows - 1`` further rows from ``handle``.

    Fields are named after the header's columns: every column but the
    last is an int64 key, the last a float64 value.  A row with another
    column count, or a key that is not an integer literal, raises
    ValueError.  Lines after the last row parsed stay unread in ``handle``.
    """
    names = header.split(",")
    dtype = [(name, np.int64) for name in names[:-1]] + [(names[-1], np.float64)]
    try:
        return np.loadtxt(
            itertools.chain([line], handle), delimiter=",", dtype=dtype,
            ndmin=1, max_rows=max_rows,
        )
    except ValueError as exc:
        raise ValueError(
            f"{what} rows must have {len(names)} columns, and "
            f"{', '.join(names[:-1])} must be integers ({exc})"
        ) from None


# the shortest dataset row, "0,1,1,1,0,0\n", in bytes
_MIN_ROW_BYTES = 12
_COUNTS = ("n_trials", "n_channels", "n_samples")


def _read_sidecar(path: str) -> dict:
    """Parse a dataset's .meta sidecar and check its counts against the CSV.

    n_trials, n_channels and n_samples must be positive integers that the
    CSV's size can hold, at the shortest row each, so a wrong count fails
    here rather than in a huge allocation.  n_classes and seed, when
    present, must be integers.
    """
    side = meta_path(path)
    if not os.path.exists(side):
        raise ValueError(f"missing metadata sidecar {side}")
    meta = {key: _parse_scalar(value) for key, value in read_config(side).items()}
    for key in _COUNTS:
        value = meta.get(key)
        if type(value) is not int or value < 1:
            raise ValueError(
                f"sidecar {side}: {key} must be a positive integer, got {value!r}"
            )
    for key in ("n_classes", "seed"):
        if key in meta and type(meta[key]) is not int:
            raise ValueError(
                f"sidecar {side}: {key} must be an integer, got {meta[key]!r}"
            )
    n_rows = meta["n_trials"] * meta["n_channels"] * meta["n_samples"]
    if n_rows * _MIN_ROW_BYTES > os.path.getsize(path):
        raise ValueError(
            f"sidecar {side} counts {n_rows} rows, more than {path} can hold"
        )
    return meta


def read_dataset(path: str) -> LabeledDataset:
    """Read a dataset CSV written by :func:`write_dataset`.

    The .meta sidecar is required and is read before any row is parsed:
    its trial, channel and sample counts size the cube, and it restores
    n_classes, the seed and the generator parameters.  Rows may come in any order, but
    trial ids must lie in 0..n_trials-1, channels in 1..n_channels and
    sample indices in 0..n_samples-1, with each (trial, channel, sample)
    given exactly once and one label and session per trial.  Rows are
    parsed one trial's worth at a time, so memory is the cube plus one
    trial's rows; the returned dataset holds that cube itself.
    """
    with open(path) as handle:
        line = _first_row(handle, DATASET_HEADER, "dataset")
        meta = _read_sidecar(path)
        n_trials, n_channels, n_samples = (meta.pop(key) for key in _COUNTS)
        per_trial = n_channels * n_samples
        cube = np.full((n_trials, n_channels, n_samples), np.nan)
        # per-trial low and high of the label and session over every row;
        # they differ where a trial's label or session changes
        low = np.full((2, n_trials), np.iinfo(np.int64).max)
        high = np.full((2, n_trials), np.iinfo(np.int64).min)
        # n_trials chunks of one trial's rows, or fewer if the file ends
        for _ in range(n_trials):
            if line is None:
                break
            rows = _parse_rows(line, handle, DATASET_HEADER, "dataset", per_trial)
            for name, first, last in (("trial_id", 0, n_trials - 1),
                                      ("channel", 1, n_channels),
                                      ("sample_index", 0, n_samples - 1)):
                if rows[name].min() < first or rows[name].max() > last:
                    raise ValueError(
                        f"dataset {name} must lie in {first}..{last}, "
                        "as the sidecar counts"
                    )
            tids = rows["trial_id"]
            cube[tids, rows["channel"] - 1, rows["sample_index"]] = rows["value"]
            for i, key in enumerate(("label", "session")):
                np.minimum.at(low[i], tids, rows[key])
                np.maximum.at(high[i], tids, rows[key])
            # None after a short chunk, which only the end of the file makes
            line = _next_row(handle)
    if line is not None:
        raise ValueError("dataset file has extra or duplicate rows")
    # fewer rows than the cube's cells leave some NaN, and so does a duplicate
    if np.isnan(cube).any():
        raise ValueError("dataset file is incomplete or has missing samples")
    if not np.array_equal(low, high):
        raise ValueError("inconsistent label or session within a trial")

    labels, sessions = low
    return LabeledDataset(
        cube=cube,
        labels=labels,
        session_ids=sessions,
        n_classes=int(meta.pop("n_classes", labels.max())),
        seed=int(meta.pop("seed", 0)),
        params=meta,
    )


def write_signal(samples, path: str) -> None:
    """Write one channel as sample_index,value rows."""
    samples = np.asarray(samples, dtype=float)
    write_table(path, SIGNAL_HEADER.split(","), enumerate(samples))


def read_signal(path: str) -> np.ndarray:
    """Read a signal CSV back into a sample vector ordered by index."""
    with open(path) as handle:
        line = _first_row(handle, SIGNAL_HEADER, "signal")
        rows = _parse_rows(line, handle, SIGNAL_HEADER, "signal")
    rows = rows[np.argsort(rows["sample_index"])]
    if not np.array_equal(rows["sample_index"], np.arange(rows.size)):
        raise ValueError("sample_index must cover 0..N-1 exactly once")
    return np.ascontiguousarray(rows["value"])


def write_table(path: str, header, rows) -> None:
    """Write a generic CSV table with deterministic float formatting."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(x) for x in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_config(path: str) -> dict[str, str]:
    """Parse a flat key=value config file.

    Blank lines and lines starting with # are skipped.  Keys keep their
    dotted section prefixes; values stay raw strings for the caller to
    interpret.  Duplicate keys are rejected.
    """
    out: dict[str, str] = {}
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if not key:
                raise ValueError(f"{path}:{lineno}: empty key")
            if key in out:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value.strip()
    return out
