"""On-disk formats: long-form dataset CSV with a key=value metadata sidecar,
single-channel signal CSV, generic result tables, and flat config files.

All floats are written with 17 significant digits so values round-trip
exactly, and every write lands atomically (temp file + rename).  Both
dataset directions split their work into one share per CPU this process
may use, and start a helper process for each share past the first only
when a share is large enough to repay the helper's start-up
(:data:`_MIN_WRITE_SHARE` rows, :data:`_MIN_READ_SHARE` bytes).

The writer splits the trials into contiguous shares.  It formats the
first share into its temp file while a helper (:mod:`lfpdecode.trialrows`
run as a script) reads each other share from an anonymous file in the
temp directory and formats it into an anonymous part file in the
target's directory, which takes disk room until the parts are appended
in order; the bytes are the same for any number of shares, and the same
as :func:`fmt_float` on each value.  The CSV and its sidecar are renamed
into place only once both are written.

The reader splits the rows after the header into byte ranges of whole
lines; a line belongs to the share that holds its first byte.  It parses
the first share itself, one trial's rows at a time, into a cube sized
from the sidecar.  A helper (:mod:`lfpdecode.rowparse` run as a script)
parses each other share the same way and holds one trial's rows at a
time; it writes each row's flat cube index and value, 16 bytes a row, to
an anonymous file in the temp directory, which this process scatters
into the cube.  The checks that span shares (row count, missing cells,
one label and session per trial) run once over all of them.  Key columns
(every column of a dataset or signal CSV but the value) must be integer
literals: ``1.0`` is rejected like ``1.7``.
"""

from __future__ import annotations

import contextlib
import os
import secrets
import shutil
import subprocess
import sys
import tempfile

import numpy as np

from . import cpus, rowparse, trialrows
from .rowparse import DATASET_HEADER
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
                folder = os.path.dirname(os.path.abspath(path))
                os.makedirs(folder, exist_ok=True)
                tmp = os.path.join(folder, f".tmp-{secrets.token_hex(8)}~")
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


# the helper processes, run by this Python in isolated mode and without
# site packages: trialrows needs neither numpy nor this package, and
# rowparse is handed the directory of the numpy this process imported
_WRITE_HELPER = [sys.executable, "-I", "-S", trialrows.__file__]
_READ_HELPER = [sys.executable, "-I", "-S", rowparse.__file__,
                os.path.dirname(os.path.dirname(np.__file__))]

# the smallest share a helper is started for: about twice the share at
# which a helper broke even on 2 CPUs, ~64k rows for a trialrows helper
# (~40 ms from its start to its part appended) and ~4 MB of rows for a
# rowparse helper (numpy's import takes ~0.1 s of it)
_MIN_WRITE_SHARE = 1 << 17  # rows
_MIN_READ_SHARE = 8 << 20  # bytes


def _share_count(size: int, minimum: int) -> int:
    """Shares to split ``size`` units of work into: one per CPU this process
    may use, but none smaller than ``minimum`` units, and at least one."""
    return max(1, min(cpus.usable_cpus(), size // minimum))


@contextlib.contextmanager
def _helper(name: str, argv: list, out, arrays=()):
    """Run ``argv`` as a helper process whose standard output is ``out``.

    Its standard input is an anonymous file in the temp directory that
    holds the bytes of ``arrays`` (C-contiguous), written before it starts.
    Yields a function that waits for the helper and raises if it failed:
    ValueError with its reason if it rejected its input (exit status
    ``rowparse.REJECTED``), else OSError naming it, its exit status and its
    last line of standard error.  On exit a helper still running is killed
    and waited for.
    """
    with tempfile.TemporaryFile() as source:
        for array in arrays:
            source.write(array)
        source.seek(0)
        proc = subprocess.Popen(argv, stdin=source, stdout=out, stderr=subprocess.PIPE)

    def wait() -> None:
        _, err = proc.communicate()
        if proc.returncode:
            lines = err.decode(errors="replace").strip().splitlines()
            last = lines[-1] if lines else ""
            if proc.returncode == rowparse.REJECTED:
                raise ValueError(last)
            raise OSError(
                f"{name} exited with status {proc.returncode}"
                + (f": {last}" if last else "")
            )

    try:
        yield wait
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()


@contextlib.contextmanager
def _write_helper(dataset: LabeledDataset, lo: int, hi: int, path: str):
    """Start a helper that writes the rows of trials lo..hi-1 into a part:
    an anonymous file in the directory of ``path``.

    Yields a function that waits for the helper and appends its part to a
    binary handle.  The part has no name, so nothing of it is left behind.
    """
    argv = [*_WRITE_HELPER, str(lo), str(hi - lo), str(dataset.n_channels),
            str(dataset.n_samples)]
    # sessions, labels, then the share's values, which a contiguous cube
    # hands over as a view
    arrays = [
        np.ascontiguousarray(dataset.session_ids[lo:hi], dtype=np.int64),
        np.ascontiguousarray(dataset.labels[lo:hi], dtype=np.int64),
        np.ascontiguousarray(dataset.cube[lo:hi], dtype=np.float64),
    ]
    name = f"dataset writer helper for trials {lo}..{hi - 1}"
    folder = os.path.dirname(os.path.abspath(path))
    with tempfile.TemporaryFile(dir=folder) as part, \
            _helper(name, argv, part, arrays) as wait:

        def append_to(out) -> None:
            wait()
            part.seek(0)
            shutil.copyfileobj(part, out, 1 << 20)

        yield append_to


def write_dataset(dataset: LabeledDataset, path: str) -> None:
    """Write a dataset as one CSV row per sample plus a .meta sidecar.

    Columns are trial_id (0-based), session, label, channel (1-based) and
    sample_index (0-based) with the sample value last.  The trials are
    split into k contiguous shares: one per CPU this process may use, but
    at most one per :data:`_MIN_WRITE_SHARE` rows and at most n_trials.
    This process formats the first share; each other share is formatted by
    a helper process into an anonymous part file in the directory of
    ``path``, so until the parts are appended the disk holds the helpers'
    shares twice.  The bytes are the same for every k.  Neither file is
    replaced until both are written; a helper that fails raises OSError,
    and the temp files are removed.
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
    k = min(_share_count(dataset.cube.size, _MIN_WRITE_SHARE), n)
    bounds = [n * i // k for i in range(k + 1)]
    with _replacing(path, meta_path(path)) as (handle, side), \
            contextlib.ExitStack() as helpers:
        side.write(sidecar)
        # helpers first, so they format their shares while this process
        # formats the first one, a trial at a time
        appends = [
            helpers.enter_context(_write_helper(dataset, lo, hi, path))
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
    line = rowparse.next_row(handle)
    if line is None:
        raise ValueError(f"{what} file has no rows")
    return line


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


def _read_shares(path: str) -> list:
    """Split the rows after the header of a CSV into byte ranges of whole lines.

    There is one range per CPU this process may use, but at most one per
    :data:`_MIN_READ_SHARE` bytes; a line belongs to the range that holds
    its first byte, so a range is empty where one line spans it.  Returns
    the (start, end) ranges in order.
    """
    with open(path, "rb") as raw:
        if b"\r" in raw.readline().rstrip(b"\r\n"):
            raise ValueError(
                'dataset lines must end in "\\n" or "\\r\\n", not a lone "\\r"'
            )
        starts = [raw.tell()]
        size = raw.seek(0, os.SEEK_END)
        k = _share_count(size - starts[0], _MIN_READ_SHARE)
        for i in range(1, k):
            # the first line that starts at or after an even split
            raw.seek(starts[0] + (size - starts[0]) * i // k - 1)
            raw.readline()
            starts.append(raw.tell())
    return list(zip(starts, starts[1:] + [size]))


@contextlib.contextmanager
def _read_helper(path: str, start: int, end: int, shape: tuple):
    """Start a helper that parses the rows in bytes start..end-1 of the
    dataset CSV at ``path`` into an anonymous temp file.

    Yields a function that waits for the helper, scatters its rows into a
    cube of ``shape``, folds its label bounds into ``bounds`` and returns
    its row count.  The temp file is read a trial's rows at a time.
    """
    argv = [*_READ_HELPER, path, str(start), str(end), *map(str, shape)]
    name = f"dataset reader helper for bytes {start}..{end - 1}"
    with tempfile.TemporaryFile() as out, _helper(name, argv, out) as wait:

        def scatter_into(cube: np.ndarray, bounds: np.ndarray) -> int:
            wait()
            size = out.seek(-bounds.nbytes, os.SEEK_END)
            theirs = np.frombuffer(out.read(), np.int64).reshape(bounds.shape)
            np.minimum(bounds[0], theirs[0], out=bounds[0])
            np.maximum(bounds[1], theirs[1], out=bounds[1])
            out.seek(0)
            flat = cube.reshape(-1)
            piece = shape[1] * shape[2] * rowparse.RECORD.itemsize
            for offset in range(0, size, piece):
                records = np.frombuffer(
                    out.read(min(piece, size - offset)), rowparse.RECORD
                )
                flat[records["index"]] = records["value"]
            return size // rowparse.RECORD.itemsize

        yield scatter_into


def read_dataset(path: str) -> LabeledDataset:
    """Read a dataset CSV written by :func:`write_dataset`.

    The .meta sidecar is required and is read before any row is parsed:
    its trial, channel and sample counts size the cube, and it restores
    n_classes, the seed and the generator parameters.  Rows may come in
    any order, but trial ids must lie in 0..n_trials-1, channels in
    1..n_channels and sample indices in 0..n_samples-1, with each (trial,
    channel, sample) given exactly once and one label and session per
    trial.  The rows are split into byte ranges (:func:`_read_shares`).
    This process parses the first one a trial's rows at a time, so its
    memory is the cube plus one trial's rows; a helper process parses each
    other one into a temp file of 16 bytes a row, which this process
    scatters a trial's rows at a time.  The returned dataset holds the
    cube itself.  A rejected row raises ValueError, a failed helper
    OSError; either way no helper is left running.
    """
    with open(path) as handle:
        _first_row(handle, DATASET_HEADER, "dataset")
    meta = _read_sidecar(path)
    shape = tuple(meta.pop(key) for key in _COUNTS)
    cube = np.full(shape, np.nan)
    bounds = rowparse.label_bounds(shape[0])
    (first, *others) = _read_shares(path)
    with contextlib.ExitStack() as helpers:
        # helpers first, so they parse their shares while this process
        # parses the first one
        scatters = [
            helpers.enter_context(_read_helper(path, start, end, shape))
            for start, end in others
        ]
        n_rows = 0
        flat = cube.reshape(-1)
        with rowparse.open_share(path, *first) as lines:
            for index, values in rowparse.parse_share(lines, shape, bounds):
                flat[index] = values
                n_rows += index.size
        for scatter_into in scatters:
            n_rows += scatter_into(cube, bounds)
    if n_rows > cube.size:
        raise ValueError("dataset file has extra or duplicate rows")
    # fewer rows than the cube's cells leave some NaN, and so does a duplicate
    if np.isnan(cube).any():
        raise ValueError("dataset file is incomplete or has missing samples")
    low, high = bounds
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
        rows = rowparse.parse_rows(line, handle, SIGNAL_HEADER, "signal")
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
