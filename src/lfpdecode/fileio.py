"""On-disk formats: long-form dataset CSV with a key=value metadata sidecar,
single-channel signal CSV, generic result tables, and flat config files.

All floats are written with 17 significant digits so values round-trip
exactly, and every write lands atomically (temp file + rename).  The
dataset writer formats each trial's rows in one ``%`` call, with the same
bytes as :func:`fmt_float` on each value.  Key columns (every column of a
dataset or signal CSV but the value) must be integer literals: ``1.0`` is
rejected like ``1.7``.
"""

from __future__ import annotations

import contextlib
import os
import secrets

import numpy as np

from .synth import LabeledDataset, Trial

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


@contextlib.contextmanager
def _replacing(path: str):
    """Text handle on a temp file that is renamed onto ``path`` once closed.

    The temp file is created with mode 0666 less the process umask, as a
    plain ``open`` would; on any error it is removed and ``path`` is left
    untouched.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write text to ``path`` via a temp file and rename, never in place."""
    with _replacing(path) as handle:
        handle.write(text)


def meta_path(path: str) -> str:
    """Sidecar path: same basename with a .meta suffix."""
    return os.path.splitext(path)[0] + ".meta"


def write_dataset(dataset: LabeledDataset, path: str) -> None:
    """Write a dataset as one CSV row per sample plus a .meta sidecar.

    Columns are trial_id (0-based), session, label, channel (1-based) and
    sample_index (0-based) with the sample value last.
    """
    # "ch,s,%.17g" for every sample of a trial, in channel-major order; a
    # trial's rows are these with its key prefix, formatted in one % call
    # (%.17g is the conversion fmt_float makes)
    keys = [
        f"{ch},{s},%.17g\n"
        for ch in range(1, dataset.n_channels + 1)
        for s in range(dataset.n_samples)
    ]
    with _replacing(path) as handle:
        handle.write(DATASET_HEADER + "\n")
        # one trial at a time keeps memory flat in the number of trials
        for tid, trial in enumerate(dataset.trials):
            head = f"{tid},{trial.session},{trial.label},"
            template = head + head.join(keys)
            handle.write(template % tuple(trial.channels.ravel().tolist()))

    meta = {
        "n_trials": dataset.n_trials,
        "n_channels": dataset.n_channels,
        "n_samples": dataset.n_samples,
        "n_classes": dataset.n_classes,
        "seed": dataset.seed,
    }
    meta.update(dataset.params)
    meta_lines = [f"{key}={_cell(value)}" for key, value in meta.items()]
    atomic_write_text(meta_path(path), "\n".join(meta_lines) + "\n")


def _parse_scalar(raw: str):
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _read_rows(path: str, header: str, what: str) -> np.ndarray:
    """Parse a CSV with the given header into int64 key fields and a value.

    Fields are named after the header's columns: every column but the
    last is an int64 key, the last a float64 value.  A file with no row
    after the header, a row with another column count, or a key that is
    not an integer literal raises ValueError.
    """
    with open(path) as handle:
        found = handle.readline().strip()
        # the lines np.loadtxt skips: blank, or empty up to a "#" comment
        empty = not any(line.split("#", 1)[0].strip() for line in handle)
    if found != header:
        raise ValueError(f"unexpected {what} header {found!r}; want {header!r}")
    if empty:
        raise ValueError(f"{what} file has no rows")
    names = header.split(",")
    dtype = [(name, np.int64) for name in names[:-1]] + [(names[-1], np.float64)]
    try:
        return np.loadtxt(path, delimiter=",", skiprows=1, dtype=dtype, ndmin=1)
    except ValueError as exc:
        raise ValueError(
            f"{what} rows must have {len(names)} columns, and "
            f"{', '.join(names[:-1])} must be integers ({exc})"
        ) from None


def read_dataset(path: str) -> LabeledDataset:
    """Read a dataset CSV written by :func:`write_dataset`.

    The .meta sidecar is required; it restores n_classes, the seed and the
    generator parameters, and its trial, channel and sample counts must
    match the rows.  Channels must lie in 1..n_channels and sample indices
    in 0..n_samples-1.
    """
    rows = _read_rows(path, DATASET_HEADER, "dataset")
    side = meta_path(path)
    if not os.path.exists(side):
        raise ValueError(f"missing metadata sidecar {side}")
    meta: dict = {}
    with open(side) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            meta[key.strip()] = _parse_scalar(value.strip())

    sessions, labels = rows["session"], rows["label"]
    channels, samples = rows["channel"], rows["sample_index"]
    if channels.min() < 1 or samples.min() < 0:
        raise ValueError("channels count from 1 and sample indices from 0")
    unique_tids, tid_index = np.unique(rows["trial_id"], return_inverse=True)
    n_trials = unique_tids.size
    n_channels = int(channels.max())
    n_samples = int(samples.max()) + 1
    counts = {"n_trials": n_trials, "n_channels": n_channels, "n_samples": n_samples}
    differ = {k: meta.get(k) for k, v in counts.items() if meta.get(k) != v}
    if differ:
        raise ValueError(f"dataset rows give {counts}; its sidecar says {differ}")
    if rows.size != n_trials * n_channels * n_samples:
        raise ValueError("dataset file is incomplete or has duplicate rows")
    cube = np.full((n_trials, n_channels, n_samples), np.nan)
    cube[tid_index, channels - 1, samples] = rows["value"]
    if np.isnan(cube).any():
        raise ValueError("dataset file has missing samples")
    trial_labels = np.zeros(n_trials, dtype=int)
    trial_sessions = np.zeros(n_trials, dtype=int)
    trial_labels[tid_index] = labels
    trial_sessions[tid_index] = sessions
    if not (np.all(trial_labels[tid_index] == labels)
            and np.all(trial_sessions[tid_index] == sessions)):
        raise ValueError("inconsistent label or session within a trial")

    easy = {"n_trials", "n_channels", "n_samples", "n_classes", "seed"}
    params = {k: v for k, v in meta.items() if k not in easy}
    trials = [
        Trial(channels=cube[i], label=int(trial_labels[i]), session=int(trial_sessions[i]))
        for i in range(n_trials)
    ]
    return LabeledDataset(
        trials=trials,
        n_classes=int(meta.get("n_classes", trial_labels.max())),
        seed=int(meta.get("seed", 0)),
        params=params,
    )


def write_signal(samples, path: str) -> None:
    """Write one channel as sample_index,value rows."""
    samples = np.asarray(samples, dtype=float)
    lines = [SIGNAL_HEADER]
    lines.extend(f"{i},{fmt_float(v)}" for i, v in enumerate(samples))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_signal(path: str) -> np.ndarray:
    """Read a signal CSV back into a sample vector ordered by index."""
    rows = _read_rows(path, SIGNAL_HEADER, "signal")
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
