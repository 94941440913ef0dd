"""On-disk formats: long-form dataset CSV with a key=value metadata sidecar,
single-channel signal CSV, generic result tables, and flat config files.

All floats are written with 17 significant digits so values round-trip
exactly, and every write lands atomically (temp file + rename).
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
    with _replacing(path) as handle:
        handle.write(DATASET_HEADER + "\n")
        # one trial at a time keeps memory flat in the number of trials
        for tid, trial in enumerate(dataset.trials):
            head = f"{tid},{trial.session},{trial.label}"
            lines = []
            for ch, row in enumerate(trial.channels, start=1):
                prefix = f"{head},{ch},"
                lines.extend(
                    prefix + f"{s},{fmt_float(v)}" for s, v in enumerate(row)
                )
            handle.write("\n".join(lines) + "\n")

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


def read_dataset(path: str) -> LabeledDataset:
    """Read a dataset CSV written by :func:`write_dataset`.

    The .meta sidecar is required; it restores n_classes, the seed and the
    generator parameters.
    """
    with open(path) as handle:
        header = handle.readline().strip()
    if header != DATASET_HEADER:
        raise ValueError(
            f"unexpected dataset header {header!r}; want {DATASET_HEADER!r}"
        )
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 6:
        raise ValueError("dataset rows must have 6 columns")
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

    keys = data[:, :5].astype(int)
    if np.any(keys != data[:, :5]):
        raise ValueError(
            "trial_id, session, label, channel and sample_index must be integers"
        )
    tids, sessions, labels, channels, samples = keys.T
    values = data[:, 5]
    unique_tids = np.unique(tids)
    n_trials = unique_tids.size
    n_channels = int(channels.max())
    n_samples = int(samples.max()) + 1
    if data.shape[0] != n_trials * n_channels * n_samples:
        raise ValueError("dataset file is incomplete or has duplicate rows")
    tid_index = np.searchsorted(unique_tids, tids)
    cube = np.full((n_trials, n_channels, n_samples), np.nan)
    cube[tid_index, channels - 1, samples] = values
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
    with open(path) as handle:
        header = handle.readline().strip()
    if header != SIGNAL_HEADER:
        raise ValueError(f"unexpected signal header {header!r}; want {SIGNAL_HEADER!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 2:
        raise ValueError("signal rows must have 2 columns")
    order = np.argsort(data[:, 0])
    idx = data[order, 0].astype(int)
    if not np.array_equal(idx, np.arange(idx.size)):
        raise ValueError("sample_index must cover 0..N-1 exactly once")
    return data[order, 1]


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
