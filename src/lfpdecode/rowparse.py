"""Dataset CSV rows parsed and checked a trial's worth at a time, and a
script that parses one share of a dataset CSV in a process of its own.

This module imports only numpy and the standard library, so that
:func:`lfpdecode.fileio.read_dataset` can run it as a script under
``python -I -S`` beside its own process.  Both sides read rows with
:func:`parse_share`, so a row is accepted or rejected alike whichever
process reads it.  As a script::

    python -I -S rowparse.py NUMPY_DIR PATH START END N_TRIALS N_CHANNELS N_SAMPLES

appends NUMPY_DIR, the directory holding the numpy package, to the module
search path, parses the rows in bytes START..END-1 of the dataset CSV at
PATH, and writes to standard output one :data:`RECORD` per row (its flat
index into the N_TRIALS x N_CHANNELS x N_SAMPLES cube and its value),
then the share's label and session bounds (:func:`label_bounds`), all in
native byte order.  Rows that fail a check exit with status
:data:`REJECTED` and the reason on standard error.
"""

import contextlib
import io
import itertools
import os
import sys

if __name__ == "__main__":
    # under -S the search path holds only the standard library
    sys.path.append(sys.argv.pop(1))
    # the script does no linear algebra, and a single-threaded OpenBLAS
    # halves the time numpy takes to import
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

__all__ = [
    "DATASET_HEADER",
    "RECORD",
    "REJECTED",
    "next_row",
    "parse_rows",
    "open_share",
    "label_bounds",
    "parse_share",
]

DATASET_HEADER = "trial_id,session,label,channel,sample_index,value"

# what the script writes per row
RECORD = np.dtype([("index", np.int64), ("value", np.float64)])

# the script's exit status for rows that fail a check (sysexits' EX_DATAERR)
REJECTED = 65


def next_row(lines) -> str | None:
    """The next line np.loadtxt would parse, or None at the end of ``lines``.

    np.loadtxt skips only empty lines ("\\r\\n" too) and lines with "#" in the
    first column.
    """
    return next(
        (line for line in lines if line[:1] != "#" and line not in ("\n", "\r\n")),
        None,
    )


def parse_rows(line: str, lines, header: str, what: str,
               max_rows=None) -> np.ndarray:
    """Parse ``line`` and up to ``max_rows - 1`` further rows from ``lines``.

    Fields are named after the header's columns: every column but the
    last is an int64 key, the last a float64 value.  A row with another
    column count, or a key that is not an integer literal, raises
    ValueError.  Lines after the last row parsed stay unread in ``lines``.
    """
    names = header.split(",")
    dtype = [(name, np.int64) for name in names[:-1]] + [(names[-1], np.float64)]
    try:
        return np.loadtxt(
            itertools.chain([line], lines), delimiter=",", dtype=dtype,
            ndmin=1, max_rows=max_rows,
        )
    except ValueError as exc:
        raise ValueError(
            f"{what} rows must have {len(names)} columns, and "
            f"{', '.join(names[:-1])} must be integers ({exc})"
        ) from None


def _lines_in(raw, n_bytes: int) -> int:
    """How many lines start in the next ``n_bytes`` of a binary handle
    whose position starts a line."""
    if not n_bytes:
        return 0
    # the first line, then one more after each newline but a last byte's
    count, left = 1, n_bytes - 1
    piece = np.empty(min(left, 1 << 16), np.uint8)
    while left:
        got = raw.readinto(piece[:left])
        if not got:
            break
        count += np.count_nonzero(piece[:got] == ord("\n"))
        left -= got
    return count


@contextlib.contextmanager
def open_share(path: str, start: int, end: int):
    """The lines of the file at ``path`` that start in bytes start..end-1,
    as text; ``start`` must start a line.

    Lines end at "\\n" only, so the lines read are exactly those bytes.
    """
    with open(path, "rb") as raw:
        raw.seek(start)
        n_lines = _lines_in(raw, end - start)
        raw.seek(start)
        with io.TextIOWrapper(raw, encoding="utf-8", newline="\n") as text:
            yield itertools.islice(text, n_lines)


def label_bounds(n_trials: int) -> np.ndarray:
    """Per-trial low (``[0]``) and high (``[1]``) of the label and the
    session (``[:, 0]`` and ``[:, 1]``) before any row: a 2 x 2 x n_trials
    int64 array whose low is above its high everywhere."""
    info = np.iinfo(np.int64)
    return np.stack([np.full((2, n_trials), info.max), np.full((2, n_trials), info.min)])


def parse_share(lines, shape: tuple, bounds: np.ndarray):
    """Parse the dataset rows of ``lines``, one trial's worth at a time.

    Yields each chunk's flat indices into a cube of ``shape`` (n_trials,
    n_channels, n_samples) and the values that go there, after checking
    that every trial id, channel and sample index lies inside it.  Folds
    each chunk's labels and sessions into ``bounds`` (see
    :func:`label_bounds`); they differ where a trial's label or session
    changes.  More rows than the cube has cells raise ValueError, so
    memory stays one trial's rows however long ``lines`` is.
    """
    n_trials, n_channels, n_samples = shape
    line = next_row(lines)
    # n_trials chunks of one trial's rows, or fewer if the lines end
    for _ in range(n_trials):
        if line is None:
            return
        rows = parse_rows(line, lines, DATASET_HEADER, "dataset", n_channels * n_samples)
        for name, first, last in (("trial_id", 0, n_trials - 1),
                                  ("channel", 1, n_channels),
                                  ("sample_index", 0, n_samples - 1)):
            if rows[name].min() < first or rows[name].max() > last:
                raise ValueError(
                    f"dataset {name} must lie in {first}..{last}, "
                    "as the sidecar counts"
                )
        tids = rows["trial_id"]
        for i, key in enumerate(("label", "session")):
            np.minimum.at(bounds[0, i], tids, rows[key])
            np.maximum.at(bounds[1, i], tids, rows[key])
        yield ((tids * n_channels + rows["channel"] - 1) * n_samples
               + rows["sample_index"], rows["value"])
        # None after a short chunk, which only the end of the lines makes
        line = next_row(lines)
    if line is not None:
        raise ValueError("dataset file has extra or duplicate rows")


def main(argv) -> None:
    path, start, end, *shape = argv
    shape = tuple(map(int, shape))
    bounds = label_bounds(shape[0])
    out = sys.stdout.buffer
    try:
        with open_share(path, int(start), int(end)) as lines:
            for index, values in parse_share(lines, shape, bounds):
                records = np.empty(index.size, RECORD)
                records["index"] = index
                records["value"] = values
                out.write(records)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        raise SystemExit(REJECTED) from None
    out.write(bounds)
    out.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
