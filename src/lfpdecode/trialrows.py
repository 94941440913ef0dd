"""Dataset CSV rows of a run of consecutive trials, and a script that
writes one share of a dataset's trials in a process of its own.

This module imports only the standard library, so that
:func:`lfpdecode.fileio.write_dataset` can run it as a script under
``python -I -S`` (no site packages, so no numpy) beside its own process.
Both sides format rows with :func:`write_trials`, so a trial's bytes do
not depend on the process that wrote them.  As a script::

    python -I -S trialrows.py FIRST N_TRIALS N_CHANNELS N_SAMPLES

reads from standard input the N_TRIALS sessions, then the N_TRIALS labels,
as native int64, then each trial's N_CHANNELS * N_SAMPLES values as native
float64 in channel-major order, one trial at a time, and writes the rows
of those trials, numbered from FIRST, to standard output.  Input that ends
early is an error (exit status 1).
"""

import sys
from array import array


def write_trials(handle, n_channels, n_samples, first, sessions, labels, trials):
    """Write the CSV rows of consecutive trials numbered from ``first``.

    ``sessions`` and ``labels`` hold one int per trial, and ``trials``
    yields each trial's n_channels * n_samples values in channel-major
    order.  A trial's rows are formatted in one ``%`` call; ``%.17g`` is the
    conversion ``fileio.fmt_float`` makes, so the bytes are the same as
    formatting each value on its own.
    """
    # "ch,s,%.17g" for every sample of a trial, in channel-major order; a
    # trial's rows are these with its key prefix
    keys = [
        f"{ch},{s},%.17g\n"
        for ch in range(1, n_channels + 1)
        for s in range(n_samples)
    ]
    rows = zip(sessions, labels, trials)
    for tid, (session, label, values) in enumerate(rows, start=first):
        head = f"{tid},{session},{label},"
        handle.write((head + head.join(keys)) % tuple(values))


def _read_trials(source, n_trials, width):
    for _ in range(n_trials):
        values = array("d")
        values.fromfile(source, width)
        yield values


def main(argv) -> None:
    first, n_trials, n_channels, n_samples = map(int, argv)
    source = sys.stdin.buffer
    sessions, labels = array("q"), array("q")
    sessions.fromfile(source, n_trials)
    labels.fromfile(source, n_trials)
    trials = _read_trials(source, n_trials, n_channels * n_samples)
    write_trials(sys.stdout, n_channels, n_samples, first, sessions, labels, trials)
    sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
