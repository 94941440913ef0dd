"""The CPUs this process may use, and BLAS held at one thread.

:func:`usable_cpus` is the one CPU count of the package: the dataset CSV
writer and reader split their work into one share per usable CPU, and
the cross-validation folds solve their eigen-problems on one thread per
usable CPU.  Threads that each call BLAS on top of a multi-threaded BLAS
oversubscribe the CPUs, so :func:`one_blas_thread` holds BLAS at one
thread while they run.  numpy exposes no control of its BLAS threads, so
the setter and getter are looked up by name in the libraries numpy's
linear-algebra module links; where none resolves, the hold leaves BLAS
as it is and says so.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib
import os

__all__ = ["usable_cpus", "one_blas_thread"]

# (setter, getter) of the thread count: OpenBLAS as numpy 2 bundles it,
# with or without the 64-bit-integer suffix, then as older numpy wheels
# and system builds export it
_BLAS_THREAD_CALLS = [
    (f"{prefix}_set_num_threads{suffix}", f"{prefix}_get_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
]


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _find_blas_calls() -> list:
    """The BLAS thread-count setter and getter, or [] if none resolves.

    A symbol looked up in numpy's linear algebra extension resolves in the
    libraries it links as well, so a bundled and a system BLAS are found
    alike.
    """
    try:
        linalg = importlib.import_module("numpy.linalg._umath_linalg")
        library = ctypes.CDLL(linalg.__file__)
    except (ImportError, OSError, AttributeError):
        return []
    for setter, getter in _BLAS_THREAD_CALLS:
        try:
            set_threads, get_threads = getattr(library, setter), getattr(library, getter)
        except AttributeError:
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return [set_threads, get_threads]
    return []


@contextlib.contextmanager
def one_blas_thread(wanted: bool = True):
    """Hold BLAS at one thread inside the block, if ``wanted`` and possible.

    Yields BLAS's thread count before the block when it is held, None
    when it was not wanted or no setter resolves; that count comes back on
    leaving the block, also when the block raises.  The count is
    process-wide, so threads that call BLAS meanwhile see it too.
    """
    calls = _find_blas_calls() if wanted else []
    if not calls:
        yield None
        return
    set_threads, get_threads = calls
    old = get_threads()
    set_threads(1)
    try:
        yield old
    finally:
        set_threads(old)
