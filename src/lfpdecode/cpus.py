"""The CPUs this process may use, and BLAS held at one thread.

:func:`usable_cpus` is the one CPU count of the package: the dataset CSV
writer and reader split their work into one share per usable CPU, and
the cross-validation folds run on one thread per usable CPU, with BLAS
held at one thread (:func:`one_blas_thread`).  numpy exposes no BLAS
thread-count setter, so it is looked up by name in the libraries numpy's
linear-algebra module links.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
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


@functools.cache
def _linalg_library():
    """numpy's linear algebra extension, or None if it cannot be opened;
    its symbols include those of the BLAS it links, bundled or not."""
    try:
        linalg = importlib.import_module("numpy.linalg._umath_linalg")
        return ctypes.CDLL(linalg.__file__)
    except (ImportError, OSError, AttributeError):
        return None


def _find_blas_calls() -> list:
    """The BLAS thread-count setter and getter, or [] if none resolves."""
    for setter, getter in _BLAS_THREAD_CALLS:
        set_threads, get_threads = (getattr(_linalg_library(), name, None)
                                    for name in (setter, getter))
        if set_threads is not None and get_threads is not None:
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
