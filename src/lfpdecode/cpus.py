"""The CPUs this process may use, BLAS held at one thread, and LAPACK's
symmetric eigen-solver run in place.

:func:`usable_cpus` is the one CPU count of the package: the dataset CSV
writer and reader split their work into one share per usable CPU, and
the cross-validation folds run on one thread per usable CPU, with BLAS
held at one thread (:func:`one_blas_thread`) and each eigen-solve in its
matrix's own buffer (:func:`eigh_in_place`).  numpy
exposes neither, so both are looked up by name in the libraries numpy's
linear-algebra module links.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import os

import numpy as np

__all__ = ["usable_cpus", "one_blas_thread", "eigh_in_place"]

# (setter, getter) of the thread count: OpenBLAS as numpy 2 bundles it,
# with or without the 64-bit-integer suffix, then as older numpy wheels
# and system builds export it
_BLAS_THREAD_CALLS = [
    (f"{prefix}_set_num_threads{suffix}", f"{prefix}_get_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
]

# the symmetric eigen-solver numpy's eigh calls, as numpy 2's, older
# wheels' and system builds export it; "64_" means 64-bit integers
_EIGEN_SOLVERS = ["scipy_dsyevd_64_", "dsyevd_64_", "dsyevd_"]


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


def eigh_in_place():
    """LAPACK's ``dsyevd`` as a function of one matrix (see :func:`_dsyevd`),
    or None where no name in ``_EIGEN_SOLVERS`` resolves."""
    for name in _EIGEN_SOLVERS:
        if (routine := getattr(_linalg_library(), name, None)) is not None:
            routine.restype = None
            integer = ctypes.c_int64 if name.endswith("64_") else ctypes.c_int
            return functools.partial(_dsyevd, routine, integer)
    return None


def _dsyevd(routine, integer, a: np.ndarray) -> np.ndarray:
    """The eigenvalues, ascending, of the lower triangle of the writable,
    Fortran-ordered float64 matrix ``a``, which becomes its eigenvectors.

    numpy's eigh makes the same calls, so gives the same pairs bit for
    bit, but on copies of the matrix and of the eigenvectors: 5 n^2
    floats to this 3 n^2.  Raises numpy's LinAlgError where LAPACK fails.
    """
    n, values, info = a.shape[0], np.empty(a.shape[0]), integer()
    lwork = liwork = -1  # first the work size query numpy's eigh makes
    for _ in range(2):
        work, iwork = np.empty(max(lwork, 1)), np.empty(max(liwork, 1), integer)
        routine(b"V", b"L", ctypes.byref(integer(n)), a.ctypes,
                ctypes.byref(integer(max(n, 1))), values.ctypes, work.ctypes,
                ctypes.byref(integer(lwork)), iwork.ctypes,
                ctypes.byref(integer(liwork)), ctypes.byref(info))
        lwork, liwork = int(work[0]), int(iwork[0])
    if info.value:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return values
