"""Orthonormal trigonometric basis on [0, 1] and the maps between sampled
signals and sequence-space coefficient vectors."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SampledSignal",
    "CoefficientVector",
    "trig_basis_eval",
    "basis_matrix",
    "uniform_basis",
    "forward_transform",
    "transform_rows",
    "reconstruct",
    "coeff_l2_distance",
]

_SQRT2 = np.sqrt(2.0)

# rows per product in transform_rows: bounds the operand OpenBLAS packs,
# whose buffers otherwise stay resident after a tall transform
_ROW_BLOCK = 2048
# uniform_basis caches bases of at most this many entries (1 MiB)
_CACHED_ENTRIES = 2**17


@dataclass(frozen=True)
class SampledSignal:
    """One channel's time series sampled on the uniform grid l/N, l = 0..N-1.

    The grid is implicit in the sample count; amplitudes are dimensionless.
    """

    samples: np.ndarray

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < 1:
            raise ValueError("samples must be a nonempty 1-D vector")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must all be finite")
        object.__setattr__(self, "samples", samples)

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)


@dataclass(frozen=True)
class CoefficientVector:
    """Sequence-space coefficients plus their per-coefficient noise level.

    ``coeffs[i]`` is the coefficient of basis function ``i + 1`` (basis
    indexing starts at 1, see :func:`trig_basis_eval`).  ``epsilon`` is the
    standard deviation of the additive noise on each coefficient; 0 marks a
    noiseless vector such as a ground-truth parameter.
    """

    coeffs: np.ndarray
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise ValueError("coeffs must be a nonempty 1-D vector")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coeffs must all be finite")
        if not np.isfinite(self.epsilon) or self.epsilon < 0.0:
            raise ValueError("epsilon must be finite and nonnegative")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "epsilon", float(self.epsilon))

    def __len__(self) -> int:
        return int(self.coeffs.size)


def trig_basis_eval(k: int, x):
    """Evaluate the k-th orthonormal trigonometric basis function.

    The basis is phi_1(x) = 1, phi_2m(x) = sqrt(2) cos(2 pi m x) and
    phi_2m+1(x) = sqrt(2) sin(2 pi m x) for m >= 1.  Indexing starts at 1.

    Parameters
    ----------
    k : int
        Basis index, k >= 1.
    x : float or array_like
        Evaluation points in [0, 1].

    Returns
    -------
    float or ndarray matching the shape of ``x``.
    """
    if k < 1:
        raise ValueError("basis index k starts at 1")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("evaluation points must lie in [0, 1]")
    if k == 1:
        out = np.ones_like(arr)
    elif k % 2 == 0:
        out = _SQRT2 * np.cos(2.0 * np.pi * (k // 2) * arr)
    else:
        out = _SQRT2 * np.sin(2.0 * np.pi * ((k - 1) // 2) * arr)
    return out if out.ndim else float(out)


def basis_matrix(count: int, grid) -> np.ndarray:
    """Stack the first ``count`` basis functions evaluated on ``grid``.

    Returns the matrix Phi with Phi[k-1, j] = phi_k(grid[j]).
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise ValueError("grid must be 1-D")
    phi = np.empty((count, grid.size))
    phi[0] = 1.0
    if count > 1:
        # the angles 2 pi m x are formed in the output and mapped in
        # place: rows 0, 2, ... of the body are cosines, 1, 3, ... sines
        body = phi[1:]
        np.outer(np.arange(2, count + 1) // 2, grid, out=body)
        body *= 2.0 * np.pi
        for rows, wave in ((body[0::2], np.cos), (body[1::2], np.sin)):
            wave(rows, out=rows)
            rows *= _SQRT2
    return phi


def uniform_basis(count: int, n: int) -> np.ndarray:
    """Read-only ``basis_matrix(count, l/n for l = 0..n-1)``.

    Bases of at most ``_CACHED_ENTRIES`` entries come from a cache of the
    last four shapes, so repeated transforms and syntheses of one shape
    build it once; larger ones are built on every call.
    """
    if count * n > _CACHED_ENTRIES:
        return _read_only_basis.__wrapped__(count, n)
    return _read_only_basis(count, n)


@lru_cache(maxsize=4)
def _read_only_basis(count: int, n: int) -> np.ndarray:
    phi = basis_matrix(count, np.arange(n) / n)
    phi.flags.writeable = False
    return phi


def forward_transform(signal: SampledSignal, truncation: int) -> CoefficientVector:
    """Project a sampled signal onto the first 2T+1 basis functions.

    Coefficients are the Riemann sums y_k = (1/N) sum_l Y_l phi_k(l/N); for
    unit-variance sample noise each y_k then carries noise level 1/sqrt(N),
    which is stored as the vector's ``epsilon``.

    Parameters
    ----------
    signal : SampledSignal
    truncation : int
        Harmonic truncation T >= 1; 2T+1 coefficients are produced.

    Raises
    ------
    ValueError
        If T < 1, or if 2T+1 >= N/2, i.e. the requested band exceeds what
        the sample grid can represent safely.
    """
    coeffs = transform_rows(signal.samples[None, :], truncation)[0]
    return CoefficientVector(coeffs, epsilon=1.0 / np.sqrt(signal.n_samples))


def transform_rows(rows, truncation: int, *, out=None) -> np.ndarray:
    """Forward transform applied to each row of an (m, N) sample matrix.

    Same convention as :func:`forward_transform`; returns (m, 2T+1),
    written into ``out`` when one is given (any (m, 2T+1) float view,
    such as the leading columns of a wider array).  The product runs in
    blocks of ``_ROW_BLOCK`` rows, each divided by N in place, so the
    result has the bits of ``block @ Phi.T / N`` stacked block by block;
    for at most ``_ROW_BLOCK`` rows that is the one product
    ``rows @ Phi.T / N``.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("rows must be a 2-D matrix of sampled channels")
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    m, n = rows.shape
    count = 2 * truncation + 1
    if 2 * count >= n:
        raise ValueError(
            f"frequency overflow: need 2T+1 < N/2, got 2T+1={count} with N={n}"
        )
    if out is None:
        out = np.empty((m, count))
    elif out.shape != (m, count):
        raise ValueError(f"out must have shape {(m, count)}, got {out.shape}")
    phi = uniform_basis(count, n)
    for start in range(0, m, _ROW_BLOCK):
        block = out[start : start + _ROW_BLOCK]
        np.matmul(rows[start : start + _ROW_BLOCK], phi.T, out=block)
        block /= n
    return out


def reconstruct(coeffs: CoefficientVector, grid_size: int) -> SampledSignal:
    """Evaluate the finite expansion sum_k coeffs_k phi_k on a uniform grid.

    The grid is l/grid_size for l = 0..grid_size-1, matching the sampling
    convention of :func:`forward_transform`.
    """
    if grid_size < 1:
        raise ValueError("grid_size must be at least 1")
    return SampledSignal(coeffs.coeffs @ uniform_basis(len(coeffs), grid_size))


def coeff_l2_distance(a: CoefficientVector, b: CoefficientVector) -> float:
    """Euclidean distance between coefficient vectors, zero-padding the
    shorter one.  Equals the L2([0,1]) distance of the represented functions."""
    width = max(len(a), len(b))
    diff = np.zeros(width)
    diff[: len(a)] = a.coeffs
    diff[: len(b)] -= b.coeffs
    return float(np.linalg.norm(diff))
