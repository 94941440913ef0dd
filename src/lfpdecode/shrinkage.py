"""Shrinkage estimators for sequence-space observations.

Covers the exact linear minimax (water-filling) weights over a smoothness
ellipsoid, the positive-part James-Stein estimator, and a penalized
blockwise variant on dyadic blocks, which adapts to unknown smoothness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import CoefficientVector, transform_rows

__all__ = [
    "EllipsoidSpec",
    "BlockPartition",
    "ellipsoid_weights",
    "pinsker_mu",
    "pinsker_weights",
    "pinsker_shrink",
    "james_stein",
    "stein_threshold",
    "bjs_coefficient_count",
    "bjs_sampled_rows",
]


@dataclass(frozen=True)
class EllipsoidSpec:
    """Smoothness ellipsoid { theta : sum_k a_k^2 theta_k^2 <= radius^2 }.

    ``alpha`` is the smoothness exponent entering the semiaxis weights
    (see :func:`ellipsoid_weights`); ``radius`` bounds the weighted norm.
    """

    alpha: float
    radius: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.alpha) or self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if not np.isfinite(self.radius) or self.radius <= 0.0:
            raise ValueError("radius must be positive")


def ellipsoid_weights(spec: EllipsoidSpec, count: int) -> np.ndarray:
    """First ``count`` semiaxis weights of the ellipsoid.

    a_1 = 0 (the mean is unconstrained) and a_2m = a_2m+1 = (2m)^alpha,
    pairing each cosine with its sine of equal frequency.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    ks = np.arange(1, count + 1)
    return (2.0 * (ks // 2)) ** spec.alpha


def pinsker_mu(spec: EllipsoidSpec, epsilon: float) -> float:
    """Water-filling level mu for the linear minimax weights.

    Solves eps^2 * sum_k a_k (mu - a_k)_+ = radius^2 by bisection down to
    a bracket of relative width 1e-10.  The left side is continuous and
    nondecreasing in mu and the sum is finite for any finite mu because
    the weights grow without bound.  ``epsilon`` is the per-coefficient
    noise level, > 0.
    """
    if not np.isfinite(epsilon) or epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    target = spec.radius**2

    def filled(mu: float) -> float:
        # only pairs with (2m)^alpha < mu contribute; add one pair of slack
        pairs = int(np.floor(mu ** (1.0 / spec.alpha) / 2.0)) + 1
        a = ellipsoid_weights(spec, 2 * pairs + 1)
        return float(epsilon**2 * np.sum(a * np.clip(mu - a, 0.0, None)))

    lo = 0.0
    hi = max(2.0**spec.alpha, 1.0)
    while filled(hi) < target:
        hi *= 2.0
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if filled(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def pinsker_weights(spec: EllipsoidSpec, mu: float, count: int) -> np.ndarray:
    """Linear minimax shrinkage factors c_k = (1 - a_k / mu)_+ for k <= count."""
    if not np.isfinite(mu) or mu <= 0.0:
        raise ValueError("mu must be positive")
    a = ellipsoid_weights(spec, count)
    return np.clip(1.0 - a / mu, 0.0, None)


def pinsker_shrink(
    y: CoefficientVector, spec: EllipsoidSpec, mu: float
) -> CoefficientVector:
    """Apply the linear minimax weights coefficientwise.

    With mu from :func:`pinsker_mu` this is the exact minimax linear
    estimator over the ellipsoid at the vector's noise level; any other
    positive mu gives a valid (suboptimal) diagonal linear estimator.
    """
    weights = pinsker_weights(spec, mu, len(y))
    return CoefficientVector(weights * y.coeffs, epsilon=y.epsilon)


def james_stein(y, epsilon: float) -> np.ndarray:
    """Positive-part James-Stein estimate of the mean of y ~ N(theta, eps^2 I).

    Returns (1 - (n-2) eps^2 / ||y||^2)_+ * y.  Requires n > 2, where the
    estimator starts to dominate the identity; a zero observation maps to
    the zero vector.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("y must be a 1-D vector")
    n = y.size
    if n <= 2:
        raise ValueError("James-Stein requires more than 2 coordinates")
    if not np.isfinite(epsilon) or epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    norm_sq = float(y @ y)
    if norm_sq == 0.0:
        return np.zeros_like(y)
    factor = max(0.0, 1.0 - (n - 2) * epsilon**2 / norm_sq)
    return factor * y


@dataclass(frozen=True)
class BlockPartition:
    """Dyadic partition of coefficient indices for blockwise James-Stein.

    Block j covers 1-based indices 2^j .. 2^(j+1)-1 and has size 2^j.
    Blocks 0..pass_limit are copied unshrunk, blocks above are James-Stein
    shrunk, and indices >= 2^zero_limit are set to zero.
    """

    pass_limit: int
    zero_limit: int

    def __post_init__(self) -> None:
        if self.pass_limit < 0:
            raise ValueError("pass_limit must be nonnegative")
        if self.pass_limit >= self.zero_limit:
            raise ValueError("pass_limit must be strictly below zero_limit")

    @property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        """1-based (first, last) index of each block below the zero cutoff."""
        return tuple((2**j, 2 ** (j + 1) - 1) for j in range(self.zero_limit))

    @property
    def width(self) -> int:
        """Number of coefficients covered, 2^zero_limit - 1."""
        return 2**self.zero_limit - 1


def stein_threshold(size: int) -> float:
    """Stein threshold of a shrunk block of ``size`` coordinates, in eps^2 units.

    A shrunk block is scaled by (1 - threshold * eps^2 / ||y||^2)_+ with the
    penalized threshold (n - 2)(1 + 2/sqrt(n)) of Cavalier & Tsybakov (2001).
    It needs no parameter beyond eps.  The plain James-Stein value n - 2
    leaves about eps^2 of positive-part residual in every live block; on
    dyadic blocks that sets the worst-case risk to 3.14 times the linear
    minimax oracle's for alpha = 3, radius 5 at eps = 0.02, against 1.60
    with the penalty (see :func:`lfpdecode.experiments.bjs_sup_risk`).
    """
    return (size - 2) * (1.0 + 2.0 / np.sqrt(size))


def _bjs_rows(
    rows: np.ndarray, partition: BlockPartition, epsilon: float
) -> np.ndarray:
    """Blockwise James-Stein applied in place to every row of a coefficient
    matrix; returns ``rows``.

    ``rows`` must be at least ``partition.width`` columns wide; columns
    beyond the partition are zeroed.  Shrunk blocks use
    :func:`stein_threshold` at noise level ``epsilon``; blocks at or
    below the pass limit, and blocks of size <= 2 where James-Stein is
    undefined, pass through unshrunk.
    """
    if rows.ndim != 2:
        raise ValueError("rows must be 2-D")
    if rows.shape[1] < partition.width:
        raise ValueError("rows are narrower than the block partition")
    rows[:, partition.width :] = 0.0
    for j, (first, last) in enumerate(partition.blocks):
        size = last - first + 1
        if j <= partition.pass_limit or size <= 2:
            continue
        block = rows[:, first - 1 : last]
        norms_sq = np.einsum("ij,ij->i", block, block)
        factors = np.zeros(rows.shape[0])
        hit = norms_sq > 0.0
        factors[hit] = np.clip(
            1.0 - stein_threshold(size) * epsilon**2 / norms_sq[hit], 0.0, None
        )
        np.multiply(factors[:, None], block, out=block)
    return rows


def bjs_coefficient_count(n_samples: int) -> int:
    """Widest odd coefficient count that stays below the grid's safe band.

    The largest 2T+1 satisfying the forward transform's 2T+1 < N/2
    requirement: 2*floor((floor((N-1)/2) - 1)/2) + 1.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    return 2 * (((n_samples - 1) // 2 - 1) // 2) + 1


def bjs_sampled_rows(
    samples: np.ndarray, pass_limit: int, sigma: float = 1.0
) -> np.ndarray:
    """Blockwise James-Stein estimate of every row of an (m, N) sample matrix.

    Each row is expanded to the widest safe band
    (:func:`bjs_coefficient_count`), zero-padded to the width of the dyadic
    partition whose zero cutoff is floor(log2 N), and shrunk blockwise at
    the coefficient noise level sigma/sqrt(N), ``sigma`` being the sample
    noise sd.  Returns the estimate, (m, 2^floor(log2 N) - 1).

    The estimate is the only array of that size: the transform is written
    into its leading columns (:func:`~lfpdecode.basis.transform_rows`
    with ``out``) and the blocks are shrunk there in place.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError("samples must be a 2-D matrix of sampled channels")
    n = samples.shape[1]
    if n < 7:  # the widest safe band holds no harmonic below 7 samples
        raise ValueError(
            f"blockwise James-Stein needs at least 7 samples, got N={n}"
        )
    count = bjs_coefficient_count(n)
    partition = BlockPartition(pass_limit, int(np.floor(np.log2(n))))
    estimate = np.zeros((samples.shape[0], partition.width))
    transform_rows(samples, (count - 1) // 2, out=estimate[:, :count])
    return _bjs_rows(estimate, partition, sigma / np.sqrt(n))
