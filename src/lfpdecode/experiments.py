"""Risk and decoding experiments: worst-case risk curves, adaptivity of
blockwise James-Stein against the oracle linear minimax estimator, decoder
consistency, classifier benchmarks, and the phase-information ablation.

The adaptivity comparison is computed, not sampled: the oracle's sup-risk
in closed form and that of blockwise James-Stein as a certified bracket.
Every Monte-Carlo quantity is reported with its standard error and every
experiment is a pure function of its arguments, including the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import CoefficientVector, coeff_l2_distance, uniform_basis
from .classify import (
    CrossValReport,
    PipelineConfig,
    _decode_rows,
    cross_validate,
    cross_validate_features,
    dataset_feature_matrix,
    magnitude_features,
)
from .shrinkage import (
    BlockPartition,
    EllipsoidSpec,
    bjs_sampled_rows,
    ellipsoid_weights,
    pinsker_mu,
    pinsker_weights,
    stein_threshold,
)
from .synth import ClassModel, NoiseModel, perturb_within_class, stream_rng

__all__ = [
    "RiskPoint",
    "SupRisk",
    "AdaptivityRow",
    "ConsistencyRow",
    "PhaseAblationResult",
    "mse_function",
    "risk_curve_pinsker",
    "bjs_block_risk",
    "bjs_sup_risk",
    "adaptivity_ratio_bjs",
    "consistency_experiment",
    "benchmark_classifiers",
    "phase_ablation",
]


def mse_function(f_true: CoefficientVector, f_est: CoefficientVector) -> float:
    """Squared L2([0,1]) distance between the represented functions."""
    return coeff_l2_distance(f_true, f_est) ** 2


@dataclass(frozen=True)
class RiskPoint:
    """One abscissa of a risk curve with its Monte-Carlo standard error."""

    epsilon: float
    risk: float
    std_error: float
    trials: int


def _boundary_thetas(
    spec: EllipsoidSpec, dim: int, n_random: int, rng: np.random.Generator
) -> np.ndarray:
    """Boundary-heavy parameter sample for sup-risk estimation.

    Mixes single-coordinate extreme points radius/a_k * e_k with random
    directions rescaled onto the ellipsoid boundary.  The unconstrained
    first coordinate rides along at whatever the direction gave it.
    """
    a = ellipsoid_weights(spec, dim)
    rows = []
    vertex_ks = sorted(
        {int(k) for k in np.unique(np.geomspace(2, dim, num=min(dim - 1, 24)))}
    )
    for k in vertex_ks:
        theta = np.zeros(dim)
        theta[k - 1] = spec.radius / a[k - 1]
        rows.append(theta)
    damp = np.maximum(a, 1.0)
    for _ in range(n_random):
        draw = rng.standard_normal(dim) / damp
        weighted = float(np.sum(a**2 * draw**2))
        if weighted > 0.0:
            draw *= spec.radius / np.sqrt(weighted)
        rows.append(draw)
    return np.vstack(rows)


def risk_curve_pinsker(
    spec: EllipsoidSpec,
    epsilons,
    trials: int,
    seed: int = 0,
    n_thetas: int = 50,
) -> list[RiskPoint]:
    """Empirical worst-case risk of the exact linear minimax estimator.

    For each noise level the water-filling weights are recomputed and the
    risk is maximized over a boundary-heavy sample of parameters, at least
    ``n_thetas`` random ones plus coordinate extremes.

    Parameters
    ----------
    epsilons : sequence of float, strictly decreasing.
    trials : int
        Noise draws per parameter, at least 100.
    """
    eps_list = [float(e) for e in epsilons]
    if not eps_list:
        raise ValueError("a risk curve needs at least one epsilon")
    if any(e <= 0.0 for e in eps_list):
        raise ValueError("epsilons must be positive")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("epsilons must be strictly decreasing")
    if trials < 100:
        raise ValueError("trials must be at least 100")
    if n_thetas < 0:
        raise ValueError("n_thetas must be nonnegative")
    points = []
    for i, eps in enumerate(eps_list):
        mu = pinsker_mu(spec, eps)
        pairs = int(np.floor(mu ** (1.0 / spec.alpha) / 2.0)) + 1
        dim = 2 * pairs + 9
        weights = pinsker_weights(spec, mu, dim)
        rng = stream_rng(seed, key=(i,))
        thetas = _boundary_thetas(spec, dim, n_thetas, rng)[:, None, :]
        # every parameter's noise in one block, in per-parameter order
        y = thetas + eps * rng.standard_normal((len(thetas), trials, dim))
        errors = ((weights * y - thetas) ** 2).sum(axis=2)
        means = errors.mean(axis=1)
        worst = int(np.argmax(means))  # the first largest mean
        se = float(errors[worst].std(ddof=1) / np.sqrt(trials))
        points.append(RiskPoint(eps, float(means[worst]), se, trials))
    return points


def bjs_block_risk(size: int, norms_sq, epsilon: float):
    """Risk of Stein shrinkage on one block, by the block's squared mean norm.

    The risk depends on the block mean only through b = ||theta||^2.  By
    Stein's unbiased risk estimate it is eps^2 E psi(S), where
    S = ||y||^2 / eps^2 is noncentral chi^2 with ``size`` degrees of freedom
    and noncentrality b / eps^2, c is :func:`stein_threshold`, and
    psi(S) = S - n for S <= c and n - (2c(n-2) - c^2) / S above.  S is a
    Poisson(b / 2eps^2) mixture of central chi^2 with n + 2N degrees of
    freedom; for even n each central term is a regularized incomplete gamma
    function at an integer shape, i.e. a Poisson(c/2) tail sum.

    Parameters
    ----------
    size : int
        Block length n, even and at least 4 (every shrunk dyadic block).
    norms_sq : array_like
        Squared block mean norms b >= 0.
    """
    if size < 4 or size % 2:
        raise ValueError("size must be even and at least 4")
    if not np.isfinite(epsilon) or epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    halves = np.asarray(norms_sq, dtype=float) / (2.0 * epsilon**2)
    if np.any(halves < 0.0):
        raise ValueError("norms_sq must be nonnegative")
    c = stein_threshold(size)
    span = float(halves.max(initial=0.0))
    terms = int(span + 12.0 * np.sqrt(span)) + 40
    # central means E psi(chi^2_m), m = n + 2N; with x = c/2 and shape s,
    # P(s, x) = Pr[Poisson(x) >= s] and Q(s, x) = Pr[Poisson(x) <= s - 1]
    shapes = size // 2 + np.arange(terms)
    x = c / 2.0
    top = int(max(shapes[-1] + 1, x + 40.0 * np.sqrt(x) + 40.0))
    ks = np.arange(top + 1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(ks[1:]))))

    def pmf(mean, lo, hi):  # Poisson(mean) probabilities of lo..hi-1
        if mean == 0.0:
            return (ks[lo:hi] == 0).astype(float)
        return np.exp(ks[lo:hi] * np.log(mean) - mean - log_fact[lo:hi])

    below = np.cumsum(pmf(x, 0, top + 1))
    above = np.cumsum(pmf(x, 0, top + 1)[::-1])[::-1]
    m = 2.0 * shapes
    central = (
        m * above[shapes + 1]
        + size * (below[shapes - 1] - above[shapes])
        - (2.0 * c * (size - 2) - c * c) * below[shapes - 2] / (m - 2.0)
    )
    risk = np.empty(halves.shape)
    for ix, h in np.ndenumerate(halves):
        lo = max(0, int(h - 12.0 * np.sqrt(h)) - 20)
        hi = min(terms, int(h + 12.0 * np.sqrt(h)) + 21)
        risk[ix] = pmf(h, lo, hi) @ central[lo:hi]
    return epsilon**2 * risk


@dataclass(frozen=True)
class SupRisk:
    """Certified bracket on the worst-case risk over an ellipsoid.

    ``lower`` is the exact risk at ``theta``, a point of the ellipsoid;
    ``upper`` bounds the risk at every point of it.
    """

    lower: float
    upper: float
    theta: np.ndarray


def bjs_sup_risk(spec: EllipsoidSpec, epsilon: float) -> SupRisk:
    """Worst-case risk of blockwise James-Stein over the ellipsoid.

    The estimator is the one :func:`adaptivity_ratio_bjs` describes.  Its
    risk is a sum of block risks r_j(b_j) (:func:`bjs_block_risk`) of the
    block norms b_j, plus the squared norm of the zeroed tail, which acts
    as one more block with r(b) = b.  The cheapest place for b_j inside the
    ellipsoid is the block's first coordinate, of weight a_j, so the
    sup-risk is the maximum of sum_j r_j(b_j) subject to
    sum_j a_j^2 b_j <= radius^2 (Tsybakov 2009, sections 3.4-3.7).

    Each r_j is tabulated on 2000 points of [0, radius^2 / a_j^2] and
    is nondecreasing, so on every grid cell it is at most its value at the
    right end while the cell costs at least its left end.  The Lagrangian
    dual of these cell bounds is ``upper``; it holds between grid points.
    Each feasible primal allocation met on the way, its leftover budget
    spent greedily, is a point of the ellipsoid; the best one gives
    ``theta`` and ``lower``.
    """
    partition = BlockPartition(0, _dyadic_zero_limit(epsilon))
    budget = spec.radius**2
    a = ellipsoid_weights(spec, partition.width + 1)
    fractions = np.concatenate(([0.0], np.geomspace(1e-6, 1.0, 1999)))
    # the coefficients before the first shrunk block pass through: risk eps^2 each
    fixed = (partition.shrunk[0][0] - 1) * epsilon**2
    firsts, norms, risks = [], [], []
    for first, last in partition.shrunk:
        size = last - first + 1
        block_norms = fractions * budget / a[first - 1] ** 2
        table = bjs_block_risk(size, block_norms, epsilon)
        if np.any(np.diff(table) < -1e-9 * epsilon**2):
            raise RuntimeError(f"block risk of size {size} is not nondecreasing")
        firsts.append(first)
        norms.append(block_norms)
        risks.append(table)
    firsts.append(partition.width + 1)  # the zeroed tail: its risk is its norm
    norms.append(fractions * budget / a[-1] ** 2)
    risks.append(norms[-1])
    firsts, norms, risks = np.array(firsts), np.array(norms), np.array(risks)
    costs = fractions * budget  # a_j^2 b_j is the same on every table
    # rounding dips a flat table by ~1e-10 eps^2; the running maximum keeps
    # the right-end bound valid anyway
    right = np.maximum.accumulate(risks, axis=1)
    right = np.concatenate((right[:, 1:], right[:, -1:]), axis=1)
    blocks = np.arange(firsts.size)

    def fill(pick):
        # spend what the allocation leaves of the budget where it adds most
        while True:
            left = budget - costs[pick].sum()
            reach = np.searchsorted(costs, costs[pick] + left, side="right") - 1
            gains = risks[blocks, reach] - risks[blocks, pick]
            b = int(np.argmax(gains))
            if gains[b] <= 0.0:
                return pick
            pick[b] = reach[b]

    best = np.zeros(firsts.size, dtype=int)
    lower, upper = float(risks[:, 0].sum()), np.inf
    lo, hi = 1e-30, 1e30
    for _ in range(200):  # bisect the multiplier on a log scale
        nu = np.sqrt(lo * hi)
        pick = np.argmax(right - nu * costs, axis=1)
        spent = costs[pick]
        dual = nu * budget + float((right[blocks, pick] - nu * spent).sum())
        upper = min(upper, dual)
        if spent.sum() <= budget:
            pick = fill(pick)
            value = float(risks[blocks, pick].sum())
            if value > lower:
                lower, best = value, pick
            hi = nu
        else:
            lo = nu
    theta = np.zeros(partition.width + 1)
    theta[firsts - 1] = np.sqrt(norms[blocks, best])
    return SupRisk(lower=fixed + lower, upper=fixed + upper, theta=theta)


def _pinsker_sup_risk(spec: EllipsoidSpec, epsilon: float) -> float:
    """Exact worst-case risk of the linear minimax rule: eps^2 sum c_k^2 + C^2/mu^2."""
    mu = pinsker_mu(spec, epsilon)
    pairs = int(np.floor(mu ** (1.0 / spec.alpha) / 2.0)) + 1
    weights = pinsker_weights(spec, mu, 2 * pairs + 1)
    return float(epsilon**2 * (weights @ weights) + (spec.radius / mu) ** 2)


def _dyadic_zero_limit(epsilon: float) -> int:
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1) for the dyadic cutoff")
    zero_limit = int(np.floor(np.log2(epsilon**-2)))
    if zero_limit <= 2:
        raise ValueError("epsilon too large for a nontrivial block range")
    return zero_limit


@dataclass(frozen=True)
class AdaptivityRow:
    """Sup-risk of parameter-free blockwise James-Stein vs the oracle.

    ``bjs_risk`` is a certified upper bound on the sup-risk of the
    blockwise rule over the ellipsoid and ``bjs_lower`` its risk at the
    worst point found (see :func:`bjs_sup_risk`).  ``pinsker_risk`` is the
    exact sup-risk of the linear minimax oracle.
    """

    alpha: float
    radius: float
    bjs_lower: float
    bjs_risk: float
    pinsker_risk: float

    @property
    def ratio(self) -> float:
        return self.bjs_risk / self.pinsker_risk


def adaptivity_ratio_bjs(specs, epsilon: float) -> list[AdaptivityRow]:
    """Compare blockwise James-Stein to the spec-aware linear minimax oracle.

    The blockwise estimator never looks at the spec; its zero cutoff is
    floor(log2(1/epsilon^2)) and it shrinks every block large enough for
    James-Stein with :func:`lfpdecode.shrinkage.stein_threshold`, so only
    the first three coordinates pass through untouched.  Each row brackets
    its sup-risk over the ellipsoid (:func:`bjs_sup_risk`) and gives the
    oracle's exact sup-risk eps^2 sum c_k^2 + C^2/mu^2.  Deterministic.
    """
    _dyadic_zero_limit(epsilon)
    rows = []
    for spec in specs:
        sup = bjs_sup_risk(spec, epsilon)
        rows.append(
            AdaptivityRow(
                alpha=spec.alpha,
                radius=spec.radius,
                bjs_lower=sup.lower,
                bjs_risk=sup.upper,
                pinsker_risk=_pinsker_sup_risk(spec, epsilon),
            )
        )
    if not rows:
        raise ValueError("specs must name at least one ellipsoid")
    return rows


@dataclass(frozen=True)
class ConsistencyRow:
    """Decoder error against its Chebyshev bound at one sample count."""

    n_samples: int
    worst_class_error: float
    error_se: float
    chebyshev_bound: float
    bound_se: float


def consistency_experiment(
    model: ClassModel,
    n_grid,
    trials_per_class: int,
    noise: NoiseModel,
    seed: int = 0,
) -> list[ConsistencyRow]:
    """Minimum-distance decoding error of blockwise James-Stein estimates.

    For each sample count N, draws are perturbed class members observed
    through N noisy samples, estimated with the blockwise pipeline's
    settings (widest safe band, pass limit 2, zero cutoff floor(log2 N))
    at the true coefficient noise level sigma/sqrt(N), then decoded.
    Reports the worst per-class error next to the Chebyshev bound term
    (empirical sup MSE) / separation^2, both with standard errors.
    """
    ns = [int(n) for n in n_grid]
    if not ns or ns[0] < 1 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_grid must be nonempty, positive and strictly increasing")
    if trials_per_class < 2:
        raise ValueError("trials_per_class must be at least 2")
    model_count = 2 * model.truncation + 1
    if BlockPartition.for_samples(ns[0], 2).width < model_count:
        raise ValueError(f"n_grid: each N needs a BJS width 2^floor(log2 N) - 1 "
                         f"of at least 2T+1 = {model_count}; N = {ns[0]} has less")
    # the seed as two 32-bit words, so the noise seed always starts at word 2
    high, low = divmod(int(seed) % 2**64, 2**32)
    rows = []
    for ni, n in enumerate(ns):
        phi = uniform_basis(model_count, n)
        class_errors = np.empty(model.n_classes)
        class_mses = np.empty(model.n_classes)
        class_mse_ses = np.empty(model.n_classes)
        for label in range(1, model.n_classes + 1):
            rng = stream_rng(low, high, noise.seed, key=(ni, label))
            thetas = perturb_within_class(
                model, np.full(trials_per_class, label), rng
            )
            signals = thetas @ phi + noise.sigma * rng.standard_normal(
                (trials_per_class, n)
            )
            estimates = bjs_sampled_rows(signals, 2, noise.sigma)
            picks = _decode_rows(estimates, model)
            class_errors[label - 1] = float(np.mean(picks != label))
            truth = np.zeros_like(estimates)
            truth[:, :model_count] = thetas
            sq = ((estimates - truth) ** 2).sum(axis=1)
            class_mses[label - 1] = float(sq.mean())
            class_mse_ses[label - 1] = float(sq.std(ddof=1) / np.sqrt(sq.size))
        worst_ix = int(class_errors.argmax())
        worst = float(class_errors[worst_ix])
        error_se = float(np.sqrt(worst * (1.0 - worst) / trials_per_class))
        bound_ix = int(class_mses.argmax())
        rows.append(
            ConsistencyRow(
                n_samples=n,
                worst_class_error=worst,
                error_se=error_se,
                chebyshev_bound=float(class_mses[bound_ix]) / model.separation**2,
                bound_se=float(class_mse_ses[bound_ix]) / model.separation**2,
            )
        )
    return rows


def benchmark_classifiers(
    dataset, configs, scheme: str = "loso"
) -> list[CrossValReport]:
    """Cross-validate each configuration on the same dataset and folds."""
    return [cross_validate(dataset, config, scheme=scheme) for config in configs]


@dataclass
class PhaseAblationResult:
    """Paired accuracies with and without phase information."""

    full: CrossValReport
    magnitude: CrossValReport

    @property
    def accuracy_drop(self) -> float:
        return self.full.overall_accuracy - self.magnitude.overall_accuracy


def phase_ablation(
    dataset, config: PipelineConfig, scheme: str = "loso"
) -> PhaseAblationResult:
    """Rerun one pipeline with harmonic pairs collapsed to magnitudes.

    Both runs use one feature matrix and identical folds, so the accuracy
    difference isolates the contribution of phase information.
    """
    features = dataset_feature_matrix(dataset, config)
    folds = (dataset.labels, dataset.session_ids, dataset.n_classes, scheme)
    full, magnitude = (
        cross_validate_features(feats, *folds, config.components, config.ridge)
        for feats in (features, magnitude_features(features, config.channel_width))
    )
    return PhaseAblationResult(full=full, magnitude=magnitude)
