"""Classification of multichannel trials from shrunken basis coefficients.

Two feature pipelines (linear minimax shrinkage with a configurable factor
profile, and parameter-free blockwise James-Stein) feed an optional PCA
reduction and a regularized LDA.  A minimum-distance decoder over a class
geometry, session-aware cross-validation, and a shrinkage-profile grid
search complete the module.
"""

from __future__ import annotations

import logging
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import cpus
from .basis import transform_rows
from .shrinkage import (
    BlockPartition,
    EllipsoidSpec,
    bjs_sampled_rows,
    pinsker_weights,
)
from .synth import ClassModel, LabeledDataset

__all__ = [
    "ShrinkageProfile",
    "PCAProjection",
    "LDAModel",
    "PipelineConfig",
    "CrossValReport",
    "GridRow",
    "GridSearchResult",
    "pca_fit",
    "pca_apply",
    "lda_train",
    "lda_predict",
    "magnitude_features",
    "dataset_feature_matrix",
    "cross_validate",
    "cross_validate_features",
    "shrinkage_patterns",
    "grid_search",
]

logger = logging.getLogger(__name__)

# feature columns per block of a wide fold-shared Gram matrix
_COL_BLOCK = 1024


@dataclass(frozen=True)
class ShrinkageProfile:
    """Per-coefficient shrinkage factors applied after the forward transform.

    ``truncation`` fixes how many coefficients are computed (2T+1); the
    first ``len(factors)`` of them are kept and multiplied by ``factors``,
    the rest are dropped.  Factors live in [0, 1].
    """

    factors: np.ndarray
    truncation: int
    label: str = "custom"

    def __post_init__(self) -> None:
        factors = np.asarray(self.factors, dtype=float)
        if factors.ndim != 1 or factors.size < 1:
            raise ValueError("factors must be a nonempty 1-D vector")
        if np.any(factors < 0.0) or np.any(factors > 1.0):
            raise ValueError("shrinkage factors must lie in [0, 1]")
        if self.truncation < 1:
            raise ValueError("truncation must be at least 1")
        if factors.size > 2 * self.truncation + 1:
            raise ValueError("profile longer than the computed 2T+1 coefficients")
        object.__setattr__(self, "factors", factors)


@dataclass(frozen=True)
class PCAProjection:
    """Mean-centered projection onto the top principal components."""

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray

    def __post_init__(self) -> None:
        comps = np.asarray(self.components, dtype=float)
        var = np.asarray(self.explained_variance, dtype=float)
        gram = comps @ comps.T
        if not np.allclose(gram, np.eye(comps.shape[0]), atol=1e-8):
            raise ValueError("component rows must be orthonormal")
        if np.any(var < -1e-12) or np.any(np.diff(var) > 1e-12):
            raise ValueError("explained variances must be nonnegative, nonincreasing")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "explained_variance", var)
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))


@dataclass(frozen=True)
class LDAModel:
    """Gaussian LDA with a shared (ridge-regularized) covariance.

    ``coef`` and ``intercept`` hold the linear discriminants
    delta_k(x) = x' Sigma^-1 mu_k - mu_k' Sigma^-1 mu_k / 2 + log pi_k
    of the classes in ``class_ids``.
    """

    class_ids: np.ndarray
    coef: np.ndarray
    intercept: np.ndarray


# ---------------------------------------------------------------------------
# minimum-distance decoding


def _class_distances(rows: np.ndarray, model: ClassModel) -> np.ndarray:
    """Distance from each row to each class ball, (n, n_classes).

    Distance to a class is the distance to its prototype minus
    within_spread, floored at zero; rows and prototypes are zero-padded to
    a common width.
    """
    width = max(rows.shape[1], model.prototypes.shape[1])
    padded = np.zeros((rows.shape[0], width))
    padded[:, : rows.shape[1]] = rows
    protos = np.zeros((model.n_classes, width))
    protos[:, : model.prototypes.shape[1]] = model.prototypes
    sq = (padded**2).sum(axis=1)[:, None]
    # one product per class: a product over all classes rounds differently
    d2 = np.hstack(
        [sq - 2.0 * padded @ p.T + (p**2).sum(axis=1) for p in protos[:, None]]
    )
    return np.clip(np.sqrt(np.clip(d2, 0.0, None)) - model.within_spread, 0.0, None)


def _decode_rows(rows: np.ndarray, model: ClassModel) -> np.ndarray:
    """Batched minimum-distance decoding; ties go to the lowest class id."""
    return _class_distances(rows, model).argmin(axis=1) + 1


# ---------------------------------------------------------------------------
# PCA


def _top_eigenpairs(sym: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` largest eigenvalues of a centred symmetric matrix.

    Returns the values largest first and their unit eigenvectors as the
    matching columns.  This is the one PCA eigen-solver: :func:`pca_fit`
    and the cross-validation fold loop both call it, on the dim x dim
    scatter of centred rows when dim <= rows, otherwise on their
    rows x rows Gram matrix.  The pairs are ``np.linalg.eigh``'s of the
    lower triangle, and ``sym`` is left as it was.
    """
    evals, evecs = np.linalg.eigh(sym)
    # ascending: the kept columns are copied, freeing the full matrix, and
    # viewed reversed, largest first, the layout the callers always saw
    kept = evecs[:, max(evecs.shape[1] - count, 0):].copy()
    return evals[::-1][:count].copy(), kept[:, ::-1]


def pca_fit(features, n_components: int) -> PCAProjection:
    """Fit a PCA projection on a (n_samples, dim) feature matrix.

    ``n_components`` must not exceed min(n_samples - 1, dim).  Component
    signs are fixed so each one's largest-magnitude loading is positive,
    making the fit deterministic.

    The components come from :func:`_top_eigenpairs` applied to whichever
    of the two symmetric matrices of the centered data Xc is smaller,
    chosen from the shape: the dim x dim scatter Xc'Xc when dim <=
    n_samples, otherwise the n_samples x n_samples Gram Xc Xc' (the dual
    form of kernel PCA, Schölkopf, Smola & Müller 1998).  In the Gram case
    the top eigenvectors are mapped back through Xc', orthonormalized by
    QR and rotated onto the principal axes by a Rayleigh-Ritz step, so the
    rows stay orthonormal when ``n_components`` exceeds the numerical rank.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("features must be a 2-D matrix with at least 2 rows")
    n, dim = X.shape
    cap = min(n - 1, dim)
    if not 1 <= n_components <= cap:
        raise ValueError(
            f"n_components must lie in [1, min(n_samples-1, dim)] = [1, {cap}]"
        )
    mean = X.mean(axis=0)
    centered = X - mean
    if dim <= n:
        evals, axes = _top_eigenpairs(centered.T @ centered, n_components)
    else:
        _, top = _top_eigenpairs(centered @ centered.T, n_components)
        basis, _ = np.linalg.qr(centered.T @ top)
        reduced = centered @ basis
        evals, rotation = _top_eigenpairs(reduced.T @ reduced, n_components)
        axes = basis @ rotation
    comps = axes.T.copy()
    for row in comps:
        peak = np.argmax(np.abs(row))
        if row[peak] < 0.0:
            row *= -1.0
    variance = np.clip(evals, 0.0, None) / (n - 1)
    return PCAProjection(mean=mean, components=comps, explained_variance=variance)


def pca_apply(projection: PCAProjection, features) -> np.ndarray:
    """Center features with the fitted mean and project onto the components."""
    X = np.asarray(features, dtype=float)
    return (X - projection.mean) @ projection.components.T


# ---------------------------------------------------------------------------
# LDA


def _class_counts(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class ids and counts; at least 2 classes with 2 samples in each."""
    class_ids, counts = np.unique(y, return_counts=True)
    if class_ids.size < 2:
        raise ValueError("LDA needs at least 2 classes")
    if np.any(counts < 2):
        raise ValueError("every class needs at least 2 training samples")
    return class_ids, counts


def _lda_solve(class_ids, counts, means, pooled, ridge, dim: int) -> LDAModel:
    """LDA from class counts, class means and pooled covariance.

    ``means`` (K, d) and ``pooled`` (d, d) cover the leading d of ``dim``
    components; the rest score zero, so they add zero rows to the
    covariance and nothing to the discriminants.  ``ridge`` = None adds
    1e-6 * trace / dim to the diagonal; a ridge of 0 with d < dim is
    singular.  This is the one LDA solver: :func:`lda_train` calls it with
    d = dim, the cross-validation fold loop with dim the capped PCA size,
    or the feature width at P = 0, which keeps every component.
    """
    if ridge is None:
        lam = 1e-6 * float(np.trace(pooled)) / dim
    else:
        if ridge < 0.0 or not np.isfinite(ridge):
            raise ValueError("ridge must be finite and nonnegative")
        lam = float(ridge)
    cov = pooled + lam * np.eye(pooled.shape[0])
    try:
        if lam == 0.0 and dim > pooled.shape[0]:
            raise np.linalg.LinAlgError  # a zero row left out of ``pooled``
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError(
            "pooled covariance is singular; pass a positive ridge or reduce "
            "the feature dimension with PCA"
        ) from None
    coef = np.linalg.solve(cov, means.T)
    intercept = -0.5 * np.einsum("kd,dk->k", means, coef) + np.log(
        counts / counts.sum()
    )
    return LDAModel(class_ids=class_ids, coef=coef, intercept=intercept)


def lda_train(features, labels, ridge: float | None = None) -> LDAModel:
    """Train LDA with pooled within-class covariance plus a ridge.

    ``ridge`` is added to the diagonal; None selects the default
    1e-6 * trace/dim.  An explicit ridge of 0 on a singular covariance
    raises instead of silently producing garbage.

    Requires at least 2 classes and at least 2 samples in each.  No fold
    calls it: the fold loop fits this LDA from moments, at P = 0 too.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=int)
    if X.ndim != 2 or X.shape[0] != y.size:
        raise ValueError("features must be (n_samples, dim) matching labels")
    class_ids, counts = _class_counts(y)
    members = [y == c for c in class_ids]
    means = np.vstack([X[mask].mean(axis=0) for mask in members])
    scatter = np.zeros((X.shape[1], X.shape[1]))
    for mask, m in zip(members, means):
        centered = X[mask] - m
        scatter += centered.T @ centered
    pooled = scatter / (y.size - class_ids.size)
    return _lda_solve(class_ids, counts, means, pooled, ridge, X.shape[1])


def lda_predict(model: LDAModel, features):
    """Class ids and per-class discriminant scores of a (n, dim) matrix.

    Score ties resolve to the lowest class id.
    """
    scores = np.asarray(features, dtype=float) @ model.coef + model.intercept
    return model.class_ids[scores.argmax(axis=1)], scores


# ---------------------------------------------------------------------------
# feature pipelines


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a feature pipeline plus classifier needs.

    ``shrinkage`` selects the pipeline: a :class:`ShrinkageProfile` runs
    the linear-minimax (profile) pipeline on 2T+1 coefficients, a
    :class:`BlockPartition` runs the blockwise James-Stein pipeline on the
    widest safe band, its zero cutoff at floor(log2 N) as
    :func:`~lfpdecode.shrinkage.bjs_sampled_rows` sets it.  ``components``
    = 0 keeps every component, which is LDA on the features themselves.
    ``ridge`` = None uses the LDA default.
    """

    n_samples: int
    shrinkage: ShrinkageProfile | BlockPartition
    components: int = 0
    ridge: float | None = None

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")
        if self.components < 0:
            raise ValueError("components must be nonnegative (0 keeps all)")
        if isinstance(self.shrinkage, ShrinkageProfile):
            if 2 * (2 * self.shrinkage.truncation + 1) >= self.n_samples:
                raise ValueError("2T+1 must stay below n_samples/2")
        elif not isinstance(self.shrinkage, BlockPartition):
            raise TypeError("shrinkage must be a ShrinkageProfile or BlockPartition")
        elif self.shrinkage.zero_limit != int(np.floor(np.log2(self.n_samples))):
            raise ValueError("the blockwise zero cutoff must be floor(log2 n_samples)")

    @classmethod
    def bjs(
        cls,
        n_samples: int,
        pass_limit: int = 2,
        components: int = 0,
        ridge: float | None = None,
    ) -> "PipelineConfig":
        """Blockwise James-Stein pipeline with zero cutoff at floor(log2 N)."""
        partition = BlockPartition(pass_limit, int(np.floor(np.log2(n_samples))))
        return cls(
            n_samples=n_samples,
            shrinkage=partition,
            components=components,
            ridge=ridge,
        )

    @property
    def channel_width(self) -> int:
        """Feature length contributed by one channel."""
        if isinstance(self.shrinkage, ShrinkageProfile):
            return int(self.shrinkage.factors.size)
        return self.shrinkage.width

    @property
    def label(self) -> str:
        if isinstance(self.shrinkage, ShrinkageProfile):
            head = f"{self.shrinkage.label} T={self.shrinkage.truncation}"
        else:
            head = (
                f"bjs[L={self.shrinkage.pass_limit},J={self.shrinkage.zero_limit}]"
            )
        return head + (f" P={self.components}" if self.components else "")


def magnitude_features(features, channel_width: int) -> np.ndarray:
    """Collapse each harmonic pair to (magnitude, 0) within channel blocks.

    ``features`` is a (n, width) matrix.  The first coefficient of each
    channel block becomes its absolute value; every following (cos, sin)
    pair becomes (sqrt(cos^2+sin^2), 0).  Rotating any pair of the input
    leaves the output unchanged.
    """
    X = np.asarray(features, dtype=float)
    if X.shape[1] % channel_width != 0:
        raise ValueError("feature width is not a multiple of channel_width")
    blocks = X.reshape(X.shape[0], -1, channel_width)
    out = np.zeros_like(blocks)
    out[:, :, 0] = np.abs(blocks[:, :, 0])
    pairs = (channel_width - 1) // 2
    if pairs:
        cos = blocks[:, :, 1 : 2 * pairs : 2]
        sin = blocks[:, :, 2 : 2 * pairs + 1 : 2]
        out[:, :, 1 : 2 * pairs : 2] = np.hypot(cos, sin)
    if channel_width % 2 == 0:
        out[:, :, -1] = np.abs(blocks[:, :, -1])
    return out.reshape(X.shape[0], -1)


def dataset_feature_matrix(
    dataset: LabeledDataset, config: PipelineConfig, channels: slice = slice(None)
) -> np.ndarray:
    """Pre-PCA (n_trials, channels x channel width) features of a range of
    channels; trials must be config.n_samples long.

    The fold loop's channel groups (:func:`_channel_blocks`) and the grid
    search's coefficients come from here.  Each row of the transform is
    one channel of one trial, a full period; for all channels the rows
    are a view of the C-ordered cube, for fewer a copy of that slice.
    """
    if config.n_samples != dataset.n_samples:
        raise ValueError(
            f"config n_samples {config.n_samples} != dataset's {dataset.n_samples}"
        )
    rows = dataset.cube[:, channels].reshape(-1, dataset.n_samples)
    if isinstance(config.shrinkage, ShrinkageProfile):
        profile = config.shrinkage
        coeffs = transform_rows(rows, profile.truncation)
        per_channel = coeffs[:, : profile.factors.size] * profile.factors
    else:
        per_channel = bjs_sampled_rows(rows, config.shrinkage.pass_limit)
    return per_channel.reshape(dataset.n_trials, -1)


# ---------------------------------------------------------------------------
# cross-validation


@dataclass
class CrossValReport:
    """Pooled cross-validation outcome: confusion rows are true classes."""

    overall_accuracy: float
    confusion: np.ndarray
    per_class_accuracy: np.ndarray
    notes: list[str] = field(default_factory=list)

    @property
    def worst_class_error(self) -> float:
        seen = self.confusion.sum(axis=1) > 0
        return float((1.0 - self.per_class_accuracy[seen]).max())


def _parse_scheme(scheme: str, n_trials: int, sessions: np.ndarray):
    if scheme == "loso":
        ids = np.unique(sessions)
        if ids.size < 2:
            raise ValueError("leave-one-session-out needs at least 2 sessions")
        return [(f"session {s}", sessions == s) for s in ids]
    if scheme.startswith("kfold:"):
        raw = scheme.split(":", 1)[1]
        try:
            k = int(raw)
        except ValueError:
            raise ValueError(f"kfold:<k> needs an integer k, got {raw!r}") from None
        if not 2 <= k <= n_trials:
            raise ValueError("kfold needs 2 <= k <= n_trials")
        idx = np.arange(n_trials)
        return [(f"fold {f}", idx % k == f) for f in range(k)]
    raise ValueError(f"unknown scheme {scheme!r}; use 'loso' or 'kfold:<k>'")


def _column_blocks(X: np.ndarray, weights: np.ndarray):
    """X's nonzero-weight columns times their weights, ``_COL_BLOCK`` at a time."""
    cols = np.flatnonzero(weights)
    for start in range(0, cols.size, _COL_BLOCK):
        at = cols[start : start + _COL_BLOCK]
        z = np.take(X, at, axis=1)
        z *= weights[at]
        yield z
        del z  # one block live at a time


def _channel_blocks(dataset: LabeledDataset, config: PipelineConfig):
    """A dataset's features, floor(``_COL_BLOCK`` / channel width) channels
    at a time: :func:`dataset_feature_matrix` of each channel group."""
    group = max(1, _COL_BLOCK // config.channel_width)
    for first in range(0, dataset.n_channels, group):
        yield dataset_feature_matrix(dataset, config, slice(first, first + group))


def _centred_gram(blocks, n_rows: int) -> np.ndarray:
    """Gram matrix Z Z' of features Z given as column blocks.

    Each block is centred in place by its column means over all rows and
    its product added, so Z itself is never formed; the sources are
    :func:`_column_blocks` of a feature matrix and :func:`_channel_blocks`
    of a dataset.  A common shift leaves a double-centred Gram unchanged;
    removing the mean first keeps its rounding error at the data's spread.
    """
    gram = np.zeros((n_rows, n_rows))
    for z in blocks:
        z -= z.mean(axis=0)
        gram += z @ z.T
        del z  # one block live at a time
    return gram


def _gram_scores(evals: np.ndarray, vecs: np.ndarray, cross: np.ndarray):
    """Eigenvalues and principal scores of a fold from the Gram of all rows.

    The top eigenpairs (lam, U) of the fold's double-centred training
    block give training scores U sqrt(lam), and its centred test block
    ``cross`` (see :func:`_gram_moments`) test scores K_te U / sqrt(lam).
    Components at the rounding level of the matrix (rank below the count
    asked for) keep eigenvalue zero and score zero.
    """
    alive = evals > max(evals[0], 0.0) * vecs.shape[0] * np.finfo(float).eps
    root = np.sqrt(np.where(alive, evals, 1.0))
    train_scores = vecs * np.where(alive, root, 0.0)
    test_scores = cross @ (vecs * np.where(alive, 1.0 / root, 0.0))
    return np.where(alive, evals, 0.0), train_scores, test_scores


def _gram_moments(gram: np.ndarray, train, test, averages, count: int):
    """A wide fold's class means, scatter and test scores for one scaling,
    from the top ``count`` components of the Gram matrix of all rows.

    The training block is double-centred with the training mean, and the
    test block centred against it.
    """
    block = gram[np.ix_(train, train)]
    k_test = gram[np.ix_(test, train)]
    col_mean = block.mean(axis=0)
    grand = col_mean.mean()
    # centred in place in the order of k - a - b + g
    block -= col_mean[:, None]
    block -= col_mean[None, :]
    block += grand
    cross = k_test - k_test.mean(axis=1)[:, None] - col_mean[None, :] + grand
    evals, train_scores, test_scores = _gram_scores(
        *_top_eigenpairs(block, count), cross
    )
    return averages @ train_scores, np.diag(evals), test_scores


def _scatter_moments(scatter, centred_means, centred_test, w, caps):
    """A narrow fold's class means, scatter and test scores for the
    scaling ``w``, from the fold's scatter of centred training rows and
    their class means.

    Only the nonzero-weight columns are kept.  When every job keeps all
    of them LDA needs no rotation, and the scaled scatter is returned as
    it is; otherwise the moments are those of its top ``max(caps)``
    components.
    """
    at = np.flatnonzero(w)
    w = w[at]
    spread = scatter[np.ix_(at, at)] * np.outer(w, w)
    means = centred_means[:, at] * w
    test_scores = centred_test[:, at] * w
    if min(caps) >= at.size:
        return means, spread, test_scores
    evals, vecs = _top_eigenpairs(spread, max(caps))
    return means @ vecs, np.diag(evals), test_scores @ vecs


def _fold_moments(source, wide: bool, y, scalings, components, width: int, fold):
    """One fold's key and, per scaling, the class means, the scatter and
    the test scores of its components (see :func:`_cross_validate_scaled`).

    ``fold`` is (name, test mask); the key is (name, test labels, training
    class ids and counts, capped P sizes).  ``source`` is the list of
    per-scaling Gram matrices when ``wide``, else the copy of every
    column.
    """
    name, test_mask = fold
    train = ~test_mask
    ytr = y[train]
    class_ids, counts = _class_counts(ytr)
    averages = (ytr == class_ids[:, None]) / counts[:, None]
    caps = [min(p or width, ytr.size - 1, width) for p in components]
    key = (name, y[test_mask], class_ids, counts, caps)
    if wide:
        return key, [_gram_moments(gram, train, test_mask, averages, max(caps))
                     for gram in source]
    # the training rows indexed once, and centred in place
    centred_train = source[train]
    mean = centred_train.mean(axis=0)
    centred_train -= mean
    centred_test = source[test_mask] - mean
    scatter = centred_train.T @ centred_train
    centred_means = averages @ centred_train
    del centred_train
    return key, [_scatter_moments(scatter, centred_means, centred_test, w, caps)
                 for w in scalings]


def _cross_validate_scaled(
    columns,
    scalings,
    labels,
    sessions,
    n_classes: int,
    scheme: str,
    components,
    ridge: float | None,
) -> list[CrossValReport]:
    """Cross-validate PCA + LDA on column scalings of one set of features.

    ``columns(weights)`` yields the source's nonzero-weight columns times
    their weights as column blocks: :func:`_column_blocks` of a feature
    matrix, or, for the identity alone, :func:`_channel_blocks` of a
    dataset.  Each scaling is one weight vector over the source's columns;
    each is cross-validated at every PCA size P in ``components`` and the
    reports come scaling-major.  The folds share their moments and no component matrix
    is formed.  Wide or narrow is decided once per call: a source wider
    than the fewest training rows of a fold is wide, and each scaling's
    features are read once, through the Gram matrix of their centred
    nonzero-weight columns, summed block by block (:func:`_centred_gram`).
    A narrow call copies every source column once, unweighted, and a
    scaling takes the top eigenpairs (lam, V) of diag(w) S diag(w) over
    its nonzero columns, where S is the fold's one scatter of centred
    training rows; a wide one takes them from its Gram matrix (see
    :func:`_gram_scores`).  The scores are those of :func:`pca_fit` and
    :func:`pca_apply` up to a rotation inside the top-P subspace, which
    leaves LDA unchanged.  When no job of a narrow scaling drops a
    component (every capped P is at least its number of nonzero columns)
    the rotation is skipped: V = I and lam is replaced by the whole scaled
    scatter.

    LDA is trained from moments, not from training scores: the centred
    training scores F satisfy F'F = diag(lam), so the pooled within-class
    scatter is diag(lam) - sum_k n_k m_k m_k'.  The class means m_k are
    the class means of the centred, weighted training rows times V, or
    on the Gram path those of the rows of U sqrt(lam).  Only the test
    rows are projected.  A scaling with fewer nonzero columns than the
    capped P has only that many components; the ones it leaves out would
    score zero, so, as on the zero-padded scores, the default ridge is
    1e-6 * trace / P, the capped P, and a ridge of 0 is singular.

    Each fold is computed whole on one thread (:func:`_fold_moments`), on
    one thread per usable CPU, this one among them, where BLAS can be held
    at one thread; the folds are scored on this thread in fold order, so
    an error is raised in its turn.

    P = 0 keeps min(width, training rows - 1) components, the width being
    the source's, and its default ridge divides by the width: this is
    :func:`lda_train` on the weighted columns.  Centring, an orthogonal
    change of coordinates and a ridge lam * I leave LDA's discriminant
    differences unchanged.  The class-mean differences lie in the span of
    the centred training rows, so a direction outside it (the null one
    dropped when the width equals the training rows, or past the Gram's
    rank) changes no decision, and its zero eigenvalue leaves the trace.
    """
    y = np.asarray(labels, dtype=int)
    folds = _parse_scheme(scheme, y.size, np.asarray(sessions, dtype=int))
    n_jobs = len(scalings) * len(components)
    confusions = [np.zeros((n_classes, n_classes), dtype=int) for _ in range(n_jobs)]
    notes: list[list[str]] = [[] for _ in range(n_jobs)]
    width = scalings[0].size
    wide = width > min(int((~mask).sum()) for _, mask in folds)
    if wide:
        source = [_centred_gram(columns(w), y.size) for w in scalings]
    else:
        # one copy of every column: a single block is taken as it is
        blocks = list(columns(np.ones(width)))
        source = blocks[0] if len(blocks) == 1 else np.hstack(blocks)
        del blocks
    fold_moments = partial(_fold_moments, source, wide, y, scalings, components, width)
    threads = min(cpus.usable_cpus(), len(folds))

    def score(fold, moments) -> None:
        """LDA from each scaling's moments on a fold, at each PCA size."""
        name, yte, class_ids, counts, caps = fold
        missing = sorted(set(range(1, n_classes + 1)) - set(class_ids.tolist()))
        for s, (means, spread, test_scores) in enumerate(moments):
            # pooled covariance of the scaling's top components
            between = means * np.sqrt(counts)[:, None]
            pooled = (spread - between.T @ between) / (counts.sum() - class_ids.size)
            for k, (p, cap) in enumerate(zip(components, caps)):
                j = s * len(components) + k
                if missing:
                    notes[j].append(
                        f"{name}: classes {missing} absent from training; skipped there"
                    )
                if cap < p:
                    notes[j].append(f"{name}: components capped at {cap} (rank limit)")
                # P = 0 keeps every component, and its ridge divides by the width
                model = _lda_solve(class_ids, counts, means[:, :cap],
                                   pooled[:cap, :cap], ridge, cap if p else width)
                picks, _ = lda_predict(model, test_scores[:, :cap])
                np.add.at(confusions[j], (yte - 1, picks - 1), 1)

    with cpus.one_blas_thread(threads > 1) as blas_threads:
        threads = threads if blas_threads else 1
        # this thread computes folds 0, k, 2k, ... and a pool of k - 1
        # threads the others; every fold is scored here, in fold order
        pool = ThreadPoolExecutor(max(threads - 1, 1))
        try:
            others = pool.map(fold_moments,
                              [fold for i, fold in enumerate(folds) if i % threads])
            for i, fold in enumerate(folds):
                score(*(fold_moments(fold) if i % threads == 0 else next(others)))
        finally:
            # an error cancels the queued folds, and BLAS gets its count
            # back once the running ones have finished
            pool.shutdown(cancel_futures=True)
    logger.debug(
        "cross-validation: %d folds, %d threads, %s", len(folds), threads,
        f"BLAS held at 1 thread, then restored to {blas_threads}"
        if blas_threads else "BLAS threads untouched",
    )
    # each distinct note once, with the number of jobs it applies to
    for msg, count in Counter(msg for job_notes in notes for msg in job_notes).items():
        logger.warning("%s [%d of %d jobs]", msg, count, n_jobs)
    reports = []
    for confusion, job_notes in zip(confusions, notes):
        row_sums = confusion.sum(axis=1)
        per_class = np.divide(
            np.diag(confusion),
            row_sums,
            out=np.zeros(n_classes, dtype=float),
            where=row_sums > 0,
        )
        reports.append(
            CrossValReport(
                overall_accuracy=float(np.trace(confusion)) / int(confusion.sum()),
                confusion=confusion,
                per_class_accuracy=per_class,
                notes=job_notes,
            )
        )
    return reports


def cross_validate_features(
    features,
    labels,
    sessions,
    n_classes: int,
    scheme: str = "loso",
    components: int = 0,
    ridge: float | None = None,
) -> CrossValReport:
    """Cross-validate PCA + LDA on precomputed features.

    PCA and LDA are fit on the training folds only; ``components`` = 0
    keeps every component, which is LDA on the features.  The requested
    component count is capped at the training-fold rank (with a note) and
    a fold whose training part misses a class trains on the remaining
    classes, again with a note.  The folds share one scatter (dim <=
    training rows) or one Gram matrix (wider features), picked from the
    shape; see :func:`_cross_validate_scaled`.
    """
    X = np.asarray(features, dtype=float)
    return _cross_validate_scaled(
        partial(_column_blocks, X), [np.ones(X.shape[1])], labels, sessions,
        n_classes, scheme, [components], ridge,
    )[0]


def cross_validate(
    dataset: LabeledDataset, config: PipelineConfig, scheme: str = "loso"
) -> CrossValReport:
    """Cross-validate a pipeline on a dataset: the report of
    :func:`cross_validate_features` on :func:`dataset_feature_matrix`.

    The fold loop's one scaling is the identity, and it reads the features
    from :func:`_channel_blocks`: :func:`dataset_feature_matrix` of groups
    of floor(``_COL_BLOCK`` / channel width) channels.  So features wider
    than the fewest training rows of a fold, read only through their Gram
    matrix, never form the (trials, width) feature matrix.
    """
    width = dataset.n_channels * config.channel_width
    return _cross_validate_scaled(
        lambda _: _channel_blocks(dataset, config), [np.ones(width)],
        dataset.labels, dataset.session_ids, dataset.n_classes, scheme,
        [config.components], config.ridge,
    )[0]


# ---------------------------------------------------------------------------
# grid search


@dataclass(frozen=True)
class GridRow:
    truncation: int
    pattern: str
    components: int
    accuracy: float


@dataclass
class GridSearchResult:
    best_config: PipelineConfig
    best_accuracy: float
    rows: list[GridRow]
    best_report: CrossValReport


def shrinkage_patterns(
    truncation: int,
    spec: EllipsoidSpec | None = None,
    mu_values=(),
    low_pass_only: bool = False,
) -> list[ShrinkageProfile]:
    """Candidate factor profiles for the grid search.

    Binary masks keep a contiguous index range [lo, hi] of the 2T+1
    coefficients (all of them, or only the low-pass lo = 1 family), and
    each requested water-filling level adds the corresponding linear
    minimax profile (``spec`` required for those).
    """
    count = 2 * truncation + 1
    patterns = []
    for lo in range(1, count + 1):
        for hi in range(lo, count + 1):
            factors = np.zeros(count)
            factors[lo - 1 : hi] = 1.0
            patterns.append(
                ShrinkageProfile(factors, truncation, label=f"mask[{lo}:{hi}]")
            )
        if low_pass_only:
            break
    if len(mu_values) and spec is None:
        raise ValueError("mu_values require an ellipsoid spec")
    for mu in mu_values:
        factors = pinsker_weights(spec, float(mu), count)
        patterns.append(
            ShrinkageProfile(factors, truncation, label=f"pinsker(mu={mu:g})")
        )
    return patterns


def grid_search(
    dataset: LabeledDataset,
    scheme: str = "loso",
    truncations=(5,),
    components=(0,),
    spec: EllipsoidSpec | None = None,
    mu_values=(),
    ridge: float | None = None,
    low_pass_only: bool = False,
) -> GridSearchResult:
    """Exhaustive search over (truncation, factor profile, components).

    Profiles come from :func:`shrinkage_patterns` per truncation.  The
    grid is scanned in lexicographic order and ties keep the earliest
    configuration, so results are reproducible.  Each truncation's
    coefficients come once from :func:`dataset_feature_matrix` with the
    all-ones profile; every profile is a column scaling of them, so all
    its configurations share the folds' moments (see
    :func:`_cross_validate_scaled`).
    """
    best: PipelineConfig | None = None
    best_report: CrossValReport | None = None
    best_acc = -1.0
    rows: list[GridRow] = []
    for truncation in truncations:
        candidates = shrinkage_patterns(
            truncation, spec=spec, mu_values=mu_values, low_pass_only=low_pass_only
        )
        configs = [
            PipelineConfig(
                n_samples=dataset.n_samples,
                shrinkage=profile,
                components=int(n_comp),
                ridge=ridge,
            )
            for profile in candidates
            for n_comp in components
        ]
        if not configs:
            continue
        unshrunk = ShrinkageProfile(np.ones(2 * truncation + 1), truncation)
        coeffs = dataset_feature_matrix(
            dataset, PipelineConfig(dataset.n_samples, unshrunk))
        reports = _cross_validate_scaled(
            partial(_column_blocks, coeffs),
            [np.tile(profile.factors, dataset.n_channels) for profile in candidates],
            dataset.labels,
            dataset.session_ids,
            dataset.n_classes,
            scheme,
            [int(p) for p in components],
            ridge,
        )
        for config, report in zip(configs, reports):
            rows.append(
                GridRow(
                    truncation=truncation,
                    pattern=config.shrinkage.label,
                    components=config.components,
                    accuracy=report.overall_accuracy,
                )
            )
            if report.overall_accuracy > best_acc:
                best_acc = report.overall_accuracy
                best, best_report = config, report
    if best is None:
        raise ValueError("empty grid")
    return GridSearchResult(
        best_config=best, best_accuracy=best_acc, rows=rows, best_report=best_report
    )
