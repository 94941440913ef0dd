"""Classification of multichannel trials from shrunken basis coefficients.

Two feature pipelines (linear minimax shrinkage with a configurable factor
profile, and parameter-free blockwise James-Stein) feed an optional PCA
reduction and a regularized LDA.  A minimum-distance decoder over a class
geometry, session-aware cross-validation, and a shrinkage-profile grid
search complete the module.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

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
    """Distance from each row to each class set, (n, n_classes).

    Distance to a class is the smallest distance to one of its prototypes
    minus within_spread, floored at zero; vectors are zero-padded to a
    common width.
    """
    width = rows.shape[1]
    for protos in model.prototypes:
        width = max(width, protos.shape[1])
    padded = np.zeros((rows.shape[0], width))
    padded[:, : rows.shape[1]] = rows
    out = np.empty((rows.shape[0], model.n_classes))
    for k, protos in enumerate(model.prototypes):
        p = np.zeros((protos.shape[0], width))
        p[:, : protos.shape[1]] = protos
        d2 = (
            (padded**2).sum(axis=1)[:, None]
            - 2.0 * padded @ p.T
            + (p**2).sum(axis=1)[None, :]
        )
        nearest = np.sqrt(np.clip(d2, 0.0, None)).min(axis=1)
        out[:, k] = np.clip(nearest - model.within_spread, 0.0, None)
    return out


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
    rows x rows Gram matrix.
    """
    evals, evecs = np.linalg.eigh(sym)
    # eigh sorts ascending; [::-1] puts the largest first
    return evals[::-1][:count], evecs[:, ::-1][:, :count]


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


def _pooled_covariance(X: np.ndarray, y: np.ndarray):
    """Class ids, counts, class means and pooled within-class covariance.

    Requires at least 2 classes and at least 2 samples in each.
    """
    class_ids, counts = np.unique(y, return_counts=True)
    if class_ids.size < 2:
        raise ValueError("LDA needs at least 2 classes")
    if np.any(counts < 2):
        raise ValueError("every class needs at least 2 training samples")
    members = [y == c for c in class_ids]
    means = np.vstack([X[mask].mean(axis=0) for mask in members])
    scatter = np.zeros((X.shape[1], X.shape[1]))
    for mask, m in zip(members, means):
        centered = X[mask] - m
        scatter += centered.T @ centered
    return class_ids, counts, means, scatter / (y.size - class_ids.size)


def lda_train(features, labels, ridge: float | None = None) -> LDAModel:
    """Train LDA with pooled within-class covariance plus a ridge.

    ``ridge`` is added to the diagonal; None selects the default
    1e-6 * trace/dim.  An explicit ridge of 0 on a singular covariance
    raises instead of silently producing garbage.

    Requires at least 2 classes and at least 2 samples in each.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=int)
    if X.ndim != 2 or X.shape[0] != y.size:
        raise ValueError("features must be (n_samples, dim) matching labels")
    n, dim = X.shape
    class_ids, counts, means, pooled = _pooled_covariance(X, y)
    if ridge is None:
        lam = 1e-6 * float(np.trace(pooled)) / dim
    else:
        if ridge < 0.0 or not np.isfinite(ridge):
            raise ValueError("ridge must be finite and nonnegative")
        lam = float(ridge)
    cov = pooled + lam * np.eye(dim)
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError(
            "pooled covariance is singular; pass a positive ridge or reduce "
            "the feature dimension with PCA"
        ) from None
    coef = np.linalg.solve(cov, means.T)
    intercept = -0.5 * np.einsum("kd,dk->k", means, coef) + np.log(counts / n)
    return LDAModel(class_ids=class_ids, coef=coef, intercept=intercept)


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
    = 0 skips PCA.  ``ridge`` = None uses the LDA default.
    """

    n_samples: int
    shrinkage: ShrinkageProfile | BlockPartition
    components: int = 0
    ridge: float | None = None

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")
        if self.components < 0:
            raise ValueError("components must be nonnegative (0 skips PCA)")
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
            head = f"pinsker[{self.shrinkage.label}] T={self.shrinkage.truncation}"
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


def dataset_feature_matrix(dataset: LabeledDataset, config: PipelineConfig) -> np.ndarray:
    """Pre-PCA (n_trials, dim) features; trials must be config.n_samples long."""
    if config.n_samples != dataset.n_samples:
        raise ValueError(
            f"config n_samples {config.n_samples} != dataset's {dataset.n_samples}"
        )
    # one full period per channel of every trial; a view of a C-ordered cube
    rows = dataset.cube.reshape(-1, dataset.n_samples)
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
        k = int(scheme.split(":", 1)[1])
        if not 2 <= k <= n_trials:
            raise ValueError("kfold needs 2 <= k <= n_trials")
        idx = np.arange(n_trials)
        return [(f"fold {f}", idx % k == f) for f in range(k)]
    raise ValueError(f"unknown scheme {scheme!r}; use 'loso' or 'kfold:<k>'")


def _weighted(X: np.ndarray, cols: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """X[:, cols] * weights, without a copy when that is X itself."""
    if cols.size == X.shape[1] and np.all(weights == 1.0):
        return X
    return X[:, cols] * weights


def _centred_gram(X: np.ndarray, cols: np.ndarray, weights: np.ndarray):
    """Gram matrix Z Z' of Z = (X[:, cols] - column means) * weights.

    Z is formed ``_COL_BLOCK`` columns at a time and the blocks' products
    are summed, so no copy of X is made.  A common shift leaves a
    double-centred Gram unchanged; removing the mean first keeps its
    rounding error at the data's spread.
    """
    mean = X.mean(axis=0)
    gram = np.zeros((X.shape[0], X.shape[0]))
    for start in range(0, cols.size, _COL_BLOCK):
        block = cols[start : start + _COL_BLOCK]
        z = np.take(X, block, axis=1)
        z -= mean[block]
        z *= weights[start : start + _COL_BLOCK]
        gram += z @ z.T
        del z  # one block live at a time
    return gram


def _gram_scores(gram: np.ndarray, train, test, count: int):
    """Principal scores of a fold from the Gram matrix of all rows.

    The training block is double-centred with the training mean and the
    test block centred against it, so the top eigenpairs (lam, U) give
    training scores U sqrt(lam) and test scores K_te U / sqrt(lam).
    Components at the rounding level of the matrix (rank below ``count``)
    score zero.
    """
    k_train = gram[np.ix_(train, train)]
    k_test = gram[np.ix_(test, train)]
    col_mean = k_train.mean(axis=0)
    grand = col_mean.mean()
    centred = k_train - col_mean[:, None] - col_mean[None, :] + grand
    cross = k_test - k_test.mean(axis=1)[:, None] - col_mean[None, :] + grand
    evals, vecs = _top_eigenpairs(centred, count)
    alive = evals > max(evals[0], 0.0) * centred.shape[0] * np.finfo(float).eps
    root = np.sqrt(np.where(alive, evals, 1.0))
    train_scores = vecs * np.where(alive, root, 0.0)
    test_scores = cross @ (vecs * np.where(alive, 1.0 / root, 0.0))
    return train_scores, test_scores


def _cross_validate_scaled(
    X: np.ndarray,
    scalings,
    labels,
    sessions,
    n_classes: int,
    scheme: str,
    components,
    ridge: float | None,
) -> list[CrossValReport]:
    """Cross-validate PCA + LDA on column scalings of one feature matrix.

    Each scaling is a (cols, weights) pair naming the features
    X[:, cols] * weights, with ``cols`` increasing; each is
    cross-validated at every PCA size in ``components`` and the reports
    come scaling-major.  The folds share their moments and no component
    matrix is formed.  A scaling no wider than the training rows takes
    the top eigenpairs of diag(w) S diag(w) over its nonzero columns,
    where S is the fold's one scatter of centred training rows; a wider
    one takes them from its Gram matrix, formed once before the folds
    from column blocks of the centred, weighted features, so that no
    feature-sized copy is made (see :func:`_centred_gram` and
    :func:`_gram_scores`).  The scores are those of :func:`pca_fit`
    and :func:`pca_apply` up to a rotation inside the top-P subspace,
    which leaves LDA unchanged.  A scaling with fewer nonzero columns
    than the capped P trains LDA on those columns' scores only; the
    components it leaves out would score zero, so the default ridge is
    1e-6 * trace / P, the capped P, as on the zero-padded scores.
    """
    y = np.asarray(labels, dtype=int)
    folds = _parse_scheme(scheme, y.size, np.asarray(sessions, dtype=int))
    jobs = [(s, int(p)) for s in range(len(scalings)) for p in components]
    confusions = [np.zeros((n_classes, n_classes), dtype=int) for _ in jobs]
    notes: list[list[str]] = [[] for _ in jobs]
    live = [(cols[w != 0.0], w[w != 0.0]) for cols, w in scalings]
    pca = any(p > 0 for _, p in jobs)
    fewest = min(int((~mask).sum()) for _, mask in folds)
    wide = [s for s, (cols, _) in enumerate(scalings) if pca and cols.size > fewest]
    grams = {s: _centred_gram(X, *live[s]) for s in wide}
    for name, test_mask in folds:
        train = ~test_mask
        ytr, yte = y[train], y[test_mask]
        ntr = ytr.size
        missing = sorted(set(range(1, n_classes + 1)) - set(ytr.tolist()))
        narrow = [s for s, (cols, _) in enumerate(scalings) if cols.size <= ntr]
        if pca and narrow:
            used = np.unique(np.concatenate([live[s][0] for s in narrow]))
            block = X[:, used]
            mean = block[train].mean(axis=0)
            centred_train, centred_test = block[train] - mean, block[test_mask] - mean
            scatter = centred_train.T @ centred_train
        scores = {}
        for s, (cols, _) in enumerate(scalings):
            top = max((min(p, ntr - 1, cols.size) for _, p in jobs if p > 0), default=0)
            if top == 0:
                continue
            if cols.size <= ntr:
                at = np.searchsorted(used, live[s][0])
                w = live[s][1]
                _, vecs = _top_eigenpairs(scatter[np.ix_(at, at)] * np.outer(w, w), top)
                scores[s] = tuple(
                    (rows[:, at] * w) @ vecs for rows in (centred_train, centred_test)
                )
            else:
                scores[s] = _gram_scores(grams[s], train, test_mask, top)
        for j, (s, p) in enumerate(jobs):
            if missing:
                notes[j].append(
                    f"{name}: classes {missing} absent from training; skipped there"
                )
            lam = ridge
            if p > 0:
                cap = min(p, ntr - 1, scalings[s][0].size)
                if cap < p:
                    notes[j].append(f"{name}: components capped at {cap} (rank limit)")
                f_train, f_test = (z[:, :cap] for z in scores[s])
                if lam is None and f_train.shape[1] < cap:
                    pooled = _pooled_covariance(f_train, ytr)[3]
                    lam = 1e-6 * float(np.trace(pooled)) / cap
            else:
                feats = _weighted(X, *scalings[s])
                f_train, f_test = feats[train], feats[test_mask]
            model = lda_train(f_train, ytr, lam)
            picks, _ = lda_predict(model, f_test)
            np.add.at(confusions[j], (yte - 1, picks - 1), 1)
    reports = []
    for confusion, job_notes in zip(confusions, notes):
        for msg in job_notes:
            logger.warning(msg)
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

    PCA and LDA are fit on the training folds only.  The requested
    component count is capped at the training-fold rank (with a note) and
    a fold whose training part misses a class trains on the remaining
    classes, again with a note.  The folds share one scatter (dim <=
    training rows) or one Gram matrix (wider features), picked from the
    shape; see :func:`_cross_validate_scaled`.
    """
    X = np.asarray(features, dtype=float)
    cols = np.arange(X.shape[1])
    return _cross_validate_scaled(
        X, [(cols, np.ones(cols.size))], labels, sessions, n_classes, scheme,
        [components], ridge,
    )[0]


def cross_validate(
    dataset: LabeledDataset, config: PipelineConfig, scheme: str = "loso"
) -> CrossValReport:
    """Feature extraction plus :func:`cross_validate_features` on a dataset."""
    features = dataset_feature_matrix(dataset, config)
    return cross_validate_features(
        features,
        dataset.labels,
        dataset.session_ids,
        dataset.n_classes,
        scheme=scheme,
        components=config.components,
        ridge=config.ridge,
    )


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
    configuration, so results are reproducible.  Each truncation
    transforms the dataset once; every profile is a column scaling of
    those coefficients, so all its configurations share the folds'
    moments (see :func:`_cross_validate_scaled`).
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
        count = 2 * truncation + 1
        channels = dataset.cube.reshape(-1, dataset.n_samples)
        coeffs = transform_rows(channels, truncation).reshape(dataset.n_trials, -1)
        offsets = np.arange(dataset.n_channels)[:, None] * count
        scalings = [
            (
                (offsets + np.arange(profile.factors.size)).ravel(),
                np.tile(profile.factors, dataset.n_channels),
            )
            for profile in candidates
        ]
        reports = _cross_validate_scaled(
            coeffs,
            scalings,
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
