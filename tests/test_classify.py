"""Classifier stack tests: decoder, PCA, LDA, pipelines, cross-validation.

PCA and LDA are checked against independent oracles (eigendecomposition of
the covariance, Gaussian log-density Bayes rule) rather than against their
own internals.
"""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from lfpdecode.basis import basis_matrix, transform_rows
from lfpdecode.classify import (
    PipelineConfig,
    ShrinkageProfile,
    _decode_rows,
    cross_validate,
    cross_validate_features,
    dataset_feature_matrix,
    grid_search,
    lda_predict,
    lda_train,
    magnitude_features,
    pca_apply,
    pca_fit,
    shrinkage_patterns,
)
from lfpdecode.shrinkage import BlockPartition, EllipsoidSpec, bjs_coefficient_count
from lfpdecode.synth import (
    ClassModel,
    LabeledDataset,
    NoiseModel,
    generate_dataset,
    make_class_model,
)

SPEC = EllipsoidSpec(2.0, 10.0)


def _toy_model(spread=0.3):
    # two prototypes per class, placed far apart by hand
    base = np.zeros(5)
    protos = (
        np.stack([base + [4.0, 0, 0, 0, 0], base + [4.0, 0.5, 0, 0, 0]]),
        np.stack([base - [4.0, 0, 0, 0, 0], base - [4.0, 0.5, 0, 0, 0]]),
        np.stack([base + [0, 2.0, 0, 0, 0], base + [0, 2.2, 0, 0, 0]]),
    )
    return ClassModel(protos, 1.0, spread, EllipsoidSpec(2.0, 50.0), 2)


def test_decoder_matches_brute_force():
    model = _toy_model()
    rng = np.random.default_rng(0)
    rows = rng.normal(scale=3.0, size=(100, 5))
    got = _decode_rows(rows, model)
    for fhat, pick in zip(rows, got):
        dists = []
        for protos in model.prototypes:
            nearest = min(np.linalg.norm(fhat - p) for p in protos)
            dists.append(max(nearest - model.within_spread, 0.0))
        assert pick == int(np.argmin(dists)) + 1


def test_decoder_breaks_ties_toward_lowest_label():
    protos = (
        np.array([[1.0, 0.0, 0.0, 0.0, 0.0]]),
        np.array([[-1.0, 0.0, 0.0, 0.0, 0.0]]),
        np.array([[0.0, 9.0, 0.0, 0.0, 0.0]]),
    )
    model = ClassModel(protos, 0.4, 0.0, EllipsoidSpec(2.0, 50.0), 2)
    # the origin ties classes 1 and 2 and is far from class 3
    assert_array_equal(_decode_rows(np.zeros((1, 5)), model), [1])


def test_decoder_pads_shorter_estimates():
    model = _toy_model()
    short = np.array([[4.0, 0.0], [-4.0, 0.0]])
    assert_array_equal(_decode_rows(short, model), [1, 2])


def test_pca_matches_eigendecomposition():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(40, 6)) @ np.diag([5.0, 3.0, 2.0, 1.0, 0.5, 0.1])
    proj = pca_fit(x, 4)
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (len(x) - 1)
    evals, evecs = np.linalg.eigh(cov)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    assert_allclose(proj.explained_variance, evals[:4], rtol=1e-10)
    # components match up to sign
    for i in range(4):
        dot = abs(float(proj.components[i] @ evecs[:, i]))
        assert_allclose(dot, 1.0, rtol=1e-10)


def test_pca_components_are_orthonormal_and_sign_fixed():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(30, 5))
    proj = pca_fit(x, 3)
    assert_allclose(proj.components @ proj.components.T, np.eye(3), atol=1e-12)
    for row in proj.components:
        assert row[np.argmax(np.abs(row))] > 0.0


def test_pca_apply_reduces_dimension():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(20, 6))
    proj = pca_fit(x, 2)
    z = pca_apply(proj, x)
    assert z.shape == (20, 2)
    want = (x - proj.mean) @ proj.components.T
    assert_allclose(z, want, rtol=1e-12)


def test_pca_component_cap():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 8))
    with pytest.raises(ValueError):
        pca_fit(x, 5)  # only n-1 = 4 available
    with pytest.raises(ValueError):
        pca_fit(x, 0)


def _svd_reference(x, n_components):
    centered = x - x.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    return svals[:n_components] ** 2 / (len(x) - 1), vt[:n_components]


def test_pca_wide_matches_svd():
    # more features than samples: the fit goes through the n x n Gram matrix
    rng = np.random.default_rng(6)
    x = rng.normal(size=(25, 60)) * np.linspace(4.0, 0.2, 60)
    proj = pca_fit(x, 10)
    variance, axes = _svd_reference(x, 10)
    assert_allclose(proj.explained_variance, variance, rtol=1e-8)
    dots = np.abs(np.sum(proj.components * axes, axis=1))
    assert_allclose(dots, 1.0, atol=1e-8)
    for row in proj.components:
        assert row[np.argmax(np.abs(row))] > 0.0


def test_pca_wide_rank_deficient_stays_orthonormal():
    # three copies of 6 rows: centered rank 5, yet 12 components requested
    rng = np.random.default_rng(7)
    base = rng.normal(size=(6, 40))
    x = np.vstack([base, base, base])
    proj = pca_fit(x, 12)
    assert_allclose(proj.components @ proj.components.T, np.eye(12), atol=1e-10)
    variance, _ = _svd_reference(x, 5)
    assert_allclose(proj.explained_variance[:5], variance, rtol=1e-8)
    assert_allclose(proj.explained_variance[5:], 0.0, atol=1e-10 * variance[0])
    assert_allclose(pca_apply(proj, x)[:, 5:], 0.0, atol=1e-10)


def test_pca_tall_with_zero_columns_stays_orthonormal():
    # a masked feature profile: 8 of 12 columns are exactly zero, so the
    # d x d scatter has rank 4 and 8 components exceed it
    rng = np.random.default_rng(8)
    x = np.zeros((50, 12))
    x[:, :4] = rng.normal(size=(50, 4)) * [3.0, 2.0, 1.0, 0.5]
    proj = pca_fit(x, 8)
    assert_allclose(proj.components @ proj.components.T, np.eye(8), atol=1e-10)
    variance, axes = _svd_reference(x, 4)
    assert_allclose(proj.explained_variance[:4], variance, rtol=1e-8)
    assert_allclose(proj.explained_variance[4:], 0.0, atol=1e-12)
    assert_allclose(np.abs(np.sum(proj.components[:4] * axes, axis=1)), 1.0,
                    atol=1e-8)
    assert_allclose(pca_apply(proj, x)[:, 4:], 0.0, atol=1e-12)


def test_lda_matches_gaussian_bayes_oracle():
    rng = np.random.default_rng(5)
    means = np.array([[0.0, 0.0], [3.0, 1.0], [-1.0, 4.0]])
    xs, ys = [], []
    for k, m in enumerate(means):
        xs.append(rng.normal(size=(30, 2)) + m)
        ys.append(np.full(30, k + 1))
    x = np.vstack(xs)
    y = np.concatenate(ys)
    ridge = 1e-8
    model = lda_train(x, y, ridge=ridge)

    # oracle: pooled-covariance Gaussian log densities + log priors
    mhat = np.stack([x[y == k].mean(axis=0) for k in (1, 2, 3)])
    scatter = sum(
        (x[y == k] - mhat[k - 1]).T @ (x[y == k] - mhat[k - 1]) for k in (1, 2, 3)
    )
    cov = scatter / (len(x) - 3) + ridge * np.eye(2)
    cov_inv = np.linalg.inv(cov)
    test_points = rng.normal(scale=3.0, size=(50, 2))
    want_scores = np.empty((50, 3))
    for k in range(3):
        diff = test_points - mhat[k]
        want_scores[:, k] = (
            -0.5 * np.einsum("ij,jk,ik->i", diff, cov_inv, diff) + np.log(1 / 3)
        )
    picks, scores = lda_predict(model, test_points)
    assert_allclose(picks, np.argmax(want_scores, axis=1) + 1)
    # scores differ from the oracle by a per-point constant only
    shifted = scores - scores[:, :1]
    want_shifted = want_scores - want_scores[:, :1]
    assert_allclose(shifted, want_shifted, atol=1e-6)


def test_lda_huge_ridge_degenerates_to_nearest_mean():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(60, 3))
    y = np.repeat([1, 2, 3], 20)
    x[y == 2] += 4.0
    x[y == 3] -= 4.0
    model = lda_train(x, y, ridge=1e9)
    mhat = np.stack([x[y == k].mean(axis=0) for k in (1, 2, 3)])
    probes = rng.normal(scale=4.0, size=(40, 3))
    picks, _ = lda_predict(model, probes)
    want = np.argmin(
        ((probes[:, None, :] - mhat[None]) ** 2).sum(axis=2), axis=1
    ) + 1
    assert_allclose(picks, want)


def test_lda_requires_two_samples_per_class():
    x = np.vstack([np.zeros(3), np.ones(3), 2 * np.ones(3)])
    with pytest.raises(ValueError):
        lda_train(x, np.array([1, 1, 2]))


def test_lda_singular_covariance_without_ridge():
    rng = np.random.default_rng(7)
    flat = rng.normal(size=(20, 1)) @ np.ones((1, 4))  # rank-1 features
    y = np.repeat([1, 2], 10)
    with pytest.raises(ValueError, match="ridge"):
        lda_train(flat, y, ridge=0.0)


def test_magnitude_features_per_channel_blocks():
    # one channel of width 5: constant plus two (cos, sin) pairs
    row = np.array([[-1.5, 3.0, 4.0, 0.0, -2.0]])
    out = magnitude_features(row, 5)
    assert_allclose(out, [[1.5, 5.0, 0.0, 2.0, 0.0]])
    two = np.hstack([row, row])
    assert_allclose(magnitude_features(two, 5), np.hstack([out, out]))


def test_bjs_coefficient_count_values():
    assert bjs_coefficient_count(500) == 249
    assert bjs_coefficient_count(8) == 3
    assert bjs_coefficient_count(64) == 31
    # never more coefficients than samples
    assert bjs_coefficient_count(3) <= 3
    # N = 2 mod 4 used to get a band one harmonic too wide (33 at N = 66)
    assert bjs_coefficient_count(66) == 31
    for n in range(4, 600):
        count = bjs_coefficient_count(n)
        assert count % 2 == 1 and 2 * count < n <= 2 * (count + 2)


def test_pinsker_features_match_manual_transform():
    model = make_class_model(3, SPEC, 3, 0.5, 0.1, seed=0)
    ds = generate_dataset(model, 1, 2, 64, 1, NoiseModel(0.3), seed=1)
    factors = np.array([1.0, 1.0, 0.5, 0.25, 0.0])
    profile = ShrinkageProfile(factors, 2, label="test")
    config = PipelineConfig(64, profile, components=0)
    feats = dataset_feature_matrix(ds, config)
    manual = transform_rows(ds.cube[0], 2)[:, :5] * factors
    assert_allclose(feats[0], manual.reshape(-1), rtol=1e-12)


def test_bjs_features_have_partition_width():
    model = make_class_model(3, SPEC, 3, 0.5, 0.1, seed=0)
    ds = generate_dataset(model, 1, 2, 64, 1, NoiseModel(0.3), seed=1)
    config = PipelineConfig.bjs(64, pass_limit=2, components=0)
    feats = dataset_feature_matrix(ds, config)
    assert feats.shape == (3, 2 * config.channel_width)
    assert config.channel_width == 63


def test_pipeline_config_validation():
    profile = ShrinkageProfile(np.ones(11), 5, label="full")
    with pytest.raises(ValueError):
        PipelineConfig(20, profile)  # 2*(2T+1) = 22 > 20
    with pytest.raises(ValueError, match="floor"):
        PipelineConfig(64, BlockPartition(2, 5))  # cutoff is log2(64) = 6
    with pytest.raises(ValueError):
        ShrinkageProfile(np.array([0.5, 1.5]), 1)


def test_dataset_feature_matrix_stacks_trials():
    model = make_class_model(3, SPEC, 3, 0.5, 0.1, seed=2)
    ds = generate_dataset(model, 2, 2, 64, 1, NoiseModel(0.3), seed=3)
    profile = ShrinkageProfile(np.ones(7), 3, label="full")
    config = PipelineConfig(64, profile, components=0)
    feats = dataset_feature_matrix(ds, config)
    assert feats.shape == (6, 14)
    for i, channels in enumerate(ds.cube):
        assert_allclose(feats[i], transform_rows(channels, 3).reshape(-1),
                        rtol=1e-12)


def test_dataset_feature_matrix_makes_no_copy_of_the_cube():
    # the channel rows are a view of the cube: only the transform's
    # (rows, 2T+1) output and its basis matrix are allocated
    model = make_class_model(2, SPEC, 3, 0.5, 0.1, seed=4)
    ds = generate_dataset(model, 32, 8, 512, 2, NoiseModel(0.3), seed=5)
    config = PipelineConfig(512, ShrinkageProfile(np.ones(11), 5, "raw"))
    tracemalloc.start()
    try:
        feats = dataset_feature_matrix(ds, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert feats.shape == (64, 8 * 11)
    assert peak < ds.cube.nbytes / 2


@pytest.mark.parametrize(
    "config",
    [
        PipelineConfig(64, ShrinkageProfile(np.ones(7), 3, label="mask[1:7]")),
        PipelineConfig.bjs(100),
        PipelineConfig.bjs(256),
    ],
    ids=["profile-64", "bjs-100", "bjs-256"],
)
def test_feature_matrix_rejects_a_config_for_another_sample_count(config):
    # a shorter config would decode the first samples of each trial as if
    # they were one full period; a longer one has no samples to read
    model = make_class_model(3, SPEC, 3, 0.5, 0.1, seed=6)
    ds = generate_dataset(model, 4, 2, 128, 2, NoiseModel(0.3), seed=7)
    with pytest.raises(ValueError, match="n_samples"):
        dataset_feature_matrix(ds, config)
    with pytest.raises(ValueError, match="n_samples"):
        cross_validate(ds, config)


def _blob_features(rng, n_per_class=12, k=3, d=4, sep=6.0):
    xs, ys, gs = [], [], []
    for c in range(k):
        center = np.zeros(d)
        center[c % d] = sep * (c + 1)
        xs.append(rng.normal(size=(n_per_class, d)) + center)
        ys.append(np.full(n_per_class, c + 1))
        gs.append(np.arange(n_per_class) % 3 + 1)
    return np.vstack(xs), np.concatenate(ys), np.concatenate(gs)


def test_kfold_n_matches_leave_one_out():
    rng = np.random.default_rng(9)
    x, y, _ = _blob_features(rng)
    n = len(x)
    sessions = np.ones(n, dtype=int)
    report = cross_validate_features(x, y, sessions, 3, scheme=f"kfold:{n}")
    # manual leave-one-out
    hits = 0
    for i in range(n):
        mask = np.arange(n) != i
        model = lda_train(x[mask], y[mask])
        picks, _ = lda_predict(model, x[i : i + 1])
        hits += int(picks[0] == y[i])
    assert_allclose(report.overall_accuracy, hits / n)


def test_loso_needs_multiple_sessions():
    rng = np.random.default_rng(10)
    x, y, _ = _blob_features(rng)
    with pytest.raises(ValueError):
        cross_validate_features(x, y, np.ones(len(x), dtype=int), 3)


def test_unknown_scheme_rejected():
    rng = np.random.default_rng(11)
    x, y, g = _blob_features(rng)
    with pytest.raises(ValueError, match="loso"):
        cross_validate_features(x, y, g, 3, scheme="bootstrap")
    with pytest.raises(ValueError):
        cross_validate_features(x, y, g, 3, scheme="kfold:1")


def test_separable_blobs_reach_full_accuracy():
    rng = np.random.default_rng(12)
    x, y, g = _blob_features(rng, sep=10.0)
    report = cross_validate_features(x, y, g, 3, scheme="loso")
    assert report.overall_accuracy == 1.0
    assert report.confusion.shape == (3, 3)
    assert report.confusion.sum() == len(x)


def test_permuted_labels_fall_to_chance():
    rng = np.random.default_rng(13)
    x, y, g = _blob_features(rng, n_per_class=40, sep=8.0)
    y_perm = rng.permutation(y)
    report = cross_validate_features(x, y_perm, g, 3, scheme="loso")
    assert report.overall_accuracy < 0.5


def test_accuracy_is_rotation_invariant():
    rng = np.random.default_rng(14)
    x, y, g = _blob_features(rng, n_per_class=15, sep=5.0)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    base = cross_validate_features(x, y, g, 3, scheme="loso", components=2)
    rotated = cross_validate_features(x @ q, y, g, 3, scheme="loso", components=2)
    assert_allclose(rotated.overall_accuracy, base.overall_accuracy, atol=1e-9)
    assert_allclose(rotated.confusion, base.confusion)


def _wide_blobs(seed, n_per_class, d):
    # class means 0.01 * label on every other column under noise sd 0.01,
    # so the classes separate along a direction spread over d / 2 columns;
    # 4 sessions
    rng = np.random.default_rng(seed)
    y = np.repeat([1, 2, 3], n_per_class)
    g = np.tile([1, 2, 3, 4], 3 * n_per_class // 4)
    x = 0.01 * rng.standard_normal((y.size, d))
    x[:, ::2] += 0.01 * y[:, None]
    return x, y, g


def test_wide_cross_validation_makes_no_copy_of_the_features():
    # 16,000 columns over 240 rows: the Gram matrix is formed from column
    # blocks, so no centred copy of the features is allocated
    x, y, g = _wide_blobs(16, 80, 16_000)
    tracemalloc.start()
    try:
        report = cross_validate_features(x, y, g, 3, components=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.overall_accuracy == 1.0
    assert peak < 0.25 * x.nbytes


def test_wide_confusion_is_unchanged_by_a_common_shift():
    # an uncentred Gram of features near 1e6 would lose the 0.01 spread
    # to rounding; removing the mean first keeps it
    x, y, g = _wide_blobs(17, 20, 2_500)
    base = cross_validate_features(x, y, g, 3, components=5)
    shifted = cross_validate_features(x + 1e6, y, g, 3, components=5)
    assert base.overall_accuracy == 1.0
    assert_array_equal(shifted.confusion, base.confusion)


def test_components_capped_by_training_rank():
    rng = np.random.default_rng(15)
    x, y, g = _blob_features(rng, n_per_class=4, sep=8.0)
    report = cross_validate_features(x, y, g, 3, scheme="loso", components=30)
    assert any("capped" in note for note in report.notes)


# -- the fold loop against a chain of pca_fit, pca_apply, lda_train, lda_predict


def _reference_cross_validate(x, y, g, n_classes, scheme="loso", components=0,
                              ridge=None):
    """Confusion and notes of a fold loop that fits a full PCA per fold."""
    if scheme == "loso":
        folds = [(f"session {s}", g == s) for s in np.unique(g)]
    else:
        k = int(scheme.split(":")[1])
        folds = [(f"fold {f}", np.arange(y.size) % k == f) for f in range(k)]
    confusion = np.zeros((n_classes, n_classes), dtype=int)
    notes = []
    for name, test in folds:
        x_train, y_train, x_test = x[~test], y[~test], x[test]
        missing = sorted(set(range(1, n_classes + 1)) - set(y_train.tolist()))
        if missing:
            notes.append(f"{name}: classes {missing} absent from training; "
                         "skipped there")
        if components > 0:
            cap = min(components, y_train.size - 1, x.shape[1])
            if cap < components:
                notes.append(f"{name}: components capped at {cap} (rank limit)")
            projection = pca_fit(x_train, cap)
            x_train = pca_apply(projection, x_train)
            x_test = pca_apply(projection, x_test)
        picks, _ = lda_predict(lda_train(x_train, y_train, ridge), x_test)
        for truth, pick in zip(y[test], picks):
            confusion[truth - 1, pick - 1] += 1
    return confusion, notes


def _assert_matches_reference(x, y, g, n_classes, **kwargs):
    report = cross_validate_features(x, y, g, n_classes, **kwargs)
    confusion, notes = _reference_cross_validate(x, y, g, n_classes, **kwargs)
    assert_array_equal(report.confusion, confusion)
    assert report.notes == notes
    return report


def _hard_blobs(seed, n_per_class, d, sep=1.2):
    # overlapping classes, so the confusion matrices have errors to compare
    return _blob_features(np.random.default_rng(seed), n_per_class=n_per_class,
                          k=3, d=d, sep=sep)


@pytest.mark.parametrize("d, components", [(60, 5), (60, 20), (2100, 5), (6, 3)],
                         ids=["wide", "wide-many", "wide-column-blocks", "narrow"])
def test_fold_loop_matches_reference(d, components):
    x, y, g = _hard_blobs(30, 12, d)
    report = _assert_matches_reference(x, y, g, 3, components=components)
    assert 0 < np.trace(report.confusion) < y.size


def test_fold_loop_matches_reference_on_duplicated_wide_rows():
    # sessions 1 and 2 hold the same 12 rows, so the session-3 fold trains
    # on rank 11 < P = 20 and its test rows leave the training span; the
    # null components must score zero, not divide by ~0
    rng = np.random.default_rng(31)
    base, labels, _ = _blob_features(rng, n_per_class=4, k=3, d=50, sep=2.0)
    fresh, _, _ = _blob_features(rng, n_per_class=4, k=3, d=50, sep=2.0)
    x = np.vstack([base, base, fresh])
    y = np.concatenate([labels, labels, labels])
    g = np.repeat([1, 2, 3], 12)
    _assert_matches_reference(x, y, g, 3, components=20)
    _assert_matches_reference(x, y, g, 3, components=20, scheme="kfold:4")


def test_fold_loop_matches_reference_with_zero_columns():
    # coefficient 2 separates the classes with a within-class variance near
    # the default ridge, so its LDA weight moves with the ridge; 3 of the 5
    # coefficients are zero in the data
    rng = np.random.default_rng(32)
    y = np.repeat([1, 2], 30)
    g = np.tile([1, 2, 3], 20)
    theta = np.zeros((60, 5))
    theta[:, 0] = np.where(y == 1, 0.5, -0.5) + rng.normal(size=60)
    theta[:, 1] = np.where(y == 1, -4e-4, 4e-4) + 3e-4 * rng.normal(size=60)
    report = _assert_matches_reference(theta, y, g, 2, components=4)
    assert 0 < np.trace(report.confusion) < y.size
    _assert_matches_reference(theta, y, g, 2, components=0)
    # the same data as a dataset: mask[1:2] zeroes 3 columns, so P = 4
    # keeps 2 null components and the ridge must still divide by 4
    phi = basis_matrix(5, np.arange(64) / 64)
    ds = LabeledDataset((theta @ phi)[:, None, :], y, g, 2)
    result = grid_search(ds, truncations=(2,), components=(4,), low_pass_only=True)
    masks = {p.label: p for p in shrinkage_patterns(2, low_pass_only=True)}
    assert [row.pattern for row in result.rows] == list(masks)
    for row in result.rows:
        config = PipelineConfig(64, masks[row.pattern], components=4)
        confusion, _ = _reference_cross_validate(
            dataset_feature_matrix(ds, config), y, g, 2, components=4
        )
        assert row.accuracy == np.trace(confusion) / y.size
    by_pattern = {row.pattern: row.accuracy for row in result.rows}
    assert by_pattern["mask[1:2]"] == by_pattern["mask[1:5]"]


def test_fold_loop_matches_reference_on_kfold_missing_class_and_cap():
    x, y, g = _hard_blobs(33, 10, 8)
    _assert_matches_reference(x, y, g, 3, scheme="kfold:5", components=4)
    # class 3 only in session 1: that fold trains on two classes
    g = np.where(y == 3, 1, g)
    report = _assert_matches_reference(x, y, g, 3, components=4)
    assert any("absent from training" in note for note in report.notes)
    # 6 rows per fold: P = 30 is capped at 5 on every fold
    few, y_few, g_few = _hard_blobs(34, 3, 40)
    report = _assert_matches_reference(few, y_few, g_few, 3, components=30)
    assert sum("capped at 5" in note for note in report.notes) == 3


def test_fold_loop_matches_reference_without_pca():
    for d in (6, 60):
        x, y, g = _hard_blobs(35, 12, d)
        _assert_matches_reference(x, y, g, 3, components=0, ridge=0.5)
        _assert_matches_reference(x, y, g, 3, components=0)


def test_fold_loop_zero_ridge_on_singular_covariance_raises():
    # wide features without PCA, and null components from zero columns
    x, y, g = _hard_blobs(36, 12, 60)
    padded = np.hstack([x[:, :3], np.zeros((x.shape[0], 5))])
    for features, components in ((x, 0), (padded, 6)):
        with pytest.raises(ValueError, match="singular"):
            _reference_cross_validate(features, y, g, 3, components=components,
                                      ridge=0.0)
        with pytest.raises(ValueError, match="singular"):
            cross_validate_features(features, y, g, 3, components=components,
                                    ridge=0.0)


def test_grid_rows_equal_per_profile_cross_validation():
    model = make_class_model(3, SPEC, 3, 0.6, 0.05, seed=40)
    # noisy enough that scaling columns by pinsker(mu=10) moves the PCA
    # subspace at P = 3, and with it the accuracy
    ds = generate_dataset(model, 8, 2, 64, 3, NoiseModel(sigma=8.0), seed=41)
    result = grid_search(ds, truncations=(2, 3), components=(0, 3), spec=SPEC,
                         mu_values=(10.0,), low_pass_only=True)
    profiles = {}
    for truncation in (2, 3):
        for profile in shrinkage_patterns(truncation, spec=SPEC, mu_values=(10.0,),
                                          low_pass_only=True):
            profiles[truncation, profile.label] = profile
    assert len(result.rows) == 2 * len(profiles)
    assert any(row.pattern.startswith("pinsker(mu=") for row in result.rows)
    accuracies = set()
    for row in result.rows:
        config = PipelineConfig(64, profiles[row.truncation, row.pattern],
                                components=row.components)
        report = cross_validate(ds, config)
        confusion, notes = _reference_cross_validate(
            dataset_feature_matrix(ds, config), ds.labels, ds.session_ids, 3,
            components=row.components,
        )
        assert row.accuracy == report.overall_accuracy
        assert_array_equal(report.confusion, confusion)
        assert report.notes == notes
        accuracies.add(row.accuracy)
    assert len(accuracies) > 1
    best = cross_validate(ds, result.best_config)
    assert_array_equal(result.best_report.confusion, best.confusion)
    assert result.best_report.notes == best.notes


def test_shrinkage_pattern_enumeration():
    patterns = shrinkage_patterns(2, low_pass_only=True)
    labels = [p.label for p in patterns]
    assert labels == [
        "mask[1:1]", "mask[1:2]", "mask[1:3]", "mask[1:4]", "mask[1:5]",
    ]
    full = shrinkage_patterns(2)
    assert len(full) == 15  # all contiguous [lo, hi] windows of 5 coords
    spec_patterns = shrinkage_patterns(2, spec=SPEC, mu_values=(30.0,))
    assert any("pinsker" in p.label for p in spec_patterns)
    with pytest.raises(ValueError):
        shrinkage_patterns(2, mu_values=(30.0,))


def test_grid_search_prefers_separating_band():
    # classes differ only in the first harmonic pair; masks that include
    # it should win over the pure-constant mask
    rng = np.random.default_rng(16)
    protos = []
    for k in range(3):
        theta = np.zeros(7)
        ang = 2.0 * np.pi * k / 3.0
        theta[1], theta[2] = 1.8 * np.cos(ang), 1.8 * np.sin(ang)
        protos.append(theta[None, :])
    model = ClassModel(tuple(protos), 1.0, 0.05, EllipsoidSpec(2.0, 60.0), 3)
    ds = generate_dataset(model, 6, 2, 64, 3, NoiseModel(sigma=0.5), seed=17)
    result = grid_search(ds, scheme="loso", truncations=(3,), components=(0,),
                         low_pass_only=True)
    assert result.best_accuracy >= 0.9
    assert result.best_config.label.startswith("pinsker[mask[1:")
    assert "mask[1:1]" not in result.best_config.label
    # rows cover the whole grid and the winner's accuracy matches its row
    assert len(result.rows) == 7
    best_rows = [r for r in result.rows if r.accuracy == result.best_accuracy]
    assert best_rows[0].pattern in result.best_config.label


def test_grid_search_empty_grid_rejected():
    model = _toy_model()
    ds = generate_dataset(model, 2, 1, 64, 2, NoiseModel(0.2), seed=18)
    with pytest.raises(ValueError, match="empty grid"):
        grid_search(ds, truncations=(), components=(0,))


def test_cross_validate_dataset_end_to_end_deterministic():
    model = make_class_model(3, SPEC, 3, 0.6, 0.05, seed=20)
    ds = generate_dataset(model, 4, 2, 64, 2, NoiseModel(sigma=0.4), seed=21)
    config = PipelineConfig.bjs(64, pass_limit=2, components=0)
    r1 = cross_validate(ds, config, scheme="loso")
    r2 = cross_validate(ds, config, scheme="loso")
    assert r1.overall_accuracy == r2.overall_accuracy
    assert_allclose(r1.confusion, r2.confusion)
