"""Classifier stack tests: decoder, PCA, LDA, pipelines, cross-validation.

PCA and LDA are checked against independent oracles (eigendecomposition of
the covariance, Gaussian log-density Bayes rule) rather than against their
own internals.
"""

import logging
import sys
import threading
import tracemalloc
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from lfpdecode import classify, cpus
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
from lfpdecode.cli import _full_band_profile
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
    # one prototype per class, placed far apart by hand
    protos = np.array([
        [4.0, 0.0, 0.0, 0.0, 0.0],
        [-4.0, 0.5, 0.0, 0.0, 0.0],
        [0.0, 2.2, 0.0, 0.0, 0.0],
    ])
    return ClassModel(protos, 1.0, spread, EllipsoidSpec(2.0, 50.0))


def test_decoder_matches_brute_force():
    model = _toy_model()
    rng = np.random.default_rng(0)
    rows = rng.normal(scale=3.0, size=(100, 5))
    got = _decode_rows(rows, model)
    for fhat, pick in zip(rows, got):
        dists = [
            max(np.linalg.norm(fhat - proto) - model.within_spread, 0.0)
            for proto in model.prototypes
        ]
        assert pick == int(np.argmin(dists)) + 1


def test_decoder_breaks_ties_toward_lowest_label():
    protos = np.array([
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 9.0, 0.0, 0.0, 0.0],
    ])
    model = ClassModel(protos, 0.4, 0.0, EllipsoidSpec(2.0, 50.0))
    # the origin ties classes 1 and 2 and is far from class 3
    assert_array_equal(_decode_rows(np.zeros((1, 5)), model), [1])


def test_decoder_pads_shorter_estimates():
    model = _toy_model()
    short = np.array([[4.0, 0.0], [-4.0, 0.0]])
    assert_array_equal(_decode_rows(short, model), [1, 2])
    # estimates wider than the prototypes meet zero-padded prototypes
    wide = np.hstack([short, np.zeros((2, 6))])
    wide[:, -1] = 3.0
    assert_array_equal(_decode_rows(wide, model), [1, 2])
    assert_allclose(classify._class_distances(wide, model)[0, 0], 3.0 - 0.3)


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
    for raw in ("abc", "2.5", ""):
        message = f"kfold:<k> needs an integer k, got '{raw}'"
        with pytest.raises(ValueError, match=message):
            cross_validate_features(x, y, g, 3, scheme=f"kfold:{raw}")


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


def _ridge_sensitive_theta(seed):
    # coefficient 2 separates the classes with a within-class variance near
    # the default ridge, so its LDA weight moves with the ridge
    rng = np.random.default_rng(seed)
    y = np.repeat([1, 2], 30)
    g = np.tile([1, 2, 3], 20)
    theta = np.zeros((60, 5))
    theta[:, 0] = np.where(y == 1, 0.5, -0.5) + rng.normal(size=60)
    theta[:, 1] = np.where(y == 1, -4e-4, 4e-4) + 3e-4 * rng.normal(size=60)
    theta[:, 2:] = rng.normal(size=(60, 3))
    return theta, y, g


def _assert_scaling_matches_reference(x, weights, y, g, n_classes, **kwargs):
    # one column scaling through the fold loop, against the reference
    # chain on the weighted columns themselves
    report = classify._cross_validate_scaled(
        partial(classify._column_blocks, x), [weights], y, g, n_classes,
        kwargs.get("scheme", "loso"), [kwargs.get("components", 0)],
        kwargs.get("ridge"),
    )[0]
    confusion, notes = _reference_cross_validate(x * weights, y, g, n_classes,
                                                 **kwargs)
    assert_array_equal(report.confusion, confusion)
    assert report.notes == notes
    return report


def test_moments_match_reference_with_fewer_live_columns_than_p():
    # weights zero 3 of the 5 columns, so P = 4 keeps 2 components and the
    # default ridge divides by 4; P = 0 keeps the same 2 and divides by 5
    theta, y, g = _ridge_sensitive_theta(37)
    wide = np.hstack([theta, np.random.default_rng(38).normal(size=(60, 195))])
    for components in (4, 0):
        weights = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        report = _assert_scaling_matches_reference(theta, weights, y, g, 2,
                                                   components=components)
        assert 0 < np.trace(report.confusion) < y.size
        # the same on the Gram path: 200 columns over 40 training rows, 2 live
        _assert_scaling_matches_reference(wide, np.r_[1.0, 1.0, np.zeros(198)],
                                          y, g, 2, components=components)


@pytest.mark.parametrize("d", [8, 60], ids=["narrow", "wide"])
def test_moments_match_reference_on_a_fold_missing_a_class(d):
    x, y, g = _hard_blobs(39, 12, d)
    # class 2 only in session 3: that fold trains on classes 1 and 3
    g = np.where(y == 2, 3, g)
    for components in (5, 0):
        report = _assert_matches_reference(x, y, g, 3, components=components)
        assert report.notes == [
            "session 3: classes [2] absent from training; skipped there"
        ]


def test_moments_match_reference_on_a_rank_deficient_wide_gram():
    # 60 columns spanned by 4 directions: P = 20 leaves 16 or more dead
    # components on every fold, with zero eigenvalue and zero score
    x, y, g = _hard_blobs(40, 12, 4)
    wide = x @ np.random.default_rng(41).normal(size=(4, 60))
    report = _assert_matches_reference(wide, y, g, 3, components=20)
    assert 0 < np.trace(report.confusion) < y.size
    _assert_matches_reference(wide, y, g, 3, components=20, scheme="kfold:4")
    # P = 0 keeps every component the Gram has, live or dead
    for scheme in ("loso", "kfold:4"):
        _assert_matches_reference(wide, y, g, 3, components=0, scheme=scheme)


def test_moments_zero_ridge_with_fewer_live_columns_than_p_raises():
    # the components the zero weights leave out make the covariance of
    # P = 4, and of all 5 columns at P = 0, singular, as on the zero-padded
    # reference scores
    theta, y, g = _ridge_sensitive_theta(37)
    weights = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
    for components in (4, 0):
        with pytest.raises(ValueError, match="singular"):
            _reference_cross_validate(theta * weights, y, g, 2,
                                      components=components, ridge=0.0)
        with pytest.raises(ValueError, match="singular"):
            classify._cross_validate_scaled(partial(classify._column_blocks, theta),
                                            [weights], y, g, 2, "loso",
                                            [components], 0.0)
    # with every column live, ridge 0 is not singular and nothing raises
    _assert_scaling_matches_reference(theta, np.ones(5), y, g, 2,
                                      components=4, ridge=0.0)


def test_fold_jobs_train_lda_from_moments(monkeypatch):
    # P = 0 is the every-component case of the moments route, so no fold
    # job trains on feature rows, narrow or wide, with or without PCA
    calls = []
    real = classify.lda_train
    monkeypatch.setattr(classify, "lda_train",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    for d in (6, 60):
        x, y, g = _hard_blobs(42, 12, d)
        for components in (0, 4):
            cross_validate_features(x, y, g, 3, components=components)
    model = make_class_model(3, SPEC, 3, 0.6, 0.05, seed=43)
    ds = generate_dataset(model, 6, 2, 64, 3, NoiseModel(sigma=1.0), seed=44)
    grid_search(ds, truncations=(2,), components=(0, 3), low_pass_only=True)
    assert calls == []


def test_wide_cross_validation_without_pca_forms_no_dim_by_dim_matrix():
    # 3,000 columns over 120 rows at P = 0: LDA comes from the Gram matrix's
    # eigenpairs, so the peak stays far below one 72 MB 3,000 x 3,000 matrix
    x, y, g = _wide_blobs(18, 40, 3_000)
    tracemalloc.start()
    try:
        report = cross_validate_features(x, y, g, 3, components=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.overall_accuracy == 1.0
    assert peak < 0.1 * x.shape[1] ** 2 * x.itemsize


def test_wide_dataset_cross_validation_never_holds_the_feature_matrix():
    # 32 channels of 255 BJS coefficients over 64 trials: 8,160 columns
    # over 32 training rows, so the Gram matrix is built a few channels at
    # a time and the 4.2 MB trials x width matrix is never allocated
    model = make_class_model(4, SPEC, 3, 0.6, 0.05, seed=47)
    ds = generate_dataset(model, 16, 32, 256, 2, NoiseModel(sigma=1.0), seed=48)
    config = PipelineConfig.bjs(256, components=5)
    width = ds.n_channels * config.channel_width
    assert width == 8_160
    tracemalloc.start()
    try:
        report = cross_validate(ds, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.confusion.sum() == ds.n_trials
    assert peak < 0.5 * ds.n_trials * width * 8


@pytest.mark.parametrize(
    "config",
    [
        PipelineConfig.bjs(128, components=0),
        PipelineConfig.bjs(128, components=5),
        PipelineConfig(128, ShrinkageProfile(np.array([1, 0.7, 0.7, 0.3, 0.3, 0, 0]),
                                             3, "custom"), components=5),
        PipelineConfig(128, ShrinkageProfile(np.ones(1), 3, "dc"), components=0),
        PipelineConfig(128, ShrinkageProfile(np.ones(1), 3, "dc"), components=5),
    ],
    ids=["bjs-P0", "bjs-P5", "profile-P5", "narrow-P0", "narrow-P5"],
)
@pytest.mark.parametrize("scheme", ["loso", "kfold:4"])
def test_wide_dataset_cross_validation_equals_the_feature_matrix_route(
    config, scheme, monkeypatch
):
    # 12 channels: BJS (127 coefficients a channel) and the 7-coefficient
    # profile exceed the 16 or 24 training rows of a fold, the narrow
    # 1-coefficient profile does not.  At the default _COL_BLOCK BJS takes
    # 8 channels, then 4; at 7 columns every pipeline splits into groups of
    # at most 7 channels, on the wide and the narrow route.  The noise
    # leaves errors in every confusion
    model = make_class_model(4, SPEC, 3, 0.4, 0.05, seed=49)
    ds = generate_dataset(model, 8, 12, 128, 2, NoiseModel(sigma=16.0), seed=50)
    features = dataset_feature_matrix(ds, config)
    ones = np.ones(features.shape[1])
    for col_block in (classify._COL_BLOCK, 7):
        monkeypatch.setattr(classify, "_COL_BLOCK", col_block)
        report = cross_validate(ds, config, scheme=scheme)
        reference = cross_validate_features(
            features, ds.labels, ds.session_ids, ds.n_classes, scheme=scheme,
            components=config.components, ridge=config.ridge,
        )
        assert_array_equal(report.confusion, reference.confusion)
        assert report.notes == reference.notes
        assert 0 < np.trace(report.confusion) < ds.n_trials
        streamed, whole = (
            classify._centred_gram(blocks(ones), ds.n_trials)
            for blocks in (partial(classify._channel_blocks, ds, config),
                           partial(classify._column_blocks, features))
        )
        assert np.abs(streamed - whole).max() <= 1e-12 * np.abs(whole).max()


def test_narrow_jobs_that_keep_every_live_column_run_no_eigen_solve(monkeypatch):
    # 6 columns over 24 training rows: P = 0, P = 6 and P = 30 keep all 6,
    # so LDA needs no rotation; P = 2 drops 4 and needs the solve
    calls = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or real(a))
    x, y, g = _hard_blobs(48, 12, 6)
    columns = partial(classify._column_blocks, x)
    reports = classify._cross_validate_scaled(
        columns, [np.ones(6)], y, g, 3, "loso", [0, 6, 30], None
    )
    assert calls == []
    reports += classify._cross_validate_scaled(
        columns, [np.ones(6)], y, g, 3, "loso", [2, 165], None
    )
    assert calls == [(6, 6)] * 3
    for report, components in zip(reports, [0, 6, 30, 2, 165]):
        confusion, _ = _reference_cross_validate(x, y, g, 3, components=components)
        assert_array_equal(report.confusion, confusion)
    assert 0 < np.trace(reports[0].confusion) < y.size


def test_grid_logs_each_distinct_note_once(caplog):
    # 3 classes, 2 sessions of 6 trials: a full T = 5 grid caps P = 10 at 5
    # on both folds of each of its 66 masks
    model = make_class_model(3, SPEC, 5, 0.6, 0.05, seed=45)
    ds = generate_dataset(model, 4, 2, 64, 2, NoiseModel(sigma=0.5), seed=46)
    with caplog.at_level("WARNING", logger="lfpdecode.classify"):
        result = grid_search(ds, truncations=(5,), components=(0, 10))
    assert len(result.rows) == 132
    assert [r.getMessage() for r in caplog.records] == [
        "session 1: components capped at 5 (rank limit) [66 of 132 jobs]",
        "session 2: components capped at 5 (rank limit) [66 of 132 jobs]",
    ]
    assert result.best_report.notes in ([], [
        "session 1: components capped at 5 (rank limit)",
        "session 2: components capped at 5 (rank limit)",
    ])


def test_grid_rows_equal_per_profile_cross_validation():
    model = make_class_model(3, SPEC, 3, 0.6, 0.05, seed=40)
    # noisy enough that scaling columns by pinsker(mu=10) moves the PCA
    # subspace at P = 3, and with it the accuracy.  With 2 channels every
    # profile is narrower than the 16 or 18 training rows of a fold; with
    # 12 channels every one is wider (60 or 84 columns), so one grid call
    # runs each of its profiles through a Gram matrix
    for channels, schemes in ((2, ("loso",)), (12, ("loso", "kfold:4"))):
        ds = generate_dataset(model, 8, channels, 64, 3, NoiseModel(sigma=8.0),
                              seed=41)
        for scheme in schemes:
            _assert_grid_rows_match_reference(ds, scheme, wide=channels == 12)


def _assert_grid_rows_match_reference(ds, scheme, wide):
    result = grid_search(ds, scheme=scheme, truncations=(2, 3), components=(0, 3),
                         spec=SPEC, mu_values=(10.0,), low_pass_only=True)
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
        features = dataset_feature_matrix(ds, config)
        # 24 trials: 16 training rows a loso fold, 18 a kfold:4 fold
        assert (features.shape[1] > 18) == wide
        report = cross_validate(ds, config, scheme=scheme)
        confusion, notes = _reference_cross_validate(
            features, ds.labels, ds.session_ids, 3, scheme=scheme,
            components=row.components,
        )
        assert row.accuracy == report.overall_accuracy
        assert_array_equal(report.confusion, confusion)
        assert report.notes == notes
        accuracies.add(row.accuracy)
    assert len(accuracies) > 1
    best = cross_validate(ds, result.best_config, scheme=scheme)
    assert_array_equal(result.best_report.confusion, best.confusion)
    assert result.best_report.notes == best.notes


# -- the fold loop's eigen-solves on several threads


def _force_fold_threads(monkeypatch, count):
    """Run every fold loop's eigen-solves on ``count`` threads, however
    small they are."""
    monkeypatch.setattr(cpus, "usable_cpus", lambda: count)
    monkeypatch.setattr(classify, "_SHARED_SOLVE_ROWS", (0, 10**9))


def _solver_threads(monkeypatch):
    """The idents of the threads that run the fold loop's eigen-solves."""
    seen = set()
    real = classify._top_eigenpairs

    def recorded(*args):
        seen.add(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(classify, "_top_eigenpairs", recorded)
    return seen


def _fold_thread_cases():
    """Grid-vs-reference datasets, narrow and wide, loso and kfold, and
    folds that cap P or miss a class: (features, scalings, labels,
    sessions, scheme)."""
    model = make_class_model(3, SPEC, 3, 0.6, 0.05, seed=40)
    for channels, schemes in ((2, ("loso",)), (12, ("loso", "kfold:4"))):
        ds = generate_dataset(model, 8, channels, 64, 3, NoiseModel(sigma=8.0),
                              seed=41)
        coeffs = transform_rows(ds.cube.reshape(-1, 64), 3).reshape(ds.n_trials, -1)
        scalings = [np.tile(profile.factors, channels)
                    for profile in shrinkage_patterns(3, spec=SPEC, mu_values=(10.0,),
                                                      low_pass_only=True)]
        for scheme in schemes:
            yield coeffs, scalings, ds.labels, ds.session_ids, scheme
    for d in (8, 60):
        x, y, g = _hard_blobs(39, 12, d)
        # class 2 only in session 3: that fold trains on classes 1 and 3
        yield x, [np.ones(d)], y, np.where(y == 2, 3, g), "loso"


def _fold_thread_reports(count, monkeypatch):
    _force_fold_threads(monkeypatch, count)
    return [
        classify._cross_validate_scaled(
            partial(classify._column_blocks, x), scalings, y, g, 3, scheme,
            [0, 3, 30], None,
        )
        for x, scalings, y, g, scheme in _fold_thread_cases()
    ]


def test_fold_threads_give_the_same_reports(monkeypatch):
    solvers = _solver_threads(monkeypatch)
    expected = _fold_thread_reports(1, monkeypatch)
    assert solvers == {threading.get_ident()}
    notes = [note for case in expected for report in case for note in report.notes]
    assert any("capped at" in note for note in notes)
    assert any("absent from training" in note for note in notes)
    # more threads than CPUs, switching as often as they can
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for count in (2, 3):
            for case, reference in zip(_fold_thread_reports(count, monkeypatch),
                                       expected):
                for report, ref in zip(case, reference, strict=True):
                    assert report.overall_accuracy == ref.overall_accuracy
                    assert_array_equal(report.confusion, ref.confusion)
                    assert_array_equal(report.per_class_accuracy,
                                       ref.per_class_accuracy)
                    assert report.notes == ref.notes
    finally:
        sys.setswitchinterval(interval)
    if cpus._find_blas_calls():
        # some solves ran on a pool thread
        assert len(solvers) > 1


def _one_class_fold():
    # class 2 only in session 3: the session-3 fold trains on class 1 alone
    x, y, g = _hard_blobs(49, 12, 8)
    keep = y < 3
    x, y, g = x[keep], y[keep], g[keep]
    return x, y, np.where(y == 2, 3, g)


def test_fold_threads_restore_blas_threads(monkeypatch):
    calls = cpus._find_blas_calls()
    if not calls:
        pytest.skip("no BLAS thread-count setter resolves in this numpy")
    set_threads, get_threads = calls
    before = get_threads()
    _force_fold_threads(monkeypatch, 2)
    held = set()
    real = classify._top_eigenpairs
    monkeypatch.setattr(classify, "_top_eigenpairs",
                        lambda *args: held.add(get_threads()) or real(*args))
    x, y, g = _hard_blobs(50, 12, 8)
    try:
        set_threads(2)
        start = get_threads()
        cross_validate_features(x, y, g, 3, components=3)
        assert held == {1}
        assert get_threads() == start
        # a fold whose training part has one class raises, and so does a
        # singular covariance; either way BLAS gets its count back
        with pytest.raises(ValueError, match="at least 2 classes"):
            cross_validate_features(*_one_class_fold(), 2, components=3)
        assert get_threads() == start
        with pytest.raises(ValueError, match="singular"):
            cross_validate_features(np.hstack([x, np.zeros_like(x)]), y, g, 3,
                                    components=12, ridge=0.0)
        assert get_threads() == start
    finally:
        set_threads(before)


def test_fold_errors_raise_in_fold_order(monkeypatch):
    # the last fold has one training class: alone it raises, but after a
    # first fold whose covariance is singular at ridge 0 that one raises
    # first, with threads as without
    x, y, g = _one_class_fold()
    padded = np.hstack([x, np.zeros_like(x)])
    for count in (1, 2, 3):
        _force_fold_threads(monkeypatch, count)
        with pytest.raises(ValueError, match="LDA needs at least 2 classes"):
            cross_validate_features(x, y, g, 2, components=3)
        with pytest.raises(ValueError, match="singular"):
            cross_validate_features(padded, y, g, 2, components=0, ridge=0.0)


def test_fold_loop_runs_sequentially_without_a_blas_setter(monkeypatch):
    _force_fold_threads(monkeypatch, 2)
    monkeypatch.setattr(cpus, "_BLAS_THREAD_CALLS",
                        [("no_such_setter", "no_such_getter")])
    solvers = _solver_threads(monkeypatch)
    x, y, g = _hard_blobs(51, 12, 8)
    with cpus.one_blas_thread() as held:
        assert held is None
    report = cross_validate_features(x, y, g, 3, components=3)
    assert solvers == {threading.get_ident()}
    confusion, _ = _reference_cross_validate(x, y, g, 3, components=3)
    assert_array_equal(report.confusion, confusion)


def test_lda_predict_runs_on_the_calling_thread(monkeypatch, caplog):
    # the benchmark's tracer wraps lda_predict with one span stack, which
    # only the calling thread may touch
    _force_fold_threads(monkeypatch, 2)
    callers = set()
    real = classify.lda_predict
    monkeypatch.setattr(classify, "lda_predict",
                        lambda *args: callers.add(threading.get_ident()) or real(*args))
    model = make_class_model(3, SPEC, 3, 0.6, 0.05, seed=40)
    ds = generate_dataset(model, 8, 12, 64, 3, NoiseModel(sigma=8.0), seed=41)
    with caplog.at_level(logging.DEBUG, logger="lfpdecode.classify"):
        grid_search(ds, truncations=(3,), components=(3,), low_pass_only=True)
        cross_validate(ds, PipelineConfig.bjs(64, components=3))
    assert callers == {threading.get_ident()}
    lines = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert len(lines) == 2
    assert all(line.startswith("cross-validation: 3 folds, ") for line in lines)
    assert all(", 2 threads, BLAS held at 1 thread, then restored to " in line
               for line in lines) == bool(cpus._find_blas_calls())


def test_small_or_large_eigen_solves_stay_on_the_calling_thread(monkeypatch):
    # the criterion-8 grid's solves (up to 352 rows) share the CPUs; its
    # BJS solves (640 rows) and the CLI benchmark's (107) run alone
    monkeypatch.setattr(cpus, "usable_cpus", lambda: 2)
    low, high = classify._SHARED_SOLVE_ROWS
    assert low <= 352 <= high and not 107 >= low and not 640 <= high
    solvers = _solver_threads(monkeypatch)
    x, y, g = _hard_blobs(52, 12, 8)
    cross_validate_features(x, y, g, 3, components=3)
    assert solvers == {threading.get_ident()}


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


def test_no_zero_one_profile_carries_a_pinsker_label():
    # a label names the profile that runs: masks and the unshrunk full band
    # are not Pinsker's rule
    profiles = [_full_band_profile(5)] + [
        profile
        for truncation in (1, 3, 5)
        for profile in shrinkage_patterns(truncation, spec=SPEC, mu_values=(14.85,))
    ]
    labels = {
        PipelineConfig(500, profile).label: np.isin(profile.factors, (0, 1)).all()
        for profile in profiles
    }
    assert "pinsker(mu=14.85) T=5" in labels and not labels["pinsker(mu=14.85) T=5"]
    assert labels["mask[1:11] T=5"]
    assert [label for label, zero_one in labels.items()
            if zero_one and "pinsker" in label] == []


def test_grid_search_prefers_separating_band():
    # classes differ only in the first harmonic pair; masks that include
    # it should win over the pure-constant mask
    rng = np.random.default_rng(16)
    protos = np.zeros((3, 7))
    angles = 2.0 * np.pi * np.arange(3) / 3.0
    protos[:, 1], protos[:, 2] = 1.8 * np.cos(angles), 1.8 * np.sin(angles)
    model = ClassModel(protos, 1.0, 0.05, EllipsoidSpec(2.0, 60.0))
    ds = generate_dataset(model, 6, 2, 64, 3, NoiseModel(sigma=0.5), seed=17)
    result = grid_search(ds, scheme="loso", truncations=(3,), components=(0,),
                         low_pass_only=True)
    assert result.best_accuracy >= 0.9
    assert result.best_config.label.startswith("mask[1:")
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
