"""Monte-Carlo experiment driver tests (kept small; the acceptance suite
runs the full-size versions)."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from lfpdecode import classify, shrinkage
from lfpdecode.basis import CoefficientVector, basis_matrix
from lfpdecode.classify import (
    PipelineConfig,
    ShrinkageProfile,
    cross_validate,
    cross_validate_features,
    dataset_feature_matrix,
    magnitude_features,
)
from lfpdecode.experiments import (
    adaptivity_ratio_bjs,
    benchmark_classifiers,
    bjs_block_risk,
    bjs_sup_risk,
    consistency_experiment,
    mse_function,
    phase_ablation,
    risk_curve_pinsker,
)
from lfpdecode.shrinkage import (
    BlockPartition,
    EllipsoidSpec,
    _bjs_rows,
    ellipsoid_weights,
)
from lfpdecode.synth import NoiseModel, generate_dataset, make_class_model

SPEC = EllipsoidSpec(2.0, 10.0)


def test_mse_matches_function_space_quadrature():
    rng = np.random.default_rng(0)
    a = CoefficientVector(rng.normal(size=7))
    b = CoefficientVector(rng.normal(size=7))
    got = mse_function(a, b)
    # quadrature oracle: integrate (f-g)^2 over one period on a fine grid;
    # the trapezoid rule is spectrally accurate for periodic integrands
    grid = np.arange(4096) / 4096.0
    phi = basis_matrix(7, grid)
    diff = (a.coeffs - b.coeffs) @ phi
    diff = np.append(diff, diff[0])
    integral = np.trapezoid(diff**2, dx=1.0 / 4096.0)
    assert_allclose(got, integral, rtol=1e-10)


def test_risk_curve_decreases_with_noise():
    points = risk_curve_pinsker(SPEC, [0.5, 0.1], 100, seed=0, n_thetas=10)
    lo, hi = points[1], points[0]
    assert lo.risk < hi.risk
    assert lo.std_error > 0.0
    assert hi.trials == 100


def test_risk_curve_input_validation():
    with pytest.raises(ValueError):
        risk_curve_pinsker(SPEC, [0.1, 0.5], 100)  # not decreasing
    with pytest.raises(ValueError):
        risk_curve_pinsker(SPEC, [0.5, 0.1], 50)  # too few trials
    with pytest.raises(ValueError):
        risk_curve_pinsker(SPEC, [], 100)


def test_risk_curve_takes_zero_random_thetas_but_not_fewer():
    vertices_only = risk_curve_pinsker(SPEC, [0.3], 100, seed=4, n_thetas=0)
    assert vertices_only[0].risk > 0.0
    with pytest.raises(ValueError, match="n_thetas"):
        risk_curve_pinsker(SPEC, [0.3], 100, seed=4, n_thetas=-1)


def test_risk_curve_is_deterministic():
    a = risk_curve_pinsker(SPEC, [0.3], 100, seed=4, n_thetas=5)
    b = risk_curve_pinsker(SPEC, [0.3], 100, seed=4, n_thetas=5)
    assert a[0].risk == b[0].risk


def test_adaptivity_rows_cover_specs():
    specs = [EllipsoidSpec(1.0, 5.0), EllipsoidSpec(2.0, 5.0)]
    rows = adaptivity_ratio_bjs(specs, 0.05)
    assert [r.alpha for r in rows] == [1.0, 2.0]
    for r in rows:
        assert r.bjs_risk > 0 and r.pinsker_risk > 0
        assert_allclose(r.ratio, r.bjs_risk / r.pinsker_risk, rtol=1e-12)
        # the linear minimax risk is at most 5/4 of the minimax risk over an
        # ellipsoid (Donoho, Liu & MacGibbon 1990), so no estimator's
        # worst case falls below 0.8 of the oracle's
        assert r.bjs_lower / r.pinsker_risk >= 0.8
        assert r.bjs_lower <= r.bjs_risk <= 1.02 * r.bjs_lower


def test_adaptivity_epsilon_range_checked():
    with pytest.raises(ValueError):
        adaptivity_ratio_bjs([SPEC], 1.5)
    with pytest.raises(ValueError):
        adaptivity_ratio_bjs([SPEC], -0.1)
    # NaN fails every comparison, so it must not slip past the range check
    with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\)"):
        adaptivity_ratio_bjs([SPEC], float("nan"))


def test_adaptivity_rejects_an_empty_spec_list():
    # with no rows there is no worst ratio to report
    with pytest.raises(ValueError, match="at least one"):
        adaptivity_ratio_bjs([], 0.05)


def _bjs_sq_errors(theta, partition, eps, trials, seed):
    rng = np.random.default_rng(seed)
    y = theta + eps * rng.standard_normal((trials, theta.size))
    return (_bjs_rows(y, partition, eps) - theta) ** 2


def test_block_risk_matches_monte_carlo():
    # one shrunk block of size n = 2^j, its mean on the first coordinate
    eps, trials = 0.5, 20_000
    for j, norm_sq in [(2, 0.0), (2, 1.5), (3, 0.4), (5, 2.0), (5, 30.0)]:
        partition = BlockPartition(0, j + 1)
        theta = np.zeros(partition.width)
        theta[2**j - 1] = np.sqrt(norm_sq)
        sq = _bjs_sq_errors(theta, partition, eps, trials, seed=j)
        block = sq[:, 2**j - 1 :].sum(axis=1)
        se = block.std(ddof=1) / np.sqrt(trials)
        expected = bjs_block_risk(2**j, norm_sq, eps)
        assert abs(block.mean() - expected) <= 4.0 * se


def test_sup_risk_bracket_holds_at_its_worst_point():
    eps, trials = 0.05, 20_000
    spec = EllipsoidSpec(1.0, 5.0)
    sup = bjs_sup_risk(spec, eps)
    theta = sup.theta
    weights = ellipsoid_weights(spec, theta.size)
    assert float((weights**2 * theta**2).sum()) <= spec.radius**2 * (1 + 1e-12)
    assert sup.lower <= sup.upper <= 1.02 * sup.lower
    partition = BlockPartition(0, 8)  # floor(log2(1/eps^2)) = 8
    errors = _bjs_sq_errors(theta, partition, eps, trials, seed=1).sum(axis=1)
    se = errors.std(ddof=1) / np.sqrt(trials)
    assert sup.lower - 4.0 * se <= errors.mean() <= sup.upper + 4.0 * se


@pytest.mark.parametrize("radius", [2.0, 5.0, 10.0])
def test_sup_risk_upper_is_not_beaten_by_a_budget_search(radius):
    # at eps = 0.2 the rule shrinks blocks 4..7 and 8..15 and zeroes 16 on;
    # search every split of the budget between them on a grid of 4000
    # equal cost steps, each block's mean on its cheapest coordinate
    eps, steps = 0.2, 4000
    spec = EllipsoidSpec(1.0, radius)
    sup = bjs_sup_risk(spec, eps)
    a = ellipsoid_weights(spec, 16)
    costs = radius**2 * np.arange(steps + 1) / steps
    first = bjs_block_risk(4, costs / a[3] ** 2, eps)
    second = bjs_block_risk(8, costs / a[7] ** 2, eps)
    both = np.array([np.max(first[: k + 1] + second[k::-1]) for k in range(steps + 1)])
    searched = 3 * eps**2 + float(np.max(both + costs[::-1] / a[15] ** 2))
    # every split is a point of the ellipsoid, so a certified bound is never
    # beaten; a bound that takes each grid cell's risk at its left end is,
    # by ~1e-6 of the risk at these radii
    assert searched <= sup.upper * (1 + 1e-9)
    assert sup.lower >= (1 - 1e-3) * searched


def test_consistency_grid_must_increase():
    model = make_class_model(3, SPEC, 3, 0.5, 0.1, seed=0)
    with pytest.raises(ValueError):
        consistency_experiment(model, [256, 64], 10, NoiseModel())


@pytest.mark.parametrize(
    "n_grid, trials, named",
    [([], 10, "n_grid"), ([-64], 10, "n_grid"), ([64], 1, "trials_per_class")],
    ids=["empty-grid", "negative-grid", "one-trial"],
)
def test_consistency_rejects_what_it_cannot_report(n_grid, trials, named):
    # one trial has no standard error; an empty grid has no final row; a
    # negative N's bit_length is that of |N|, so the width check alone
    # would let N = -64 through to numpy
    model = make_class_model(3, SPEC, 3, 0.5, 0.1, seed=0)
    with pytest.raises(ValueError, match=named):
        consistency_experiment(model, n_grid, trials, NoiseModel())


def test_consistency_rejects_a_bjs_width_below_the_model():
    # the BJS estimate of N samples is 2^floor(log2 N) - 1 wide; at T = 5
    # that is 7 < 2T+1 = 11 coefficients for N = 8, and 15 for N = 16
    model = make_class_model(3, SPEC, 5, 0.5, 0.1, seed=0)
    with pytest.raises(ValueError, match=r"2\^floor\(log2 N\) - 1 .* 11; N = 8 "):
        consistency_experiment(model, [8, 64], 10, NoiseModel())
    (row,) = consistency_experiment(model, [16], 10, NoiseModel())
    assert row.n_samples == 16


def test_consistency_draws_from_the_noise_seed():
    # noise seed 0 keeps the rows of the draws made before the noise seed
    # was read: SeedSequence pads its entropy with zero words
    model = make_class_model(3, SPEC, 3, 0.5, 0.1, seed=5)
    rows = {
        noise_seed: [
            (r.n_samples, r.worst_class_error, r.error_se, r.chebyshev_bound,
             r.bound_se)
            for r in consistency_experiment(
                model, [64, 128], 30, NoiseModel(2.0, noise_seed), seed=5
            )
        ]
        for noise_seed in (0, 7)
    }
    assert rows[0] == [
        (64, 0.0, 0.0, 1.8985596304960515, 0.19294499678813942),
        (128, 0.0, 0.0, 1.1452535563364583, 0.10225267381011037),
    ]
    assert rows[7] != rows[0]


def test_consistency_seed_pairs_do_not_alias():
    # seed 5 with noise seed 7 once drew the stream of seed 5 + 7 * 2**32
    # with noise seed 0, as SeedSequence joins its entropy's 32-bit words
    model = make_class_model(3, SPEC, 3, 0.5, 0.1, seed=5)
    rows = [
        consistency_experiment(model, [64], 30, NoiseModel(2.0, noise_seed),
                               seed=seed)
        for seed, noise_seed in ((5, 7), (5 + 7 * 2**32, 0))
    ]
    assert rows[0] != rows[1]


def test_consistency_near_noiseless_decodes_perfectly():
    model = make_class_model(3, SPEC, 3, 0.5, 0.0, seed=1)
    rows = consistency_experiment(
        model, [64, 128], 20, NoiseModel(sigma=1e-4), seed=0
    )
    for row in rows:
        assert row.worst_class_error == 0.0
        assert row.chebyshev_bound >= 0.0
    assert rows[0].n_samples == 64 and rows[1].n_samples == 128


def test_benchmark_reports_match_direct_cross_validation():
    model = make_class_model(3, SPEC, 3, 0.6, 0.05, seed=2)
    ds = generate_dataset(model, 4, 2, 64, 2, NoiseModel(sigma=0.4), seed=3)
    configs = [
        PipelineConfig(
            64, ShrinkageProfile(np.ones(7), 3, label="mask[1:7]"), components=0
        ),
        PipelineConfig.bjs(64, pass_limit=2, components=0),
    ]
    reports = benchmark_classifiers(ds, configs, scheme="loso")
    assert len(reports) == 2
    for rep, config in zip(reports, configs):
        direct = cross_validate(ds, config, scheme="loso")
        assert np.array_equal(rep.confusion, direct.confusion)
        assert 0.0 <= rep.overall_accuracy <= 1.0
        assert rep.confusion.sum() == ds.n_trials


@pytest.mark.parametrize(
    "config",
    [
        PipelineConfig(64, ShrinkageProfile(np.ones(7), 3, label="mask[1:7]"),
                       components=3),
        PipelineConfig.bjs(64, components=3),
    ],
    ids=["profile", "bjs"],
)
def test_phase_ablation_transforms_once(monkeypatch, config):
    # the magnitude run collapses the full run's feature matrix, on the
    # same folds, instead of extracting the features a second time
    model = make_class_model(3, SPEC, 3, 0.6, 0.05, seed=4)
    ds = generate_dataset(model, 4, 2, 64, 2, NoiseModel(sigma=0.4), seed=5)
    calls = []
    original = classify.transform_rows

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    for module in (classify, shrinkage):
        monkeypatch.setattr(module, "transform_rows", counted)
    result = phase_ablation(ds, config)
    assert calls == [(ds.n_trials * ds.n_channels, 64)]
    feats = dataset_feature_matrix(ds, config)
    folds = (ds.labels, ds.session_ids, ds.n_classes)
    full = cross_validate_features(feats, *folds, components=3)
    magnitude = cross_validate_features(
        magnitude_features(feats, config.channel_width), *folds, components=3
    )
    assert_array_equal(result.full.confusion, full.confusion)
    assert_array_equal(result.magnitude.confusion, magnitude.confusion)
