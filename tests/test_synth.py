"""Synthetic data generator tests."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lfpdecode.shrinkage import EllipsoidSpec, ellipsoid_weights
from lfpdecode.synth import (
    ClassConstructionError,
    ClassModel,
    NoiseModel,
    _min_interclass_distance,
    generate_dataset,
    make_class_model,
    make_magnitude_class_model,
    make_phase_class_model,
    perturb_within_class,
    sample_sobolev,
    stream_rng,
)

SPEC = EllipsoidSpec(2.0, 10.0)


def weighted_norm_sq(spec, theta):
    a = ellipsoid_weights(spec, len(theta))
    return float(np.sum(a**2 * np.asarray(theta) ** 2))


def test_sobolev_draws_stay_inside_ellipsoid():
    for seed in range(25):
        th = sample_sobolev(SPEC, 6, seed)
        assert weighted_norm_sq(SPEC, th.coeffs) <= SPEC.radius**2 + 1e-9


def test_sobolev_draw_is_deterministic():
    a = sample_sobolev(SPEC, 4, 123)
    b = sample_sobolev(SPEC, 4, 123)
    assert_allclose(a.coeffs, b.coeffs)
    c = sample_sobolev(SPEC, 4, 124)
    assert not np.allclose(a.coeffs, c.coeffs)


def test_sobolev_scale_tracks_radius():
    small = sample_sobolev(EllipsoidSpec(2.0, 1e-6), 4, 5)
    # constant coordinate is unconstrained by the ellipsoid, skip it
    assert np.max(np.abs(small.coeffs[1:])) < 1e-5


def test_class_model_separation_margin():
    model = make_class_model(8, SPEC, 5, 0.5, 0.1, seed=0)
    assert model.n_classes == 8
    floor = 2.0 * 0.5 + 2.0 * 0.1
    assert _min_interclass_distance(model.prototypes) > floor


def test_class_model_reports_achievable_separation():
    with pytest.raises(ClassConstructionError) as err:
        make_class_model(8, SPEC, 5, 100.0, 0.1, seed=0)
    assert "separation" in str(err.value)
    assert err.value.achievable_separation >= 0.0


def test_class_model_rejects_bad_geometry():
    proto = np.zeros((1, 7))
    with pytest.raises(ValueError):
        ClassModel((proto, proto), 0.5, 0.1, SPEC, 3)  # coincident classes
    big = np.full((1, 7), 100.0)
    with pytest.raises(ValueError):
        ClassModel((proto, big), 0.5, 0.1, SPEC, 3)  # outside ellipsoid


def test_trial_noise_moments():
    # the per-channel stream drives trial noise; check its first four moments
    z = stream_rng(42, 0, key=(1,)).standard_normal(1_000_000)
    assert abs(z.mean()) < 0.005
    assert abs(z.var() - 1.0) < 0.01
    skew = np.mean(z**3)
    kurt = np.mean(z**4) - 3.0
    assert abs(skew) < 0.05
    assert abs(kurt) < 0.1


def test_perturbation_stays_in_ball_and_ellipsoid():
    model = make_class_model(4, SPEC, 4, 0.5, 0.1, seed=1)
    rng = np.random.default_rng(0)
    for _ in range(200):
        label = int(rng.integers(1, 5))
        theta = perturb_within_class(model, label, rng)
        d = np.linalg.norm(theta - model.prototypes[label - 1][0])
        assert d <= 0.1 + 1e-12
        assert weighted_norm_sq(SPEC, theta) <= SPEC.radius**2 + 1e-9


def test_perturbation_zero_spread_returns_prototype():
    model = make_class_model(3, SPEC, 4, 0.5, 0.0, seed=2)
    rng = np.random.default_rng(1)
    theta = perturb_within_class(model, 2, rng)
    assert_allclose(theta, model.prototypes[1][0])


def test_generate_trial_shape_and_determinism():
    model = make_class_model(3, SPEC, 3, 0.5, 0.1, seed=3)
    noise = NoiseModel(sigma=0.5, seed=9)
    t1 = generate_dataset(model, 1, 4, 64, 1, noise, seed=77).trials[1]
    t2 = generate_dataset(model, 1, 4, 64, 1, noise, seed=77).trials[1]
    assert t1.label == 2
    assert t1.channels.shape == (4, 64)
    assert_allclose(t1.channels, t2.channels)
    t3 = generate_dataset(model, 1, 4, 64, 1, noise, seed=78).trials[1]
    assert not np.allclose(t1.channels, t3.channels)
    # channels carry independent noise
    assert not np.allclose(t1.channels[0], t1.channels[1])


def test_generate_trial_noise_seed_changes_noise():
    model = make_class_model(3, SPEC, 3, 0.5, 0.1, seed=3)
    a = generate_dataset(model, 1, 1, 64, 1, NoiseModel(sigma=0.5, seed=0), seed=5)
    b = generate_dataset(model, 1, 1, 64, 1, NoiseModel(sigma=0.5, seed=1), seed=5)
    for ta, tb in zip(a.trials, b.trials):
        assert not np.allclose(ta.channels, tb.channels)


def test_generate_trial_needs_enough_samples():
    model = make_class_model(3, SPEC, 3, 0.5, 0.1, seed=3)
    with pytest.raises(ValueError, match="n_samples"):
        generate_dataset(model, 1, 1, 7, 1, NoiseModel(), seed=0)


def test_dataset_is_balanced_and_sessions_cycle():
    model = make_class_model(4, SPEC, 3, 0.5, 0.1, seed=4)
    ds = generate_dataset(model, 7, 2, 64, 3, NoiseModel(sigma=0.3), seed=5)
    assert ds.n_trials == 28
    labels = ds.labels()
    for k in range(1, 5):
        assert int(np.sum(labels == k)) == 7
    sessions = ds.session_ids()
    counts = [int(np.sum(sessions == s)) for s in (1, 2, 3)]
    assert max(counts) - min(counts) <= 1
    assert ds.params["trials_per_class"] == 7


def test_dataset_generation_is_deterministic():
    model = make_class_model(3, SPEC, 3, 0.5, 0.1, seed=6)
    a = generate_dataset(model, 2, 2, 64, 2, NoiseModel(sigma=0.4), seed=8)
    b = generate_dataset(model, 2, 2, 64, 2, NoiseModel(sigma=0.4), seed=8)
    for ta, tb in zip(a.trials, b.trials):
        assert_allclose(ta.channels, tb.channels)
        assert ta.label == tb.label and ta.session == tb.session


def test_phase_classes_share_magnitudes():
    model = make_phase_class_model(8, SPEC, 5, 0.5, 0.02, seed=10)
    mags = []
    for proto in model.prototypes:
        theta = proto[0]
        assert abs(theta[0]) < 1e-12  # constant coordinate stays zero
        mags.append(np.hypot(theta[1::2], theta[2::2]))
    for m in mags[1:]:
        assert_allclose(m, mags[0], rtol=1e-12)
    floor = 2.0 * 0.5 + 2.0 * 0.02
    assert _min_interclass_distance(model.prototypes) > floor


def test_phase_classes_rotate_by_equal_angles():
    model = make_phase_class_model(4, SPEC, 3, 0.5, 0.02, seed=11)
    t0 = model.prototypes[0][0]
    t1 = model.prototypes[1][0]
    ang0 = np.arctan2(t0[2::2], t0[1::2])
    ang1 = np.arctan2(t1[2::2], t1[1::2])
    delta = np.angle(np.exp(1j * (ang1 - ang0)))
    assert_allclose(delta, np.full(3, np.pi / 2.0), rtol=1e-10)


def test_phase_model_too_wide_raises():
    with pytest.raises(ClassConstructionError):
        make_phase_class_model(8, EllipsoidSpec(2.0, 0.5), 5, 0.5, 0.02, seed=0)


def test_magnitude_classes_are_cosine_ladder():
    model = make_magnitude_class_model(8, SPEC, 5, 0.5, 0.02, seed=12)
    for proto in model.prototypes:
        theta = proto[0]
        assert_allclose(theta[2::2], np.zeros(5), atol=1e-15)  # no sine part
        assert np.all(theta[1::2] >= 0.0)
        assert theta[0] > 0.0
    floor = 2.0 * 0.5 + 2.0 * 0.02
    assert _min_interclass_distance(model.prototypes) > floor
    assert weighted_norm_sq(SPEC, model.prototypes[-1][0]) < SPEC.radius**2


def test_magnitude_model_too_wide_raises():
    with pytest.raises(ClassConstructionError):
        make_magnitude_class_model(8, EllipsoidSpec(2.0, 0.2), 5, 2.0, 0.02, seed=0)
