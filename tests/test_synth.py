"""Synthetic data generator tests."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from lfpdecode import synth
from lfpdecode.basis import basis_matrix
from lfpdecode.shrinkage import EllipsoidSpec, ellipsoid_weights
from lfpdecode.synth import (
    ClassConstructionError,
    ClassModel,
    LabeledDataset,
    NoiseModel,
    _entropy_words,
    _min_interclass_distance,
    _pcg64_states,
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


@pytest.mark.parametrize("maker", [make_class_model, make_phase_class_model,
                                   make_magnitude_class_model])
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field, rule", [
    ("separation", "separation must be positive and finite"),
    ("within_spread", r"within_spread must lie in \[0, separation/2\)"),
])
def test_class_makers_reject_a_nan_or_infinite_gap(maker, value, field, rule):
    # checked before any draw, and named as the rule it breaks
    gap = {"separation": 0.5, "within_spread": 0.1, field: value}
    with pytest.raises(ValueError, match=rule):
        maker(3, SPEC, 3, seed=0, **gap)


def test_class_model_rejects_bad_geometry():
    proto = np.zeros(7)
    with pytest.raises(ValueError):
        ClassModel(np.stack([proto, proto]), 0.5, 0.1, SPEC)  # coincident classes
    big = np.full(7, 100.0)
    with pytest.raises(ValueError):
        ClassModel(np.stack([proto, big]), 0.5, 0.1, SPEC)  # outside ellipsoid


@pytest.mark.parametrize("protos", [
    np.zeros((1, 7)),
    np.zeros(7),
    np.zeros((2, 1, 7)),
    np.array([[1.0, 0, 0, 0], [-1.0, 0, 0, 0]]),
], ids=["one-row", "1-d", "3-d", "even-width"])
def test_class_model_needs_one_odd_width_row_per_class(protos):
    with pytest.raises(ValueError, match="n_classes >= 2, odd 2T"):
        ClassModel(protos, 0.4, 0.0, SPEC)


def test_class_model_derives_truncation_from_the_width():
    protos = make_class_model(3, SPEC, 4, 0.5, 0.1, seed=5).prototypes
    assert protos.shape == (3, 9)
    model = ClassModel(protos, 0.5, 0.1, SPEC)
    assert model.truncation == 4
    assert ClassModel(protos[:, :3], 0.2, 0.0, SPEC).truncation == 1


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
    labels = rng.integers(1, 5, 200)
    thetas = perturb_within_class(model, labels, rng)
    assert thetas.shape == (200, 9)
    for label, theta in zip(labels, thetas):
        d = np.linalg.norm(theta - model.prototypes[label - 1])
        assert d <= 0.1 + 1e-12
        assert weighted_norm_sq(SPEC, theta) <= SPEC.radius**2 + 1e-9


def test_perturbation_zero_spread_returns_prototype():
    model = make_class_model(3, SPEC, 4, 0.5, 0.0, seed=2)
    rng = np.random.default_rng(1)
    thetas = perturb_within_class(model, [2, 3, 2], rng)
    assert_array_equal(thetas, model.prototypes[[1, 2, 1]])


@pytest.mark.parametrize("spread", [0.1, 0.0])
def test_batched_perturbation_matches_one_label_calls(spread):
    # the batch draws each member's direction and radius in label order, as
    # one-label calls in turn do, and leaves the stream where they leave it
    model = make_class_model(3, SPEC, 4, 0.5, spread, seed=2)
    labels = [3, 1, 1, 2, 3, 2, 1]
    batched, single = np.random.default_rng(7), np.random.default_rng(7)
    thetas = perturb_within_class(model, labels, batched)
    expected = [perturb_within_class(model, [k], single)[0] for k in labels]
    assert_array_equal(thetas, expected)
    assert batched.standard_normal() == single.standard_normal()


@pytest.mark.parametrize("labels", [[1, 0], [4], [2, 5, 1], [[1, 2]]],
                         ids=["label-0", "above-n-classes", "mixed", "2-d"])
def test_perturbation_rejects_labels_outside_the_classes(labels):
    model = make_class_model(3, SPEC, 4, 0.5, 0.1, seed=2)
    with pytest.raises(ValueError, match="label"):
        perturb_within_class(model, labels, np.random.default_rng(0))


def test_generate_trial_shape_and_determinism():
    model = make_class_model(3, SPEC, 3, 0.5, 0.1, seed=3)
    noise = NoiseModel(sigma=0.5, seed=9)
    ds = generate_dataset(model, 1, 4, 64, 1, noise, seed=77)
    t1 = ds.cube[1]
    t2 = generate_dataset(model, 1, 4, 64, 1, noise, seed=77).cube[1]
    assert ds.labels[1] == 2
    assert t1.shape == (4, 64)
    assert_allclose(t1, t2)
    t3 = generate_dataset(model, 1, 4, 64, 1, noise, seed=78).cube[1]
    assert not np.allclose(t1, t3)
    # channels carry independent noise
    assert not np.allclose(t1[0], t1[1])


def test_generate_trial_noise_seed_changes_noise():
    model = make_class_model(3, SPEC, 3, 0.5, 0.1, seed=3)
    a = generate_dataset(model, 1, 1, 64, 1, NoiseModel(sigma=0.5, seed=0), seed=5)
    b = generate_dataset(model, 1, 1, 64, 1, NoiseModel(sigma=0.5, seed=1), seed=5)
    for ta, tb in zip(a.cube, b.cube):
        assert not np.allclose(ta, tb)


def test_generate_trial_needs_enough_samples():
    model = make_class_model(3, SPEC, 3, 0.5, 0.1, seed=3)
    with pytest.raises(ValueError, match="n_samples"):
        generate_dataset(model, 1, 1, 7, 1, NoiseModel(), seed=0)


def test_dataset_is_balanced_and_sessions_cycle():
    model = make_class_model(4, SPEC, 3, 0.5, 0.1, seed=4)
    ds = generate_dataset(model, 7, 2, 64, 3, NoiseModel(sigma=0.3), seed=5)
    assert ds.n_trials == 28
    labels = ds.labels
    for k in range(1, 5):
        assert int(np.sum(labels == k)) == 7
    sessions = ds.session_ids
    counts = [int(np.sum(sessions == s)) for s in (1, 2, 3)]
    assert max(counts) - min(counts) <= 1
    assert ds.params["trials_per_class"] == 7


def test_dataset_generation_is_deterministic():
    model = make_class_model(3, SPEC, 3, 0.5, 0.1, seed=6)
    a = generate_dataset(model, 2, 2, 64, 2, NoiseModel(sigma=0.4), seed=8)
    b = generate_dataset(model, 2, 2, 64, 2, NoiseModel(sigma=0.4), seed=8)
    assert_allclose(a.cube, b.cube)
    assert_array_equal(a.labels, b.labels)
    assert_array_equal(a.session_ids, b.session_ids)


def test_phase_classes_share_magnitudes():
    model = make_phase_class_model(8, SPEC, 5, 0.5, 0.02, seed=10)
    mags = []
    for theta in model.prototypes:
        assert abs(theta[0]) < 1e-12  # constant coordinate stays zero
        mags.append(np.hypot(theta[1::2], theta[2::2]))
    for m in mags[1:]:
        assert_allclose(m, mags[0], rtol=1e-12)
    floor = 2.0 * 0.5 + 2.0 * 0.02
    assert _min_interclass_distance(model.prototypes) > floor


def test_phase_classes_rotate_by_equal_angles():
    model = make_phase_class_model(4, SPEC, 3, 0.5, 0.02, seed=11)
    t0, t1 = model.prototypes[:2]
    ang0 = np.arctan2(t0[2::2], t0[1::2])
    ang1 = np.arctan2(t1[2::2], t1[1::2])
    delta = np.angle(np.exp(1j * (ang1 - ang0)))
    assert_allclose(delta, np.full(3, np.pi / 2.0), rtol=1e-10)


def test_phase_model_too_wide_raises():
    with pytest.raises(ClassConstructionError):
        make_phase_class_model(8, EllipsoidSpec(2.0, 0.5), 5, 0.5, 0.02, seed=0)


def test_magnitude_classes_are_cosine_ladder():
    model = make_magnitude_class_model(8, SPEC, 5, 0.5, 0.02, seed=12)
    for theta in model.prototypes:
        assert_allclose(theta[2::2], np.zeros(5), atol=1e-15)  # no sine part
        assert np.all(theta[1::2] >= 0.0)
        assert theta[0] > 0.0
    floor = 2.0 * 0.5 + 2.0 * 0.02
    assert _min_interclass_distance(model.prototypes) > floor
    assert weighted_norm_sq(SPEC, model.prototypes[-1]) < SPEC.radius**2


def test_magnitude_model_too_wide_raises():
    with pytest.raises(ClassConstructionError):
        make_magnitude_class_model(8, EllipsoidSpec(2.0, 0.2), 5, 2.0, 0.02, seed=0)


def _dataset_args(value=1.0):
    cube = np.ones((3, 2, 8))
    cube[1, 0, 4] = value
    return dict(cube=cube, labels=[1, 2, 1], session_ids=[1, 1, 2], n_classes=2)


@pytest.mark.parametrize("change,match", [
    (dict(cube=np.ones((3, 8))), "nonempty"),
    (dict(cube=np.ones((0, 2, 8)), labels=[], session_ids=[]), "nonempty"),
    (_dataset_args(np.nan), "finite"),
    (_dataset_args(np.inf), "finite"),
    (dict(labels=[1, 0, 1]), "1..n_classes"),
    (dict(labels=[1, 3, 1]), "1..n_classes"),
    (dict(session_ids=[1, 0, 2]), "1-based"),
    (dict(labels=[1, 2]), "one entry per trial"),
    (dict(session_ids=[1, 1, 2, 2]), "one entry per trial"),
], ids=["2-d-cube", "empty-cube", "nan-sample", "inf-sample", "label-0",
        "label-above-n-classes", "session-0", "short-labels", "long-sessions"])
def test_dataset_rejects_invalid_contents(change, match):
    LabeledDataset(**_dataset_args())
    with pytest.raises(ValueError, match=match):
        LabeledDataset(**{**_dataset_args(), **change})


def test_dataset_trials_are_views_of_the_cube():
    ds = LabeledDataset(**_dataset_args(5.0))
    assert (ds.n_trials, ds.n_channels, ds.n_samples) == (3, 2, 8)
    assert ds.sessions == [1, 2]
    assert [(t.label, t.session) for t in ds.trials] == [(1, 1), (2, 1), (1, 2)]
    for trial, channels in zip(ds.trials, ds.cube):
        assert np.shares_memory(trial.channels, ds.cube)
        assert_array_equal(trial.channels, channels)


def _per_channel_reference(model, trials_per_class, n_channels, n_samples, noise, seed):
    """The dataset rule spelled out one channel at a time with numpy alone:
    one default_rng per (trial seed, noise seed, channel) and the
    prototype-plus-ball perturbation, halved until inside the ellipsoid.
    Returns the cube and how many halvings it took."""
    total = model.n_classes * trials_per_class
    trial_seeds = np.random.SeedSequence(seed % 2**64).generate_state(
        total, dtype=np.uint64
    )
    count = 2 * model.truncation + 1
    phi = basis_matrix(count, np.arange(n_samples) / n_samples)
    a2 = ellipsoid_weights(model.spec, count) ** 2
    budget = model.spec.radius**2 + 1e-12
    labels = np.repeat(np.arange(1, model.n_classes + 1), trials_per_class)
    cube = np.empty((total, n_channels, n_samples))
    halvings = 0
    for t, (trial_seed, label) in enumerate(zip(trial_seeds.tolist(), labels)):
        for c in range(n_channels):
            seq = np.random.SeedSequence(
                [trial_seed, noise.seed % 2**64], spawn_key=(c,)
            )
            rng = np.random.default_rng(seq)
            base = model.prototypes[label - 1]
            theta = base.copy()
            if model.within_spread > 0.0:
                direction = rng.standard_normal(count)
                norm = float(np.linalg.norm(direction))
                if norm > 0.0:
                    radius = model.within_spread * rng.uniform() ** (1.0 / count)
                    delta = direction * (radius / norm)
                    for _ in range(200):
                        if float(np.sum(a2 * (base + delta) ** 2)) <= budget:
                            theta = base + delta
                            break
                        delta *= 0.5
                        halvings += 1
            cube[t, c] = theta @ phi + noise.sigma * rng.standard_normal(n_samples)
    return cube, halvings


@pytest.mark.parametrize("case", [
    "loso-geometry", "zero-spread", "noise-seed-0", "noise-seed-2**40",
    "noise-seed-negative",
])
def test_generate_dataset_matches_per_channel_streams(case):
    sizes = dict(trials_per_class=2, n_channels=3, n_samples=64)
    model = make_class_model(3, SPEC, 3, 0.5, 0.1, seed=4)
    noise = NoiseModel(sigma=0.5, seed=0)
    if case == "loso-geometry":
        # the benchmark's sigma = 24 geometry; its prototype 8 lies at 98% of
        # the ellipsoid budget, so some perturbations need halving
        model = make_class_model(8, SPEC, 5, 0.5, 0.1, seed=2)
        sizes = dict(trials_per_class=3, n_channels=32, n_samples=500)
        noise = NoiseModel(sigma=24.0, seed=2)
    elif case == "zero-spread":
        model = make_class_model(3, SPEC, 3, 0.5, 0.0, seed=4)
    elif case == "noise-seed-2**40":
        noise = NoiseModel(sigma=0.5, seed=2**40)
    elif case == "noise-seed-negative":
        noise = NoiseModel(sigma=0.5, seed=-3)
    ds = generate_dataset(model, n_sessions=2, noise=noise, seed=3, **sizes)
    expected, halvings = _per_channel_reference(model, noise=noise, seed=3, **sizes)
    assert np.array_equal(ds.cube, expected)
    if case == "loso-geometry":
        assert halvings > 0


@pytest.mark.parametrize("case", ["loso-geometry", "zero-spread"])
def test_generate_dataset_keeps_the_bits_across_signal_blocks(case, monkeypatch):
    # 7-row blocks: the 768 loso-geometry rows span 110 blocks and the 18
    # zero-spread rows 3, each ending on a short block
    monkeypatch.setattr(synth, "_SIGNAL_ROWS", 7)
    test_generate_dataset_matches_per_channel_streams(case)


def test_generate_dataset_holds_little_beside_its_cube():
    # the signal goes in through one row block at a time; one product over
    # all rows would hold a second cube-sized array
    model = make_class_model(8, SPEC, 5, 0.5, 0.1, seed=2)
    args = (model, 8, 32, 500, 2, NoiseModel(sigma=24.0, seed=2))
    generate_dataset(*args, seed=3)
    tracemalloc.start()
    try:
        ds = generate_dataset(*args, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * ds.cube.nbytes


# entropy of 1, 2, 3 and 4 assembled words: trial seeds below and above
# 2**32, noise seeds 0 and above 2**32, one negative noise seed
STREAM_ENTROPY = [(7,), (7, 0), (2**40 + 3, 0), (2**40 + 3, 2**33), (9, -3),
                  (2**64 - 1, 2**63)]
# the spawn keys experiments and generate_dataset use
STREAM_KEYS = [(), (3,), (2, 5)]


@pytest.mark.parametrize("key", STREAM_KEYS, ids=["no-key", "key-1", "key-2"])
@pytest.mark.parametrize("entropy", STREAM_ENTROPY)
def test_stream_state_matches_seed_sequence(entropy, key):
    seq = np.random.SeedSequence([e % 2**64 for e in entropy], spawn_key=key)
    # every key word is below 2**32, so each is one uint32 word
    words = _entropy_words(entropy) + list(key)
    (state,), (inc,) = _pcg64_states(np.array([words]))
    expected = np.random.PCG64(seq).state["state"]
    assert (state, inc) == (expected["state"], expected["inc"])
    draws = stream_rng(*entropy, key=key)
    reference = np.random.default_rng(seq)
    assert_array_equal(draws.standard_normal(50), reference.standard_normal(50))
    assert draws.uniform() == reference.uniform()
    assert draws.integers(1000) == reference.integers(1000)


def test_batched_stream_states_match_one_seed_sequence_per_row():
    # the rows generate_dataset derives at once: random 64-bit trial seeds,
    # a few of them below 2**32, times the channel key
    trial_seeds = np.random.default_rng(0).integers(0, 2**64, 20, dtype=np.uint64)
    trial_seeds[:3] = [0, 5, 2**32 - 1]
    for noise_seed in (0, 2**40):
        rows = [(int(t), noise_seed, c) for t in trial_seeds for c in range(4)]
        words = np.array([_entropy_words(r[:2]) + [r[2]] for r in rows])
        states, incs = _pcg64_states(words)
        for (t, n, c), state, inc in zip(rows, states, incs):
            seq = np.random.SeedSequence([t, n], spawn_key=(c,))
            expected = np.random.PCG64(seq).state["state"]
            assert (state, inc) == (expected["state"], expected["inc"])


def test_stream_key_must_be_nonnegative():
    with pytest.raises(ValueError):
        stream_rng(1, key=(-1,))
