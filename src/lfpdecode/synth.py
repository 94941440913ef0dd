"""Synthetic data: smooth random functions, separated class geometries, and
noisy multichannel trial generation with reproducible, splittable seeding."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .basis import CoefficientVector, basis_matrix
from .shrinkage import EllipsoidSpec, ellipsoid_weights

__all__ = [
    "NoiseModel",
    "ClassModel",
    "Trial",
    "LabeledDataset",
    "ClassConstructionError",
    "sample_sobolev",
    "make_class_model",
    "make_phase_class_model",
    "make_magnitude_class_model",
    "perturb_within_class",
    "generate_dataset",
    "stream_rng",
]

_U64 = 2**64
# prototype draws make_class_model tries before giving up
_MAX_ATTEMPTS = 4000
# the phase and magnitude geometries clear the separation floor by 5%
_MARGIN = 1.05


class ClassConstructionError(RuntimeError):
    """Raised when no class geometry satisfies the separation constraint."""

    def __init__(self, message: str, achievable_separation: float):
        super().__init__(message)
        self.achievable_separation = achievable_separation


@dataclass(frozen=True)
class NoiseModel:
    """Additive white Gaussian sample noise: sd ``sigma``, stream id ``seed``."""

    sigma: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not np.isfinite(self.sigma) or self.sigma <= 0.0:
            raise ValueError("sigma must be positive")


def stream_rng(*entropy: int, key: tuple[int, ...] = ()) -> np.random.Generator:
    """Deterministic generator from an entropy tuple and a spawn key.

    Distinct (entropy, key) pairs give statistically independent streams,
    so per-trial and per-channel draws never overlap.
    """
    seq = np.random.SeedSequence(
        [int(e) % _U64 for e in entropy], spawn_key=tuple(int(k) for k in key)
    )
    return np.random.default_rng(seq)


def sample_sobolev(
    spec: EllipsoidSpec, truncation: int, seed
) -> CoefficientVector:
    """Draw a random coefficient vector from inside the smoothness ellipsoid.

    Coordinates start as independent Gaussians damped by the semiaxis
    weights, theta_k = g_k / max(a_k, 1), and the whole vector is rescaled
    so that sum a_k^2 theta_k^2 = r * radius^2 with r uniform on [0.2, 1].
    The result is strictly inside the ellipsoid with probability one and
    shrinks to zero as radius -> 0.

    ``seed`` may be an int or a numpy SeedSequence.
    """
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    rng = np.random.default_rng(
        seed if isinstance(seed, np.random.SeedSequence) else int(seed) % _U64
    )
    count = 2 * truncation + 1
    a = ellipsoid_weights(spec, count)
    theta = rng.standard_normal(count) / np.maximum(a, 1.0)
    weighted = float(np.sum(a**2 * theta**2))
    ratio = rng.uniform(0.2, 1.0)
    if weighted > 0.0:
        theta *= np.sqrt(ratio) * spec.radius / np.sqrt(weighted)
    return CoefficientVector(theta, epsilon=0.0)


@dataclass(frozen=True)
class ClassModel:
    """A finite family of well-separated function classes.

    Class k is the ball of radius ``within_spread`` (in coefficient L2
    distance) around its prototypes, intersected with the ellipsoid.  The
    construction keeps distinct class sets more than 2 * separation apart,
    which drives both the decoder and its Chebyshev error bound.
    """

    prototypes: tuple[np.ndarray, ...]
    separation: float
    within_spread: float
    spec: EllipsoidSpec
    truncation: int

    def __post_init__(self) -> None:
        protos = tuple(
            np.atleast_2d(np.asarray(p, dtype=float)) for p in self.prototypes
        )
        object.__setattr__(self, "prototypes", protos)
        if len(protos) < 2:
            raise ValueError("a class model needs at least 2 classes")
        if not np.isfinite(self.separation) or self.separation <= 0.0:
            raise ValueError("separation must be positive")
        if self.within_spread < 0.0 or not self.within_spread < self.separation / 2.0:
            raise ValueError("within_spread must lie in [0, separation/2)")
        count = 2 * self.truncation + 1
        a2 = self._weights_sq
        budget = self.spec.radius**2 + 1e-12
        for p in protos:
            if p.shape[1] != count:
                raise ValueError("prototype length must equal 2*truncation+1")
            if np.any(p**2 @ a2 > budget):
                raise ValueError("prototypes must lie inside the ellipsoid")
        floor = 2.0 * self.separation + 2.0 * self.within_spread
        if _min_interclass_distance(protos) <= floor:
            raise ValueError(
                "inter-class distance must exceed 2*separation + 2*within_spread"
            )

    @property
    def n_classes(self) -> int:
        return len(self.prototypes)

    @cached_property
    def _weights_sq(self) -> np.ndarray:
        """Squared semiaxis weights of the 2T+1 prototype coordinates."""
        return ellipsoid_weights(self.spec, 2 * self.truncation + 1) ** 2


def _min_interclass_distance(prototypes) -> float:
    best = np.inf
    for i in range(len(prototypes)):
        for j in range(i + 1, len(prototypes)):
            diffs = prototypes[i][:, None, :] - prototypes[j][None, :, :]
            best = min(best, float(np.sqrt((diffs**2).sum(axis=2).min())))
    return best


def make_class_model(
    n_classes: int,
    spec: EllipsoidSpec,
    truncation: int,
    separation: float,
    within_spread: float,
    seed: int,
) -> ClassModel:
    """Sample a class geometry of smooth prototypes by rejection.

    Prototypes are drawn with :func:`sample_sobolev` and kept greedily
    while every pairwise distance exceeds 2*separation + 2*within_spread,
    so the resulting class balls are separated by more than 2*separation.

    Raises
    ------
    ClassConstructionError
        If the budget of 4000 draws runs out, which means the
        separation is unrealistic for the ellipsoid radius.  The error
        reports the roughly achievable separation.
    """
    if n_classes < 2:
        raise ValueError("n_classes must be at least 2")
    seq = np.random.SeedSequence(int(seed) % _U64)
    floor = 2.0 * separation + 2.0 * within_spread
    accepted: list[np.ndarray] = []
    best_floor = 0.0
    for _ in range(_MAX_ATTEMPTS):
        cand = sample_sobolev(spec, truncation, seq.spawn(1)[0]).coeffs
        dists = [float(np.linalg.norm(cand - p)) for p in accepted]
        if not dists or min(dists) > floor:
            accepted.append(cand)
            if len(accepted) == n_classes:
                return ClassModel(
                    prototypes=tuple(p[None, :] for p in accepted),
                    separation=separation,
                    within_spread=within_spread,
                    spec=spec,
                    truncation=truncation,
                )
        else:
            best_floor = max(best_floor, min(dists))
    achievable = max(0.0, best_floor / 2.0)
    raise ClassConstructionError(
        f"could not place {n_classes} prototypes with pairwise distance > "
        f"{floor:.6g} within {_MAX_ATTEMPTS} attempts; the requested separation "
        f"is too large for this ellipsoid (roughly {achievable:.6g} is "
        f"achievable here)",
        achievable_separation=achievable,
    )


def make_phase_class_model(
    n_classes: int,
    spec: EllipsoidSpec,
    truncation: int,
    separation: float,
    within_spread: float,
    seed: int,
) -> ClassModel:
    """Classes that share per-harmonic magnitudes and differ only in phase.

    Every class prototype is the same magnitude pattern with each
    (cos, sin) pair rotated by the class angle 2 pi (k-1) / n_classes; the
    mean coefficient is zero.  Magnitude-based features therefore carry no
    class information while the full coefficients stay well separated.
    """
    if n_classes < 2:
        raise ValueError("n_classes must be at least 2")
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    rng = np.random.default_rng(int(seed) % _U64)
    a = ellipsoid_weights(spec, 2 * truncation + 1)
    # positive magnitudes damped faster than the semiaxes, so most of the
    # ellipsoid budget sits on the cheap low harmonics
    mags = (np.abs(rng.standard_normal(truncation)) + 0.5) / np.maximum(
        a[1::2], 1.0
    ) ** 2
    base_phase = rng.uniform(0.0, 2.0 * np.pi, truncation)
    # adjacent class angles realize the minimum pairwise distance
    gap = np.sqrt(2.0 - 2.0 * np.cos(2.0 * np.pi / n_classes))
    floor = 2.0 * separation + 2.0 * within_spread
    mags *= _MARGIN * floor / (gap * float(np.linalg.norm(mags)))
    weighted = float(np.sum((a[1::2] * mags) ** 2))
    if weighted >= 0.95 * spec.radius**2:
        achievable = separation * np.sqrt(0.95) * spec.radius / np.sqrt(weighted)
        raise ClassConstructionError(
            f"phase-coded classes with separation {separation:.6g} do not fit "
            f"inside the ellipsoid of radius {spec.radius:.6g}; roughly "
            f"{achievable:.6g} is achievable",
            achievable_separation=float(achievable),
        )
    protos = []
    for k in range(n_classes):
        angle = base_phase + 2.0 * np.pi * k / n_classes
        theta = np.zeros(2 * truncation + 1)
        theta[1::2] = mags * np.cos(angle)
        theta[2::2] = mags * np.sin(angle)
        protos.append(theta[None, :])
    return ClassModel(
        prototypes=tuple(protos),
        separation=separation,
        within_spread=within_spread,
        spec=spec,
        truncation=truncation,
    )


def make_magnitude_class_model(
    n_classes: int,
    spec: EllipsoidSpec,
    truncation: int,
    separation: float,
    within_spread: float,
    seed: int,
) -> ClassModel:
    """Classes that differ only in per-harmonic magnitudes, with zero phase.

    All classes scale one shared nonnegative pattern, supported on the
    constant and cosine coordinates only, by evenly spaced factors.  The
    magnitudes then carry the full class information, which makes this the
    control for the phase ablation.  The pattern leans on the constant
    coordinate because it costs no ellipsoid budget.
    """
    if n_classes < 2:
        raise ValueError("n_classes must be at least 2")
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    rng = np.random.default_rng(int(seed) % _U64)
    count = 2 * truncation + 1
    a = ellipsoid_weights(spec, count)
    template = np.zeros(count)
    template[0] = (np.abs(rng.standard_normal()) + 0.5) * truncation
    template[1::2] = (np.abs(rng.standard_normal(truncation)) + 0.5) / np.maximum(
        a[1::2], 1.0
    ) ** 2
    template /= float(np.linalg.norm(template))
    # adjacent scale factors realize the minimum pairwise distance
    step = _MARGIN * (2.0 * separation + 2.0 * within_spread)
    scales = step * np.arange(1, n_classes + 1)
    weighted = float(np.linalg.norm(a * template))
    if scales[-1] * weighted >= np.sqrt(0.95) * spec.radius:
        top = np.sqrt(0.95) * spec.radius / weighted
        achievable = max(0.0, top / (n_classes * _MARGIN) / 2.0 - within_spread)
        raise ClassConstructionError(
            f"magnitude-coded classes with separation {separation:.6g} do not "
            f"fit inside the ellipsoid of radius {spec.radius:.6g}; roughly "
            f"{achievable:.6g} is achievable",
            achievable_separation=float(achievable),
        )
    protos = [(scale * template)[None, :] for scale in scales]
    return ClassModel(
        prototypes=tuple(protos),
        separation=separation,
        within_spread=within_spread,
        spec=spec,
        truncation=truncation,
    )


@dataclass(frozen=True)
class Trial:
    """One multichannel recording: ``channels`` is (n_channels, n_samples)."""

    channels: np.ndarray
    label: int
    session: int

    def __post_init__(self) -> None:
        channels = np.asarray(self.channels, dtype=float)
        if channels.ndim != 2 or channels.size == 0:
            raise ValueError("channels must be a nonempty (channels, samples) matrix")
        if not np.all(np.isfinite(channels)):
            raise ValueError("channel samples must be finite")
        if self.label < 1:
            raise ValueError("labels are 1-based")
        if self.session < 1:
            raise ValueError("sessions are 1-based")
        object.__setattr__(self, "channels", channels)

    @property
    def n_channels(self) -> int:
        return int(self.channels.shape[0])

    @property
    def n_samples(self) -> int:
        return int(self.channels.shape[1])


@dataclass
class LabeledDataset:
    """A list of labeled trials with shared shape plus generator metadata."""

    trials: list[Trial]
    n_classes: int
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.trials:
            raise ValueError("dataset must contain at least one trial")
        shape = self.trials[0].channels.shape
        for t in self.trials:
            if t.channels.shape != shape:
                raise ValueError("all trials must share the channel/sample shape")
            if t.label > self.n_classes:
                raise ValueError("trial label exceeds n_classes")

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    @property
    def n_channels(self) -> int:
        return self.trials[0].n_channels

    @property
    def n_samples(self) -> int:
        return self.trials[0].n_samples

    @property
    def sessions(self) -> list[int]:
        return sorted({t.session for t in self.trials})

    def labels(self) -> np.ndarray:
        return np.array([t.label for t in self.trials], dtype=int)

    def session_ids(self) -> np.ndarray:
        return np.array([t.session for t in self.trials], dtype=int)


def perturb_within_class(
    model: ClassModel, label: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw one class member: prototype plus a uniform-in-ball perturbation.

    The perturbation radius never exceeds ``within_spread`` and the result
    is kept inside the ellipsoid by halving the perturbation as needed
    (the prototype itself is strictly inside, so this terminates).
    """
    if not 1 <= label <= model.n_classes:
        raise ValueError("label out of range")
    protos = model.prototypes[label - 1]
    base = protos[0] if protos.shape[0] == 1 else protos[rng.integers(protos.shape[0])]
    if model.within_spread == 0.0:
        return base.copy()
    dim = base.size
    direction = rng.standard_normal(dim)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        return base.copy()
    radius = model.within_spread * rng.uniform() ** (1.0 / dim)
    delta = direction * (radius / norm)
    a2 = model._weights_sq
    budget = model.spec.radius**2 + 1e-12
    for _ in range(200):
        theta = base + delta
        if float(np.sum(a2 * theta**2)) <= budget:
            return theta
        delta *= 0.5
    return base.copy()


def generate_dataset(
    model: ClassModel,
    trials_per_class: int,
    n_channels: int,
    n_samples: int,
    n_sessions: int,
    noise: NoiseModel,
    seed: int,
) -> LabeledDataset:
    """Generate a balanced labeled dataset with round-robin session ids.

    Trials are laid out class-major (all of class 1, then class 2, ...)
    and sessions cycle over the trial index, so session sizes differ by at
    most one and every class appears in nearly every session.  Each
    channel of a trial perturbs the class prototype on its own, is
    evaluated on the uniform grid l/n_samples and gets independent
    N(0, sigma^2) sample noise, all from one stream keyed by the trial's
    seed, noise.seed and the channel index.  The whole dataset is a pure
    function of its arguments.
    """
    if trials_per_class < 1:
        raise ValueError("trials_per_class must be at least 1")
    if n_sessions < 1:
        raise ValueError("n_sessions must be at least 1")
    total = model.n_classes * trials_per_class
    if n_sessions > total:
        raise ValueError("more sessions than trials")
    count = 2 * model.truncation + 1
    if n_channels < 1:
        raise ValueError("n_channels must be at least 1")
    if n_samples <= count:
        raise ValueError("n_samples must exceed 2*truncation+1")
    trial_seeds = np.random.SeedSequence(int(seed) % _U64).generate_state(
        total, dtype=np.uint64
    )
    phi = basis_matrix(count, np.arange(n_samples) / n_samples)
    trials = []
    for index, trial_seed in enumerate(trial_seeds.tolist()):
        label = index // trials_per_class + 1
        channels = np.empty((n_channels, n_samples))
        for c in range(n_channels):
            rng = stream_rng(trial_seed, noise.seed, key=(c,))
            theta = perturb_within_class(model, label, rng)
            channels[c] = theta @ phi + noise.sigma * rng.standard_normal(n_samples)
        trials.append(
            Trial(channels=channels, label=label, session=index % n_sessions + 1)
        )
    params = {
        "alpha": model.spec.alpha,
        "radius": model.spec.radius,
        "truncation": model.truncation,
        "separation": model.separation,
        "spread": model.within_spread,
        "sigma": noise.sigma,
        "noise_seed": noise.seed,
        "trials_per_class": trials_per_class,
        "n_sessions": n_sessions,
    }
    return LabeledDataset(
        trials=trials, n_classes=model.n_classes, seed=int(seed), params=params
    )
