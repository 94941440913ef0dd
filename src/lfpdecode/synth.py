"""Synthetic data: smooth random functions, separated class geometries, and
noisy multichannel trial generation with reproducible, splittable seeding.

A :class:`LabeledDataset` holds its samples once, as one (n_trials,
n_channels, n_samples) cube with a label and a session array beside it;
:func:`generate_dataset` fills that cube in place."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .basis import CoefficientVector, uniform_basis
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
_M32 = 2**32 - 1
# numpy's SeedSequence: pool words, hash constants and mixing multipliers
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# prototype draws make_class_model tries before giving up
_MAX_ATTEMPTS = 4000
# the phase and magnitude geometries clear the separation floor by 5%
_MARGIN = 1.05
# rows per block of generate_dataset's signal products (1 MB at 500 samples)
_SIGNAL_ROWS = 256


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

    Its draws equal those of ``default_rng(SeedSequence([e % 2**64 for e
    in entropy], spawn_key=key))``; the state comes from the same batched
    derivation that seeds every channel of :func:`generate_dataset`.
    Distinct (entropy, key) pairs give statistically independent streams,
    so per-trial and per-channel draws never overlap.  Only the draws are
    the stream's: the generator holds no SeedSequence of it to spawn from.
    """
    (state,), (inc,) = _pcg64_states(np.array([_entropy_words(entropy, key)]))
    bitgen = np.random.PCG64(0)
    _set_pcg64(bitgen, state, inc)
    return np.random.Generator(bitgen)


def _int_words(value: int) -> list[int]:
    """The little-endian uint32 words SeedSequence splits an int into."""
    if value < 0:
        raise ValueError("seed words must be nonnegative")
    words = [value & _M32]
    while value := value >> 32:
        words.append(value & _M32)
    return words


def _entropy_words(entropy, key=()) -> list[int]:
    """SeedSequence's assembled entropy: the words of each entropy int mod
    2**64, zero-padded to the pool size, then the words of the spawn key.

    Padding a keyless entropy changes nothing, since SeedSequence hashes a
    missing pool word as a zero word."""
    words = [w for e in entropy for w in _int_words(int(e) % _U64)]
    words += [0] * (_POOL - len(words))
    return words + [w for k in key for w in _int_words(int(k))]


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix over uint32 arrays, its constant advancing by
    ``mult`` on every call."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _M32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return out ^ (out >> np.uint32(16))


def _pcg64_states(words: np.ndarray) -> tuple[list[int], list[int]]:
    """The (state, inc) of ``PCG64(SeedSequence(...))`` for every row of
    assembled entropy words (:func:`_entropy_words`, one row per stream),
    derived for all rows in one pass of uint32 array arithmetic."""
    words = words.astype(np.uint32)
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(words[:, i]) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, words.shape[1]):
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(words[:, src]))
    # generate_state(4, np.uint64): eight words drawn cyclically from the pool
    hashmix = _hasher(_INIT_B, _MULT_B)
    out = np.column_stack([hashmix(pool[i % _POOL]) for i in range(8)])
    seed = out.astype("<u4").view("<u8").astype(object)
    # PCG64's seeding step: two LCG steps from state 0, adding the seed between
    mask = 2**128 - 1
    inc = ((seed[:, 2] << 64 | seed[:, 3]) << 1 | 1) & mask
    state = ((inc + (seed[:, 0] << 64 | seed[:, 1])) * _PCG_MULT + inc) & mask
    return state.tolist(), inc.tolist()


def _set_pcg64(bitgen: np.random.PCG64, state: int, inc: int) -> None:
    bitgen.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


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


def _check_gap(separation: float, within_spread: float) -> None:
    """Reject a class gap that is not positive and finite, or a spread
    outside [0, separation/2); NaN fails both."""
    if not np.isfinite(separation) or separation <= 0.0:
        raise ValueError("separation must be positive and finite")
    if within_spread < 0.0 or not within_spread < separation / 2.0:
        raise ValueError("within_spread must lie in [0, separation/2)")


@dataclass(frozen=True)
class ClassModel:
    """A finite family of well-separated function classes.

    Class k is the ball of radius ``within_spread`` (in coefficient L2
    distance) around its prototype, row k-1 of the (n_classes, 2T+1)
    ``prototypes``, intersected with the ellipsoid.  The construction
    keeps distinct class balls more than 2 * separation apart, which
    drives both the decoder and its Chebyshev error bound.
    """

    prototypes: np.ndarray
    separation: float
    within_spread: float
    spec: EllipsoidSpec

    def __post_init__(self) -> None:
        protos = np.asarray(self.prototypes, dtype=float)
        object.__setattr__(self, "prototypes", protos)
        if protos.ndim != 2 or len(protos) < 2 or protos.shape[1] % 2 == 0:
            raise ValueError("prototypes must be a (n_classes >= 2, odd 2T+1) matrix")
        _check_gap(self.separation, self.within_spread)
        if np.any(protos**2 @ self._weights_sq > self.spec.radius**2 + 1e-12):
            raise ValueError("prototypes must lie inside the ellipsoid")
        floor = 2.0 * self.separation + 2.0 * self.within_spread
        if _min_interclass_distance(protos) <= floor:
            raise ValueError(
                "inter-class distance must exceed 2*separation + 2*within_spread"
            )

    @property
    def n_classes(self) -> int:
        return len(self.prototypes)

    @property
    def truncation(self) -> int:
        """Harmonic truncation T of the 2T+1 prototype coordinates."""
        return self.prototypes.shape[1] // 2

    @cached_property
    def _weights_sq(self) -> np.ndarray:
        """Squared semiaxis weights of the 2T+1 prototype coordinates."""
        return ellipsoid_weights(self.spec, self.prototypes.shape[1]) ** 2


def _min_interclass_distance(prototypes: np.ndarray) -> float:
    diffs = prototypes[:, None, :] - prototypes[None, :, :]
    dists = np.sqrt((diffs**2).sum(axis=2))
    return float(dists[np.triu_indices(len(prototypes), 1)].min())


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
    _check_gap(separation, within_spread)
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
                    prototypes=np.array(accepted),
                    separation=separation,
                    within_spread=within_spread,
                    spec=spec,
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
    _check_gap(separation, within_spread)
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
    protos = np.zeros((n_classes, 2 * truncation + 1))
    for k, theta in enumerate(protos):
        angle = base_phase + 2.0 * np.pi * k / n_classes
        theta[1::2] = mags * np.cos(angle)
        theta[2::2] = mags * np.sin(angle)
    return ClassModel(
        prototypes=protos,
        separation=separation,
        within_spread=within_spread,
        spec=spec,
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
    _check_gap(separation, within_spread)
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
    return ClassModel(
        prototypes=scales[:, None] * template,
        separation=separation,
        within_spread=within_spread,
        spec=spec,
    )


class Trial(NamedTuple):
    """One trial of a dataset: ``channels`` is its (n_channels, n_samples) view."""

    channels: np.ndarray
    label: int
    session: int


@dataclass
class LabeledDataset:
    """A (n_trials, n_channels, n_samples) sample cube with one label and
    one session per trial, plus generator metadata."""

    cube: np.ndarray
    labels: np.ndarray
    session_ids: np.ndarray
    n_classes: int
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.cube = np.asarray(self.cube, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        self.session_ids = np.asarray(self.session_ids, dtype=int)
        if self.cube.ndim != 3 or self.cube.size == 0:
            raise ValueError("cube must be a nonempty (trial, channel, sample) array")
        # one trial at a time, so no bool array of the cube's size is made
        if not all(np.isfinite(trial).all() for trial in self.cube):
            raise ValueError("channel samples must be finite")
        per_trial = self.cube.shape[:1]
        if self.labels.shape != per_trial or self.session_ids.shape != per_trial:
            raise ValueError("labels and session_ids need one entry per trial")
        if self.labels.min() < 1 or self.labels.max() > self.n_classes:
            raise ValueError("labels must lie in 1..n_classes")
        if self.session_ids.min() < 1:
            raise ValueError("sessions are 1-based")

    @property
    def n_trials(self) -> int:
        return int(self.cube.shape[0])

    @property
    def n_channels(self) -> int:
        return int(self.cube.shape[1])

    @property
    def n_samples(self) -> int:
        return int(self.cube.shape[2])

    @property
    def sessions(self) -> list[int]:
        return np.unique(self.session_ids).tolist()

    @property
    def trials(self) -> list[Trial]:
        # per-trial views of the cube; perfbench's _same_dataset compares
        # datasets through them
        rows = zip(self.cube, self.labels.tolist(), self.session_ids.tolist())
        return [Trial(*row) for row in rows]


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
    base = model.prototypes[label - 1]
    directions, uniforms = np.zeros((1, base.size)), np.zeros(1)
    _draw_member(model, rng, directions, uniforms, 0)
    return _perturb_rows(model, base[None], directions, uniforms)[0]


def _draw_member(model: ClassModel, rng, directions, uniforms, i: int) -> None:
    """Make member ``i``'s draws, in stream order: unless within_spread is
    0, the 2T+1 standard normals of ``directions[i]`` and, if they are not
    all zero, the radius uniform ``uniforms[i]``, each written in place."""
    if model.within_spread == 0.0:
        return
    direction = directions[i]
    rng.standard_normal(out=direction)
    if np.count_nonzero(direction):
        # the same double rng.uniform() returns (0 + 1 * u), at half its cost
        uniforms[i] = rng.random()


def _perturb_rows(model: ClassModel, bases, directions, uniforms):
    """Class members for many draws at once: each base row moved along its
    direction by within_spread * u**(1/dim), the move halved until the row
    lies inside the ellipsoid (at most 200 times, else the base is kept).
    Rows with a zero direction keep their base."""
    thetas = np.array(bases, dtype=float)
    if model.within_spread == 0.0:
        return thetas
    dim = thetas.shape[1]
    # one ddot per row, the product direction.dot(direction) makes
    norms_sq = np.matmul(directions[:, None, :], directions[:, :, None])[:, 0, 0]
    moving = np.flatnonzero(norms_sq > 0.0)
    # a Python float power: numpy's vectorised power rounds some values
    # differently from the libm pow of a per-draw radius
    spread = model.within_spread
    radii = [spread * u ** (1.0 / dim) for u in uniforms[moving].tolist()]
    delta = directions[moving] * (radii / np.sqrt(norms_sq[moving]))[:, None]
    a2 = model._weights_sq
    budget = model.spec.radius**2 + 1e-12
    for _ in range(200):
        if not moving.size:
            break
        cand = thetas[moving] + delta
        inside = (a2 * cand**2).sum(axis=1) <= budget
        thetas[moving[inside]] = cand[inside]
        moving, delta = moving[~inside], delta[~inside] * 0.5
    return thetas


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
    channel of a trial perturbs the class prototype on its own
    (:func:`perturb_within_class`), is evaluated on the uniform grid
    l/n_samples and gets independent N(0, sigma^2) sample noise.  The whole
    dataset is a pure function of its arguments.

    Stream contract: channel c of a trial draws from
    ``default_rng(SeedSequence([trial_seed, noise.seed % 2**64],
    spawn_key=(c,)))``, where the trial seeds are
    ``SeedSequence(seed % 2**64).generate_state(n_trials, np.uint64)``.  Its
    draws come in this order: the perturbation direction (2T+1 standard
    normals) and the radius uniform (both skipped when within_spread is
    0), then the n_samples noise values.  All channel states are derived
    in one batched pass and only the draws run per stream.  The
    perturbations are then applied in one batch, and the signal is added
    in blocks of rows through the same per-row BLAS product that
    ``theta @ phi`` makes, so the data are the same as one stream and one
    perturbation at a time.
    """
    if trials_per_class < 1:
        raise ValueError("trials_per_class must be at least 1")
    if n_sessions < 1:
        raise ValueError("n_sessions must be at least 1")
    total = model.n_classes * trials_per_class
    if n_sessions > total:
        raise ValueError("more sessions than trials")
    count = model.prototypes.shape[1]
    if n_channels < 1:
        raise ValueError("n_channels must be at least 1")
    if n_samples <= count:
        raise ValueError("n_samples must exceed 2*truncation+1")
    trial_seeds = np.random.SeedSequence(int(seed) % _U64).generate_state(
        total, dtype=np.uint64
    )
    phi = uniform_basis(count, n_samples)
    labels = np.repeat(np.arange(1, model.n_classes + 1), trials_per_class)
    cube = np.empty((total, n_channels, n_samples))
    rows = cube.reshape(-1, n_samples)
    # one stream per (trial, channel): entropy [trial seed, noise seed], key (c,)
    words = np.empty((len(rows), _POOL + 1), dtype=np.uint32)
    run = [_entropy_words((t, noise.seed)) for t in trial_seeds.tolist()]
    words[:, :_POOL] = np.repeat(run, n_channels, axis=0)
    words[:, _POOL] = np.tile(np.arange(n_channels), total)
    states, incs = _pcg64_states(words)
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    directions = np.zeros((len(rows), count))
    uniforms = np.zeros(len(rows))
    # only the draws run per channel; the noise goes straight into its row
    for i, (state, inc, row) in enumerate(zip(states, incs, rows)):
        _set_pcg64(bitgen, state, inc)
        _draw_member(model, rng, directions, uniforms, i)
        rng.standard_normal(out=row)
    bases = model.prototypes[np.repeat(labels, n_channels) - 1]
    thetas = _perturb_rows(model, bases, directions, uniforms)
    # numpy sends each stacked (1, 2T+1) @ (2T+1, N) product to the gemv
    # that a per-row theta @ phi calls; one (rows, 2T+1) @ (2T+1, N)
    # product over all rows would round differently
    signal = np.empty((min(_SIGNAL_ROWS, len(rows)), 1, n_samples))
    for start in range(0, len(rows), _SIGNAL_ROWS):
        block = rows[start : start + _SIGNAL_ROWS]
        out = signal[: len(block)]
        np.matmul(thetas[start : start + len(block), None], phi, out=out)
        block *= noise.sigma
        block += out[:, 0]
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
    sessions = np.arange(total) % n_sessions + 1
    return LabeledDataset(cube, labels, sessions, model.n_classes, int(seed), params)
