"""Shrinkage estimator tests: ellipsoid weights, water filling, JS, BJS."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lfpdecode.basis import CoefficientVector
from lfpdecode.shrinkage import (
    BlockPartition,
    EllipsoidSpec,
    _bjs_rows,
    bjs_sampled_rows,
    ellipsoid_weights,
    james_stein,
    pinsker_mu,
    pinsker_shrink,
    pinsker_weights,
)


def test_ellipsoid_weights_pair_structure():
    spec = EllipsoidSpec(1.0, 1.0)
    assert_allclose(ellipsoid_weights(spec, 7), [0, 2, 2, 4, 4, 6, 6])
    spec2 = EllipsoidSpec(2.0, 1.0)
    assert_allclose(ellipsoid_weights(spec2, 5), [0, 4, 4, 16, 16])


def test_spec_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        EllipsoidSpec(0.0, 1.0)
    with pytest.raises(ValueError):
        EllipsoidSpec(1.0, -2.0)


def test_water_level_closed_form_case():
    # alpha=1, radius=1, eps=1: only the weight-2 pair fills, so
    # 1 * (2*(mu-2) + 2*(mu-2)) = 1  =>  mu = 2.25
    mu = pinsker_mu(EllipsoidSpec(1.0, 1.0), 1.0)
    assert_allclose(mu, 2.25, rtol=1e-9)


def test_water_level_satisfies_residual_equation():
    rng = np.random.default_rng(5)
    for _ in range(20):
        alpha = rng.uniform(0.5, 3.0)
        radius = rng.uniform(0.5, 20.0)
        eps = rng.uniform(0.01, 1.0)
        spec = EllipsoidSpec(alpha, radius)
        mu = pinsker_mu(spec, eps)
        # enumerate every weight below the water level and plug back in
        pairs = int(np.floor(mu ** (1.0 / alpha) / 2.0)) + 2
        a = ellipsoid_weights(spec, 2 * pairs + 1)
        filled = eps**2 * float(np.sum(a * np.clip(mu - a, 0.0, None)))
        assert_allclose(filled, radius**2, rtol=1e-8)


def test_water_level_grows_as_noise_shrinks():
    spec = EllipsoidSpec(2.0, 10.0)
    mus = [pinsker_mu(spec, eps) for eps in (0.5, 0.1, 0.02)]
    assert mus[0] < mus[1] < mus[2]


def test_pinsker_weights_formula():
    spec = EllipsoidSpec(1.0, 1.0)
    w = pinsker_weights(spec, 2.25, 5)
    assert_allclose(w, [1.0, 1.0 / 9.0, 1.0 / 9.0, 0.0, 0.0], rtol=1e-12)


def test_pinsker_shrink_applies_weights_and_keeps_epsilon():
    spec = EllipsoidSpec(1.0, 1.0)
    y = CoefficientVector(np.array([3.0, 9.0, -9.0, 4.0, 5.0]), epsilon=0.25)
    out = pinsker_shrink(y, spec, 2.25)
    assert_allclose(out.coeffs, [3.0, 1.0, -1.0, 0.0, 0.0], rtol=1e-12)
    assert out.epsilon == 0.25


def test_james_stein_worked_example():
    # ||y||^2 = 4, factor = 1 - (4-2)*1/4 = 0.5
    out = james_stein(np.array([2.0, 0.0, 0.0, 0.0]), 1.0)
    assert_allclose(out, [1.0, 0.0, 0.0, 0.0], rtol=1e-14)


def test_james_stein_zero_vector_and_small_n():
    assert_allclose(james_stein(np.zeros(5), 1.0), np.zeros(5))
    with pytest.raises(ValueError, match="more than 2"):
        james_stein(np.array([1.0, 2.0]), 1.0)


def test_james_stein_shrinks_toward_zero_without_sign_flips():
    rng = np.random.default_rng(3)
    for _ in range(50):
        y = rng.normal(size=8) * rng.uniform(0.1, 10.0)
        out = james_stein(y, 1.0)
        assert np.all(np.abs(out) <= np.abs(y) + 1e-15)
        assert np.all(out * y >= -1e-15)


def test_dyadic_block_layout():
    part = BlockPartition(2, 4)
    assert part.blocks == ((1, 1), (2, 3), (4, 7), (8, 15))
    assert part.width == 15
    with pytest.raises(ValueError):
        BlockPartition(4, 4)
    with pytest.raises(ValueError):
        BlockPartition(-1, 3)


def test_bjs_sampled_rows_pass_a_constant_through():
    # at N = 66 (2 mod 4) the band used to be one harmonic too wide
    observed, shrunk = bjs_sampled_rows(np.ones((2, 66)), 2)
    assert observed.shape == shrunk.shape == (2, 63)
    assert_allclose(observed[:, 0], 1.0)
    assert_allclose(shrunk, observed, atol=1e-12)


def test_bjs_hand_traced_single_spike():
    # spike of height 10 at coordinate 9 sits in block {8..15} (size 8);
    # factor = 1 - (8-2)(1+2/sqrt 8)*0.01/100 = 0.998975736, so the output
    # is 9.98975736
    y = np.zeros(15)
    y[8] = 10.0
    out = _bjs_rows(y[None, :], BlockPartition(2, 4), 0.1)[0]
    assert_allclose(out[8], 9.98975735931288, rtol=1e-12)
    assert_allclose(np.delete(out, 8), np.zeros(14), atol=1e-15)


def test_bjs_passes_low_blocks_through():
    rng = np.random.default_rng(9)
    y = rng.normal(size=15)
    out = _bjs_rows(y[None, :], BlockPartition(2, 4), 0.3)[0]
    # blocks {1}, {2,3}, {4..7} are below or at the pass limit
    assert_allclose(out[:7], y[:7], rtol=1e-14)


def test_bjs_passes_tiny_js_blocks_through():
    # with pass_limit=0 the block {2,3} has size 2, too small for JS
    y = np.array([5.0, 1.0, -2.0])
    out = _bjs_rows(y[None, :], BlockPartition(0, 2), 1.0)[0]
    assert_allclose(out, y, rtol=1e-14)


def test_bjs_zeroes_beyond_partition_width():
    y = np.arange(1.0, 20.0)
    out = _bjs_rows(y[None, :], BlockPartition(1, 3), 0.1)[0]
    assert len(out) == 19
    assert_allclose(out[7:], np.zeros(12))


def test_bjs_scale_equivariance():
    rng = np.random.default_rng(21)
    y = rng.normal(size=31)
    part = BlockPartition(2, 5)
    base = _bjs_rows(y[None, :], part, 0.2)[0]
    scaled = _bjs_rows(4.0 * y[None, :], part, 0.8)[0]
    assert_allclose(scaled, 4.0 * base, rtol=1e-12)


def test_bjs_never_expands_coordinates():
    rng = np.random.default_rng(30)
    for _ in range(20):
        y = rng.normal(size=31) * rng.uniform(0.5, 5.0)
        out = _bjs_rows(y[None, :], BlockPartition(2, 5), 0.5)[0]
        assert np.all(np.abs(out) <= np.abs(y) + 1e-12)
