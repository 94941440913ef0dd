"""Trig basis and discrete transform tests.

The oracle for the transform is a plain double loop over samples and
basis functions, written with scalar math so it shares no code with the
vectorized implementation.
"""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lfpdecode import basis
from lfpdecode.basis import (
    _ROW_BLOCK,
    CoefficientVector,
    SampledSignal,
    basis_matrix,
    coeff_l2_distance,
    forward_transform,
    reconstruct,
    transform_rows,
    uniform_basis,
)


def slow_basis(k: int, x: float) -> float:
    if k == 1:
        return 1.0
    m = k // 2
    if k % 2 == 0:
        return math.sqrt(2.0) * math.cos(2.0 * math.pi * m * x)
    return math.sqrt(2.0) * math.sin(2.0 * math.pi * m * x)


def slow_transform(samples, count):
    n = len(samples)
    out = []
    for k in range(1, count + 1):
        acc = 0.0
        for ell in range(n):
            acc += samples[ell] * slow_basis(k, ell / n)
        out.append(acc / n)
    return np.array(out)


def test_basis_known_values():
    phi = basis_matrix(3, [0.0, 0.25, 0.37])
    assert phi[0, 2] == 1.0
    assert_allclose(phi[1, 0], math.sqrt(2.0), rtol=1e-15)
    # sin(2 pi * 0.25) = 1
    assert_allclose(phi[2, 1], math.sqrt(2.0), rtol=1e-15)
    assert_allclose(phi[1, 1], 0.0, atol=1e-15)


def test_basis_matrix_matches_pointwise_oracle():
    rng = np.random.default_rng(7)
    grid = rng.uniform(0.0, 1.0, size=17)
    phi = basis_matrix(9, grid)
    for k in range(1, 10):
        for j, x in enumerate(grid):
            assert_allclose(phi[k - 1, j], slow_basis(k, x), rtol=1e-14)


def test_basis_matrix_equals_the_written_out_rule_bit_for_bit():
    # the out-of-place rule: angles 2 pi m x, then sqrt(2) cos or sin
    rng = np.random.default_rng(8)
    for count, grid in ((1, np.arange(16) / 16), (2, rng.uniform(size=7)),
                        (11, np.arange(500) / 500), (249, np.arange(500) / 500),
                        (64, rng.uniform(size=257))):
        ks = np.arange(2, count + 1)
        angles = 2.0 * np.pi * np.outer(ks // 2, grid)
        even = ks % 2 == 0
        want = np.ones((count, grid.size))
        want[1:][even] = np.sqrt(2.0) * np.cos(angles[even])
        want[1:][~even] = np.sqrt(2.0) * np.sin(angles[~even])
        assert np.array_equal(basis_matrix(count, grid), want)


def test_basis_matrix_is_built_in_place():
    # no angle matrix beside the output: the basis of the BJS transform
    # is built while the padded estimate is already allocated
    grid = np.arange(500) / 500
    tracemalloc.start()
    try:
        phi = basis_matrix(249, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * phi.nbytes


def test_uniform_basis_is_the_read_only_basis_matrix():
    # 301 x 1000 is above the cache's entry limit, so it is built each call
    for count, n in ((11, 500), (249, 500), (301, 1000)):
        phi = uniform_basis(count, n)
        assert np.array_equal(phi, basis_matrix(count, np.arange(n) / n))
        with pytest.raises(ValueError, match="read-only"):
            phi[0, 0] = 1.0
    assert uniform_basis(249, 500) is uniform_basis(249, 500)
    assert uniform_basis(301, 1000) is not uniform_basis(301, 1000)
    assert basis_matrix(11, np.arange(500) / 500).flags.writeable


def test_transform_rows_builds_each_basis_once_per_shape(monkeypatch):
    built = []

    def counted(count, grid):
        built.append((count, len(grid)))
        return basis_matrix(count, grid)

    monkeypatch.setattr(basis, "basis_matrix", counted)
    basis._read_only_basis.cache_clear()
    rows = np.random.default_rng(9).standard_normal((6, 500))
    for truncation in (124, 5, 124, 5, 124):
        transform_rows(rows, truncation)
    # reconstruction on the same grid reads the same cached basis
    reconstruct(CoefficientVector(np.ones(11)), 500)
    basis._read_only_basis.cache_clear()
    assert built == [(249, 500), (11, 500)]


def test_discrete_gram_is_identity():
    n = 512
    count = 21
    phi = basis_matrix(count, np.arange(n) / n)
    gram = phi @ phi.T / n
    assert np.max(np.abs(gram - np.eye(count))) <= 1e-9


def test_forward_transform_matches_direct_sums():
    rng = np.random.default_rng(11)
    samples = rng.normal(size=128)
    got = forward_transform(SampledSignal(samples), 4)
    want = slow_transform(samples, 9)
    assert_allclose(got.coeffs, want, atol=1e-12)
    assert_allclose(got.epsilon, 1.0 / math.sqrt(128), rtol=1e-15)


def test_forward_transform_is_linear():
    rng = np.random.default_rng(12)
    f = rng.normal(size=96)
    g = rng.normal(size=96)
    a, b = 2.5, -0.75
    ya = forward_transform(SampledSignal(a * f + b * g), 3)
    yf = forward_transform(SampledSignal(f), 3)
    yg = forward_transform(SampledSignal(g), 3)
    assert_allclose(ya.coeffs, a * yf.coeffs + b * yg.coeffs, atol=1e-10)


def test_roundtrip_recovers_in_span_signal():
    rng = np.random.default_rng(13)
    for trial in range(5):
        theta = rng.normal(size=9)
        n = 160
        phi = basis_matrix(9, np.arange(n) / n)
        recovered = forward_transform(SampledSignal(theta @ phi), 4)
        assert_allclose(recovered.coeffs, theta, atol=1e-9)


def test_known_harmonic_coefficients():
    # f(x) = 1 + 3*sqrt(2)*sin(4 pi x): constant 1 in k=1, 3 in k=5
    n = 128
    x = np.arange(n) / n
    f = 1.0 + 3.0 * math.sqrt(2.0) * np.sin(4.0 * math.pi * x)
    y = forward_transform(SampledSignal(f), 3)
    want = np.array([1.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0])
    assert_allclose(y.coeffs, want, atol=1e-12)


def test_frequency_overflow_rejected():
    with pytest.raises(ValueError, match="frequency overflow"):
        forward_transform(SampledSignal(np.zeros(16)), 4)
    # 2*(2T+1) = N exactly is still too many
    with pytest.raises(ValueError, match="frequency overflow"):
        forward_transform(SampledSignal(np.zeros(18)), 4)


def test_truncation_below_one_rejected():
    with pytest.raises(ValueError, match="truncation must be at least 1"):
        forward_transform(SampledSignal(np.zeros(16)), 0)


def test_transform_rows_matches_single_transform():
    rng = np.random.default_rng(14)
    rows = rng.normal(size=(4, 80))
    batch = transform_rows(rows, 3)
    for i in range(4):
        single = forward_transform(SampledSignal(rows[i]), 3)
        assert_allclose(batch[i], single.coeffs, atol=1e-13)


def test_transform_rows_is_the_basis_product_over_n_bit_for_bit():
    rng = np.random.default_rng(16)
    for m, n, truncation in ((1, 80, 3), (7, 500, 124), (33, 257, 20)):
        rows = 24.0 * rng.standard_normal((m, n))
        phi = basis_matrix(2 * truncation + 1, np.arange(n) / n)
        assert np.array_equal(transform_rows(rows, truncation), rows @ phi.T / n)


@pytest.mark.parametrize("truncation", [5, 124])
def test_transform_rows_is_one_product_per_row_block_bit_for_bit(truncation):
    # two full blocks and a short one
    n = 500
    rows = 24.0 * np.random.default_rng(18).standard_normal((2 * _ROW_BLOCK + 37, n))
    phi = basis_matrix(2 * truncation + 1, np.arange(n) / n)
    want = np.vstack([rows[i : i + _ROW_BLOCK] @ phi.T / n
                      for i in range(0, rows.shape[0], _ROW_BLOCK)])
    assert np.array_equal(transform_rows(rows, truncation), want)


def test_transform_rows_writes_into_a_given_output():
    # a strided slice of a wider array, as the padded BJS estimate
    rows = 24.0 * np.random.default_rng(19).standard_normal((_ROW_BLOCK + 9, 500))
    padded = np.full((rows.shape[0], 255), 7.0)
    out = transform_rows(rows, 124, out=padded[:, :249])
    assert out.base is padded
    assert np.array_equal(padded[:, :249], transform_rows(rows, 124))
    assert np.all(padded[:, 249:] == 7.0)
    with pytest.raises(ValueError, match="out"):
        transform_rows(rows, 124, out=padded)


def test_transform_rows_holds_only_its_output_and_basis():
    # loso's N = 500 at the widest safe band, 2T+1 = 249; the rows are
    # allocated before tracing starts
    rows = np.random.default_rng(17).standard_normal((4096, 500))
    tracemalloc.start()
    try:
        coeffs = transform_rows(rows, 124)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    phi_bytes = 249 * 500 * rows.itemsize
    assert coeffs.shape == (4096, 249)
    assert peak < 1.1 * (coeffs.nbytes + phi_bytes)


def test_reconstruct_evaluates_on_uniform_grid():
    theta = np.array([0.5, -1.0, 2.0])
    out = reconstruct(CoefficientVector(theta), 24)
    for ell in range(24):
        want = sum(theta[k - 1] * slow_basis(k, ell / 24) for k in (1, 2, 3))
        assert_allclose(out.samples[ell], want, rtol=1e-13)


def test_coeff_distance_pads_shorter_vector():
    a = CoefficientVector(np.array([1.0, 2.0]))
    b = CoefficientVector(np.array([1.0, 2.0, 3.0]))
    assert_allclose(coeff_l2_distance(a, b), 3.0, rtol=1e-15)
    assert coeff_l2_distance(a, a) == 0.0


def test_sampled_signal_validation():
    with pytest.raises(ValueError):
        SampledSignal(np.array([]))
    with pytest.raises(ValueError):
        SampledSignal(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        SampledSignal(np.zeros((2, 2)))


def test_coefficient_vector_validation():
    with pytest.raises(ValueError):
        CoefficientVector(np.array([1.0]), epsilon=-0.5)
    with pytest.raises(ValueError):
        CoefficientVector(np.array([np.inf]))
