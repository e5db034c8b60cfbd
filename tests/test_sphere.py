"""Geometry of the energy sphere and pair rotations."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import gammaln

from kaclab.sphere import log_sphere_area, rotate_pair, uniform_sphere_batch


def test_rotation_formulas():
    v1, v2 = 1.0, 2.0
    th = 0.7
    w1, w2 = rotate_pair(v1, v2, th)
    assert w1 == pytest.approx(v1 * np.cos(th) + v2 * np.sin(th))
    assert w2 == pytest.approx(-v1 * np.sin(th) + v2 * np.cos(th))


@given(st.floats(-5, 5), st.floats(-5, 5),
       st.floats(0, 2 * np.pi))
def test_rotation_preserves_pair_energy(v1, v2, theta):
    w1, w2 = rotate_pair(v1, v2, theta)
    assert w1 * w1 + w2 * w2 == pytest.approx(v1 * v1 + v2 * v2, abs=1e-9)


def test_full_rotation_is_identity():
    rng = np.random.default_rng(0)
    v = uniform_sphere_batch(6, 1, rng)[0]
    w = v.copy()
    w[1], w[4] = rotate_pair(v[1], v[4], 2 * np.pi)
    assert np.allclose(w, v)


def test_rotation_preserves_sphere_membership():
    rng = np.random.default_rng(1)
    v = uniform_sphere_batch(8, 1, rng)[0]
    v[0], v[7] = rotate_pair(v[0], v[7], 1.3)
    assert np.sum(v * v) == pytest.approx(8.0)


def test_sphere_area_small_dims():
    # circle circumference and 2-sphere area
    assert np.exp(log_sphere_area(2)) == pytest.approx(2 * np.pi)
    assert np.exp(log_sphere_area(3)) == pytest.approx(4 * np.pi)
    assert log_sphere_area(4) == pytest.approx(np.log(2 * np.pi**2))


def test_sphere_sizes_are_checked():
    with pytest.raises(ValueError, match="n must be >= 2"):
        uniform_sphere_batch(1, 3, np.random.default_rng(0))
    with pytest.raises(ValueError, match="n must be positive"):
        log_sphere_area(0)


def test_uniform_sphere_batch_statistics():
    rng = np.random.default_rng(2)
    n = 12
    batch = uniform_sphere_batch(n, 20_000, rng)
    assert np.allclose(np.sum(batch**2, axis=1), n)
    # each coordinate has mean 0 and variance 1 in the large-N sense
    assert abs(batch.mean()) < 0.01
    assert abs(batch.var() - 1.0) < 0.01
    # fourth moment of one coordinate: 3 N^2 / ((N+2) N) scaled
    m4 = np.mean(batch[:, 0] ** 4)
    exact = 3.0 * n / (n + 2.0)
    assert m4 == pytest.approx(exact, rel=0.05)


def test_uniform_sphere_batch_is_the_one_shot_formula():
    # the row norms are summed a block of rows at a time: same bits as
    # normalising the whole batch at once, without a second batch-sized array
    n, size = 64, 20_000
    g = np.random.default_rng(5).standard_normal((size, n))
    want = g * np.sqrt(n / np.sum(g * g, axis=1))[:, None]
    tracemalloc.start()
    try:
        got = uniform_sphere_batch(n, size, np.random.default_rng(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < 1.3 * got.nbytes


@pytest.mark.parametrize("n", [2, 3, 8, 64, 513, 4096])
def test_uniform_sphere_batch_temporaries_stay_under_the_mmap_threshold(n):
    # glibc serves blocks of 128 KiB and more by mmap, which faults their
    # pages in afresh on every call; the batch's temporaries stay below
    size = 2000
    tracemalloc.start()
    try:
        got = uniform_sphere_batch(n, size, np.random.default_rng(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - got.nbytes < 128 * 1024


def test_log_sphere_area_matches_gamma_formula():
    for n in (2, 5, 17, 100):
        direct = np.log(2.0) + 0.5 * n * np.log(np.pi) - gammaln(0.5 * n)
        assert log_sphere_area(n) == pytest.approx(direct, abs=1e-12)
