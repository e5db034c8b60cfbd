"""One-dimensional density toolkit: construction, moments, functionals,
and the collision kernels psi / psi_beta as the folded quadrature uses them."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kaclab.densities import from_callable, gaussian, mixture, moment
from kaclab.errors import AccuracyError
from kaclab.quadrature import (ANGLES, SHELLS, angle_midpoints,
                               gaussian_relative_entropy, log_power_kernel,
                               pair_kernel, polar_shells, quadrant_points,
                               trapezoid_weights)


def psi(x, y):
    """(x - y) log(x / y) from the folded pair kernel: the folded row
    (x, y) of 16 angles, each value standing for 8 of them, whose ordered
    pairs sum to 128 psi."""
    return float(pair_kernel(np.array([[x, y]]))[0]) / 128.0


def psi_beta(x, y, beta):
    """|x - y| |log(x/y)|^{1+beta} from the folded log-power kernel: the
    folded row (x, y) of 16 angles, whose ordered pairs sum to
    128 psi_beta."""
    return float(log_power_kernel(np.array([[x, y]]), beta)[0]) / 128.0


def all_ordered_pairs(p, beta):
    """The log-power kernel by brute force: 64 times psi_beta summed over
    all h^2 ordered pairs of each folded row, each value standing for 8
    angles, zero values left out."""
    logp = np.log(np.maximum(p, 1e-300))
    out = np.empty(len(p))
    for a, (row, lrow) in enumerate(zip(p, logp)):
        live = row > 0
        x, lx = row[live], lrow[live]
        d = x[:, None] - x[None, :]
        dl = lx[:, None] - lx[None, :]
        out[a] = 64.0 * np.sum(d * np.sign(dl) * np.abs(dl) ** (1.0 + beta))
    return out


def test_gaussian_mass_and_moments():
    f = gaussian(1.0)
    assert moment(f, 0) == pytest.approx(1.0, abs=1e-10)
    assert moment(f, 2) == pytest.approx(1.0, abs=1e-8)
    assert moment(f, 4) == pytest.approx(3.0, abs=1e-7)


@given(st.floats(0.05, 0.95))
def test_mixture_unit_energy(delta):
    f = mixture(delta)
    assert moment(f, 0) == pytest.approx(1.0, abs=1e-8)
    assert moment(f, 2) == pytest.approx(1.0, abs=1e-6)


def test_mixture_fourth_moment_closed_form():
    # int v^4 f_delta = 3 / (4 delta (1 - delta))
    for d in (0.1, 0.25, 0.4):
        f = mixture(d)
        assert moment(f, 4) == pytest.approx(3.0 / (4.0 * d * (1.0 - d)),
                                             rel=1e-6)


def test_mixture_validation():
    for delta in (0.0, 1.0, -0.5, float("nan")):
        with pytest.raises(ValueError, match="delta must lie in"):
            mixture(delta)


def table_entropy(f):
    """H(f | M), M the unit Gaussian, from a density's table."""
    return gaussian_relative_entropy(f.values, f.nodes, f.quadrature_weights)


def test_relative_entropy_zero_at_equilibrium():
    assert table_entropy(gaussian(1.0)) == pytest.approx(0.0, abs=1e-9)


def test_relative_entropy_positive_off_equilibrium():
    assert table_entropy(mixture(0.25)) > 0.0


def test_relative_entropy_mixture_small():
    # H(f_delta | M) -> 0 as delta -> 0 or 1/2-ish symmetric behavior
    h1 = table_entropy(mixture(0.45))
    h2 = table_entropy(mixture(0.25))
    assert h1 < h2


def test_moment_tail_guard():
    # a wide Gaussian on the default grid cannot resolve high moments
    f = gaussian(4.0)
    assert f.v_max == 16.0
    with pytest.raises(AccuracyError):
        moment(f, 12)


def test_psi_properties():
    assert psi(1.0, 1.0) == 0.0
    assert psi(2.0, 1.0) == pytest.approx((2 - 1) * np.log(2))
    assert psi(1.0, 2.0) == pytest.approx(psi(2.0, 1.0))


def test_psi_beta_closed_form():
    assert psi_beta(2.0, 1.0, 1.0) == pytest.approx(np.log(2.0) ** 2)
    assert psi_beta(1.0, 2.0, 1.0) == pytest.approx(psi_beta(2.0, 1.0, 1.0))
    assert psi_beta(3.0, 1.5, 0.5) == pytest.approx(1.5 * np.log(2.0) ** 1.5)


def _compact(v):
    # an even density that is zero beyond |v| = 6
    return np.where(np.abs(v) < 6.0, np.exp(-0.5 * np.asarray(v) ** 2), 0.0)


# folded tables of a family at N on a rule of (shells, angles), and
# whether some shells hold zeros
folded_tables = pytest.mark.parametrize("f, n, rule, zeros", [
    (mixture(0.25), 256, (SHELLS, ANGLES), False),
    (mixture(0.25), 256, (SHELLS // 2, ANGLES // 2), False),
    (from_callable(_compact, 16.0), 4096, (SHELLS, ANGLES), True)],
    ids=["mix0.25-256x256", "mix0.25-128x128", "compact-4096"])


def _folded(f, n, rule):
    _, _, x = polar_shells(f.v_max, n, *rule)
    e = np.maximum(f(x), 0.0)
    return e[0] * e[1]


def test_quadrant_points_are_two_halves_of_the_first_octant():
    # r cos th_k and r sin th_k on the first-octant midpoints of the rule,
    # stacked; a rule that is not a multiple of 8 angles does not fold
    radii = np.array([0.5, 2.0])
    points = quadrant_points(radii, 64)
    th = angle_midpoints(64)[:8]
    assert points.shape == (2, 2, 8)
    assert np.allclose(points[0], np.outer(radii, np.cos(th)), rtol=0,
                       atol=1e-15)
    assert np.allclose(points[1], np.outer(radii, np.sin(th)), rtol=0,
                       atol=1e-15)
    for angles in (12, 20, 60):
        with pytest.raises(ValueError, match="multiple of 8"):
            quadrant_points(radii, angles)


@folded_tables
@pytest.mark.parametrize("beta", [0.25, 0.5, 1.0])
def test_log_power_kernel_is_the_all_pairs_sum(f, n, rule, zeros, beta):
    # the kernel, which sums the unordered pairs of each row, must match
    # the sum over all ordered pairs to 1e-13 relative per shell
    bound = 1e-13
    p = _folded(f, n, rule)
    # the outer shells of the compact generator hold only zeros, and some
    # inner ones zeros next to positive values
    assert np.any(np.all(p == 0, axis=1)) == zeros
    assert np.any(np.any(p == 0, axis=1) & np.any(p > 0, axis=1)) == zeros
    want = all_ordered_pairs(p, beta)
    got = log_power_kernel(p, beta)
    assert np.all(np.abs(got - want) <= bound * want)


@folded_tables
def test_pair_kernel_is_the_all_pairs_sum_of_the_full_rule(f, n, rule, zeros):
    # the pair kernel reads the rule's K = 8 h angles from the folded
    # table's width h; by brute force over all K^2 ordered angle pairs,
    # each of the K angles carrying its folded value and log 0 read as 0,
    # as the kernel reads it.  Its two inner products cancel terms of size
    # 2 K sum |p log p|, so it holds to 1e-13 of that per shell (measured
    # 4.5e-16), and to 1e-13 relative where the sum is larger
    bound = 1e-13
    p = _folded(f, n, rule)
    assert np.any(p == 0) == zeros
    full = np.repeat(p, 8, axis=1)
    assert full.shape[1] == rule[1]
    logp = np.where(full > 0, np.log(np.maximum(full, 1e-300)), 0.0)
    want = np.array([np.sum((row[:, None] - row[None, :])
                            * (lrow[:, None] - lrow[None, :]))
                     for row, lrow in zip(full, logp)])
    scale = 2.0 * rule[1] * np.sum(np.abs(full * logp), axis=1)
    got = pair_kernel(p)
    assert np.all(np.abs(got - want) <= bound * np.maximum(scale, want))


def test_callable_evaluation_interpolates():
    f = mixture(0.25)
    v = np.array([0.123, 1.456, -2.3])
    assert np.all(f(v) > 0)
    assert np.allclose(f(v), f(-v), rtol=1e-10)


def test_trapezoid_rule_needs_two_nodes():
    with pytest.raises(ValueError, match="needs 2 nodes, got 1"):
        trapezoid_weights(np.array([0.0]))
