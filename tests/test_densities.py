"""One-dimensional density toolkit: construction, moments, functionals,
and the collision kernels psi / psi_beta as the folded quadrature uses them."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kaclab.densities import gaussian, mixture, moment, relative_entropy
from kaclab.errors import AccuracyError
from kaclab.quadrature import log_power_kernel, pair_kernel


def psi(x, y):
    """(x - y) log(x / y) from the folded pair kernel: one first-quadrant
    pair (x, y) stands for 8 angles, whose ordered pairs sum to 32 psi."""
    return float(pair_kernel(np.array([[x, y]]), 8)[0]) / 32.0


def psi_beta(x, y, beta):
    """|x - y| |log(x/y)|^{1+beta} from the folded log-power kernel."""
    return float(log_power_kernel(np.array([[x, y]]), beta)[0]) / 32.0


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


def test_relative_entropy_zero_at_equilibrium():
    assert relative_entropy(gaussian(1.0)) == pytest.approx(0.0, abs=1e-9)


def test_relative_entropy_positive_off_equilibrium():
    assert relative_entropy(mixture(0.25)) > 0.0


def test_relative_entropy_mixture_small():
    # H(f_delta | M) -> 0 as delta -> 0 or 1/2-ish symmetric behavior
    h1 = relative_entropy(mixture(0.45))
    h2 = relative_entropy(mixture(0.25))
    assert h1 < h2


def test_relative_entropy_requires_unit_energy():
    with pytest.raises(ValueError):
        relative_entropy(gaussian(2.0))


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


def test_callable_evaluation_interpolates():
    f = mixture(0.25)
    v = np.array([0.123, 1.456, -2.3])
    assert np.all(f(v) > 0)
    assert np.allclose(f(v), f(-v), rtol=1e-10)
