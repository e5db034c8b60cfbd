"""The closed forms of oracles.py against independent ones."""

import math

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp
from scipy.stats import chi2

import kaclab.conditioned as conditioned
from kaclab.densities import gaussian, mixture
from oracles import log_h


@pytest.mark.parametrize("n", [1, 2, 8, 64, 1024])
def test_gaussian_sum_of_squares_is_chi_square(n):
    for u in (0.3, 1.0, 0.5 * n, float(n), 2.0 * n):
        assert log_h(gaussian(1.0), n, u) == pytest.approx(chi2.logpdf(u, n),
                                                           abs=1e-12)


@pytest.mark.parametrize("delta", [0.1, 0.25, 0.7])
def test_one_particle_is_the_energy_density(delta):
    # h(u) = f(sqrt u) / sqrt u for an even f
    f = mixture(delta)
    for u in (0.01, 0.5, 2.0, 9.0, 40.0):
        want = math.log(f(math.sqrt(u)) / math.sqrt(u))
        assert log_h(f, 1, u) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("delta", [0.1, 0.25, 0.7])
def test_at_u_equal_n_is_the_samplers_table(delta):
    # log h^{*N}(N) = log sum T + (N/2 - 1) log N - rho_2 N - log Gamma(N/2)
    # over the exact sampler's (k, j) terms
    f = mixture(delta)
    rho2 = 0.5 / min(a for _, a in f.components)
    for n in (3, 8, 64, 256, 1024):
        _, _, log_t = conditioned._split_terms(f, n)
        want = (logsumexp(log_t) + (0.5 * n - 1.0) * math.log(n) - rho2 * n
                - gammaln(0.5 * n))
        assert log_h(f, n, float(n)) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("delta", [0.1, 0.25, 0.7])
def test_cut_sum_is_the_whole_double_sum(delta):
    # every k <= n and j <= c + 60 sqrt(c) + 200, away from u = n as well
    f = mixture(delta)
    (w1, a1), (w2, a2) = sorted(f.components, key=lambda p: -p[1])
    r1, r2 = 0.5 / a1, 0.5 / a2
    for n, u in ((64, 64.0), (64, 10.0), (64, 150.0), (63, 55.0)):
        c, b = (r2 - r1) * u, 0.5 * n
        k = np.arange(n + 1)[:, None]
        j = np.arange(int(c + 60.0 * np.sqrt(c) + 200.0))[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            series = np.where(j == 0, 0.0, gammaln(0.5 * k + j)
                              - gammaln(0.5 * k) - gammaln(b + j)
                              + gammaln(b) - gammaln(j + 1) + j * np.log(c))
        series = np.where((k == 0) & (j > 0), -np.inf, series)
        full = (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
                + k * np.log(w1 * np.sqrt(r1))
                + (n - k) * np.log(w2 * np.sqrt(r2)) + series)
        want = (logsumexp(full) + (b - 1.0) * np.log(u) - r2 * u
                - gammaln(b))
        assert log_h(f, n, u) == pytest.approx(want, abs=1e-12), (n, u)
