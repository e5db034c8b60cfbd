"""Inequality machinery: gap sweeps, log-power envelope, rescaled bound."""

import numpy as np
import pytest

from kaclab.conditioned import ConditionedFamily
from kaclab.densities import MixtureSpec, gaussian, mixture
from kaclab.errors import (AccuracyError, ConfigurationError,
                           DegenerateTestFunctionError)
from kaclab.inequalities import (LogPowerWitness, boltzmann_inequality_check,
                                 fit_loglog_slope, gamma_ratio_sweep,
                                 log_over_power_sup, logpower_envelope,
                                 mixture_exponent_bound, moment_envelope,
                                 optimized_constant, rescaled_exponent,
                                 rescaled_inequality_check, villani_floor)

N_LIST = [16, 32, 64]


@pytest.fixture(scope="module")
def mix():
    return mixture(0.25)


@pytest.fixture(scope="module")
def witness():
    return LogPowerWitness(beta=1.0, k=3.0,
                           phi=mixture_exponent_bound(MixtureSpec(0.25)))


def test_villani_floor():
    assert villani_floor(9) == pytest.approx(0.25)


def test_rescaled_exponent_arithmetic():
    # gamma = 0.5, beta = 1, k = 3: 1 + (0.5 * 2)/(3 - 2) = 2
    assert rescaled_exponent(0.5, 1.0, 3.0) == pytest.approx(2.0)
    # gamma -> 1 recovers the linear (entropic-gap) form
    assert rescaled_exponent(1.0 - 1e-12, 1.0, 3.0) == pytest.approx(
        1.0, abs=1e-9)


def test_rescaled_exponent_monotonicity():
    e = [rescaled_exponent(g, 1.0, 3.0) for g in (0.0, 0.3, 0.6, 0.9)]
    assert np.all(np.diff(e) < 0)
    e_k = [rescaled_exponent(0.5, 1.0, k) for k in (2.5, 3.0, 5.0, 10.0)]
    assert np.all(np.diff(e_k) < 0)
    assert e_k[-1] > 1.0


def test_rescaled_exponent_requires_k():
    with pytest.raises(ConfigurationError):
        rescaled_exponent(0.5, 1.0, 2.0)


def test_gamma_ratio_sweep_obeys_villani(mix):
    rows = gamma_ratio_sweep(mix, 0.0, N_LIST)
    for r in rows:
        assert r.ratio >= villani_floor(r.n)
    # fixed generator: ratio decreasing in N toward the limit value
    ratios = [r.ratio for r in rows]
    assert np.all(np.diff(ratios) < 0)


def test_gamma_ratio_sweep_rejects_maxwellian():
    with pytest.raises(DegenerateTestFunctionError):
        gamma_ratio_sweep(gaussian(1.0), 0.0, [16])


def test_gamma_ratio_sweep_raises_on_villani_violation(mix, monkeypatch):
    monkeypatch.setattr(ConditionedFamily, "production",
                        lambda self, gamma, **kwargs: 0.0)
    with pytest.raises(AccuracyError, match="N=16"):
        gamma_ratio_sweep(mix, 0.0, [16])


def test_fit_loglog_slope_exact():
    n = np.array([10, 100, 1000])
    assert fit_loglog_slope(n, 5.0 * n**-0.7) == pytest.approx(-0.7)


def test_log_over_power_sup():
    eps = 0.5
    x = np.linspace(1.0, 200.0, 100_000)
    numeric = np.max(np.log(x) / x**eps)
    assert log_over_power_sup(eps) == pytest.approx(numeric, rel=1e-6)
    assert log_over_power_sup(eps) == pytest.approx(1.0 / (np.e * eps))


def test_exponent_bound_dominates(mix, witness):
    witness.validate_lower_bound(mix)  # must not raise
    v = np.linspace(-10, 10, 1001)
    assert np.all(np.exp(-witness.phi(v)) <= mix(v) + 1e-15)


def test_witness_validation():
    phi = mixture_exponent_bound(MixtureSpec(0.25))
    with pytest.raises(ConfigurationError):
        LogPowerWitness(beta=1.0, k=2.0, phi=phi)  # k <= 1 + 1/beta
    with pytest.raises(ConfigurationError):
        LogPowerWitness(beta=-1.0, k=3.0, phi=phi)


def test_bad_witness_rejected(mix):
    bad = LogPowerWitness(beta=1.0, k=3.0, phi=lambda v: 0.1 * np.asarray(v)**2)
    with pytest.raises(ConfigurationError):
        bad.validate_lower_bound(mix)


def test_moment_envelope_pieces(mix, witness):
    parts = moment_envelope(mix, witness)
    assert parts["head"] > 0 and parts["m_phi"] > 0 and parts["m_avg"] > 0
    assert parts["total"] == pytest.approx(
        parts["head"] + parts["m_phi"] + parts["m_avg"])
    # the angle-averaged moment is roughly 2 pi times the plain one
    assert parts["m_avg"] == pytest.approx(2 * np.pi * parts["m_phi"], rel=0.5)


def test_logpower_envelope_holds(mix, witness):
    rows = logpower_envelope(mix, witness, N_LIST)
    for r in rows:
        assert r.measured > 0
        if r.applicable:
            assert r.holds


def test_optimized_constant_against_grid_minimum(mix, witness):
    reports = rescaled_inequality_check(mix, 0.5, witness, N_LIST)
    for r in reports:
        assert r.lambda_grid_ok
        assert r.final_holds
        # analytic minimizer sits inside the grid-minimum bracket
        step = 10 ** (6.0 / 99.0)
        assert r.lambda_argmin / step <= r.lambda_optimal <= r.lambda_argmin * step


def test_rescaled_constant_records_inputs(mix, witness):
    reports = rescaled_inequality_check(mix, 0.5, witness, [16], c1=1.5)
    assert reports[0].c1 == 1.5
    assert reports[0].exponent == pytest.approx(2.0)


def test_optimized_constant_formula_consistent():
    # K must be the minimum over lambda of the intermediate right side
    from kaclab.inequalities import _intermediate_rhs
    gamma, beta, k, c_beta, m2k = 0.5, 1.0, 3.0, 0.7, 2.0
    d_per_n = 0.3
    big_k, q = optimized_constant(gamma, beta, k, c_beta, m2k)
    lam = np.logspace(-4, 4, 20001)
    grid_min = np.min(_intermediate_rhs(lam, gamma, beta, k, d_per_n,
                                        c_beta, m2k))
    assert big_k * d_per_n**q == pytest.approx(grid_min, rel=1e-4)


def test_boltzmann_report(mix):
    v = np.linspace(0.0, mix.v_max, 513)
    rep = boltzmann_inequality_check(mix(v), v, 0.5, 1.0, 3.0)
    assert rep.hypotheses_ok
    assert rep.exponent == pytest.approx(2.0)
    assert rep.ratio > 0 and np.isfinite(rep.ratio)


def test_boltzmann_report_equilibrium_trivial():
    v = np.linspace(0.0, 8.0, 257)
    m = np.exp(-0.5 * v * v) / np.sqrt(2 * np.pi)
    rep = boltzmann_inequality_check(m, v, 0.5, 1.0, 3.0)
    assert rep.trivially_satisfied
