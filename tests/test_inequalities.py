"""Inequality machinery: gap sweeps, log-power envelope, rescaled bound."""

import dataclasses
import json

import numpy as np
import pytest

from kaclab.conditioned import ConditionedFamily
from kaclab.densities import gaussian, mixture
from kaclab.errors import (AccuracyError, ConfigurationError,
                           DegenerateTestFunctionError)
from kaclab.inequalities import (LogPowerWitness, fit_loglog_slope,
                                 gamma_ratio_sweep, log_over_power_sup,
                                 logpower_envelope, moment_envelope, optimized_constant,
                                 rescaled_exponent, rescaled_inequality_check,
                                 villani_floor)

N_LIST = [16, 32, 64]


@pytest.fixture(scope="module")
def mix():
    return mixture(0.25)


@pytest.fixture(scope="module")
def witness():
    return LogPowerWitness(delta=0.25, beta=1.0, k=3.0)


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


def test_gamma_ratio_sweep_takes_numpy_integers(mix):
    # an array of N reads as the list of the same integers, bit for bit,
    # and its rows hold Python ints that json writes
    rows = gamma_ratio_sweep(mix, 0.0, np.array([32, 64]))
    assert rows == gamma_ratio_sweep(mix, 0.0, [32, 64])
    assert [row["n"] for row in json.loads(json.dumps(
        [dataclasses.asdict(r) for r in rows]))] == [32, 64]
    with pytest.raises(ValueError, match="N must be an integer, not 64.0"):
        gamma_ratio_sweep(mix, 0.0, [64.0])


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


@pytest.mark.parametrize("n_values", [[64], [64, 64], np.array([64, 64])])
def test_fit_loglog_slope_needs_two_distinct_n(n_values):
    with pytest.raises(ValueError, match="two distinct N"):
        fit_loglog_slope(n_values, [0.1] * len(n_values))


def test_log_over_power_sup():
    eps = 0.5
    x = np.linspace(1.0, 200.0, 100_000)
    numeric = np.max(np.log(x) / x**eps)
    assert log_over_power_sup(eps) == pytest.approx(numeric, rel=1e-6)
    assert log_over_power_sup(eps) == pytest.approx(1.0 / (np.e * eps))


def test_exponent_bound_dominates():
    # exp(-Phi) is the cold part of f_delta, so f_delta - exp(-Phi) is the
    # hot part delta M_hot > 0
    for delta in (0.1, 0.25, 0.2731, 0.5, 0.9):
        f = mixture(delta)
        v = np.linspace(-f.v_max, f.v_max, 2001)
        phi = LogPowerWitness(delta=delta, beta=1.0, k=3.0).phi(v)
        assert np.all(phi > 0.5 * np.log(np.pi))
        assert np.all(np.exp(-phi) <= f(v) * (1.0 + 1e-9))


def test_witness_validation():
    for beta, k, epsilon in [(1.0, 2.0, 0.5),  # k <= 1 + 1/beta
                             (-1.0, 3.0, 0.5), (np.nan, 3.0, 0.5),
                             (np.inf, 3.0, 0.5), (1.0, np.nan, 0.5),
                             (1.0, np.inf, 0.5), (1.0, 3.0, 0.0),
                             (1.0, 3.0, np.nan)]:
        with pytest.raises(ConfigurationError):
            LogPowerWitness(delta=0.25, beta=beta, k=k, epsilon=epsilon)


def test_moment_envelope_pieces(witness):
    parts = moment_envelope(witness)
    assert parts["head"] > 0 and parts["m_phi"] > 0 and parts["m_avg"] > 0
    assert parts["total"] == pytest.approx(
        parts["head"] + parts["m_phi"] + parts["m_avg"])
    # the angle-averaged moment is roughly 2 pi times the plain one
    assert parts["m_avg"] == pytest.approx(2 * np.pi * parts["m_phi"], rel=0.5)


def cartesian_moment_envelope(f, witness, nodes, angle_nodes):
    """The angle-averaged piece m_avg as the seed computed it: for each
    angle, the whole (v1, v2) grid."""
    beta = witness.beta
    v = np.linspace(-f.v_max, f.v_max, nodes)
    dv = v[1] - v[0]
    w = np.full(v.shape, dv)
    w[0] = w[-1] = 0.5 * dv
    fv = np.maximum(f(v), 0.0)
    inner = np.zeros(v.shape)
    for t in 2.0 * np.pi * (np.arange(angle_nodes) + 0.5) / angle_nodes:
        rotated = v[:, None] * np.cos(t) + v[None, :] * np.sin(t)
        inner += (2.0 * np.pi / angle_nodes) * np.sum(
            witness.phi(rotated) ** (1.0 + beta) * (fv * w)[None, :], axis=1)
    return float(np.sum(inner * fv * w))


@pytest.mark.parametrize("delta", [0.25, 0.1])
def test_moment_envelope_matches_cartesian_reference(delta):
    # measured: 6.7e-14 (delta 0.25) and 5.0e-13 (delta 0.1) relative
    f = mixture(delta)
    wit = LogPowerWitness(delta=delta, beta=1.0, k=3.0)
    ref = cartesian_moment_envelope(f, wit, 801, 64)
    assert moment_envelope(wit)["m_avg"] == pytest.approx(ref, rel=1e-11)


@pytest.mark.parametrize("delta, total", [(0.25, 34.28387915492142),
                                          (0.1, 56.377459911201065)])
def test_moment_envelope_total_is_pinned(delta, total):
    # the totals on the polar shells of the support [0, 2 v_max^2], with
    # int Phi^{1+beta} f on f's own grid, bit for bit
    wit = LogPowerWitness(delta=delta, beta=1.0, k=3.0)
    assert moment_envelope(wit)["total"] == total


def test_moment_envelope_checks_the_half_rule():
    # at delta = 0.003 the 128 x 128 rule differs from the 256 x 256 one by
    # 4.0e-2 relative: the shells do not resolve f f, and the certified
    # constant would rest on that value
    wit = LogPowerWitness(delta=0.003, beta=1.0, k=3.0)
    with pytest.raises(AccuracyError, match="angle-averaged moment"):
        moment_envelope(wit)


@pytest.mark.parametrize("delta", [0.0, 1.0, 2.0, -0.5])
def test_moment_envelope_rejects_delta_outside_unit_interval(delta):
    with pytest.raises(ValueError, match="delta must lie in"):
        moment_envelope(LogPowerWitness(delta=delta, beta=1.0, k=3.0))


@pytest.fixture(scope="module")
def envelope(witness):
    return logpower_envelope(witness, N_LIST)


def test_logpower_envelope_holds(envelope):
    for r in envelope:
        assert r.measured > 0
        if r.applicable:
            assert r.holds


def test_logpower_envelope_undefined_at_small_n(witness):
    # sqrt(2 pi) sup|lambda_N| is 1.33 at N = 3 and 0.99 at N = 4
    small, next_up = logpower_envelope(witness, [3, 4])
    assert np.sqrt(2.0 * np.pi) * small.lambda_sup_n >= 1.0
    assert small.bound is None
    assert not small.applicable and not small.holds
    assert np.isfinite(next_up.bound)
    assert next_up.applicable and next_up.holds


def test_optimized_constant_against_grid_minimum(witness, envelope):
    reports = rescaled_inequality_check(0.5, witness, envelope)
    assert [r.n for r in reports] == N_LIST
    for r in reports:
        assert r.lambda_grid_ok
        assert r.final_holds


def test_rescaled_constant_records_inputs(witness, envelope):
    # constant = (c1 / K)^{1/q}; q depends on gamma, beta and k only
    _, q = optimized_constant(0.5, 1.0, 3.0, 1.0, 1.0)
    base = rescaled_inequality_check(0.5, witness, envelope[:1], c1=1.5)[0]
    twice = rescaled_inequality_check(0.5, witness, envelope[:1], c1=3.0)[0]
    assert twice.constant / base.constant == pytest.approx(2.0 ** (1.0 / q),
                                                           rel=1e-12)
    assert base.exponent == pytest.approx(2.0)


@pytest.mark.parametrize("c1", [0.0, -1.0, np.inf, np.nan])
def test_rescaled_check_rejects_nonpositive_c1(witness, envelope, c1):
    with pytest.raises(ConfigurationError, match="c1 must be finite"):
        rescaled_inequality_check(0.5, witness, envelope[:1], c1=c1)


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

