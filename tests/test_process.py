"""Jump-process simulation and exact small-N spectral analysis."""

from math import comb

import numpy as np
import pytest
from scipy.special import gammaln

from kaclab.errors import ConfigurationError, DegenerateTestFunctionError
from kaclab.process import (SimulationConfig, _monomials, dirichlet_rayleigh,
                            empirical_marginal, exact_gap_smalln,
                            generator_matrix_smalln, simulate,
                            simulate_ensemble, spectral_gap)


def test_spectral_gap_closed_form():
    assert spectral_gap(3) == pytest.approx(1.25)
    assert spectral_gap(4) == pytest.approx(1.0)
    assert spectral_gap(5) == pytest.approx(0.875)
    # decreasing toward the limit 1/2
    gaps = [spectral_gap(n) for n in range(3, 50)]
    assert np.all(np.diff(gaps) < 0)
    assert gaps[-1] > 0.5


def test_exact_gap_matches_formula():
    for n in range(3, 9):
        assert exact_gap_smalln(n) == pytest.approx(spectral_gap(n), abs=1e-10)


def _all_pairs_galerkin(n, degree=4):
    """Galerkin (A, G) averaged over every pair, with no caches: reference."""
    def circle(p, q):
        if p % 2 or q % 2:
            return 0.0
        return float(np.exp(gammaln((p + 1) / 2.0) + gammaln((q + 1) / 2.0)
                            - gammaln((p + q + 2) / 2.0)) / np.pi)

    def moment(p):
        if np.any(p % 2):
            return 0.0
        a = p // 2
        log_val = (gammaln(n / 2.0) - gammaln(n / 2.0 + a.sum())
                   + np.sum(gammaln(a + 0.5)) - len(a) * gammaln(0.5))
        return float(n ** a.sum() * np.exp(log_val))

    def expand(exps):
        table = {}

        def rec(pos, used, current):
            if pos == len(exps):
                p = np.zeros(n, dtype=int)
                for c, e in zip(current, exps):
                    p[c] += 2 * e
                table[tuple(p)] = table.get(tuple(p), 0.0) + 1.0
                return
            for c in range(n):
                if c not in used:
                    rec(pos + 1, used | {c}, current + [c])
        rec(0, frozenset(), [])
        total = sum(table.values())
        return [(np.array(k), w / total) for k, w in table.items()]

    def rotated(pi, pj):
        out = {}
        for a in range(pi + 1):
            for b in range(pj + 1):
                trig = circle(a + b, pi - a + pj - b)
                key = (a + pj - b, pi - a + b)
                out[key] = out.get(key, 0.0) + (
                    comb(pi, a) * comb(pj, b) * (-1.0) ** (pj - b) * trig)
        return out

    expanded = [expand(b) for b in _monomials(n, degree)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = len(expanded)
    amat, gram = np.zeros((m, m)), np.zeros((m, m))
    for a in range(m):
        for b in range(m):
            g = q = 0.0
            for pa, wa in expanded[a]:
                for pb, wb in expanded[b]:
                    g += wa * wb * moment(pa + pb)
                    for i, j in pairs:
                        for (ei, ej), coef in rotated(pb[i], pb[j]).items():
                            p = pa + pb
                            p[i] += ei - pb[i]
                            p[j] += ej - pb[j]
                            q += wa * wb * coef * moment(p) / len(pairs)
            gram[a, b] = g
            amat[a, b] = n * (g - q)
    return amat, gram


@pytest.mark.parametrize("n", [3, 4, 5])
def test_galerkin_matches_all_pairs_reference(n):
    amat, gram = generator_matrix_smalln(n)
    ref_a, ref_g = _all_pairs_galerkin(n)
    assert np.max(np.abs(amat - ref_a)) <= 1e-12 * np.max(np.abs(ref_a))
    assert np.max(np.abs(gram - ref_g)) <= 1e-12 * np.max(np.abs(ref_g))


def test_exact_gap_rejects_gamma():
    with pytest.raises(ConfigurationError):
        generator_matrix_smalln(4, gamma=0.5)


def test_simulate_conserves_energy():
    cfg = SimulationConfig(n=20, gamma=0.0, t_final=3.0, seed=1)
    stats = simulate(cfg)
    assert np.sum(stats.velocities**2) == pytest.approx(20.0, abs=1e-9)
    assert stats.accepted == stats.proposed  # gamma = 0: no thinning


def test_simulate_thinning_accepts_partially():
    cfg = SimulationConfig(n=20, gamma=1.0, t_final=2.0, seed=2)
    stats = simulate(cfg)
    assert 0 < stats.accepted < stats.proposed
    assert 0.05 < stats.acceptance_rate < 0.9


def test_simulate_deterministic():
    cfg = SimulationConfig(n=10, gamma=0.5, t_final=1.0, seed=9)
    a = simulate(cfg).velocities
    b = simulate(cfg).velocities
    assert np.array_equal(a, b)


def test_simulate_config_validation():
    with pytest.raises(ConfigurationError):
        SimulationConfig(n=1)
    with pytest.raises(ConfigurationError):
        SimulationConfig(n=5, t_final=-1.0)
    with pytest.raises(ConfigurationError):
        SimulationConfig(n=5, gamma=2.0)
    with pytest.raises(ConfigurationError):
        SimulationConfig(n=5, renormalize_every=0)


def test_ensemble_shapes_and_energy():
    cfg = SimulationConfig(n=8, gamma=0.0, t_final=0.5, seed=4)
    states = simulate_ensemble(cfg, 16)
    assert states.shape == (16, 8)
    assert np.allclose(np.sum(states**2, axis=1), 8.0)


def test_fourth_moment_law_at_gamma_zero():
    # E[S4(t)]/N = c + (S4(v0)/N - c) exp(-Delta_N t), c = 3N/(N+2)
    n, t, replicas = 16, 1.0, 2000
    v0 = np.zeros(n)
    v0[:2] = np.sqrt(n / 2.0)  # S4(v0)/N = 8, far from c = 8/3
    cfg = SimulationConfig(n=n, gamma=0.0, t_final=t, seed=21)
    states = simulate_ensemble(cfg, replicas, initial=v0)
    c = 3.0 * n / (n + 2.0)
    law = c + (np.sum(v0**4) / n - c) * np.exp(-spectral_gap(n) * t)
    s4 = np.sum(states**4, axis=1) / n
    se = np.std(s4, ddof=1) / np.sqrt(replicas)
    assert abs(np.mean(s4) - law) < 5.0 * se


def test_empirical_marginal_normalized():
    rng = np.random.default_rng(0)
    states = rng.standard_normal((100, 50))
    centers, hist = empirical_marginal(states, bins=41)
    dv = centers[1] - centers[0]
    assert np.sum(hist) * dv == pytest.approx(1.0, abs=1e-6)


def test_rayleigh_quotient_above_gap():
    # Rayleigh quotients upper-bound the spectral gap
    rng = np.random.default_rng(3)
    n = 6
    q = dirichlet_rayleigh(lambda v: v[:, 0] ** 2, n, 0.0, 100_000, rng)
    assert q >= spectral_gap(n) * 0.97


def test_rayleigh_rejects_constant():
    rng = np.random.default_rng(4)
    with pytest.raises(DegenerateTestFunctionError):
        dirichlet_rayleigh(lambda v: np.ones(v.shape[0]), 6, 0.0, 100, rng)

