"""Jump-process simulation and the exact spectral gap on power sums."""

import tracemalloc
from math import comb

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import gammaln

from kaclab.errors import ConfigurationError, DegenerateTestFunctionError
from kaclab.process import (SimulationConfig, dirichlet_rayleigh,
                            exact_gap_smalln, generator_matrix_smalln,
                            simulate, simulate_ensemble, spectral_gap)
from kaclab.quadrature import angle_midpoints
from kaclab.sphere import rotate_pair, uniform_sphere_batch


def test_spectral_gap_closed_form():
    assert spectral_gap(3) == pytest.approx(1.25)
    assert spectral_gap(4) == pytest.approx(1.0)
    assert spectral_gap(5) == pytest.approx(0.875)
    # decreasing toward the limit 1/2
    gaps = [spectral_gap(n) for n in range(3, 50)]
    assert np.all(np.diff(gaps) < 0)
    assert gaps[-1] > 0.5


def test_exact_gap_matches_formula():
    for n in range(3, 1025):
        assert exact_gap_smalln(n) == pytest.approx(spectral_gap(n), rel=1e-12)


def _pair_sum_generator(v, k):
    """(-L p_k)(v) summed over the pairs i < j, 16 midpoint angles: reference.

    -L = (2 / (N - 1)) sum_{i<j} (I - Q_ij) at gamma = 0, and the midpoint
    rule is exact for the degree-k trig polynomials of the rotated pair.
    """
    n = v.size
    i, j = np.triu_indices(n, 1)
    theta = 2.0 * np.pi * (np.arange(16) + 0.5) / 16
    c, s = np.cos(theta)[:, None], np.sin(theta)[:, None]
    vi, vj = v[i], v[j]
    rotated = np.mean((vi * c + vj * s) ** k + (-vi * s + vj * c) ** k, axis=0)
    return 2.0 / (n - 1) * np.sum(vi**k + vj**k - rotated)


@pytest.mark.parametrize("n", [3, 16, 512])
def test_generator_matrix_matches_pointwise_pair_sum(n):
    mat = generator_matrix_smalln(n)
    for v in uniform_sphere_batch(n, 3, np.random.default_rng(n)):
        basis = np.array([1.0, np.sum(v**4), np.sum(v**6)])
        for row, k in ((1, 4), (2, 6)):
            # relative to the size of the row's terms: -L p_k is near 0
            # at typical sphere points
            scale = np.abs(mat[row]) @ basis
            assert abs(mat[row] @ basis - _pair_sum_generator(v, k)) <= (
                1e-12 * scale)


def _all_pairs_galerkin(n):
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

    # symmetrised 1, v_1^2, v_1^4 and v_1^2 v_2^2: the even basis of degree 4
    expanded = [expand(b) for b in [(), (1,), (2,), (1, 1)]]
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
    amat, gram = _all_pairs_galerkin(n)
    # project out the Gram null space (redundant symmetrised monomials),
    # then solve A x = mu G x on what is left
    evals, evecs = np.linalg.eigh(0.5 * (gram + gram.T))
    keep = evals > 1e-9 * evals.max()
    basis = evecs[:, keep] / np.sqrt(evals[keep])
    small = basis.T @ (0.5 * (amat + amat.T)) @ basis
    mu = np.linalg.eigvalsh(0.5 * (small + small.T))
    assert exact_gap_smalln(n) == pytest.approx(np.min(mu[mu > 1e-8]),
                                                rel=1e-12)


def test_simulate_conserves_energy():
    cfg = SimulationConfig(n=20, gamma=0.0, t_final=3.0, seed=1)
    stats = simulate(cfg)
    assert np.sum(stats.velocities**2) == pytest.approx(20.0, abs=1e-9)
    assert stats.accepted == stats.proposed  # gamma = 0: no thinning


def test_simulate_thinning_accepts_partially():
    cfg = SimulationConfig(n=20, gamma=1.0, t_final=2.0, seed=2)
    stats = simulate(cfg)
    assert 0 < stats.accepted < stats.proposed
    assert 0.05 < stats.accepted / stats.proposed < 0.9


@pytest.mark.parametrize("gamma, t_final", [(0.0, 1100.0), (0.5, 140.0)])
def test_simulate_across_candidate_blocks(gamma, t_final):
    # about 70 000 expected candidates: the run continues past one block
    n = 64
    stats = simulate(SimulationConfig(n=n, gamma=gamma, t_final=t_final,
                                      seed=4))
    assert stats.proposed > 2**16
    assert np.sum(stats.velocities**2) == pytest.approx(n, abs=1e-9)
    expect = n * (1.0 + n) ** gamma * t_final
    assert abs(stats.proposed - expect) < 5.0 * np.sqrt(expect)
    if gamma == 0.0:
        assert stats.accepted == stats.proposed


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


def test_simulate_rejects_a_start_off_the_sphere():
    n = 16
    cfg = SimulationConfig(n=n, gamma=0.5, t_final=0.5, seed=3)
    v = uniform_sphere_batch(n, 1, np.random.default_rng(3))[0]
    # energy 64: the rescale that removes rounding drift would move it to 16
    with pytest.raises(ConfigurationError, match="energy .* not N=16"):
        simulate(cfg, initial=2.0 * v)
    with pytest.raises(ConfigurationError, match="not N=16"):
        simulate(cfg, initial=v * (1.0 + 1e-9))
    # a start on the sphere to rounding runs as before
    assert np.array_equal(simulate(cfg, initial=v).velocities,
                          simulate(cfg, initial=v.copy()).velocities)


def test_ensemble_rejects_a_wrong_number_of_starts():
    starts = uniform_sphere_batch(8, 3, np.random.default_rng(1))
    cfg = SimulationConfig(n=8, t_final=0.5, seed=1)
    with pytest.raises(ConfigurationError, match="3 rows for 5 replicas"):
        simulate_ensemble(cfg, 5, initial=starts)
    assert simulate_ensemble(cfg, 3, initial=starts).shape == (3, 8)


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
    p6 = np.sum(states**6, axis=1)
    se6 = np.std(p6, ddof=1) / np.sqrt(replicas)
    assert abs(np.mean(p6) - p6_law(n, v0, t)) < 5.0 * se6


def p6_law(n, v0, t):
    """E[p6(t) | v0] at gamma = 0.

    d/dt E[(1, p4, p6)] = B E[(1, p4, p6)] with L p4 = -Delta_N p4 +
    3N^2/(2(N-1)) and L p6 = -(3(N+4)/(4(N-1))) p6 + (15N/(4(N-1))) p4.
    """
    law_b = np.array([[0.0, 0.0, 0.0],
                      [3.0 * n * n, -(n + 2.0), 0.0],
                      [0.0, 7.5 * n, -1.5 * (n + 4.0)]]) / (2.0 * (n - 1))
    x0 = np.array([1.0, np.sum(v0**4), np.sum(v0**6)])
    return (expm(t * law_b) @ x0)[2]


def test_sixth_moment_law_at_large_n():
    n, t, replicas = 512, 1.0, 2000
    v0 = np.ones(n)
    v0[:8] = np.sqrt(8.0)
    v0 *= np.sqrt(n / np.sum(v0**2))
    cfg = SimulationConfig(n=n, gamma=0.0, t_final=t, seed=22)
    p6 = np.sum(simulate_ensemble(cfg, replicas, initial=v0)**6, axis=1)
    se = np.std(p6, ddof=1) / np.sqrt(replicas)
    law = p6_law(n, v0, t)
    assert abs(np.mean(p6) - law) < 5.0 * se
    # the law has moved far from p6(v0), so the check can fail
    assert abs(law - np.sum(v0**6)) > 20.0 * se


def test_rayleigh_quotient_above_gap():
    # Rayleigh quotients upper-bound the spectral gap
    rng = np.random.default_rng(3)
    n = 6
    q = dirichlet_rayleigh(lambda v: v[:, 0] ** 2, n, 0.0, 100_000, rng)
    assert q >= spectral_gap(n) * 0.97


def _rayleigh_unbatched(phi, n, gamma, samples, rng):
    """Rayleigh quotient on the whole (samples x N) state at once:
    reference for the batched estimate."""
    v = uniform_sphere_batch(n, samples, rng)
    base = np.array(phi(v))
    idx = rng.integers(n, size=samples)
    jdx = rng.integers(n - 1, size=samples)
    jdx = np.where(jdx >= idx, jdx + 1, jdx)
    rows = np.arange(samples)
    vi, vj = v[rows, idx], v[rows, jdx]
    theta = angle_midpoints(32)
    acc = np.zeros(samples)
    s = vi * vi + vj * vj
    for th in theta:
        v[rows, idx], v[rows, jdx] = rotate_pair(vi, vj, th)
        acc += (phi(v) - base) ** 2
    dirichlet = 0.5 * n * np.mean((1.0 + s) ** gamma * acc / theta.size)
    return float(dirichlet / np.var(base))


@pytest.mark.parametrize("n, gamma, samples", [(5, 0.0, 100_000),
                                               (64, 0.5, 2000)])
def test_rayleigh_one_block_matches_unbatched(n, gamma, samples):
    # samples * N fits one block: the same draws and the same arithmetic
    def phi(v):
        return v[:, 0] ** 2 + 0.3 * v[:, 1] ** 4

    got = dirichlet_rayleigh(phi, n, gamma, samples, np.random.default_rng(8))
    want = _rayleigh_unbatched(phi, n, gamma, samples,
                               np.random.default_rng(8))
    assert got == want


def test_rayleigh_memory_is_bounded_by_its_block():
    # the whole (20 000 x 256) state alone is 39 MiB
    tracemalloc.start()
    try:
        q = dirichlet_rayleigh(lambda v: v[:, 0] ** 2, 256, 0.0, 20_000,
                               np.random.default_rng(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert q >= spectral_gap(256) * 0.9


def test_rayleigh_rejects_constant():
    rng = np.random.default_rng(4)
    with pytest.raises(DegenerateTestFunctionError):
        dirichlet_rayleigh(lambda v: np.ones(v.shape[0]), 6, 0.0, 100, rng)

