"""Jump-process simulation and the exact spectral gap on power sums."""

import hashlib
import math
import tracemalloc
from math import comb

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import gammaln
from scipy.stats import ks_2samp

from kaclab import process
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


def test_spectral_gap_needs_two_particles():
    with pytest.raises(ValueError, match="at least two particles"):
        spectral_gap(1)


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


def _stationary_rate(n, gamma):
    """N E[(1 + s)^gamma] for the energy s of a uniform pair at a uniform
    sphere point: s / N ~ Beta(1, (N - 2) / 2)."""
    b = 0.5 * (n - 2)
    mean = quad(lambda x: (1.0 + n * x) ** gamma * b * (1.0 - x) ** (b - 1.0),
                0.0, 1.0)[0]
    return n * mean


@pytest.mark.parametrize("gamma, t_final", [(0.0, 1100.0), (0.5, 250.0)])
def test_simulate_across_candidate_blocks(gamma, t_final):
    # more than one block of candidates: at gamma = 0, about 70 000 in one
    # run of full blocks; at gamma = 0.5, about 80 000 in many cut blocks.
    # The start is uniform on the sphere, so the run is stationary and
    # makes N E[(1 + s)^gamma] rotations per unit time
    n = 64
    stats = simulate(SimulationConfig(n=n, gamma=gamma, t_final=t_final,
                                      seed=4))
    assert stats.proposed > 2**16
    assert np.sum(stats.velocities**2) == pytest.approx(n, abs=1e-9)
    expect = _stationary_rate(n, gamma) * t_final
    assert abs(stats.accepted - expect) < 5.0 * np.sqrt(expect)
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


def test_simulate_rejects_a_start_of_the_wrong_length():
    with pytest.raises(ConfigurationError, match=r"shape \(4,\)"):
        simulate(SimulationConfig(4), initial=np.ones(5))


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



# -- gamma > 0 oracles ----------------------------------------------------


def _s4(v):
    return np.sum(v**4, axis=-1)


def _generator_s4(v, gamma):
    """(L_gamma S4)(v) = (2 / (N - 1)) sum_{i<j} (1 + s_ij)^gamma
    (3/4 s_ij^2 - v_i^4 - v_j^4), for the rows of v."""
    i, j = np.triu_indices(v.shape[-1], 1)
    vi, vj = v[..., i], v[..., j]
    s = vi * vi + vj * vj
    return 2.0 / (v.shape[-1] - 1) * np.sum(
        (1.0 + s) ** gamma * (0.75 * s * s - vi**4 - vj**4), axis=-1)


def _generator(g, v, gamma, angles=64):
    """(L_gamma g)(v) for a function g of rows: the rate-weighted pair sum
    of the angle mean of g(R_ij v) - g(v), on midpoint angles."""
    n = v.size
    c, s = np.cos(angle_midpoints(angles)), np.sin(angle_midpoints(angles))
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            w = np.tile(v, (angles, 1))
            w[:, i], w[:, j] = v[i] * c + v[j] * s, v[j] * c - v[i] * s
            total += ((1.0 + v[i] ** 2 + v[j] ** 2) ** gamma
                      * np.mean(g(w) - g(v)))
    return 2.0 / (n - 1) * total


def test_short_time_law_at_positive_gamma():
    # Dynkin: E[S4(t) | v0] = S4(v0) + t (L S4)(v0) + t^2/2 (L^2 S4)(v0) + ...
    # At v0 the three largest energies are equal, so cap = 1.25 (e1 + e2)
    # < N and a rotation of two of them can end a block.
    n, gamma, t, replicas = 6, 0.5, 0.02, 10_000
    v0 = np.array([1.0, 1.0, 1.0, 0.2, 0.1, 0.1])
    v0 *= np.sqrt(n / np.sum(v0**2))
    drift = _generator_s4(v0, gamma)
    assert drift == pytest.approx(_generator(_s4, v0, gamma), rel=1e-12)
    second = _generator(lambda w: _generator_s4(w, gamma), v0, gamma)
    cfg = SimulationConfig(n=n, gamma=gamma, t_final=t, seed=31)
    s4 = _s4(simulate_ensemble(cfg, replicas, initial=v0))
    se = np.std(s4, ddof=1) / np.sqrt(replicas)
    # the t^2 term is below the standard error, and the drift far above it
    assert 0.5 * t * t * abs(second) < 0.5 * se
    assert t * abs(drift) > 5.0 * se
    assert abs(np.mean(s4) - _s4(v0) - t * drift) < 4.0 * se


def _constant_bound_simulate(n, gamma, t_final, v0, rng):
    """Thinning against the constant rate N (1 + N)^gamma, one candidate
    at a time: reference for the law of simulate at gamma > 0."""
    v = v0.copy()
    t = rng.exponential(1.0 / (n * (1.0 + n) ** gamma))
    while t < t_final:
        i = rng.integers(n)
        j = rng.integers(n - 1)
        j += j >= i
        s = v[i] ** 2 + v[j] ** 2
        if rng.random() < ((1.0 + s) / (1.0 + n)) ** gamma:
            th = rng.uniform(0.0, 2.0 * np.pi)
            v[i], v[j] = rotate_pair(v[i], v[j], th)
        t += rng.exponential(1.0 / (n * (1.0 + n) ** gamma))
    return v


class _BlockCounter:
    """A generator that counts the candidate blocks drawn from it (one
    exponential draw each)."""

    def __init__(self, rng):
        self.rng, self.blocks = rng, 0

    def exponential(self, *args, **kwargs):
        self.blocks += 1
        return self.rng.exponential(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_thinning_bound_keeps_the_law_of_s4(n):
    # one dominant energy: the top two energies move with each rotation of
    # the dominant particle, and below cap = N blocks get cut
    gamma, t, replicas = 1.0, 0.4, 2000
    v0 = np.full(n, np.sqrt(0.4 / (n - 1)))
    v0[0] = np.sqrt(0.6)
    v0 *= np.sqrt(n)
    e = np.sort(v0**2)
    cap = min(1.25 * (e[-1] + e[-2]), n)
    cfg = SimulationConfig(n=n, gamma=gamma, t_final=t, seed=n)
    got, blocks = np.empty(replicas), 0
    for r in range(replicas):
        rng = _BlockCounter(np.random.default_rng((n, r)))
        got[r] = _s4(simulate(cfg, initial=v0, rng=rng).velocities)
        blocks += rng.blocks
    ref_rng = np.random.default_rng((n, 10**6))
    want = np.array([_s4(_constant_bound_simulate(n, gamma, t, v0, ref_rng))
                     for _ in range(replicas)])
    assert (blocks > replicas) == (cap < n)
    assert ks_2samp(got, want).pvalue > 1e-3
    se = np.sqrt((np.var(got) + np.var(want)) / replicas)
    assert abs(np.mean(got) - np.mean(want)) < 4.0 * se


# -- gamma = 0 bits -------------------------------------------------------


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("n, t_final, digest", [
    (5, 3.0, "81f002f177244bbe"), (64, 1.0, "91b1c0ba39d30492"),
    (64, 1100.0, "5f917786d7e5024e"), (512, 1.0, "15f4f609238c7f24")])
def test_simulate_at_gamma_zero_keeps_its_bits(n, t_final, digest):
    # recorded before the thinning bound and the lockstep path
    stats = simulate(SimulationConfig(n=n, gamma=0.0, t_final=t_final,
                                      seed=7))
    assert _digest(stats.velocities) == digest


@pytest.mark.parametrize("n, replicas, digest", [
    (8, 3, "7e93e01a4b868364"), (64, 800, "c027a0d664b6ef13"),
    (512, 40, "8c34543204c9ee49")])
def test_ensemble_at_gamma_zero_keeps_its_bits(n, replicas, digest):
    cfg = SimulationConfig(n=n, gamma=0.0, t_final=1.0, seed=7)
    assert _digest(simulate_ensemble(cfg, replicas)) == digest


def _one_by_one(cfg, replicas, initial, seed):
    """simulate per replica with simulate_ensemble's seeding: reference."""
    rows = [initial] * replicas if np.ndim(initial) < 2 else initial
    return np.array([simulate(cfg, initial=rows[r],
                              rng=np.random.default_rng((seed, r))).velocities
                     for r in range(replicas)])


def _zero_start(n):
    # exact zeros of both signs, which a rotation by the identity would
    # turn into +0.0
    v = np.zeros(n)
    v[:2] = np.sqrt(n / 2.0)
    v[2::2] = -0.0
    return v


@pytest.mark.parametrize("gamma, replicas", [(0.5, 30)])
@pytest.mark.parametrize("kind", ["none", "one", "rows", "zeros"])
def test_ensemble_equals_one_simulate_per_replica(gamma, replicas, kind):
    n = 16
    cfg = SimulationConfig(n=n, gamma=gamma, t_final=0.3, seed=12)
    rng = np.random.default_rng(17)
    initial = {"none": None,
               "one": uniform_sphere_batch(n, 1, rng)[0],
               "rows": uniform_sphere_batch(n, replicas, rng),
               "zeros": _zero_start(n)}[kind]
    got = simulate_ensemble(cfg, replicas, initial=initial, seed=5)
    want = _one_by_one(cfg, replicas, initial, 5)
    assert got.tobytes() == want.tobytes()
    if kind == "zeros":
        assert np.any(np.signbit(got) & (got == 0.0))


def test_gamma_zero_event_count_is_poisson():
    # at N = 2 a replica ends exactly at its start (1, 1) iff it makes no
    # event, with probability exp(-N t); a rotation by a drawn angle moves
    # it off with probability 1, and the rescale of (1, 1) is by 1.0
    n, t, replicas = 2, 0.5, 20_000
    cfg = SimulationConfig(n=n, gamma=0.0, t_final=t, seed=8)
    states = simulate_ensemble(cfg, replicas, initial=np.ones(n))
    still = np.mean(np.all(states == 1.0, axis=1))
    p = math.exp(-n * t)
    assert abs(still - p) < 5.0 * math.sqrt(p * (1.0 - p) / replicas)


@pytest.mark.parametrize("kind", ["none", "one", "rows"])
def test_gamma_zero_ensemble_is_a_function_of_its_inputs(kind):
    n, replicas = 16, 300
    cfg = SimulationConfig(n=n, gamma=0.0, t_final=0.3, seed=12)
    initial = {"none": None,
               "one": uniform_sphere_batch(n, 1, np.random.default_rng(1))[0],
               "rows": uniform_sphere_batch(n, replicas,
                                            np.random.default_rng(1))}[kind]
    got = simulate_ensemble(cfg, replicas, initial=initial, seed=5)
    assert got.tobytes() == simulate_ensemble(
        cfg, replicas, initial=initial, seed=5).tobytes()
    # seed defaults to config.seed
    assert got.tobytes() == simulate_ensemble(
        SimulationConfig(n=n, gamma=0.0, t_final=0.3, seed=5), replicas,
        initial=initial).tobytes()
    assert not np.array_equal(
        got, simulate_ensemble(cfg, replicas, initial=initial, seed=6))
    assert np.allclose(np.sum(got**2, axis=1), n)


def test_gamma_zero_keeps_zero_signs_where_no_event_lands():
    # about 0.8 events per replica: nearly half make none.  With initial
    # given, the draws do not depend on its values, so the rows that stay
    # at the all-ones start are the rows without events.  Both starts have
    # energy 16 exactly, so such a row is rescaled by 1.0
    n, replicas = 16, 300
    cfg = SimulationConfig(n=n, gamma=0.0, t_final=0.05, seed=3)
    idle = np.all(simulate_ensemble(cfg, replicas, initial=np.ones(n)) == 1.0,
                  axis=1)
    assert 50 < idle.sum() < replicas - 50
    v0 = np.zeros(n)
    v0[:4] = 2.0
    v0[4::2] = -0.0
    got = simulate_ensemble(cfg, replicas, initial=v0)
    assert got[idle].tobytes() == np.tile(v0, (idle.sum(), 1)).tobytes()
    # rows that moved keep the -0.0 entries that no rotation touched
    assert np.any(np.signbit(got[~idle]) & (got[~idle] == 0.0))


def _event_stream_walk(cfg, replicas, initial, seed, block):
    """The gamma = 0 ensemble one event at a time: the counts from
    default_rng(seed), then the k-th events of the replicas with more than
    k, ordered by count, each block's pairs and angles drawn at once:
    reference for the lockstep arithmetic."""
    n = cfg.n
    rng = np.random.default_rng(seed)
    state = np.tile(np.asarray(initial, dtype=float), (replicas, 1))
    counts = rng.poisson(n * cfg.t_final, replicas)
    order = sorted(range(replicas), key=lambda r: -counts[r])
    stream = [r for k in range(max(counts)) for r in order if counts[r] > k]
    for lo in range(0, len(stream), block):
        rows = stream[lo:lo + block]
        first = rng.integers(n, size=len(rows))
        second = rng.integers(n - 1, size=len(rows))
        theta = rng.uniform(0.0, 2.0 * np.pi, len(rows))
        for r, i, j, th in zip(rows, first, second, theta):
            j += j >= i
            c, s = np.cos(th), np.sin(th)
            vi, vj = state[r, i], state[r, j]
            state[r, i], state[r, j] = vi * c + vj * s, vj * c - vi * s
    state *= np.sqrt(n / np.sum(state * state, axis=1))[:, None]
    return state


@pytest.mark.parametrize("block", [7, 2**14])
def test_gamma_zero_ensemble_rotates_its_event_stream_in_order(
        monkeypatch, block):
    # about 10 events per replica; blocks of 7 entries end inside steps
    monkeypatch.setattr(process, "_LOCKSTEP_ENTRIES", block)
    n, replicas = 5, 40
    cfg = SimulationConfig(n=n, gamma=0.0, t_final=2.0, seed=4)
    v0 = uniform_sphere_batch(n, 1, np.random.default_rng(6))[0]
    got = simulate_ensemble(cfg, replicas, initial=v0)
    want = _event_stream_walk(cfg, replicas, v0, 4, block)
    assert got.tobytes() == want.tobytes()


def test_lockstep_runs_a_replica_past_one_block_on_its_own(monkeypatch):
    # 48 events expected per replica; the longest-running one makes its
    # last 6 events alone, across two blocks of 4 entries
    monkeypatch.setattr(process, "_LOCKSTEP_ENTRIES", 4)
    n, replicas = 8, 100
    cfg = SimulationConfig(n=n, gamma=0.0, t_final=6.0, seed=4)
    counts = np.sort(np.random.default_rng(4).poisson(n * 6.0, replicas))
    assert counts[-1] - counts[-2] > 4
    v0 = uniform_sphere_batch(n, 1, np.random.default_rng(6))[0]
    got = simulate_ensemble(cfg, replicas, initial=v0)
    want = _event_stream_walk(cfg, replicas, v0, 4, 4)
    assert got.tobytes() == want.tobytes()


def test_numpy_trig_equals_math_on_the_drawn_angles():
    # the gamma = 0 ensemble takes np.cos and np.sin over arrays where
    # simulate takes math's and _event_stream_walk numpy's one angle at a
    # time: all three rotate a pair alike by the same angle
    theta = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, 200_000)
    assert np.cos(theta).tolist() == [math.cos(x) for x in theta.tolist()]
    assert np.sin(theta).tolist() == [math.sin(x) for x in theta.tolist()]
    some = theta[:2000]
    assert np.cos(some).tolist() == [np.cos(x) for x in some]
    assert np.sin(some).tolist() == [np.sin(x) for x in some]


def test_gamma_zero_ensemble_memory_is_bounded_by_its_blocks():
    # 205 000 events: drawn at once, their pairs and angles alone would
    # take 4.7 MiB; the (800 x 64) state is 0.4 MiB
    n, replicas = 64, 800
    starts = uniform_sphere_batch(n, replicas, np.random.default_rng(2))
    cfg = SimulationConfig(n=n, gamma=0.0, t_final=4.0, seed=2)
    tracemalloc.start()
    try:
        states = simulate_ensemble(cfg, replicas, initial=starts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert np.allclose(np.sum(states**2, axis=1), n)


@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_ensemble_takes_array_likes_and_checks_shapes(gamma):
    n, replicas = 6, 25
    cfg = SimulationConfig(n=n, gamma=gamma, t_final=0.2, seed=3)
    starts = uniform_sphere_batch(n, replicas, np.random.default_rng(4))
    want = simulate_ensemble(cfg, replicas, initial=starts)
    assert np.array_equal(simulate_ensemble(cfg, replicas,
                                            initial=starts.tolist()), want)
    assert np.array_equal(
        simulate_ensemble(cfg, replicas, initial=starts[0].tolist()),
        simulate_ensemble(cfg, replicas, initial=starts[0]))
    for bad in (starts[:, :4], starts[None], starts[0, :4], 1.0):
        with pytest.raises(ConfigurationError, match="initial must have"):
            simulate_ensemble(cfg, replicas, initial=bad)
    # off the sphere: the error of simulate, on either path
    far = starts.copy()
    far[7] *= 2.0
    with pytest.raises(ConfigurationError, match="energy .* not N=6"):
        simulate(cfg, initial=far[7])
    with pytest.raises(ConfigurationError, match="energy .* not N=6"):
        simulate_ensemble(cfg, replicas, initial=far)
