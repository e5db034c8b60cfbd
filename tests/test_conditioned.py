"""Conditioned tensorisation states: marginals, entropy, production."""

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import chisquare

import kaclab.conditioned as conditioned
import kaclab.normalization as normalization
from kaclab.conditioned import ConditionedFamily
from kaclab.densities import from_callable, gaussian, mixture, relative_entropy
from kaclab.errors import AccuracyError, ConfigurationError
from kaclab.normalization import NormalizationLadder, _Split
from kaclab.quadrature import ANGLES, SHELLS, angle_midpoints

N_GAUSS = 16


@pytest.fixture(scope="module")
def gauss_family():
    return ConditionedFamily(gaussian(1.0), N_GAUSS)


@pytest.fixture(scope="module")
def mix_family():
    return ConditionedFamily(mixture(0.25), 32)


def exact_sphere_marginal(n, v):
    """First marginal of the uniform measure on S^{n-1}(sqrt n)."""
    v = np.asarray(v, dtype=float)
    c = np.exp(gammaln(n / 2.0) - gammaln((n - 1) / 2.0)) / np.sqrt(np.pi * n)
    out = np.zeros_like(v)
    inside = v * v < n
    out[inside] = c * (1.0 - v[inside] ** 2 / n) ** ((n - 3) / 2.0)
    return out


def test_gaussian_marginal_is_sphere_marginal(gauss_family):
    v = np.linspace(-3.5, 3.5, 41)
    got = gauss_family.marginal1(v)
    assert np.max(np.abs(got - exact_sphere_marginal(N_GAUSS, v))) < 1e-5


def test_gaussian_marginal2_uniformity(gauss_family):
    # for the uniform state, F_{N,2} = f f exp(weight) depends only on
    # v1^2 + v2^2 and is the sphere's own second marginal
    def marginal2(v1, v2):
        f = gauss_family.f
        return float(f(v1) * f(v2) * np.exp(
            gauss_family.log_marginal_weight(2, v1 * v1 + v2 * v2)))

    n = N_GAUSS
    exact = (np.exp(gammaln(n / 2.0) - gammaln((n - 2) / 2.0)) / (np.pi * n)
             * (1.0 - 1.25 / n) ** ((n - 4) / 2.0))
    assert marginal2(1.0, 0.5) == pytest.approx(
        marginal2(np.sqrt(1.25), 0.0), rel=1e-6)
    assert marginal2(1.0, 0.5) == pytest.approx(exact, rel=1e-4)


def test_gaussian_entropy_vanishes(gauss_family):
    assert gauss_family.entropy() == pytest.approx(0.0, abs=1e-4)


def test_gaussian_production_vanishes(gauss_family):
    assert gauss_family.production(0.5) == pytest.approx(0.0, abs=1e-10)


def test_checked_production_at_a_maxwellian(gauss_family):
    # D is rounding noise here (~1e-15 on both rules): the check's floor of
    # 1e-12 N lets it pass instead of comparing noise relatively
    for gamma in (0.0, 0.5):
        d = gauss_family.production(gamma)
        assert abs(d) < 1e-12 * N_GAUSS


@pytest.mark.parametrize("what, evaluate", [
    ("production", lambda fam: fam.production(0.5)),
    ("log-power", lambda fam: fam.log_power_integral(1.0)),
], ids=["production", "log-power"])
def test_refinement_check_raises_when_not_converged(monkeypatch, mix_family,
                                                    what, evaluate):
    shell_sum = conditioned.shell_sum

    def off_at_half_rule(ws, weight, pair, angle_nodes):
        out = shell_sum(ws, weight, pair, angle_nodes)
        return 1.01 * out if len(ws) == SHELLS // 2 else out

    monkeypatch.setattr(conditioned, "shell_sum", off_at_half_rule)
    with pytest.raises(AccuracyError, match=f"{what} quadrature not converged"):
        evaluate(mix_family)


def test_refinement_check_floor(gauss_family):
    # differences below the floor of 1e-12 N count as rounding; the value
    # returned is the full rule's
    assert gauss_family._checked(
        "production", lambda s, a: 1e-12 * (s == SHELLS), True) == 1e-12


def test_marginal_mass(mix_family):
    v = np.linspace(-mix_family.f.v_max, mix_family.f.v_max, 8193)
    dens = mix_family.marginal1(v)
    mass = np.trapezoid(dens, v)
    assert mass == pytest.approx(1.0, abs=1e-4)


def test_entropy_positive_and_extensive(mix_family):
    h = mix_family.entropy()
    assert h > 0
    # per-particle entropy below the limit value (monotone approach)
    assert h / 32 < relative_entropy(mixture(0.25))


def test_production_positive_and_monotone_in_gamma(mix_family):
    d0 = mix_family.production(0.0)
    d1 = mix_family.production(1.0)
    assert 0 < d0 < d1


def test_production_rejects_gamma_outside_unit_interval(mix_family):
    for gamma in (-2.0, -1e-9, 1.0 + 1e-9, 5.0, np.nan):
        with pytest.raises(ConfigurationError, match="gamma must lie"):
            mix_family.production(gamma)


def test_production_quadrature_self_check(mix_family):
    # the check compares against the half rule; it never changes the value
    for gamma in (0.0, 0.5, 1.0):
        assert mix_family.production(gamma) == mix_family.production(
            gamma, check=False)


def test_log_power_integral_positive(mix_family):
    val = mix_family.log_power_integral(1.0)
    assert val > 0


def test_chaos_distance_shrinks():
    # L1 distance between the first marginal and the generator
    f = mixture(0.25)
    v = np.linspace(-4.0, 4.0, 4001)

    def distance(n):
        return np.trapezoid(np.abs(ConditionedFamily(f, n).marginal1(v)
                                   - f(v)), v)

    assert distance(64) < distance(16)


def test_sampler_energy_constraint(mix_family):
    rng = np.random.default_rng(5)
    s = mix_family.sample(500, rng)
    assert s.shape == (500, 32)
    assert np.allclose(np.sum(s * s, axis=1), 32.0, atol=1e-9)


# one column from each group the sampler emits.  N = 32 splits in halves
# only.  N = 100 descends the balanced tree 100, 50, 25, {13, 12}, {7, 6},
# {4, 3}, {2, 1}, so its leaves end at two depths: 3 = 2 + 1 peels
# columns 0-27, then the splits 2 = 1 + 1 give the low (28-63) and high
# (64-99) leaves of the last depth
SAMPLER_COLUMNS = {32: (0, 15, 31), 100: (0, 28, 99)}


@pytest.fixture(scope="module", params=sorted(SAMPLER_COLUMNS))
def sampler_family(request, mix_family):
    if request.param == mix_family.n:
        return mix_family
    return ConditionedFamily(mixture(0.25), request.param)


def test_sampler_marginal_matches_quadrature(sampler_family):
    rng = np.random.default_rng(6)
    s = sampler_family.sample(15_000, rng)
    # compare coordinate histograms to the computed first marginal
    for col in SAMPLER_COLUMNS[sampler_family.n]:
        hist, edges = np.histogram(s[:, col], bins=40, range=(-6, 6),
                                   density=True)
        centers = 0.5 * (edges[1:] + edges[:-1])
        dens = sampler_family.marginal1(centers)
        assert np.max(np.abs(hist - dens)) < 0.03


def test_sampler_coordinates_exchangeable(sampler_family):
    rng = np.random.default_rng(7)
    s = sampler_family.sample(15_000, rng)
    # second moments agree across the sampler's column groups
    m = np.mean(s * s, axis=0)
    first, *rest = SAMPLER_COLUMNS[sampler_family.n]
    for col in rest:
        assert abs(m[first] - m[col]) < 0.08


# a coarse ladder keeps the exhaustive split checks small: e_0 = 154 cells
@pytest.fixture(scope="module")
def coarse_ladder():
    return NormalizationLadder(mixture(0.3), 8, n_grid=2**10)


@pytest.mark.parametrize("a, b", [(1, 1), (2, 1), (2, 2), (4, 4)])
def test_split_envelope_dominates_target(coarse_ladder, a, b):
    m_a, m_b = coarse_ladder.level(a), coarse_ladder.level(b)
    split = _Split(m_a, m_b)
    e0 = int(round(8 / coarse_ladder.du))
    for e in range(e0 + 1):
        j = np.arange(e + 1)
        res = np.full_like(j, e)
        env = split.envelope(res, j)
        assert np.all(m_a[j] * m_b[e - j] <= env)
        # the proposal is the normalised envelope: its two pieces' masses
        *_, low, high = split.caps(np.array([e]))
        assert np.sum(env) == pytest.approx(float(low[0] + high[0]),
                                            rel=1e-12)


# with no rejection rounds every cell is drawn by inverting the exact law
@pytest.mark.parametrize("a, b, rounds", [
    (1, 1, normalization._SPLIT_ROUNDS), (2, 1, normalization._SPLIT_ROUNDS),
    (4, 4, normalization._SPLIT_ROUNDS), (2, 1, 0)],
    ids=["1-1", "2-1", "4-4", "2-1-exact-law"])
def test_split_draws_follow_the_exact_law(coarse_ladder, monkeypatch,
                                          a, b, rounds):
    monkeypatch.setattr(normalization, "_SPLIT_ROUNDS", rounds)
    m_a, m_b = coarse_ladder.level(a), coarse_ladder.level(b)
    split = _Split(m_a, m_b)
    rng = np.random.default_rng(10 * a + b)
    e0 = int(round(8 / coarse_ladder.du))
    for e in (e0, e0 // 4):
        draws = split.draw(np.full(40_000, e), rng)
        law = m_a[:e + 1] * m_b[e::-1]
        expected = 40_000 * law / law.sum()
        observed = np.bincount(draws, minlength=e + 1)
        # pool the cells expected to hold fewer than 5 draws
        big = expected >= 5
        obs, exp = observed[big], expected[big]
        if not np.all(big):
            obs = np.append(obs, observed[~big].sum())
            exp = np.append(exp, expected[~big].sum())
        assert chisquare(obs, exp).pvalue > 1e-3


def test_exact_law_fallback_draws_as_one_cell_at_a_time(coarse_ladder,
                                                       monkeypatch):
    # the fallback inverts one cumulative law per distinct residual on one
    # vector of uniforms; it draws what inverting each cell's own law on
    # one scalar uniform per cell, in cell order, draws, bit for bit
    monkeypatch.setattr(normalization, "_SPLIT_ROUNDS", 0)
    m_a, m_b = coarse_ladder.level(2), coarse_ladder.level(1)
    e0 = int(round(8 / coarse_ladder.du))
    e = np.random.default_rng(3).choice([0, 1, e0 // 4, e0, e0 + 7], 5000)
    got = _Split(m_a, m_b).draw(e, np.random.default_rng(4))
    rng = np.random.default_rng(4)
    want = np.empty_like(e)
    for k, cell in enumerate(e):
        law = np.cumsum(m_a[:cell + 1] * m_b[cell::-1])
        want[k] = normalization._invert(law, rng.random(), cell)
    assert np.array_equal(got, want)


def test_sampler_builds_no_levels_beyond_the_normalisation():
    # a sample-only family builds the tree below N's halves, not level N
    fam = ConditionedFamily(mixture(0.25), 512)
    fam.sample(4, np.random.default_rng(11))
    assert set(fam.ladder._masses) == {2**j for j in range(9)}


@pytest.mark.parametrize("n", [300, 1000, 1023])
def test_sampler_descends_the_entropy_walk(n):
    # the sampler's tree is the ladder's own: below N it holds the levels
    # that Z_N and the marginals already built
    fam = ConditionedFamily(mixture(0.25), n)
    fam.entropy()
    built = set(fam.ladder._masses)
    fam.sample(4, np.random.default_rng(13))
    assert set(fam.ladder._masses) == built


def test_family_levels_are_one_balanced_walk():
    # Z_N and the first two marginals read levels N, N - 1 and N - 2; on
    # the balanced tree they share every tier below N: 2 log2(N) = 20 builds
    fam = ConditionedFamily(mixture(0.25), 1024)
    fam.entropy()
    fam.production(0.0)
    tiers = {k for j in range(1, 11) for k in (2**j, 2**j - 1)}
    assert set(fam.ladder._masses) == tiers | {1022}


def test_family_rejects_a_ladder_below_its_n():
    f = mixture(0.25)
    with pytest.raises(ValueError, match="N <= 256, not N=300"):
        ConditionedFamily(NormalizationLadder(f, 256), 300)


def test_family_on_a_ladder_reads_the_ladders_generator():
    # f is the ladder's generator: a Maxwellian ladder gives H_N ~ 0
    ladder = NormalizationLadder(gaussian(1.0), 64)
    fam = ConditionedFamily(ladder, 64)
    assert fam.f is ladder.generator
    assert fam.entropy() < 1e-4


def test_family_takes_no_separate_ladder():
    # a generator and another generator's ladder cannot be paired
    f = gaussian(1.0)
    with pytest.raises(TypeError):
        ConditionedFamily(f, 64, ladder=NormalizationLadder(mixture(0.25), 64))


@pytest.mark.parametrize("n", [512, 1023])
def test_sampler_marginal_matches_quadrature_large_n(n):
    fam = ConditionedFamily(mixture(0.25), n)
    s = fam.sample(2000, np.random.default_rng(12))
    assert np.allclose(np.sum(s * s, axis=1), float(n), atol=1e-9)
    # the coordinates are exchangeable, so all of them enter the histogram
    hist, edges = np.histogram(s, bins=40, range=(-6, 6), density=True)
    centers = 0.5 * (edges[1:] + edges[:-1])
    assert np.max(np.abs(hist - fam.marginal1(centers))) < 0.01
    # the first and last columns come from the first and last leaf groups
    # (at N = 1023 the first is the one leaf peeled by 3 = 2 + 1); their
    # mean v^2 agree within 4 standard errors over rows
    d = s[:, 0] ** 2 - s[:, -1] ** 2
    assert abs(np.mean(d)) < 4.0 * np.std(d) / np.sqrt(len(d))


def test_monte_carlo_agrees_small_sample():
    fam = ConditionedFamily(mixture(0.3), 8)
    rng = np.random.default_rng(8)
    # 10^6 draws: the per-draw sd of log f is 0.13, so the 5% bound
    # (4e-4) is 3 standard errors wide
    h_mc = fam.entropy_monte_carlo(1_000_000, rng)
    assert h_mc == pytest.approx(fam.entropy(), rel=0.05)


def test_angle_grid():
    th = angle_midpoints(8)
    assert th.size == 8
    assert th[0] == pytest.approx(np.pi / 8)
    assert np.allclose(np.diff(th), 2 * np.pi / 8)
    # symmetric about both axes, as the quadrant fold needs
    assert np.allclose(np.cos(th[:2]), np.sin(th[:2][::-1]))


def test_rejects_tiny_n():
    with pytest.raises(ValueError):
        ConditionedFamily(gaussian(1.0), 2)


# -- direct references: every angle, no fold -----------------------------


def _reference_shells(fam, n_s, angle_nodes):
    x, ws = np.polynomial.legendre.leggauss(n_s)
    s = 0.5 * float(fam.n) * (x + 1.0)
    ws = 0.5 * float(fam.n) * ws
    phi = 2.0 * np.pi * (np.arange(angle_nodes) + 0.5) / angle_nodes
    r = np.sqrt(s)
    p = np.maximum(fam.f(np.outer(r, np.cos(phi)))
                   * fam.f(np.outer(r, np.sin(phi))), 0.0)
    return s, ws, np.exp(fam.log_marginal_weight(2, s)), p


def reference_production(fam, gamma, n_s, angle_nodes):
    s, ws, weight, p = _reference_shells(fam, n_s, angle_nodes)
    dphi = 2.0 * np.pi / angle_nodes
    logp = np.where(p > 0, np.log(np.maximum(p, 1e-300)), 0.0)
    pair = 2.0 * (angle_nodes * np.sum(p * logp, axis=1)
                  - np.sum(p, axis=1) * np.sum(logp, axis=1))
    shell = weight * (1.0 + s) ** gamma * pair * dphi * dphi
    return float(fam.n / (4.0 * np.pi) * 0.5 * np.sum(ws * shell))


def reference_log_power(fam, beta, n_s, angle_nodes):
    s, ws, weight, p = _reference_shells(fam, n_s, angle_nodes)
    dphi = 2.0 * np.pi / angle_nodes
    logp = np.log(np.maximum(p, 1e-300))
    total = 0.0
    for a in range(len(s)):
        d = p[a][:, None] - p[a][None, :]
        dl = logp[a][:, None] - logp[a][None, :]
        pair = float(np.sum(d * np.sign(dl) * np.abs(dl) ** (1.0 + beta)))
        total += ws[a] * weight[a] * pair * dphi * dphi
    return float(total / (2.0 * np.pi) * 0.5)


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
def test_production_matches_unfolded_reference(mix_family, gamma):
    got = mix_family.production(gamma)
    ref = reference_production(mix_family, gamma, SHELLS, ANGLES)
    assert got == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("beta", [0.5, 1.0])
def test_log_power_matches_unfolded_reference(mix_family, beta):
    got = mix_family.log_power_integral(beta)
    ref = reference_log_power(mix_family, beta, SHELLS, ANGLES)
    assert got == pytest.approx(ref, rel=1e-12)


def test_uneven_generator_rejected():
    shifted = from_callable(lambda v: np.exp(-0.5 * (v - 0.3) ** 2), 12.0)
    with pytest.raises(ConfigurationError, match="not even"):
        ConditionedFamily(shifted, 8)


def test_monte_carlo_rejects_short_velocity_arrays():
    fam = ConditionedFamily(mixture(0.3), 8)
    rng = np.random.default_rng(9)
    draws = fam.sample(100, rng)
    with pytest.raises(ValueError, match="fewer than samples"):
        fam.entropy_monte_carlo(200, rng, velocities=draws)
    with pytest.raises(ValueError, match="fewer than samples"):
        fam.production_monte_carlo(0.5, 200, rng, velocities=draws)
    # no samples, or a negative count, is no estimate
    for samples in (0, -5):
        with pytest.raises(ValueError, match="at least 1"):
            fam.entropy_monte_carlo(samples, rng)
        with pytest.raises(ValueError, match="at least 1"):
            fam.production_monte_carlo(0.5, samples, rng, velocities=draws)
    # exactly enough rows is fine, also over several 50 000-row batches
    full = fam.entropy_monte_carlo(100, rng, velocities=draws)
    tiled = np.tile(draws, (501, 1))
    assert fam.entropy_monte_carlo(len(tiled), rng,
                                   velocities=tiled) == pytest.approx(full)
    assert fam.production_monte_carlo(0.5, len(tiled), rng, velocities=tiled
                                      ) == pytest.approx(
        fam.production_monte_carlo(0.5, 100, rng, velocities=draws))
