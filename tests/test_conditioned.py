"""Conditioned tensorisation states: marginals, entropy, production."""

import dataclasses

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp
from scipy.stats import beta as beta_law
from scipy.stats import chi2, kstest

import kaclab.conditioned as conditioned
from kaclab.conditioned import ConditionedFamily
from kaclab.densities import from_callable, gaussian, mixture
from kaclab.errors import AccuracyError, ConfigurationError
from kaclab.normalization import NormalizationLadder
from kaclab.quadrature import (ANGLES, SHELLS, TWO_PI, angle_midpoints,
                               gaussian_relative_entropy, trapezoid_weights)
from oracles import log_h

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
    polar_integral = conditioned.polar_integral

    def off_at_half_rule(ws, weight, pair, angle_nodes):
        out = polar_integral(ws, weight, pair, angle_nodes)
        return 1.01 * out if len(ws) == SHELLS // 2 else out

    monkeypatch.setattr(conditioned, "polar_integral", off_at_half_rule)
    with pytest.raises(AccuracyError, match=f"{what} quadrature not converged"):
        evaluate(mix_family)


def test_refinement_check_floor(gauss_family):
    # differences below the floor of 1e-12 N count as rounding; the value
    # returned is the full rule's
    assert gauss_family._checked(
        "production", lambda s, a: 1e-12 * (s == SHELLS), True) == 1e-12


def _checked_values(fam):
    """D_{N,0}, D_{N,0.5} and the log-power integral at beta = 1, all with
    the half-rule check on."""
    return np.array([fam.production(0.0), fam.production(0.5),
                     fam.log_power_integral(1.0)])


def test_shells_on_the_support_converge_at_large_n():
    # mixture(0.25) has v_max = 16, so f(v1) f(v2) vanishes beyond s = 512;
    # shells spread over [0, N] put too few of them there to pass the check
    vals = _checked_values(ConditionedFamily(mixture(0.25), 16384))
    assert np.all(np.isfinite(vals)) and np.all(vals > 0)


@pytest.mark.parametrize("n, rel", [(32, 1e-15), (512, 1e-15), (1024, 1e-7),
                                    (4096, 1e-7)])
def test_shells_on_the_support_match_shells_to_n(monkeypatch, n, rel):
    # at N <= 2 v_max^2 = 512 the support is [0, N]; above it the shells
    # to N only add ones where f(v1) f(v2) is below 1e-50.  A family keeps
    # its shells, so the shells to N go to a second family on its ladder
    fam = ConditionedFamily(mixture(0.25), n)
    got = _checked_values(fam)
    shells = conditioned.polar_shells
    monkeypatch.setattr(conditioned, "polar_shells",
                        lambda v_max, s_max, *rule:
                        shells(np.inf, s_max, *rule))
    to_n = ConditionedFamily(fam.ladder, n)
    assert got == pytest.approx(_checked_values(to_n), rel=rel, abs=0.0)
    if n > 512:
        assert not np.array_equal(to_n._shells(SHELLS, ANGLES)[0],
                                  fam._shells(SHELLS, ANGLES)[0])


def test_marginal_mass(mix_family):
    v = np.linspace(-mix_family.f.v_max, mix_family.f.v_max, 8193)
    dens = mix_family.marginal1(v)
    mass = np.trapezoid(dens, v)
    assert mass == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("n", [8, 32, 256, 1024, 4096])
def test_half_marginal_table_is_the_symmetric_rule(n):
    # F_{N,1} is even, so the 2049-node rule on v >= 0 gives H_N and the
    # marginal moments of the 4097-node trapezoid rule on [-v, v] with the
    # same spacing, v = min(v_max, sqrt N), to 1e-14 relative
    fam = ConditionedFamily(mixture(0.25), n)
    top = min(fam.f.v_max, np.sqrt(n))
    v = np.linspace(-top, top, 4097)
    w = trapezoid_weights(v)
    dens = fam.marginal1(v)
    dens = dens / np.sum(dens * w)
    log_ratio = (np.log(np.maximum(fam.f(v), 1e-300)) + 0.5 * v * v
                 + 0.5 * np.log(TWO_PI))
    h = (n * np.sum(dens * log_ratio * w) - 0.5 * n
         - 0.5 * n * np.log(TWO_PI) - fam._log_zn)
    assert fam.entropy() == pytest.approx(h, rel=1e-14)
    for p in (2, 4, 6):
        want = np.sum(np.abs(v) ** p * dens * w)
        assert fam.marginal_moment(p) == pytest.approx(want, rel=1e-14)


def test_entropy_positive_and_extensive(mix_family):
    h = mix_family.entropy()
    assert h > 0
    # per-particle entropy below the limit value (monotone approach)
    f = mixture(0.25)
    assert h / 32 < gaussian_relative_entropy(f.values, f.nodes,
                                              f.quadrature_weights)


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


# first, middle and last columns: the sampler fills the wider component's
# block first and then permutes each row, so no column is special
SAMPLER_COLUMNS = {32: (0, 15, 31), 100: (0, 50, 99)}


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
    # second moments agree across the columns
    m = np.mean(s * s, axis=0)
    first, *rest = SAMPLER_COLUMNS[sampler_family.n]
    for col in rest:
        assert abs(m[first] - m[col]) < 0.08


def _rows(fam, rows, rng, batch=1000):
    """rows draws of fam in batches: the first column and the largest
    |sum v^2 - N| over all of them."""
    first, worst = [], 0.0
    for start in range(0, rows, batch):
        s = fam.sample(min(batch, rows - start), rng)
        first.append(s[:, 0])
        worst = max(worst, float(np.max(np.abs(np.sum(s * s, axis=1)
                                               - fam.n))))
    return np.concatenate(first), worst


@pytest.mark.parametrize("n", [8, 64, 1024])
def test_gaussian_draws_are_uniform_on_the_sphere(n):
    # one component: v_1^2 / N of the uniform sphere is
    # Beta(1/2, (N - 1)/2); bound: KS p > 1e-3 on 20 000 rows
    fam = ConditionedFamily(gaussian(1.0), n)
    v1, worst = _rows(fam, 20_000, np.random.default_rng(n))
    assert kstest(v1 * v1 / n, beta_law(0.5, 0.5 * (n - 1)).cdf).pvalue > 1e-3
    assert worst <= 1e-9 * n


@pytest.mark.parametrize("delta", [0.25, 0.1, 0.7])
@pytest.mark.parametrize("n", [8, 64, 1024])
def test_mixture_draws_follow_the_first_marginal(delta, n):
    # P(|v_1| < c) over 20 000 rows against the ladder's first marginal,
    # normalised on [0, min(v_max, sqrt N)]; bound: |z| <= 4 at each cut.
    # At delta = 0.7 the wider component is the second one.  At N = 8
    # every draw has |v_1| <= sqrt 8 < 3
    fam = ConditionedFamily(mixture(delta), n)
    v1, worst = _rows(fam, 20_000, np.random.default_rng(n + int(100 * delta)))
    assert worst <= 1e-9 * n
    v = np.linspace(0.0, min(fam.f.v_max, np.sqrt(n)), 200_001)
    cdf = np.concatenate(([0.0], np.cumsum(np.diff(v) * 0.5 * (
        fam.marginal1(v[1:]) + fam.marginal1(v[:-1])))))
    for c in (0.3, 1.2, 3.0):
        hit = np.mean(np.abs(v1) < c)
        if c * c >= n:
            assert hit == 1.0
            continue
        p = np.interp(c, v, cdf) / cdf[-1]
        z = (hit - p) / np.sqrt(p * (1.0 - p) / v1.size)
        assert abs(z) <= 4.0, (c, z)


def test_split_table_holds_every_term_above_the_cut():
    # the windowed table against the whole double sum over k <= N and
    # j <= 4N + 200 (scipy's gammaln): the same (k, j) terms within e^-40
    # of the largest, to 1e-10 in log T
    for f in (mixture(0.25), mixture(0.1), mixture(0.7)):
        (w1, a1), (w2, a2) = sorted(f.components, key=lambda p: -p[1])
        r1, r2 = 0.5 / a1, 0.5 / a2
        for n in (3, 8, 64):
            k, j = np.arange(n + 1)[:, None], np.arange(4 * n + 200)[None, :]
            c, b = (r2 - r1) * n, 0.5 * n
            with np.errstate(divide="ignore", invalid="ignore"):
                series = np.where(j == 0, 0.0, gammaln(0.5 * k + j)
                                  - gammaln(0.5 * k) - gammaln(b + j)
                                  + gammaln(b) - gammaln(j + 1)
                                  + j * np.log(c))
            series = np.where((k == 0) & (j > 0), -np.inf, series)
            full = (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
                    + k * np.log(w1 * np.sqrt(r1))
                    + (n - k) * np.log(w2 * np.sqrt(r2)) + series)
            kk, jj = np.nonzero(full >= full.max() - 40.0)
            got_k, got_j, log_t = conditioned._split_terms(f, n)
            order = np.lexsort((got_j, got_k))
            assert np.array_equal(got_k[order], kk), (f.tag, n)
            assert np.array_equal(got_j[order], jj), (f.tag, n)
            assert np.max(np.abs(log_t[order] - full[kk, jj])) < 1e-10


# the ladder's log h^{*N}(N) of mixture(0.25) reads -5.7e-6, -4.2e-5,
# -1.8e-4 and -1.0e-3 off the table's sum; bound: 1.5 times those gaps
LADDER_GAP = {8: 5.7e-6, 64: 4.2e-5, 256: 1.8e-4, 1024: 1.0e-3}


@pytest.mark.parametrize("n", sorted(LADDER_GAP))
def test_split_table_sums_to_the_ladders_normaliser(n):
    # log h^{*N}(N) = log sum T + (N/2 - 1) log N - rho_2 N - log Gamma(N/2)
    f = mixture(0.25)
    _, _, log_t = conditioned._split_terms(f, n)
    exact = (logsumexp(log_t) + (0.5 * n - 1.0) * np.log(n) - 0.75 * n
             - gammaln(0.5 * n))
    got = float(NormalizationLadder(f, n).log_density(n, float(n)))
    assert abs(got - exact) <= 1.5 * LADDER_GAP[n]
    # one component: the single term gives the chi-square density
    _, _, log_t = conditioned._split_terms(gaussian(1.0), n)
    assert (log_t[0] + (0.5 * n - 1.0) * np.log(n) - 0.5 * n
            - gammaln(0.5 * n)) == pytest.approx(chi2.logpdf(n, n), abs=1e-12)


# the ladder's marginal weights h^{*(N-k)}(N - s) / h^{*N}(N) of
# mixture(0.25) at s = 0, 1, 4 and 9 read these relative errors (in size)
# against the exact sums of oracles.log_h; bound: 1.5 times them
WEIGHT_ERR = {(64, 1): (7.3e-6, 8.9e-9, 2.45e-5, 7.61e-5),
              (64, 2): (1.42e-5, 7.29e-6, 1.59e-5, 6.46e-5),
              (256, 1): (3.53e-5, 9.8e-9, 1.09e-4, 3.0e-4),
              (256, 2): (7.02e-5, 3.53e-5, 7.21e-5, 2.61e-4),
              (1024, 1): (1.85e-4, 6.46e-8, 5.58e-4, 1.5e-3),
              (1024, 2): (3.69e-4, 1.85e-4, 3.72e-4, 1.31e-3)}


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_marginal_weights_match_the_exact_sums(n):
    f = mixture(0.25)
    fam = ConditionedFamily(f, n)
    s = np.array([0.0, 1.0, 4.0, 9.0])
    for k in (1, 2):
        exact = (np.array([log_h(f, n - k, n - x) for x in s])
                 - log_h(f, n, float(n)))
        err = np.expm1(fam.log_marginal_weight(k, s) - exact)
        assert np.all(np.abs(err) <= 1.5 * np.array(WEIGHT_ERR[n, k])), k


def test_sampler_builds_no_levels_beyond_the_normalisation():
    # the sampler reads no ladder: a sample-only family builds none, not
    # even the base cells
    fam = ConditionedFamily(mixture(0.25), 512)
    fam.sample(4, np.random.default_rng(11))
    assert "ladder" not in vars(fam)


@pytest.mark.parametrize("n", [300, 1000, 1023])
def test_sampler_descends_the_entropy_walk(n):
    # a family whose Z_N and marginals are built keeps the walk that they
    # built: the sampler adds no level to it, at odd N and below a power
    # of two alike
    fam = ConditionedFamily(mixture(0.25), n)
    fam.entropy()
    built = sorted(fam.ladder._masses)
    fam.sample(4, np.random.default_rng(13))
    assert sorted(fam.ladder._masses) == built


def test_sampler_needs_gaussian_components():
    # a generator given only as a pdf has no components to draw F_N from
    f = from_callable(lambda v: np.exp(-0.5 * v * v), 16.0, tag="tabled")
    fam = ConditionedFamily(f, 8)
    with pytest.raises(ConfigurationError, match="'tabled'"):
        fam.sample(4, np.random.default_rng(0))


def test_sampler_table_stays_linear_in_n():
    # the table keeps about 63 N terms; bound: 100 N at N = 16384
    n = 16384
    fam = ConditionedFamily(mixture(0.25), n)
    s = fam.sample(2, np.random.default_rng(14))
    assert fam._split_law[0].size <= 100 * n
    assert np.max(np.abs(np.sum(s * s, axis=1) - n)) <= 1e-9 * n


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
    # the first and last columns' mean v^2 agree within 4 standard errors
    # over rows
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


def test_shell_and_marginal_tables_are_built_once_per_family():
    # the inequality layer reads H_N, D_{N,gamma}, D_{N,1}, a log-power
    # integral and a marginal moment of one family: the generator is
    # evaluated on each rule's shells once, and the marginal table once
    f, n = mixture(0.25), 64
    shapes = []

    def pdf(v):
        shapes.append(np.shape(v))
        return f(v)

    fam = ConditionedFamily(dataclasses.replace(f, pdf=pdf), n)
    got = [fam.entropy(), fam.production(0.5), fam.production(1.0),
           fam.log_power_integral(1.0), fam.marginal_moment(4.0),
           fam.entropy()]
    rules = [(2, SHELLS, ANGLES // 8), (2, SHELLS // 2, ANGLES // 16)]
    assert sorted(c for c in shapes if c in rules) == sorted(rules)
    # one marginal table, plus the generator's values in each entropy
    assert shapes.count((2049,)) == 1 + 2
    for table in (*fam._shells(SHELLS, ANGLES), *fam._marginal):
        assert not table.flags.writeable
    # each value as a fresh family gives it, bit for bit
    want = [ConditionedFamily(f, n).entropy(),
            ConditionedFamily(f, n).production(0.5),
            ConditionedFamily(f, n).production(1.0),
            ConditionedFamily(f, n).log_power_integral(1.0),
            ConditionedFamily(f, n).marginal_moment(4.0)]
    assert got == want + want[:1]


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


def test_monte_carlo_rejects_velocities_of_another_width():
    fam = ConditionedFamily(mixture(0.3), 8)
    rng = np.random.default_rng(9)
    draws = fam.sample(100, rng)
    for bad in (draws[:, :2], np.hstack([draws, draws[:, :4]]), draws[0]):
        with pytest.raises(ValueError, match="N=8 columns"):
            fam.entropy_monte_carlo(50, rng, velocities=bad)
        with pytest.raises(ValueError, match="N=8 columns"):
            fam.production_monte_carlo(0.5, 50, rng, velocities=bad)


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
