"""Acceptance gate: one test per headline claim, each printing PASS/FAIL.

Heavy shared objects (ladders, PDE runs, sample batches) are module-scoped
fixtures so the whole gate stays well inside its runtime budget.
"""

import numpy as np
import pytest
from scipy.stats import wasserstein_distance

from kaclab.conditioned import ConditionedFamily
from kaclab.densities import gaussian, mixture
from kaclab.inequalities import (LogPowerWitness, fit_loglog_slope,
                                 gamma_ratio_sweep, logpower_envelope,
                                 rescaled_inequality_check, villani_floor)
from kaclab.limit_eq import LimitSolver, cercignani_ratio, limit_production
from kaclab.normalization import NormalizationLadder, clt_envelope
from kaclab.process import (SimulationConfig, exact_gap_smalln,
                            simulate_ensemble, spectral_gap)
from kaclab.quadrature import gaussian_relative_entropy

DELTA = 0.25
N_SWEEP = [32, 64, 128, 256]


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] {criterion}: {status}  {detail}")
    assert ok, f"{criterion} failed: {detail}"


@pytest.fixture(scope="module")
def mix():
    return mixture(DELTA)


@pytest.fixture(scope="module")
def mix_ladder(mix):
    return NormalizationLadder(mix, 256, n_grid=2**15)


@pytest.fixture(scope="module")
def families(mix_ladder):
    return {n: ConditionedFamily(mix_ladder, n) for n in N_SWEEP}


def test_01_spectral_gap_small_n():
    worst = max(abs(exact_gap_smalln(n) - spectral_gap(n)) for n in (3, 4, 5))
    report("01 spectral gap N=3,4,5", worst < 1e-6, f"max err {worst:.2e}")


def test_02_local_clt(mix):
    sups = [row[2] for row in clt_envelope(mix, N_SWEEP)]
    decreasing = bool(np.all(np.diff(sups) < 0))
    small = sups[-1] < 0.05
    # n_max = 96 puts u = 1.5 * 64 below the horizon; 3 * 2^17 cells give
    # du = 5.97e-4, finer than 2^18 cells up to n_max = 64 (6.76e-4)
    gauss = NormalizationLadder(gaussian(1.0), 96, n_grid=3 * 2**17)
    worst = 0.0
    for n in (2, 3, 4, 8, 16, 32, 64):
        for u in (0.5 * n, 1.0 * n, 1.5 * n):
            exact = -0.5 * n * np.log(2.0 * np.pi) - 0.5 * u
            worst = max(worst, abs(float(gauss.log_z(n, u)) - exact)
                        / abs(exact))
    report("02 local CLT envelope + Gaussian ladder",
           decreasing and small and worst < 1e-6,
           f"sups {np.round(sups, 4).tolist()}, gauss rel {worst:.2e}")


def test_03_entropic_chaoticity(mix, families):
    h_lim = gaussian_relative_entropy(mix.values, mix.nodes,
                                      mix.quadrature_weights)
    v = np.linspace(0.0, mix.v_max, 513)
    d_lim = limit_production(mix(v), v, 0.0)
    h_gaps, d_gaps = [], []
    for n in N_SWEEP:
        fam = families[n]
        h_gaps.append(abs(fam.entropy() / n - h_lim) / h_lim)
        d = fam.production(0.0)
        d_gaps.append(abs(2.0 * d / (n * d_lim) - 1.0))
    ok = (h_gaps[-1] < 0.05 and d_gaps[-1] < 0.10
          and bool(np.all(np.diff(h_gaps) < 0))
          and bool(np.all(np.diff(d_gaps) < 0)))
    report("03 entropic chaoticity at N=256", ok,
           f"H gap {h_gaps[-1]:.3f}, D gap {d_gaps[-1]:.3f}")


def test_04_villani_floor(mix, families):
    # the sweep itself asserts the bound internally; verify explicitly too
    rows = gamma_ratio_sweep(mix, 0.0, N_SWEEP)
    margins = [r.ratio - villani_floor(r.n) for r in rows]
    report("04 Villani lower bound", all(m >= 0 for m in margins),
           f"min margin {min(margins):.4f}")


def test_05_gap_decay_schedule():
    rows = gamma_ratio_sweep(lambda n: mixture(n ** (-0.8)), 0.0,
                             [64, 128, 256, 512, 1024])
    slope = fit_loglog_slope([r.n for r in rows], [r.ratio for r in rows])
    report("05 entropic gap decay slope", slope <= -0.5, f"slope {slope:.3f}")


def test_06_cercignani_failure():
    deltas = [0.1, 0.03, 0.01, 0.003]
    ratios = []
    for d in deltas:
        f = mixture(d)
        v = np.linspace(0.0, f.v_max, 513)
        ratios.append(cercignani_ratio(f(v), v, 0.0))
    decreasing = bool(np.all(np.diff(ratios) < 0))
    shape = [d * np.log(1.0 / d) for d in deltas]
    # single constant covering the whole sweep (sup fit)
    big_k = max(r / s for r, s in zip(ratios, shape))
    bounded = np.isfinite(big_k) and all(
        r <= big_k * s * (1.0 + 1e-9) for r, s in zip(ratios, shape))
    report("06 Cercignani-ratio collapse", decreasing and bounded,
           f"ratios {np.round(ratios, 4).tolist()}, K {big_k:.2f}")


@pytest.fixture(scope="module")
def witness():
    return LogPowerWitness(delta=DELTA, beta=1.0, k=3.0)


@pytest.fixture(scope="module")
def envelope(witness):
    return logpower_envelope(witness, N_SWEEP)


def test_07_rescaled_inequality(witness, envelope):
    reports = rescaled_inequality_check(0.5, witness, envelope)
    grid_ok = all(r.lambda_grid_ok for r in reports)
    final_ok = all(r.final_holds for r in reports)
    worst = min(r.final_lhs / r.final_rhs for r in reports)
    report("07 rescaled inequality (gamma=0.5, beta=1, k=3)",
           grid_ok and final_ok, f"min lhs/rhs {worst:.1f}")


def test_08_logpower_envelope(envelope):
    applicable = [r for r in envelope if r.applicable]
    ok = len(applicable) > 0 and all(r.holds for r in applicable)
    report("08 log-power envelope (beta=1)", ok,
           f"{len(applicable)}/{len(envelope)} applicable, "
           f"max measured {max(r.measured for r in envelope):.4f}")


def test_09_h_theorem():
    results = []
    for gamma, dt in ((0.0, 0.01), (0.5, 0.005)):
        sol = LimitSolver(mixture(DELTA), gamma, v_max=8.0, nodes=257)
        e0 = sol.energy()
        rec = sol.evolve(5.0, dt, record_every=max(1, int(0.1 / dt)))
        drift = max(abs(sol.mass() - 1.0), abs(sol.energy() - e0))
        t = np.array(rec.times)
        h = np.array(rec.entropy)
        d = np.array(rec.production)
        noninc = bool(np.all(np.diff(h) <= 1e-12))
        dh = np.gradient(h, t)
        errs = [abs(dh[i] + d[i] / 2.0) / d[i]
                for i in (np.argmin(np.abs(t - ts)) for ts in (0.5, 1.0, 2.0))]
        results.append((gamma, drift, noninc, max(errs)))
    ok = all(drift < 1e-6 and noninc and err < 0.02
             for _, drift, noninc, err in results)
    report("09 H-theorem and dissipation identity", ok,
           "; ".join(f"g={g}: drift {dr:.1e}, id err {er:.4f}"
                     for g, dr, _, er in results))


def test_10_chaos_bridge(mix):
    sol = LimitSolver(mix, 0.0, v_max=8.0, nodes=257)
    sol.evolve(1.0, 0.01, record_every=0)
    pde = sol.density()
    rng = np.random.default_rng(2024)
    dists = []
    for n in (64, 512):
        fam = ConditionedFamily(mix, n)
        init = fam.sample(200, rng)
        cfg = SimulationConfig(n=n, gamma=0.0, t_final=1.0, seed=11)
        states = simulate_ensemble(cfg, 200, initial=init, seed=11)
        dists.append(wasserstein_distance(
            np.ravel(states), pde.nodes,
            v_weights=pde.values * pde.quadrature_weights))
    ok = dists[-1] < 0.05 and dists[1] < dists[0]
    report("10 propagation-of-chaos bridge", ok,
           f"W1(64) {dists[0]:.4f} -> W1(512) {dists[1]:.4f}")


def test_11_oracle_equivalence():
    fam = ConditionedFamily(mixture(0.3), 8)
    rng = np.random.default_rng(77)
    h_b, d_b, x_b, x, y = [], [], [], [], []
    for _ in range(10):
        draws = fam.sample(100_000, rng)
        h_b.append(fam.entropy_monte_carlo(100_000, rng, velocities=draws))
        d_b.append(fam.production_monte_carlo(0.5, 100_000, rng,
                                              velocities=draws))
        sq = draws * draws
        x.append(np.stack([np.sum(sq * sq, axis=1),
                           np.sum(sq * sq * sq, axis=1)], axis=1))
        x_b.append(x[-1].mean(axis=0))
        y.append(np.sum(np.log(fam.f(draws)), axis=1))
    # control variates: sum log f(v_i) regressed on sum v_i^4 and
    # sum v_i^6, whose means are N times the first marginal's moments
    x, y = np.concatenate(x), np.concatenate(y)
    coef = np.linalg.lstsq(x - x.mean(axis=0), y - y.mean(), rcond=None)[0]
    mean_x = fam.n * np.array([fam.marginal_moment(4), fam.marginal_moment(6)])
    h_cv = np.array(h_b) - (np.array(x_b) - mean_x) @ coef
    h_q = fam.entropy()
    d_q = fam.production(0.5)

    def rel_z(batches, exact):
        """Relative error of the batch mean and the error in batch
        standard errors over the 10 batches."""
        err = np.mean(batches) - exact
        return (abs(err) / abs(exact),
                err / (np.std(batches, ddof=1) / np.sqrt(len(batches))))

    (h_err, h_z), (h_plain, h_plain_z) = rel_z(h_cv, h_q), rel_z(h_b, h_q)
    d_err, d_z = rel_z(d_b, d_q)
    report("11 quadrature vs Monte Carlo at N=8",
           h_err < 0.02 and d_err < 0.02,
           f"H rel {h_err:.4f} (z {h_z:.2f}; plain {h_plain:.4f}, "
           f"z {h_plain_z:.2f}), D rel {d_err:.4f} (z {d_z:.2f})")
