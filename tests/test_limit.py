"""Limit-equation solver: collision operator, H-theorem, Cercignani ratio."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.interpolate import BSpline, CubicSpline, make_interp_spline
from scipy.linalg import lapack

from kaclab.densities import gaussian, mixture
from kaclab.errors import AccuracyError, ConfigurationError
import kaclab.limit_eq as limit_eq
from kaclab.limit_eq import (LimitSolver, _CubicFit, _operator_geometry,
                             _production_geometry, cercignani_ratio,
                             collision_operator, limit_production)
from kaclab.quadrature import (ANGLES, fold, gauss_legendre,
                               half_grid_weights, quadrant_angles)


def maxwellian(v):
    return np.exp(-0.5 * v * v) / np.sqrt(2.0 * np.pi)


# -- direct references: every angle, the full w grid, no cached geometry --


def _even_spline(f_vals, v):
    spline = CubicSpline(v, np.maximum(f_vals, 0.0))

    def fx(x):
        out = np.zeros_like(x)
        mask = np.abs(x) <= v[-1]
        out[mask] = np.maximum(spline(np.abs(x[mask])), 0.0)
        return out

    return fx


def reference_operator(f_vals, v, gamma, angle_nodes):
    fx = _even_spline(f_vals, v)
    dv = v[1] - v[0]
    r_grid = np.linspace(0.0, np.sqrt(2.0) * v[-1], 4 * len(v))
    th = 2.0 * np.pi * (np.arange(angle_nodes) + 0.5) / angle_nodes
    a_of_r = (fx(np.outer(r_grid, np.cos(th)))
              * fx(np.outer(r_grid, np.sin(th)))).mean(axis=1)
    a_interp = CubicSpline(r_grid, a_of_r)
    w = np.concatenate([-v[:0:-1], v])
    fw = np.concatenate([f_vals[:0:-1], f_vals])
    ww = np.full(w.shape, dv)
    ww[0] = ww[-1] = 0.5 * dv
    vv = v[:, None]
    wwg = w[None, :]
    gain = np.maximum(a_interp(np.sqrt(vv * vv + wwg * wwg)), 0.0)
    loss = f_vals[:, None] * fw[None, :]
    rate = (1.0 + vv * vv + wwg * wwg) ** gamma
    return 2.0 * np.sum(rate * (gain - loss) * ww[None, :], axis=1)


def reference_production(f_vals, v, gamma, angle_nodes):
    fx = _even_spline(f_vals, v)
    x, ws = np.polynomial.legendre.leggauss(256)
    s_max = 2.0 * v[-1] ** 2
    s = 0.5 * s_max * (x + 1.0)
    ws = 0.5 * s_max * ws
    phi = 2.0 * np.pi * (np.arange(angle_nodes) + 0.5) / angle_nodes
    dphi = 2.0 * np.pi / angle_nodes
    r = np.sqrt(s)
    p = fx(np.outer(r, np.cos(phi))) * fx(np.outer(r, np.sin(phi)))
    logp = np.where(p > 0, np.log(np.maximum(p, 1e-300)), 0.0)
    pair = 2.0 * (angle_nodes * np.sum(p * logp, axis=1)
                  - np.sum(p, axis=1) * np.sum(logp, axis=1))
    shell = (1.0 + s) ** gamma * pair * dphi * dphi
    return float(np.sum(ws * shell) / (2.0 * np.pi) * 0.5)


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("delta", [0.25, 0.1])
def test_operator_matches_unfolded_reference(gamma, delta):
    v = np.linspace(0.0, 8.0, 33)
    f_vals = mixture(delta)(v)
    ref = reference_operator(f_vals, v, gamma, 256)
    q = collision_operator(f_vals, v, gamma)
    assert np.max(np.abs(q - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("delta", [0.25, 0.1])
def test_production_matches_unfolded_reference(gamma, delta):
    v = np.linspace(0.0, 8.0, 33)
    f_vals = mixture(delta)(v)
    ref = reference_production(f_vals, v, gamma, 256)
    d = limit_production(f_vals, v, gamma)
    assert d == pytest.approx(ref, rel=1e-12)


# -- the operator as computed with per-call spline fits: the full quadrant
# row mean, the n^2 gather of the pair gains, the outer-product loss and an
# einsum; the cached maps must reproduce it to rounding --


def _spline_at(knots, vals, points):
    spline = make_interp_spline(knots, vals, k=3)
    return BSpline.design_matrix(points, spline.t, 3, extrapolate=True) @ spline.c


def gather_operator(f_vals, v, gamma):
    n = len(v)
    radii = np.linspace(0.0, np.sqrt(2.0) * v[-1], 4 * n)
    x = np.outer(radii, np.cos(quadrant_angles(ANGLES))).ravel()
    e = (x <= v[-1]) * _spline_at(v, np.maximum(f_vals, 0.0), x)
    a_of_r = fold(np.maximum(e, 0.0).reshape(len(radii), -1)).mean(axis=1)
    sq = v * v
    upper_i, upper_j = np.triu_indices(n)
    pair_gain = _spline_at(radii, a_of_r, np.sqrt(sq[upper_i] + sq[upper_j]))
    gain = np.empty((n, n))
    gain[upper_i, upper_j] = gain[upper_j, upper_i] = np.maximum(pair_gain, 0.0)
    gain -= np.multiply.outer(f_vals, f_vals)
    rate_weights = ((1.0 + sq[:, None] + sq[None, :]) ** gamma
                    * half_grid_weights(v))
    return 2.0 * np.einsum("ij,ij->i", rate_weights, gain)


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("delta", [0.25, 0.1])
def test_operator_matches_per_call_fits(gamma, delta):
    v = np.linspace(0.0, 8.0, 257)
    f_vals = mixture(delta)(v)
    q = collision_operator(f_vals, v, gamma)
    assert np.max(np.abs(q - gather_operator(f_vals, v, gamma))) <= 1e-15


def test_cached_fits_are_make_interp_spline_bit_for_bit():
    solver = LimitSolver(mixture(0.25), 0.5)
    geo = _operator_geometry(solver.v, 0.5)
    assert (len(solver.v), len(geo.fold.radii)) == (257, 1028)
    for steps in (0, 20):
        for _ in range(steps):
            solver.step(0.01)
        vals = np.maximum(solver.vals, 0.0)
        assert np.array_equal(geo.fold.fit(vals),
                              make_interp_spline(solver.v, vals, k=3).c)
        a_of_r = geo.fold.angle_mean(solver.vals)
        assert np.array_equal(geo.radial_fit(a_of_r),
                              make_interp_spline(geo.fold.radii, a_of_r,
                                                 k=3).c)


def test_cubic_fit_failures_are_typed(monkeypatch):
    with pytest.raises(ConfigurationError):
        _CubicFit(np.linspace(0.0, 1.0, 3))
    monkeypatch.setattr(lapack, "dgbtrf",
                        lambda band, kl, ku: (band, np.zeros(9, np.int32), 4))
    with pytest.raises(AccuracyError, match="singular"):
        _CubicFit(np.linspace(0.0, 1.0, 9))


def test_geometry_cache_keys():
    v = np.linspace(0.0, 8.0, 33)
    geo = _operator_geometry(v, 0.5)
    assert _operator_geometry(v.copy(), 0.5) is geo
    assert _operator_geometry(v, 0.0) is not geo
    assert _operator_geometry(2.0 * v, 0.5) is not geo
    # the radial fold, its fit and A(r)'s fit depend on the grid alone, and
    # the production fold shares the profile fit
    assert _operator_geometry(v, 0.0).fold is geo.fold
    assert _operator_geometry(v, 0.0).radial_fit is geo.radial_fit
    production_fold = _production_geometry(v)[0]
    assert production_fold.fit is geo.fold.fit
    assert _production_geometry(v.copy()) is _production_geometry(v)
    assert _production_geometry(2.0 * v) is not _production_geometry(v)
    for fit in (geo.fold.fit, geo.radial_fit):
        for part in (fit.t, fit.lu, fit.pivots):
            assert not part.flags.writeable
    assert not geo.pair_i.flags.writeable
    assert not geo.pair_j.flags.writeable
    for design in (geo.gain, geo.rates, geo.fold.design,
                   production_fold.design):
        for part in (design.data, design.indices, design.indptr):
            assert not part.flags.writeable
    assert gauss_legendre(160) is gauss_legendre(160)
    assert not gauss_legendre(160)[0].flags.writeable


def test_operator_is_a_pure_function_of_its_input():
    v = np.linspace(0.0, 8.0, 257)
    f, g = mixture(0.25)(v), maxwellian(v)
    first = collision_operator(f, v, 0.5)
    kept = first.copy()
    serial_g = collision_operator(g, v, 0.5)
    third = collision_operator(f, v, 0.5)
    assert np.array_equal(first, kept)
    assert np.array_equal(third, first)
    assert third is not first
    # two threads on one cached geometry
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = [pool.submit(lambda x=x: [collision_operator(x, v, 0.5)
                                          for _ in range(20)])
                for x in (f, g)]
        for serial, run in zip((first, serial_g), runs):
            assert all(np.array_equal(q, serial) for q in run.result())


def test_operator_vanishes_at_equilibrium():
    v = np.linspace(0.0, 8.0, 257)
    q = collision_operator(maxwellian(v), v, 0.5)
    assert np.max(np.abs(q)) < 1e-6


def test_operator_conserves_mass_and_energy():
    f = mixture(0.25)
    v = np.linspace(0.0, 8.0, 257)
    dv = v[1] - v[0]
    w = np.full(v.shape, 2.0 * dv)
    w[0] = w[-1] = dv
    for gamma in (0.0, 0.5):
        q = collision_operator(f(v), v, gamma)
        assert abs(np.sum(q * w)) < 1e-8
        assert abs(np.sum(v * v * q * w)) < 1e-6


def test_equilibrium_is_stationary():
    solver = LimitSolver(gaussian(1.0), 0.0, v_max=8.0, nodes=257)
    before = solver.vals.copy()
    solver.evolve(1.0, 0.02, record_every=0)
    assert np.max(np.abs(solver.vals - before)) < 1e-6


def test_fourth_moment_law_at_gamma_zero():
    # m4(t) = 3 + (m4(0) - 3) exp(-t/2) for the Kac limit at gamma = 0
    solver = LimitSolver(mixture(0.25), 0.0, v_max=8.0, nodes=257)

    def moment(k):
        g = solver.density()
        return float(np.sum(g.nodes**k * g.values * g.quadrature_weights))

    m4_0, m6_0 = moment(4), moment(6)
    solver.evolve(1.0, 0.01, record_every=0)
    assert moment(4) == pytest.approx(3.0 + (m4_0 - 3.0) * np.exp(-0.5),
                                      abs=1e-4)
    # m6' = -(3/4) m6 + (15/4) m4, the N -> infinity limit of the p6 law
    a = m4_0 - 3.0
    m6_law = (15.0 + 15.0 * a * np.exp(-0.5)
              + (m6_0 - 15.0 - 15.0 * a) * np.exp(-0.75))
    assert moment(6) == pytest.approx(m6_law, rel=1e-4)


def test_mass_drift_shows_a_leaking_operator(monkeypatch):
    # the per-step renormalisation must not hide mass the operator loses
    exact = limit_eq.collision_operator
    rec = LimitSolver(mixture(0.25), 0.0).evolve(0.1, 0.01, record_every=0)
    assert rec.mass_drift[-1] < 1e-7
    eps = 1e-2
    monkeypatch.setattr(limit_eq, "collision_operator",
                        lambda f, v, gamma: exact(f, v, gamma) - eps * f)
    rec = LimitSolver(mixture(0.25), 0.0).evolve(0.1, 0.01, record_every=0)
    assert rec.mass_drift[-1] == pytest.approx(1.0 - np.exp(-eps * 0.1),
                                               rel=1e-3)


def test_nonfinite_inputs_are_typed():
    # an infinite t_final or dt would overflow or divide by zero steps
    solver = LimitSolver(mixture(0.25), 0.0, nodes=17)
    for t_final, dt in [(np.inf, 0.01), (1.0, np.inf), (np.nan, 0.01),
                        (1.0, np.nan)]:
        with pytest.raises(ConfigurationError, match="finite"):
            solver.evolve(t_final, dt)
    assert solver.time == 0.0
    for v_max in (np.inf, np.nan):
        with pytest.raises(ConfigurationError, match="v_max"):
            LimitSolver(mixture(0.25), 0.0, v_max=v_max)


def test_entropy_decays_monotonically():
    solver = LimitSolver(mixture(0.25), 0.0, v_max=8.0, nodes=257)
    rec = solver.evolve(1.0, 0.01, record_every=10)
    assert np.all(np.diff(rec.entropy) <= 1e-12)
    assert rec.entropy[-1] < rec.entropy[0]


def test_dissipation_identity():
    solver = LimitSolver(mixture(0.25), 0.0, v_max=8.0, nodes=257)
    rec = solver.evolve(1.0, 0.01, record_every=5)
    t = np.array(rec.times)
    h = np.array(rec.entropy)
    d = np.array(rec.production)
    dh = np.gradient(h, t)
    rel = np.abs(dh[2:-2] + d[2:-2] / 2.0) / d[2:-2]
    assert np.max(rel) < 0.02


def test_limit_production_zero_at_equilibrium():
    v = np.linspace(0.0, 8.0, 257)
    assert limit_production(maxwellian(v), v, 0.5) == pytest.approx(
        0.0, abs=1e-8)


def test_limit_production_monotone_in_gamma():
    f = mixture(0.25)
    v = np.linspace(0.0, f.v_max, 513)
    d0 = limit_production(f(v), v, 0.0)
    d1 = limit_production(f(v), v, 1.0)
    assert 0 < d0 < d1


def test_limit_production_grid_refinement():
    f = mixture(0.25)
    v1 = np.linspace(0.0, f.v_max, 257)
    v2 = np.linspace(0.0, f.v_max, 513)
    # against the unfolded reference on twice the nodes and angles
    a = limit_production(f(v1), v1, 0.5)
    b = reference_production(f(v2), v2, 0.5, 512)
    assert a == pytest.approx(b, rel=1e-3)


def test_cercignani_ratio_guard_at_equilibrium():
    v = np.linspace(0.0, 8.0, 257)
    with pytest.raises(AccuracyError):
        cercignani_ratio(maxwellian(v), v)


def test_cercignani_ratio_rejects_an_unresolved_production():
    # D_gamma integrates psi >= 0; four nodes give D < 0 for mixture(0.1)
    f = mixture(0.1)
    v = np.linspace(0.0, f.v_max, 4)
    with pytest.raises(AccuracyError, match=r"D=-.* H=.* 4 nodes"):
        cercignani_ratio(f(v), v)


def test_cercignani_ratio_shrinks_with_delta():
    ratios = []
    for d in (0.1, 0.03):
        f = mixture(d)
        v = np.linspace(0.0, f.v_max, 513)
        ratios.append(cercignani_ratio(f(v), v))
    assert ratios[0] > ratios[1] > 0


def test_unstable_step_raises():
    solver = LimitSolver(mixture(0.25), 1.0, v_max=8.0, nodes=257)
    with pytest.raises(AccuracyError):
        solver.evolve(1.0, 0.5, record_every=0)
    # a step that overflows to NaN is caught by the same budget
    solver = LimitSolver(mixture(0.25), 1.0, v_max=8.0, nodes=257)
    with np.errstate(all="ignore"), pytest.raises(AccuracyError):
        solver.evolve(1e30, 1e30, record_every=0)


def test_density_export_round_trip():
    solver = LimitSolver(mixture(0.25), 0.0, v_max=8.0, nodes=257)
    g = solver.density()
    assert np.sum(g.values * g.quadrature_weights) == pytest.approx(1.0,
                                                                    abs=1e-8)
    # the export is the solver's profile at +-v, node for node
    m = solver.v.size
    assert np.array_equal(g.nodes[m - 1:], solver.v)
    assert np.array_equal(g.nodes[:m], -solver.v[::-1])
    assert np.array_equal(g.values[m - 1:], solver.vals)
    assert np.array_equal(g.values[:m], solver.vals[::-1])
    # a table only: it has no pdf to call
    with pytest.raises(ConfigurationError, match="limit"):
        g(solver.v)
