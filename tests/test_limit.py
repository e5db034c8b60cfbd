"""Limit-equation solver: collision operator, H-theorem, Cercignani ratio."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from kaclab.densities import gaussian, mixture
from kaclab.errors import AccuracyError, ConfigurationError
import kaclab.limit_eq as limit_eq
from kaclab.limit_eq import (LimitSolver, _operator_geometry,
                             _production_geometry, cercignani_ratio,
                             collision_operator, gauss_legendre,
                             limit_production, suggested_dt)


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
    ref = reference_operator(f_vals, v, gamma, 16)
    q = collision_operator(f_vals, v, gamma, angle_nodes=16)
    assert np.max(np.abs(q - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("delta", [0.25, 0.1])
def test_production_matches_unfolded_reference(gamma, delta):
    v = np.linspace(0.0, 8.0, 33)
    f_vals = mixture(delta)(v)
    ref = reference_production(f_vals, v, gamma, 16)
    d = limit_production(f_vals, v, gamma, angle_nodes=16)
    assert d == pytest.approx(ref, rel=1e-12)


def test_angle_nodes_must_be_a_multiple_of_four():
    v = np.linspace(0.0, 8.0, 33)
    f_vals = mixture(0.25)(v)
    with pytest.raises(ConfigurationError):
        LimitSolver(mixture(0.25), 0.0, nodes=33, angle_nodes=30)
    with pytest.raises(ConfigurationError):
        limit_production(f_vals, v, 0.0, angle_nodes=30)
    with pytest.raises(ConfigurationError):
        collision_operator(f_vals, v, 0.0, angle_nodes=30)


def test_geometry_cache_keys():
    v = np.linspace(0.0, 8.0, 33)
    geo = _operator_geometry(v, 0.5, 16)
    assert _operator_geometry(v.copy(), 0.5, 16) is geo
    assert _operator_geometry(v, 0.0, 16) is not geo
    assert _operator_geometry(v, 0.5, 32) is not geo
    assert _production_geometry(v.copy(), 16) is _production_geometry(v, 16)
    assert not geo.rate_weights.flags.writeable
    assert gauss_legendre(160) is gauss_legendre(160)
    assert not gauss_legendre(160)[0].flags.writeable


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

    def m4():
        g = solver.density()
        return float(np.sum(g.nodes**4 * g.values * g.quadrature_weights))

    m4_0 = m4()
    solver.evolve(1.0, 0.01, record_every=0)
    assert m4() == pytest.approx(3.0 + (m4_0 - 3.0) * np.exp(-0.5), abs=1e-4)


def test_mass_drift_shows_a_leaking_operator(monkeypatch):
    # the per-step renormalisation must not hide mass the operator loses
    exact = limit_eq.collision_operator
    rec = LimitSolver(mixture(0.25), 0.0).evolve(0.1, 0.01, record_every=0)
    assert rec.mass_drift[-1] < 1e-7
    eps = 1e-2
    monkeypatch.setattr(limit_eq, "collision_operator",
                        lambda f, v, gamma, nodes: exact(f, v, gamma, nodes)
                        - eps * f)
    rec = LimitSolver(mixture(0.25), 0.0).evolve(0.1, 0.01, record_every=0)
    assert rec.mass_drift[-1] == pytest.approx(1.0 - np.exp(-eps * 0.1),
                                               rel=1e-3)


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
    a = limit_production(f(v1), v1, 0.5)
    b = limit_production(f(v2), v2, 0.5, angle_nodes=512)
    assert a == pytest.approx(b, rel=1e-3)


def test_cercignani_ratio_guard_at_equilibrium():
    v = np.linspace(0.0, 8.0, 257)
    with pytest.raises(AccuracyError):
        cercignani_ratio(maxwellian(v), v)


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


def test_suggested_dt_scaling():
    assert suggested_dt(0.0, 8.0) == pytest.approx(0.25)
    assert suggested_dt(1.0, 8.0) < suggested_dt(0.5, 8.0) < 0.25


def test_density_export_round_trip():
    solver = LimitSolver(mixture(0.25), 0.0, v_max=8.0, nodes=257)
    g = solver.density()
    assert g.mass() == pytest.approx(1.0, abs=1e-8)
    assert np.allclose(g(np.array([0.3])), solver.vals[np.newaxis, 0], atol=1.0)
