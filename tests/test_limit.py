"""Limit-equation solver: collision operator, H-theorem, Cercignani ratio."""

from concurrent.futures import ThreadPoolExecutor
from math import comb

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import BSpline, CubicSpline, make_interp_spline
from scipy.linalg import lapack
from scipy.sparse import diags_array

from kaclab.densities import from_callable, gaussian, mixture
from kaclab.errors import AccuracyError, ConfigurationError
import kaclab.limit_eq as limit_eq
from kaclab.limit_eq import (LimitSolver, _CubicFit, _gain_pairs,
                             _operator_geometry, _production_geometry,
                             _QuadrantFold, _radial_fold, cercignani_ratio,
                             collision_operator, limit_production)
from kaclab.process import _half_integer_moment
from kaclab.quadrature import (ANGLES, gauss_legendre,
                               half_grid_weights, pair_kernel,
                               polar_integral, polar_shells, quadrant_points)


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
# row mean, the n^2 gather of the clamped pair gains, the outer-product loss
# and an einsum; the cached maps must reproduce it to rounding --


def _spline_at(knots, vals, points):
    spline = make_interp_spline(knots, vals, k=3)
    return BSpline.design_matrix(points, spline.t, 3, extrapolate=True) @ spline.c


def gather_operator(f_vals, v, gamma):
    n = len(v)
    radii = np.linspace(0.0, np.sqrt(2.0) * v[-1], 4 * n)
    points = quadrant_points(radii)
    x = points.ravel()
    e = (x <= v[-1]) * _spline_at(v, np.maximum(f_vals, 0.0), x)
    e = np.maximum(e, 0.0).reshape(points.shape)
    a_of_r = (e[0] * e[1]).mean(axis=1)
    sq = v * v
    upper_i, upper_j = np.triu_indices(n)
    pair_gain = _spline_at(radii, a_of_r, np.sqrt(sq[upper_i] + sq[upper_j]))
    gain = np.empty((n, n))
    gain[upper_i, upper_j] = gain[upper_j, upper_i] = np.maximum(pair_gain, 0.0)
    gain -= np.multiply.outer(f_vals, f_vals)
    rate_weights = ((1.0 + sq[:, None] + sq[None, :]) ** gamma
                    * half_grid_weights(v))
    return 2.0 * np.einsum("ij,ij->i", rate_weights, gain)


# the dense gain map sums the gain in another order than the gather, and
# gain and loss as two sums; the largest error measured is 1.44e-15
PER_CALL_PIN = 5e-15


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("delta", [0.25, 0.1, 0.003])
def test_operator_matches_per_call_fits(gamma, delta):
    v = np.linspace(0.0, 8.0, 257)
    f_vals = mixture(delta)(v)
    q = collision_operator(f_vals, v, gamma)
    assert (np.max(np.abs(q - gather_operator(f_vals, v, gamma)))
            <= PER_CALL_PIN)


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("delta", [0.25, 0.1, 0.003])
def test_clamp_correction_reaches_every_negative_gain(gamma, delta):
    # the A-spline by scipy at every pair v_i <= v_j: each negative value
    # lies in the suffix of pairs the correction evaluates
    v = np.linspace(0.0, 8.0, 257)
    f_vals = mixture(delta)(v)
    geo = _operator_geometry(v, gamma)
    a_of_r = geo.fold.angle_mean(f_vals)
    c = geo.radial_fit(a_of_r)
    upper_i, upper_j = np.triu_indices(len(v))
    sq = v * v
    gains = _spline_at(geo.fold.radii, a_of_r,
                       np.sqrt(sq[upper_i] + sq[upper_j]))
    negative = gains < 0.0
    assert 0 < negative.sum() <= 4
    pairs = geo.pairs
    start = limit_eq._clamp_suffix(pairs, c)
    suffix = set(zip(pairs.i[start:].tolist(), pairs.j[start:].tolist()))
    assert set(zip(upper_i[negative].tolist(),
                   upper_j[negative].tolist())) <= suffix
    assert len(suffix) < 100


def test_operator_misses_the_pin_without_the_clamp_correction(monkeypatch):
    v = np.linspace(0.0, 8.0, 257)
    f_vals = mixture(0.1)(v)
    want = gather_operator(f_vals, v, 1.0)
    assert (np.max(np.abs(collision_operator(f_vals, v, 1.0) - want))
            <= PER_CALL_PIN)
    monkeypatch.setattr(limit_eq, "_clamp_correction", lambda *args: None)
    assert (np.max(np.abs(collision_operator(f_vals, v, 1.0) - want))
            > PER_CALL_PIN)


@pytest.mark.parametrize("nodes", [257, 513])
def test_fold_products_are_the_row_order_fold_bit_for_bit(nodes):
    # the design on the quadrant points as quadrant_points stacks them,
    # each point masked on its own; the folded products E[0] E[1] are
    # products() bit for bit, and so give the same limit production
    v = np.linspace(0.0, 8.0, nodes)
    f_vals = mixture(0.1)(v)
    for quadrant in (_radial_fold(v), _production_geometry(v)[0]):
        points = quadrant_points(quadrant.radii)
        x = points.ravel()
        design = diags_array((x <= v[-1]) * 1.0) @ quadrant.fit.design(x)
        e = np.maximum(design @ quadrant.fit(np.maximum(f_vals, 0.0)), 0.0)
        e = e.reshape(points.shape)
        want = e[0] * e[1]
        got = quadrant.products(f_vals)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    _, s, ws = _production_geometry(v)
    want = polar_integral(ws, (1.0 + s) ** 0.5, pair_kernel(want), ANGLES)
    assert limit_production(f_vals, v, 0.5) == want


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
    # the knot vector and the design matrices are scipy's, data, int32
    # indices and all, on the knots, between them, at 0 and past the end
    for n in (4, 257, 513, 1028):
        knots = np.linspace(0.0, 8.0, n)
        fit = _CubicFit(knots)
        assert np.array_equal(fit.t, make_interp_spline(knots, knots).t)
        points = np.concatenate([knots, [0.0], np.linspace(0.1, 7.9, 3 * n),
                                 8.0 + np.array([1e-12, 0.5, 3.0])])
        got = fit.design(points)
        want = BSpline.design_matrix(points, fit.t, 3, extrapolate=True)
        assert got.shape == want.shape
        for part in ("data", "indices", "indptr"):
            assert getattr(got, part).dtype == getattr(want, part).dtype
            assert np.array_equal(getattr(got, part), getattr(want, part))


def test_cubic_fit_failures_are_typed(monkeypatch):
    with pytest.raises(ConfigurationError):
        _CubicFit(np.linspace(0.0, 1.0, 3))
    # a grid make_interp_spline rejects: two interior nodes swapped, a
    # repeated node, a NaN node, two dimensions
    v = np.linspace(0.0, 8.0, 33)
    swapped, repeated, nan = v.copy(), v.copy(), v.copy()
    swapped[[10, 11]] = swapped[[11, 10]]
    repeated[11] = repeated[10]
    nan[12] = np.nan
    for bad in (swapped, repeated, nan, v.reshape(3, 11)):
        with pytest.raises(ValueError, match="strictly increasing"):
            _CubicFit(bad)
    f_vals = mixture(0.25)(swapped)
    with pytest.raises(ValueError, match="strictly increasing"):
        cercignani_ratio(f_vals, swapped)
    with pytest.raises(ValueError, match="strictly increasing"):
        limit_production(f_vals, swapped, 0.5)
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
    # the radial fold, its fit, A(r)'s fit and the correction's pair table
    # depend on the grid alone, and the production fold shares the profile
    # fit
    assert _operator_geometry(v, 0.0).fold is geo.fold
    assert _operator_geometry(v, 0.0).radial_fit is geo.radial_fit
    assert _operator_geometry(v, 0.0).pairs is geo.pairs
    assert geo.pairs is _gain_pairs(v.copy())
    assert _operator_geometry(v, 0.0).gain is not geo.gain
    production_fold = _production_geometry(v)[0]
    assert production_fold.fit is geo.fold.fit
    assert _production_geometry(v.copy()) is _production_geometry(v)
    assert _production_geometry(2.0 * v) is not _production_geometry(v)
    for fit in (geo.fold.fit, geo.radial_fit):
        for part in (fit.t, fit.lu, fit.pivots):
            assert not part.flags.writeable
    # the dense maps and the pair table: n x 4n, n x n, and per pair i <= j
    # its four B-spline values and their first index, int32
    n, pairs = len(v), geo.pairs
    assert geo.gain.shape == (n, 4 * n) and geo.kernel.shape == (n, n)
    assert pairs.basis.shape == (n * (n + 1) // 2, 4)
    assert np.all(pairs.basis >= 0.0) and np.all(np.diff(pairs.first) >= 0)
    for part in (geo.gain, geo.kernel, pairs.first, pairs.basis, pairs.i,
                 pairs.j):
        assert not part.flags.writeable
    assert {part.dtype for part in (pairs.first, pairs.i, pairs.j)} == {
        np.dtype(np.int32)}
    for design in (geo.fold.design, production_fold.design):
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


def moment_hierarchy(m0, times):
    """m_0, m_2, ..., m_12 of the gamma = 0 limit equation at times.

    The angle average of (v cos th + w sin th)^{2k} gives
    dm_{2k}/dt = 2 (sum_j C(2k, 2j) c_{j,k-j} m_{2j} m_{2k-2j} - m_{2k}),
    c_{p,q} = (1/2pi) int cos^{2p} sin^{2q}; only j = 0 and j = k hold
    m_{2k}, so the system closes at every order (McKean 1966).
    """
    coef = [[comb(2 * k, 2 * j) * _half_integer_moment(2 * j, 2 * (k - j))
             for j in range(k + 1)] for k in range(len(m0))]

    def rhs(t, m):
        return [2.0 * (sum(c * m[j] * m[k - j] for j, c in enumerate(row))
                       - m[k]) for k, row in enumerate(coef)]

    return solve_ivp(rhs, (0.0, times[-1]), m0, method="DOP853",
                     t_eval=times, rtol=1e-13, atol=0.0).y.T


def test_even_moments_follow_the_closed_hierarchy_at_gamma_zero():
    # v_max = 12 cuts the hot component of mixture(0.25) at 8.5 standard
    # deviations, so m_2 ... m_12 are resolved to well below the bound
    solver = LimitSolver(mixture(0.25), 0.0, v_max=12.0, nodes=513)

    def even_moments():
        g = solver.density()
        return np.array([np.sum(g.nodes ** (2 * k) * g.values
                                * g.quadrature_weights) for k in range(7)])

    times = [0.5, 1.0, 2.0]
    want = moment_hierarchy(even_moments(), times)
    got = []
    for start, end in zip([0.0] + times, times):
        solver.evolve(end - start, 0.01, record_every=0)
        got.append(even_moments())
    assert np.array(got)[:, 1:] == pytest.approx(want[:, 1:], rel=1e-7,
                                                  abs=0.0)


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


# relative bounds per (delta, gamma), each under twice the error measured
# when they were set: 8.1e-10, 1.1e-8, 6.9e-6, 1.6e-4 at gamma = 0 and
# 1.3e-9, 7.0e-9, 2.7e-6, 2.3e-5 at gamma = 0.5
@pytest.mark.parametrize("delta, gamma, bound", [
    (0.1, 0.0, 1.5e-9), (0.03, 0.0, 2e-8), (0.01, 0.0, 1.3e-5),
    (0.003, 0.0, 3e-4), (0.1, 0.5, 2.5e-9), (0.03, 0.5, 1.3e-8),
    (0.01, 0.5, 5e-6), (0.003, 0.5, 4.4e-5)])
def test_limit_production_against_2048_shells(delta, gamma, bound):
    # cercignani's grid (513 nodes on [0, v_max]): the 256-shell,
    # 256-angle rule against 2048 shells on the same spline and angles
    f = mixture(delta)
    v = np.linspace(0.0, f.v_max, 513)
    f_vals = f(v)
    s, ws, _ = polar_shells(v[-1], np.inf, 2048, ANGLES)
    pair = pair_kernel(_QuadrantFold(v, np.sqrt(s)).products(f_vals))
    ref = polar_integral(ws, (1.0 + s) ** gamma, pair, ANGLES)
    assert abs(limit_production(f_vals, v, gamma) / ref - 1.0) <= bound


def test_solver_rejects_a_profile_with_no_mass_on_its_grid():
    # a ring at |v| = 14 lies past the default v_max = 8
    ring = from_callable(lambda v: np.exp(-50 * (np.abs(v) - 14) ** 2), 16.0)
    with pytest.raises(AccuracyError, match="profile mass 0.0"):
        LimitSolver(ring, 0.0)


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
