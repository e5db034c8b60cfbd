"""Convolution ladders, normalization-function queries, CLT envelopes."""

import hashlib

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve
from scipy.special import erfc

from kaclab.conditioned import ConditionedFamily
from kaclab.densities import from_callable, gaussian, mixture
from kaclab.errors import ConfigurationError
from kaclab.limit_eq import LimitSolver
from kaclab.normalization import (_BASE_BLOCK, _BASE_RULE, _TRIM,
                                  NormalizationLadder, _fast_length, _window,
                                  clt_envelope, lambda_profile, lambda_sup,
                                  schedule_delta)
from kaclab.quadrature import ANGLES, SHELLS, gauss_legendre, polar_shells
from kaclab.sphere import log_sphere_area


@pytest.fixture(scope="module")
def gauss_ladder():
    # n_max = 48 serves u = 1.5 * 32; 3 * 2^14 cells keep du (2.97e-3)
    # finer than 2^15 cells up to n_max = 32 (3.42e-3)
    return NormalizationLadder(gaussian(1.0), 48, n_grid=3 * 2**14)


@pytest.fixture(scope="module")
def mix_ladder():
    return NormalizationLadder(mixture(0.25), 64, n_grid=2**15)


def _stored(ladder, n):
    """Stored level n of ladder as one array on the nodes 0 ... horizon."""
    offset, cells = ladder.window(n)
    out = np.zeros(ladder._horizon + 1)
    out[offset:offset + cells.size] = cells
    return out


def _whole_grid(f, n_max, n_grid=2**15):
    """A ladder whose horizon is the grid's last node from the start, as a
    read past the horizon leaves it: its levels are the whole-grid ones."""
    ladder = NormalizationLadder(f, n_max, n_grid=n_grid)
    ladder._rebase(ladder.n_grid - 1)
    return ladder


def test_sigma_squared_closed_forms():
    assert NormalizationLadder(gaussian(1.0), 2).sigma2 == pytest.approx(
        2.0, rel=1e-6)
    # mixture: int v^4 f - 1 = 3/(4 d (1-d)) - 1
    assert NormalizationLadder(mixture(0.25), 2).sigma2 == pytest.approx(
        3.0 / 0.75 - 1.0, rel=1e-6)


@pytest.mark.parametrize("args, match", [
    ((64.5,), "n_max must be an integer, not 64.5"),
    ((64, 2**14 + 0.9), "n_grid must be an integer"),
    ((64, 0), "n_grid must be >= 2, not 0")],
    ids=["float-n_max", "float-n_grid", "zero-n_grid"])
def test_ladder_sizes_are_integers(args, match):
    # a float size is not truncated and an empty grid does not divide by 0
    with pytest.raises(ValueError, match=match):
        NormalizationLadder(mixture(0.25), *args)


def test_gaussian_partition_closed_form(gauss_ladder):
    # Z_n(M, r) = (2 pi)^{-n/2} exp(-r^2 / 2)
    for n in (2, 4, 8, 16, 32):
        for u in (0.5 * n, 1.0 * n, 1.5 * n):
            exact = -0.5 * n * np.log(2.0 * np.pi) - 0.5 * u
            assert float(gauss_ladder.log_z(n, u)) == pytest.approx(
                exact, abs=2e-4)


def test_level_density_is_chi_square(gauss_ladder):
    # h^{*n} for the Gaussian is the chi-square density with n dof
    from scipy.stats import chi2
    n = 8
    u = np.array([2.0, 8.0, 15.0])
    got = np.exp(gauss_ladder.log_density(n, u))
    assert np.allclose(got, chi2.pdf(u, n), rtol=5e-4)


def test_levels_conserve_mass_and_mean():
    # a 256-ladder's horizon lies past 64 + 14 standard deviations of
    # level 64, so every level's mass is stored; 2^17 cells keep du
    # (4.07e-3) finer than 2^15 cells up to n_max = 64 (6.18e-3)
    ladder = NormalizationLadder(mixture(0.25), 256, n_grid=2**17)
    for n in (1, 2, 16, 64):
        w = _stored(ladder, n)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-6)
        assert np.sum(ladder.grid[:w.size] * w) / np.sum(w) == pytest.approx(
            float(n), rel=1e-4)


def test_ladder_needs_a_closed_form_pdf():
    # the base masses integrate the generator's pdf; a PDE profile is a
    # table only
    table = LimitSolver(mixture(0.25), 0.0).density()
    with pytest.raises(ConfigurationError, match=r"limit\(t=0\) is a table"):
        NormalizationLadder(table, 8)


def test_ladder_rejects_uneven_generator():
    shifted = from_callable(lambda v: np.exp(-0.5 * (v - 0.3) ** 2), 12.0)
    with pytest.raises(ConfigurationError, match="not even"):
        NormalizationLadder(shifted, 8)


@pytest.mark.parametrize("delta, n_max", [(None, 64), (0.25, 256),
                                          (0.1, 1024), (1024**-0.8, 1024)],
                         ids=["gauss-64", "mix0.25-256", "mix0.1-1024",
                              "schedule-1024"])
def test_base_masses_match_erfc_differences(delta, n_max):
    # a cell's mass of h is P(r_lo < |V| < r_hi), the difference of erfc at
    # its edges per Gaussian component (weight, variance); the masses
    # must hold to 1e-10 relative down to _TRIM of the peak, where cdf
    # differences carry O(1) rounding noise
    if delta is None:
        f, parts = gaussian(1.0), [(1.0, 1.0)]
    else:
        f = mixture(delta)
        parts = [(delta, 0.5 / delta), (1.0 - delta, 0.5 / (1.0 - delta))]
    ladder = NormalizationLadder(f, n_max)
    r = np.sqrt(ladder.du * np.concatenate([[0.0],
                                            np.arange(ladder.n_grid) + 0.5]))
    want = sum(w * -np.diff(erfc(r / np.sqrt(2.0 * a))) for w, a in parts)
    keep = want >= _TRIM * want.max()
    base = ladder._base_masses(ladder.n_grid)
    got = np.pad(base, (0, ladder.n_grid - base.size))
    assert np.max(np.abs(got[keep] / want[keep] - 1.0)) <= 1e-10
    # stored level 1 is the base up to the horizon, integrated only there
    assert np.array_equal(_stored(ladder, 1), got[:ladder._horizon + 1])
    assert ladder.window(1)[1].size == min(base.size, ladder._horizon + 1)


class _UncutBase(NormalizationLadder):
    """A ladder whose base integrates every cell that starts below the
    generator's v_max."""

    def _base_masses(self, count):
        f, edges = self.generator, self._edges()
        cells = min(int(np.searchsorted(edges[:-1], f.v_max)), count)
        lo, hi = edges[:cells], edges[1:cells + 1]
        x, w = gauss_legendre(_BASE_RULE)
        r = 0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * x
        return (hi - lo) * (np.maximum(f(r), 0.0) @ w)


def _unblocked_base(ladder):
    """The base rule on all of the ladder's base cells at once."""
    f, edges = ladder.generator, ladder._edges()
    cells = ladder._base_reach(edges)
    lo, hi = edges[:cells], edges[1:cells + 1]
    x, w = gauss_legendre(_BASE_RULE)
    r = 0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * x
    return (hi - lo) * (np.maximum(f(r), 0.0) @ w)


@pytest.mark.parametrize("f, n_max, n_grid", [
    (mixture(0.3), 8, 2**15), (mixture(0.25), 512, 2**15),
    (gaussian(1.0), 1024, 2**18)],
    ids=["mix0.3-8", "mix0.25-512", "gauss-1024-2^18"])
def test_blocked_base_is_the_unblocked_rule(f, n_max, n_grid):
    # the bench's three ladders (32 768, 5 078 and 12 914 base cells):
    # the rule in blocks of _BASE_BLOCK cells gives every mass bit for bit,
    # on the whole base, which a ladder integrates once its horizon moves
    # to the grid's end, and on the cells up to the first horizon, whose
    # reach reads only their edges and is the whole reach cut there
    ladder = NormalizationLadder(f, n_max, n_grid=n_grid)
    base = ladder._base_masses(ladder.n_grid)
    assert base.size > _BASE_BLOCK
    assert np.array_equal(base, _unblocked_base(ladder))
    count = ladder._horizon + 1
    edges = ladder._edges()
    assert (ladder._base_reach(edges[:count + 1])
            == min(ladder._base_reach(edges), count))
    head = ladder._base_masses(count)
    assert head.size == min(base.size, count)
    assert np.array_equal(head, base[:head.size])


@pytest.mark.parametrize("f, n_max, n_grid, leak", [
    (mixture(0.3), 8, 2**15, 4.6e-9), (mixture(0.25), 512, 2**15, 0.0),
    (gaussian(1.0), 1024, 2**18, 0.0)],
    ids=["mix0.3-8", "mix0.25-512", "gauss-1024-2^18"])
def test_leakage_is_the_whole_base_deficit(f, n_max, n_grid, leak):
    # the bench's three ladders: the truncation check reads the mass of
    # f's table past |v| = sqrt(u_max) in place of 1 - (sum of the whole
    # base), which would integrate every base cell
    ladder = NormalizationLadder(f, n_max, n_grid=n_grid)
    deficit = 1.0 - float(np.sum(ladder._base_masses(ladder.n_grid)))
    assert abs(ladder._leakage() - deficit) <= 1e-9
    assert ladder._leakage() == pytest.approx(leak, abs=1e-10)


@pytest.mark.parametrize("f, n_max, n_grid", [
    (gaussian(1.0), 64, 2**15), (gaussian(1.0), 1024, 2**18),
    (mixture(0.25), 256, 2**15), (mixture(0.1), 1024, 2**15),
    (mixture(1024**-0.8), 1024, 2**15)],
    ids=["gauss-64", "gauss-1024-2^18", "mix0.25-256", "mix0.1-1024",
         "schedule-1024"])
def test_base_cut_changes_no_level_the_walk_reads(f, n_max, n_grid):
    # the base stops at the last cell whose bound reaches 1e-3 _TRIM of
    # the largest; every cell it leaves out holds less than that share
    # of the peak, so level 1's window and every level of a walk are
    # those of the uncut base bit for bit
    cut = NormalizationLadder(f, n_max, n_grid=n_grid)
    whole = _UncutBase(f, n_max, n_grid=n_grid)
    base = cut._base_masses(cut.n_grid)
    ref = whole._base_masses(whole.n_grid)
    assert base.size <= ref.size
    assert np.array_equal(base, ref[:base.size])
    assert np.all(ref[base.size:] < 1e-3 * _TRIM * ref.max())
    assert _window(base) == _window(ref)
    walk = (n_max, n_max - 1, n_max - 2)
    for ladder in (cut, whole):
        ladder.window(*walk)
    assert sorted(cut._masses) == sorted(whole._masses)
    for n in sorted(cut._masses)[1:]:
        (offset, cells), (want_offset, want) = cut.window(n), whole.window(n)
        assert offset == want_offset and np.array_equal(cells, want), n


def test_levels_above_n_max_are_rejected(mix_ladder):
    # a 64-ladder's grid is too short for level 200, which would hold
    # mass 0.56 on it
    for query in (lambda: mix_ladder.level(200),
                  lambda: mix_ladder.window(64, 200),
                  lambda: mix_ladder.log_z(200, 150.0)):
        with pytest.raises(ValueError, match=r"n=200 .*n_max=64"):
            query()
    with pytest.raises(ValueError, match="n=65"):
        mix_ladder.log_z(65, 65.0)
    assert 200 not in mix_ladder._masses
    # level(200) raised before it moved the horizon
    assert mix_ladder._horizon < mix_ladder.n_grid - 1


def test_ladder_needs_a_unit_energy_generator():
    # Sigma^2 and u_max read int v^4 f - 1, the variance of V^2 only at
    # unit energy
    with pytest.raises(ConfigurationError, match=r"'gauss\(a=2\)'.* = 2,"):
        NormalizationLadder(gaussian(2.0), 8)


def test_binary_decomposition_matches_sequential():
    f = mixture(0.3)
    ladder = NormalizationLadder(f, 12)
    base = _stored(ladder, 1)
    seq = base
    for _ in range(11):
        seq = np.maximum(fftconvolve(seq, base)[:base.size], 0.0)
    la = _stored(ladder, 12)
    assert np.allclose(la, seq, rtol=1e-9, atol=1e-12 * la.max())


@pytest.mark.parametrize("top", [12, 513, 1024])
def test_levels_are_the_convolutions_of_their_halves(top):
    # every level on the tree of levels N, N - 1 and N - 2, built in one
    # walk, even and odd, is the direct FFT convolution of its stored
    # halves ceil(n/2) and floor(n/2) up to the cells each half leaves out
    # of its window, and exactly zero outside the sum of the windows, on
    # the nodes up to the horizon
    ladder = NormalizationLadder(mixture(0.3), top)
    ladder.window(top, top - 1, top - 2)
    stored = sorted(ladder._masses)
    assert {n % 2 for n in stored if n > 1} == {0, 1}
    size = ladder._horizon + 1
    for n in stored[1:]:
        got = _stored(ladder, n)
        m_a, m_b = (_stored(ladder, h) for h in ladder.halves(n))
        want = np.maximum(fftconvolve(m_a, m_b)[:size], 0.0)
        bound = _TRIM * (m_a.max() * m_b.sum() + m_b.max() * m_a.sum())
        assert np.max(np.abs(got - want)) <= bound, n
        (lo_a, hi_a), (lo_b, hi_b) = _window(m_a), _window(m_b)
        outside = np.ones(size, dtype=bool)
        outside[lo_a + lo_b:hi_a + hi_b + 1] = False
        assert not np.any(got[outside]), n


@pytest.mark.parametrize("n_grid", [7, 1001])
def test_walk_on_grids_of_any_size(n_grid):
    # horizons of 3 and 189 nodes: 378 is not 5-smooth, so a tier's
    # transform can be longer than twice the horizon
    ladder = NormalizationLadder(mixture(0.25), 16, n_grid=n_grid)
    m_8 = _stored(ladder, 8)
    want = np.maximum(fftconvolve(m_8, m_8)[:m_8.size], 0.0)
    assert np.allclose(_stored(ladder, 16), want, rtol=0.0, atol=1e-12)


def _transform_lengths(monkeypatch) -> list:
    """The list to which every later numpy.fft.rfft and irfft call of
    the test appends its length."""
    points = []

    def counted(transform):
        def call(x, n, *args, **kwargs):
            points.append(n)
            return transform(x, n, *args, **kwargs)
        return call

    monkeypatch.setattr(np.fft, "rfft", counted(np.fft.rfft))
    monkeypatch.setattr(np.fft, "irfft", counted(np.fft.irfft))
    return points


def test_walk_transforms_only_the_windows(monkeypatch):
    # the points numpy.fft transforms to walk a 2^18-cell Gaussian ladder
    # to level 1024: 10 tiers of one forward and one inverse transform,
    # 10.5 million points at the full length 2 n_grid; the windows up to
    # the horizon need under a fifth of that
    bound = 2_000_000
    points = _transform_lengths(monkeypatch)
    ladder = NormalizationLadder(gaussian(1.0), 1024, n_grid=2**18)
    ladder.window(1024)
    assert len(points) == 20
    assert sum(points) < bound
    # level 64 (mean 64, standard deviation 11) spans at most a fifth of
    # the grid (u_max = 1476)
    cells = np.flatnonzero(_stored(ladder, 64))
    assert cells[-1] - cells[0] + 1 <= 0.2 * ladder.n_grid


@pytest.mark.parametrize("n, bound", [(32, 400_000), (64, 550_000),
                                      (1024, 472_425)])
def test_family_walk_transforms_up_to_the_horizon(monkeypatch, n, bound):
    # the points numpy.fft transforms for a mixture(0.25) family's entropy
    # and production: 1 208 320, 1 167 544 and 472 425 at N = 32, 64 and
    # 1024 when every level ran to u_max.  A level's right tail past the
    # horizon is not built, so at small N, where each level's window runs
    # to the grid's end, about two thirds of each transform goes
    fam = ConditionedFamily(mixture(0.25), n)
    points = _transform_lengths(monkeypatch)
    fam.entropy()
    fam.production(0.0)
    assert sum(points) <= bound


def test_ladder_stores_the_cells_the_walk_wrote():
    # the bench's 2^18-cell Gaussian oracle: its 11 levels took 22 MiB as
    # whole-grid arrays; as windows up to the horizon they take 4.5 MiB,
    # no log table is kept, and every value is the one recorded from the
    # whole-grid levels.  The three floor values (-845.59, -1316.61,
    # -1784.84) are large-deviation tails below the 1e-300 density floor,
    # which every node outside a window holds
    ladder = NormalizationLadder(gaussian(1.0), 1024, n_grid=2**18)
    got = [float(ladder.log_z(n, r * n)) for n in (64, 256, 1024)
           for r in (0.2, 0.5, 1.0, 1.5) if (n, r) != (1024, 1.5)]
    assert got == [-65.2063222900334, -74.81121861743762, -90.81209720159077,
                   -106.81225709656348, -845.5864256334127, -299.2445692924508,
                   -363.2482958734498, -427.2489851934679, -1316.6144018592927,
                   -1784.838965846986, -1452.993089527898]
    assert sorted(ladder._masses) == [2**j for j in range(11)]
    held = sum(cells.nbytes for _, cells in ladder._masses.values())
    assert held <= 4.75 * 2**20
    offset, cells = ladder.window(64)
    assert not cells.flags.writeable
    stored = _stored(ladder, 64)
    assert np.array_equal(stored[offset:offset + cells.size], cells)
    assert not np.any(np.delete(stored, np.s_[offset:offset + cells.size]))


def test_windowed_queries_are_the_whole_grid_values():
    # lambda_n on [0, n] as recorded from the horizon levels, bit for
    # bit; a fresh ladder, since a walk's transform lengths depend on the
    # levels it builds together.  Those of the whole-grid levels lie
    # within 1e-13 of the level's peak cell
    mix_ladder = NormalizationLadder(mixture(0.25), 64)
    whole_grid = _whole_grid(mixture(0.25), 64)
    for n, size, want in ((64, 10354, [-9.29898596407092e-06,
                                       -0.019299201865753367,
                                       -0.00039088784796698084,
                                       83.57967733344863]),
                          (5, 809, [-0.17321052580839535,
                                    0.3111725483250838,
                                    0.008541157972606184,
                                    137.83103092030828])):
        u, lam = lambda_profile(mix_ladder, n)
        assert u.size == size
        assert [lam[0], lam[size // 2], lam[-1], np.sum(lam)] == want
        whole = whole_grid.level(n)
        scale = np.sqrt(n * mix_ladder.sigma2) / mix_ladder.du
        gauss = (np.exp(-(u - n) ** 2 / (2.0 * n * mix_ladder.sigma2))
                 / np.sqrt(2.0 * np.pi))
        assert (np.max(np.abs(lam - (scale * whole[:size] - gauss)))
                <= 1e-13 * scale * whole.max())


@pytest.mark.parametrize("f, n_max, n_grid", [
    (mixture(0.25), 64, 2**15), (gaussian(1.0), 1024, 2**18)],
    ids=["mix0.25-64", "gauss-1024-2^18"])
def test_log_density_is_np_interp_on_the_log_table(f, n_max, n_grid):
    # log_density reads the two nodes around each u; it must equal
    # np.interp on the log table of the stored level on the nodes up to
    # the horizon and on the table of its cells plus one floor node on
    # either side, bit for bit, at random u, every node up to the
    # horizon, 0 and the horizon node; with the horizon at the grid's end
    # also past the last node up to u_max, where np.interp clamps to that
    # node's value
    for ladder in (NormalizationLadder(f, n_max, n_grid=n_grid),
                   _whole_grid(f, n_max, n_grid)):
        ladder.window(n_max, n_max - 1, n_max - 2)
        horizon = ladder._horizon
        rng = np.random.default_rng(11)
        grid = ladder.grid[:horizon + 1]
        top = ladder.u_max if horizon == ladder.n_grid - 1 else grid[-1]
        u = np.concatenate([rng.random(10**4) * grid[-1], grid,
                            [0.0, grid[-1]], np.linspace(grid[-1], top, 5)])
        for n in sorted(ladder._masses):
            stored = _stored(ladder, n)
            table = np.log(np.maximum(stored / ladder.du, 1e-300))
            cells = np.flatnonzero(stored)
            first = max(cells[0] - 1, 0)
            stop = min(cells[-1] + 2, grid.size)
            got = ladder.log_density(n, u)
            assert np.array_equal(got, np.interp(u, grid, table)), n
            assert np.array_equal(got, np.interp(u, grid[first:stop],
                                                 table[first:stop])), n
        assert ladder._horizon == horizon


# -- the horizon: stored levels end at the node just past u = n_max ------

HORIZON_LADDERS = pytest.mark.parametrize("f, n_max, n_grid", [
    (mixture(0.25), 32, 2**15), (mixture(0.25), 64, 2**15),
    (mixture(0.25), 256, 2**15), (mixture(0.25), 1024, 2**15),
    (mixture(0.1), 256, 2**15), (gaussian(1.0), 64, 2**15),
    (gaussian(1.0), 1024, 2**18)],
    ids=["mix0.25-32", "mix0.25-64", "mix0.25-256", "mix0.25-1024",
         "mix0.1-256", "gauss-64", "gauss-1024-2^18"])


@HORIZON_LADDERS
def test_horizon_levels_are_the_whole_grid_levels_up_to_n_max(f, n_max,
                                                               n_grid):
    # every level of a family's walk ends at or before the horizon, the
    # node just past n_max; on the nodes up to it, which every read at
    # u <= n_max brackets u with, it equals the level of the whole-grid
    # walk within 1e-13 of the level's peak cell (2.2e-14 at most here)
    # and is the convolution of its stored halves up to the cells each
    # leaves out of its window; a read at u <= n_max is np.interp on the
    # stored cells' log table bit for bit
    walk = (n_max, n_max - 1, n_max - 2)
    ladder = NormalizationLadder(f, n_max, n_grid=n_grid)
    ladder.window(*walk)
    whole_grid = _whole_grid(f, n_max, n_grid)
    whole_grid.window(*walk)
    last, grid = ladder._horizon, ladder.grid
    assert grid[last - 1] <= n_max < grid[last]
    u = np.concatenate([np.linspace(0.0, n_max, 1001), grid[last - 9:last]])
    assert sorted(ladder._masses) == sorted(whole_grid._masses)
    for n in sorted(ladder._masses):
        offset, cells = ladder.window(n)
        assert offset + cells.size - 1 <= last, n
        stored = _stored(ladder, n)
        whole = whole_grid.level(n)
        assert (np.max(np.abs(stored - whole[:last + 1]))
                <= 1e-13 * whole.max()), n
        table = np.log(np.maximum(stored / ladder.du, 1e-300))
        assert np.array_equal(ladder.log_density(n, u),
                              np.interp(u, grid[:last + 1], table)), n
        if n == 1:
            continue
        m_a, m_b = (_stored(ladder, h) for h in ladder.halves(n))
        want = np.maximum(fftconvolve(m_a, m_b)[:last + 1], 0.0)
        bound = _TRIM * (m_a.max() * m_b.sum() + m_b.max() * m_a.sum())
        assert np.max(np.abs(stored - want)) <= bound, n


def test_a_read_past_the_horizon_moves_it_to_the_grid_end():
    # a read at some u past the horizon node drops the stored levels and
    # moves the horizon to the grid's last node, once; it and every later
    # read are those of a ladder that held whole-grid levels from the
    # start, bit for bit.  The horizon node itself is served as it is
    f = mixture(0.25)
    ladder = NormalizationLadder(f, 64)
    ladder.window(64, 63, 62)
    top = ladder.grid[ladder._horizon]
    whole_grid = _whole_grid(f, 64)
    assert ladder.log_z(64, top) == pytest.approx(whole_grid.log_z(64, top),
                                                  rel=1e-13, abs=0.0)
    assert ladder._horizon < ladder.n_grid - 1
    for u in ([1.0, np.nextafter(top, np.inf)], [1.5 * 64, ladder.u_max]):
        assert np.array_equal(ladder.log_z(64, u), whole_grid.log_z(64, u))
    assert ladder._horizon == ladder.n_grid - 1
    assert sorted(ladder._masses) == [1, 2, 4, 8, 16, 32, 64]
    cells = ladder.window(64)[1]
    assert np.array_equal(ladder.level(64), whole_grid.level(64))
    assert ladder.window(64)[1] is cells
    # u outside [0, u_max], NaN too, raises before any walk
    fresh = NormalizationLadder(f, 64)
    horizon = fresh._horizon
    for u in (np.nextafter(fresh.u_max, np.inf), -1e-9, np.nan):
        for query in (fresh.log_density, fresh.log_z):
            with pytest.raises(ValueError, match="outside the ladder grid"):
                query(64, [1.0, u])
    assert fresh._horizon == horizon and sorted(fresh._masses) == [1]


@pytest.mark.parametrize("f, n", [(mixture(0.25), 64), (mixture(0.1), 256)],
                         ids=["mix0.25-64", "mix0.1-256"])
def test_reads_after_a_read_past_the_horizon_are_whole_grid_reads(f, n):
    # a read past the horizon that builds no level (level 1 is stored)
    # moves the horizon to the grid's end, after which a family's and the
    # CLT envelope's reads are those of a ladder that held whole-grid
    # levels from the start, bit for bit
    def reads(ladder):
        fam = ConditionedFamily(ladder, n)
        v = fam._marginal[0]
        s = polar_shells(f.v_max, n, SHELLS, ANGLES)[0]
        return [fam._log_zn, fam.log_marginal_weight(1, v * v),
                fam.log_marginal_weight(2, s), fam.entropy(),
                fam.production(0.0, check=False), lambda_sup(ladder, n),
                lambda_sup(ladder, n - 1)]

    want = reads(_whole_grid(f, n))
    served = NormalizationLadder(f, n)
    served.log_density(1, [1.0, 0.5 * served.u_max])
    assert served._horizon == served.n_grid - 1
    assert sorted(served._masses) == [1]
    for a, b in zip(reads(served), want):
        assert np.array_equal(a, b)


def test_whole_grid_reads_are_unchanged():
    # a read past the horizon returns what a fresh ladder's walk to u_max
    # returned when every level was stored on the whole grid, bit for bit
    # (recorded then)
    gauss = NormalizationLadder(gaussian(1.0), 64, n_grid=2**18)
    assert gauss.log_z(64, 96.0) == -106.81207412433392
    level = NormalizationLadder(mixture(0.25), 64).level(64)
    assert (hashlib.sha256(level.tobytes()).hexdigest()
            == "4e33368c7679b1fd1a90e0e71f777d6a"
               "a22c9d864a8f0afd028a21e0502d706d")
    assert float(level.sum()) == 0.9999999994671597


def test_fast_length_is_scipys_real_fast_length():
    # _fast_length is the least of terms nondecreasing in n, so it matches
    # next_fast_len on every n <= 10^6 once it matches at both ends of
    # each run of n that next_fast_len maps to one length
    n = np.arange(1, 10**6 + 1)
    want = np.array([next_fast_len(int(k), real=True) for k in n])
    ends = np.flatnonzero(np.diff(want))
    for k in np.unique(np.concatenate([[0, n.size - 1], ends, ends + 1])):
        assert _fast_length(int(n[k])) == want[k], n[k]


def test_truncated_grid_rejected():
    # a hot component of variance 50 leaks past u_max = 2 + 10 sqrt(2 Sigma^2)
    with pytest.raises(ConfigurationError, match="u_max=124 truncates"):
        NormalizationLadder(mixture(0.01), 2)


def test_out_of_range_query(mix_ladder):
    for u in (mix_ladder.u_max + 1.0, -1e-9, np.nan):
        with pytest.raises(ValueError, match="outside the ladder grid"):
            mix_ladder.log_density(4, [1.0, u])


def test_clt_leading_term_near_center(gauss_ladder):
    # at u = n the Gaussian leading term of Z_n, with h^{*n}(n) replaced by
    # the normal density 1/sqrt(2 pi n Sigma^2), dominates the exact value
    n, sig2 = 32, 2.0
    lead = (np.log(2.0) - 0.5 * np.log(2.0 * np.pi * n * sig2)
            - log_sphere_area(n) - 0.5 * (n - 2) * np.log(float(n)))
    exact = float(gauss_ladder.log_z(n, float(n)))
    assert lead == pytest.approx(exact, abs=0.05)


def test_lambda_profile_decays(mix_ladder):
    sups = [lambda_sup(mix_ladder, n) for n in (16, 32, 64)]
    assert sups[0] > sups[1] > sups[2]


def test_clt_envelope_rows(mix_ladder):
    # a density's rows all read one ladder up to max(n_list), here the
    # fixture's
    rows = clt_envelope(mixture(0.25), [16, 64])
    assert rows == [(n, mix_ladder.sigma2, lambda_sup(mix_ladder, n))
                    for n in (16, 64)]
    assert rows[0][2] > rows[1][2] > 0


def test_clt_envelope_fixed_generator_reads_level_n_minus_j():
    ladder = NormalizationLadder(mixture(0.25), 63)
    rows = clt_envelope(mixture(0.25), [16, 64], j=1)
    assert rows == [(16, ladder.sigma2, lambda_sup(ladder, 15)),
                    (64, ladder.sigma2, lambda_sup(ladder, 63))]


def test_schedule_delta():
    assert schedule_delta(0.1, 100) == pytest.approx(100.0 ** (-0.8))


def _schedule(beta):
    return lambda n: mixture(schedule_delta(beta, n))


def test_ndependent_envelope_validation():
    for generators in (mixture(0.25), _schedule(0.1)):
        for j in (-1, 3, 5):
            with pytest.raises(ValueError, match="j must be"):
                clt_envelope(generators, [16], j)


def test_ndependent_envelope_shrinks():
    rows = clt_envelope(_schedule(0.15), [64, 256])
    assert rows[0][2] > rows[1][2]


def test_ndependent_envelope_is_the_schedule_envelope():
    # a one-N schedule reads the same ladder as its density at that N
    beta, n = 0.1, 64
    for j in (0, 1, 2):
        assert (clt_envelope(mixture(schedule_delta(beta, n)), [n], j)
                == clt_envelope(_schedule(beta), [n], j))
