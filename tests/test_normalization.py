"""Convolution ladders, normalization-function queries, CLT envelopes."""

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve
from scipy.special import erfc

from kaclab.densities import from_callable, gaussian, mixture
from kaclab.errors import ConfigurationError
from kaclab.limit_eq import LimitSolver
from kaclab.normalization import (_BASE_RULE, _TRIM, NormalizationLadder,
                                  _fast_length, _window, clt_envelope,
                                  lambda_profile, lambda_sup, schedule_delta)
from kaclab.quadrature import gauss_legendre
from kaclab.sphere import log_sphere_area


@pytest.fixture(scope="module")
def gauss_ladder():
    return NormalizationLadder(gaussian(1.0), 32, n_grid=2**15)


@pytest.fixture(scope="module")
def mix_ladder():
    return NormalizationLadder(mixture(0.25), 64, n_grid=2**15)


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


def test_levels_conserve_mass_and_mean(mix_ladder):
    for n in (1, 2, 16, 64):
        w = mix_ladder.level(n)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-6)
        assert np.sum(mix_ladder.grid * w) / np.sum(w) == pytest.approx(
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
    got = ladder.level(1)
    assert np.max(np.abs(got[keep] / want[keep] - 1.0)) <= 1e-10


class _UncutBase(NormalizationLadder):
    """A ladder whose base integrates every cell that starts below the
    generator's v_max."""

    def _base_masses(self):
        f, edges = self.generator, self._edges
        cells = int(np.searchsorted(edges[:-1], f.v_max))
        lo, hi = edges[:cells], edges[1:cells + 1]
        x, w = gauss_legendre(_BASE_RULE)
        r = 0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * x
        return (hi - lo) * (np.maximum(f(r), 0.0) @ w)


@pytest.mark.parametrize("f, n_max, n_grid", [
    (gaussian(1.0), 64, 2**15), (gaussian(1.0), 1024, 2**18),
    (mixture(0.25), 256, 2**15), (mixture(0.1), 1024, 2**15),
    (mixture(1024**-0.8), 1024, 2**15)],
    ids=["gauss-64", "gauss-1024-2^18", "mix0.25-256", "mix0.1-1024",
         "schedule-1024"])
def test_base_cut_changes_no_level_the_walk_reads(f, n_max, n_grid):
    # the base stops at the last cell whose bound reaches 1e-3 _TRIM of
    # the largest; every cell it leaves out holds less than that share
    # of the peak, so level 1's window, every level of a walk and of the
    # sampler's tree, and the sampler's draws are those of the uncut base
    # bit for bit
    cut = NormalizationLadder(f, n_max, n_grid=n_grid)
    whole = _UncutBase(f, n_max, n_grid=n_grid)
    _, base = cut.window(1)
    _, ref = whole.window(1)
    assert base.size <= ref.size
    assert np.array_equal(base, ref[:base.size])
    assert np.all(ref[base.size:] < 1e-3 * _TRIM * ref.max())
    assert _window(base) == _window(ref)
    walk = (n_max, n_max - 1, n_max - 2)
    for ladder in (cut, whole):
        ladder.window(*walk)
    draws = [ladder.sample_radii(n_max // 2 + 3, 20, np.random.default_rng(7))
             for ladder in (cut, whole)]
    assert np.array_equal(*draws)
    assert cut.levels == whole.levels
    for n in cut.levels[1:]:
        (offset, cells), (want_offset, want) = cut.window(n), whole.window(n)
        assert offset == want_offset and np.array_equal(cells, want), n


def test_levels_above_n_max_are_rejected(mix_ladder):
    # a 64-ladder's grid is too short for level 200, which would hold
    # mass 0.56 on it
    for query in (lambda: mix_ladder.level(200),
                  lambda: mix_ladder.level(64, 200),
                  lambda: mix_ladder.log_z(200, 150.0),
                  lambda: mix_ladder.sample_radii(
                      200, 1, np.random.default_rng(0))):
        with pytest.raises(ValueError, match=r"n=200 .*n_max=64"):
            query()
    with pytest.raises(ValueError, match="n=65"):
        mix_ladder.log_z(65, 65.0)
    assert 200 not in mix_ladder.levels


def test_ladder_needs_a_unit_energy_generator():
    # Sigma^2 and u_max read int v^4 f - 1, the variance of V^2 only at
    # unit energy
    with pytest.raises(ConfigurationError, match=r"'gauss\(a=2\)'.* = 2,"):
        NormalizationLadder(gaussian(2.0), 8)


def test_binary_decomposition_matches_sequential():
    f = mixture(0.3)
    ladder = NormalizationLadder(f, 12)
    base = ladder.level(1)
    seq = base
    for _ in range(11):
        seq = np.maximum(fftconvolve(seq, base)[:ladder.n_grid], 0.0)
    la = ladder.level(12)
    assert np.allclose(la, seq, rtol=1e-9, atol=1e-12 * la.max())


@pytest.mark.parametrize("top", [12, 513, 1024])
def test_levels_are_the_convolutions_of_their_halves(top):
    # every level on the tree of levels N, N - 1 and N - 2, built in one
    # walk, even and odd, is the direct FFT convolution of its halves
    # ceil(n/2) and floor(n/2) up to the cells each half leaves out of its
    # window, and exactly zero outside the sum of the windows
    ladder = NormalizationLadder(mixture(0.3), top)
    ladder.level(top, top - 1, top - 2)
    assert {n % 2 for n in ladder.levels if n > 1} == {0, 1}
    for n in ladder.levels:
        if n == 1:
            continue
        got = ladder.level(n)
        a, b = ladder.halves(n)
        m_a, m_b = ladder.level(a), ladder.level(b)
        want = np.maximum(fftconvolve(m_a, m_b)[:ladder.n_grid], 0.0)
        bound = _TRIM * (m_a.max() * m_b.sum() + m_b.max() * m_a.sum())
        assert np.max(np.abs(got - want)) <= bound, n
        (lo_a, hi_a), (lo_b, hi_b) = _window(m_a), _window(m_b)
        outside = np.ones(ladder.n_grid, dtype=bool)
        outside[lo_a + lo_b:hi_a + hi_b + 1] = False
        assert not np.any(got[outside]), n


@pytest.mark.parametrize("n_grid", [7, 1001])
def test_walk_on_grids_of_any_size(n_grid):
    # neither 14 nor 2002 is 5-smooth, so a tier's transform can be longer
    # than 2 n_grid
    ladder = NormalizationLadder(mixture(0.25), 16, n_grid=n_grid)
    m_8 = ladder.level(8)
    want = np.maximum(fftconvolve(m_8, m_8)[:n_grid], 0.0)
    assert np.allclose(ladder.level(16), want, rtol=0.0, atol=1e-12)


def test_walk_transforms_only_the_windows(monkeypatch):
    # the points numpy.fft transforms to walk a 2^18-cell Gaussian ladder
    # to level 1024: 10 tiers of one forward and one inverse transform,
    # 10.5 million points at the full length 2 n_grid; the windows need
    # under a fifth of that
    bound = 2_000_000
    points = []

    def counted(transform):
        def call(x, n, *args, **kwargs):
            points.append(n)
            return transform(x, n, *args, **kwargs)
        return call

    monkeypatch.setattr(np.fft, "rfft", counted(np.fft.rfft))
    monkeypatch.setattr(np.fft, "irfft", counted(np.fft.irfft))
    ladder = NormalizationLadder(gaussian(1.0), 1024, n_grid=2**18)
    ladder.level(1024)
    assert len(points) == 20
    assert sum(points) < bound
    # level 64 (mean 64, standard deviation 11) spans at most a fifth of
    # the grid (u_max = 1476)
    cells = np.flatnonzero(ladder.level(64))
    assert cells[-1] - cells[0] + 1 <= 0.2 * ladder.n_grid


def test_ladder_stores_the_cells_the_walk_wrote():
    # the bench's 2^18-cell Gaussian oracle: its 11 levels took 22 MiB as
    # whole-grid arrays; as windows they take 5.1 MiB, no log table is
    # kept, and every value is the whole-grid one.  The three floor
    # values (-845.59, -1316.61, -1784.84) are large-deviation tails below
    # the 1e-300 density floor, which every node outside a window holds
    ladder = NormalizationLadder(gaussian(1.0), 1024, n_grid=2**18)
    got = [float(ladder.log_z(n, r * n)) for n in (64, 256, 1024)
           for r in (0.2, 0.5, 1.0, 1.5) if (n, r) != (1024, 1.5)]
    assert got == [-65.2063222900334, -74.81121861743762, -90.81209720159077,
                   -106.81225709656348, -845.5864256334127, -299.2445692924508,
                   -363.2482958734498, -427.2489851934679, -1316.6144018592927,
                   -1784.838965846986, -1452.993089527898]
    assert ladder.levels == [2**j for j in range(11)]
    assert ladder.nbytes <= 5.5 * 2**20
    offset, cells = ladder.window(64)
    assert not cells.flags.writeable
    assert np.array_equal(ladder.level(64)[offset:offset + cells.size], cells)
    assert not np.any(np.delete(ladder.level(64),
                                np.s_[offset:offset + cells.size]))


def test_windowed_queries_are_the_whole_grid_values():
    # lambda_n on [0, n] and seeded sampler draws, as recorded from the
    # whole-grid levels, bit for bit; a fresh ladder, since a walk's
    # transform lengths depend on the levels it builds together
    mix_ladder = NormalizationLadder(mixture(0.25), 64)
    for n, size, want in ((64, 10354, [-9.29898596407092e-06,
                                       -0.01929920186575336,
                                       -0.0003908878479642608,
                                       83.5796773334557]),
                          (5, 809, [-0.1732105258083954, 0.311172548325084,
                                    0.00854115797260624,
                                    137.83103092030836])):
        u, lam = lambda_profile(mix_ladder, n)
        assert u.size == size
        assert [lam[0], lam[size // 2], lam[-1], np.sum(lam)] == want
    for n, want, total in (
            (64, [0.11727265431594812, 0.45928961817797626,
                  1.812211404066146, 0.015277693760566518],
             143.56276792990448),
            (7, [0.5769143157305469, 1.4248736760876848, 0.9769339704816198,
                 0.10975879453653287], 16.513273275553875)):
        r = mix_ladder.sample_radii(n, 3, np.random.default_rng(5))
        assert r[0, :4].tolist() == want
        assert float(r.sum()) == total


@pytest.mark.parametrize("f, n_max, n_grid", [
    (mixture(0.25), 64, 2**15), (gaussian(1.0), 1024, 2**18)],
    ids=["mix0.25-64", "gauss-1024-2^18"])
def test_log_density_is_np_interp_on_the_log_table(f, n_max, n_grid):
    # log_density reads the two nodes around each u; it must equal
    # np.interp on the log table of the whole grid and on the table of a
    # level's cells plus one floor node on either side, bit for bit, at
    # random u, every node, 0, the last node and past it up to u_max,
    # where np.interp clamps to the last node's value
    ladder = NormalizationLadder(f, n_max, n_grid=n_grid)
    ladder.window(n_max, n_max - 1, n_max - 2)
    rng = np.random.default_rng(11)
    grid = ladder.grid
    u = np.concatenate([rng.random(10**4) * ladder.u_max, grid,
                        [0.0, grid[-1]],
                        np.linspace(grid[-1], ladder.u_max, 5)])
    for n in ladder.levels:
        table = np.log(np.maximum(ladder.level(n) / ladder.du, 1e-300))
        offset, cells = ladder.window(n)
        first = max(offset - 1, 0)
        stop = min(offset + cells.size + 1, ladder.n_grid)
        got = ladder.log_density(n, u)
        assert np.array_equal(got, np.interp(u, grid, table)), n
        assert np.array_equal(got, np.interp(u, grid[first:stop],
                                             table[first:stop])), n


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
