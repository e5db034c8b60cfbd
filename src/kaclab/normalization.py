"""Convolution ladders for the normalization function Z_n(f, sqrt(u)).

The n-fold density of the summed squared velocities, h^{(*n)}, determines
Z_n through

    Z_n(f, sqrt(u)) = 2 h^{(*n)}(u) / (u^{(n-2)/2} |S^{n-1}|),

so the ladder stores discrete cell masses of h on a uniform u-grid and
builds higher levels by FFT convolution (exact for the discretized
measure).  Level n is the convolution of levels ceil(n/2) and floor(n/2),
so a request for several levels (a conditioned family reads N, N - 1 and
N - 2) is built in one walk up a shared balanced tree: tier by tier from
level 1, each factor of a tier is transformed once, and each new level
costs one spectrum product and one inverse transform.  At a power of two
N, levels N, N - 1 and N - 2 take 2 log2(N) builds, and level N alone one
forward and one inverse transform per doubling.

A level's mass sits within about nine standard deviations of u = n; the
rest of the grid holds FFT rounding noise.  So each factor is transformed
over its window only, the cells from the first to the last holding at
least _TRIM of its peak, and each level is exactly zero outside the sum of
its halves' windows.  Dropping the cells below the cut moves a level by at
most _TRIM (max m_a sum m_b + max m_b sum m_a).

Every reader in the package reads level n <= n_max at u <= n_max only: a
family's Z_N and marginal weights h^{*(N-k)}(N - s) / h^{*N}(N), lambda_n
on [0, n] and the inequality layer's envelopes.  So levels are built and
stored up to the horizon only, the grid node just past u = n_max (the
last node if none lies past it), which every u <= n_max is bracketed by
or below.  A factor is transformed up to the horizon at most and a
product written up to it.  Cell m of a convolution reads only cells <= m
of its factors, so each stored cell is the whole-grid one up to transform
rounding (2.2e-14 of the level's peak at most, on the tested ladders).
For mixture(0.25) at N = 64 the horizon lies at 32% of the grid, and a
family's entropy and production transform 0.48 million points where
whole-grid levels took 1.17 million.

A read past the horizon (:meth:`level`, or a u past the horizon node, as
the bench's smoke-sized Gaussian oracle reads at u = 1.5 n_max) first
moves the horizon to the grid's last node, once: the stored levels are
dropped, and from then on the ladder stores whole-grid levels.  So every
read is of stored levels; a read below the old horizon after the move
may differ from the same read before it by transform rounding.

A level is stored as (offset, cells), the cells its walk wrote; level 1
holds the base cells up to the horizon, integrated only there and up to
the last cell that can reach 1e-3 _TRIM of its peak, a superset of its
window.  The truncation check reads the mass of f's table past
|v| = sqrt(u_max), so it needs no base cell past the horizon.  No log
table is kept: :meth:`log_density` reads the two nodes around each u.
The 11 levels of a 2^18-cell Gaussian ladder read up to level 1024 take
4.5 MiB, where whole-grid arrays would take 22 MiB.

Everything Z-shaped is exposed in the log domain; the huge power/area
prefactors are combined with log-gamma arithmetic and cancel analytically
inside ratio queries.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

from .densities import GridDensity1D, moment
from .errors import ConfigurationError
from .quadrature import freeze, gauss_legendre, require_even
from .sphere import log_sphere_area

# a factor's cells below this share of its peak are left out of its
# transform: at 1e-16 rounding noise lands above the cut and the windows
# stay near the whole grid, while 1e-14 moves H_N by about 6e-12
_TRIM = 1e-15
# Gauss-Legendre points per base cell: 6 match a 16-point rule to 3e-15
# relative on every cell above _TRIM of the peak, where 4 leave 1.1e-10
# (mixture(1024^-0.9), the beta = 0.05 schedule, on its N = 1024 ladder)
_BASE_RULE = 6
# base cells per pass of that rule: (4096, 6) temporaries take 192 KiB,
# where all 32 768 cells of a default ladder at once take 1.5 MiB each
_BASE_BLOCK = 4096


def as_int(value, name: str) -> int:
    """value as an int: numpy integers pass, a float raises a ValueError
    that names the argument."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None


def _fast_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a length numpy.fft transforms fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _window(m: np.ndarray) -> tuple[int, int]:
    """First and last index of the cells of m holding >= _TRIM of its peak."""
    keep = np.flatnonzero(m >= _TRIM * m.max())
    return int(keep[0]), int(keep[-1])


def check_generator(f: GridDensity1D) -> None:
    """Raise ConfigurationError unless f is even and has unit energy, as a
    ladder of f needs."""
    # the base masses integrate f(r) over r >= 0 for both signs of v
    require_even(f)
    # Sigma^2 = int v^4 f - 1, which u_max reads, is the variance of V^2
    # only at unit energy
    energy = moment(f, 2)
    if abs(energy - 1.0) > 1e-6:
        raise ConfigurationError(f"generator {f.tag!r} has int v^2 f = "
                                 f"{energy:.6g}, not unit energy")


class NormalizationLadder:
    """Log-domain tables of h^{(*n)} for a single unit-energy generator.

    The u-grid has n_grid cells up to
    u_max = n_max + 10 sqrt(max(n_max Sigma^2, 1)), ten standard deviations
    of the level-n_max energy above its mean; stored levels end at the
    horizon, the node just past u = n_max until a read needs more.
    """

    def __init__(self, f: GridDensity1D, n_max: int, n_grid: int = 2**15):
        n_max, n_grid = as_int(n_max, "n_max"), as_int(n_grid, "n_grid")
        for name, value in (("n_max", n_max), ("n_grid", n_grid)):
            if value < 2:
                raise ValueError(f"{name} must be >= 2, not {value}")
        check_generator(f)
        self.generator = f
        self.sigma2 = moment(f, 4) - 1.0
        self.n_max = n_max
        self.u_max = float(n_max + 10.0 * np.sqrt(max(n_max * self.sigma2,
                                                      1.0)))
        self.n_grid = n_grid
        self.du = self.u_max / self.n_grid
        self.grid = self.du * np.arange(self.n_grid)
        leak = self._leakage()
        if leak > 1e-4:
            raise ConfigurationError(
                f"u_max={self.u_max:.3g} truncates the energy density "
                f"(mass {1.0 - leak:.6f})")
        # the node just past u = n_max: every read at u <= n_max brackets
        # u with nodes up to it, so stored levels end there
        self._rebase(min(int(np.searchsorted(self.grid, n_max, "right")),
                         self.n_grid - 1))

    # -- construction ---------------------------------------------------

    def _leakage(self) -> float:
        """Mass of the single-particle energy density past u_max: the mass
        of f's table at |v| > sqrt(u_max)."""
        f = self.generator
        return float(np.sum(f.values * f.quadrature_weights,
                            where=np.abs(f.nodes) > np.sqrt(self.u_max)))

    def _rebase(self, horizon: int) -> None:
        """Set the horizon node and drop every stored level but level 1,
        the base cells up to it."""
        self._horizon = horizon
        level1 = self._base_masses(horizon + 1)
        freeze(level1)
        # level n -> (offset, cells): its masses from grid index offset on,
        # up to the horizon at most; the grid's other cells hold zero
        self._masses: dict[int, tuple[int, np.ndarray]] = {1: (0, level1)}

    def _edges(self) -> np.ndarray:
        """|v| at the cell edges u = du (k -+ 1/2), the lowest clipped at
        0; only the base masses read them, so they are not stored."""
        return np.sqrt(np.maximum(np.arange(self.n_grid + 1) - 0.5, 0.0)
                       * self.du)

    def _base_masses(self, count: int) -> np.ndarray:
        """Cell masses of h around the first count nodes: 2 f(r)
        integrated between the cell's edges r = sqrt(du (k -+ 1/2)) by
        _BASE_RULE-point Gauss-Legendre.

        Only the first count cells up to their :meth:`_base_reach` are
        integrated and returned; the rest are 0.  The rule runs on
        _BASE_BLOCK cells at a time, which bounds its temporaries and
        leaves every mass as the rule on all cells at once gives it, bit
        for bit.
        """
        f, edges = self.generator, self._edges()
        x, w = gauss_legendre(_BASE_RULE)
        out = np.empty(self._base_reach(edges[:count + 1]))
        for start in range(0, out.size, _BASE_BLOCK):
            stop = min(start + _BASE_BLOCK, out.size)
            lo, hi = edges[start:stop], edges[start + 1:stop + 1]
            r = 0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * x
            out[start:stop] = (hi - lo) * (np.maximum(f(r), 0.0) @ w)
        return out

    def _base_reach(self, edges: np.ndarray) -> int:
        """The number of base cells up to the last one whose bound
        2 max(f(lo), f(hi)) (hi - lo), from f at the cell edges (edges, a
        prefix of :meth:`_edges`), reaches 1e-3 _TRIM of the largest, among
        the cells that start below f.v_max, the end of f's table.

        The bound holds the mass of each cell on which f falls (every
        cell of the package's generators, Gaussians and mixtures of
        them), so the cells past the reach hold less than 1e-3 _TRIM of
        the peak: they lie outside level 1's window, which is all the walk
        reads of it.  Such an f falls from the first cell on, where the
        bound is largest, so the reach of a prefix of the edges is the
        reach of all of them, cut at the prefix.
        """
        f = self.generator
        e = edges[:int(np.searchsorted(edges[:-1], f.v_max)) + 1]
        f_e = np.maximum(f(e), 0.0)
        bound = 2.0 * np.maximum(f_e[:-1], f_e[1:]) * np.diff(e)
        return int(np.flatnonzero(bound >= 1e-3 * _TRIM * bound.max())[-1]) + 1

    @staticmethod
    def halves(n: int) -> tuple[int, int]:
        """The two levels whose convolution builds level n >= 2: ceil(n/2)
        and floor(n/2)."""
        return (n - n // 2, n // 2)

    def _wanted(self, levels) -> set[int]:
        """The levels as a set of ints, each checked to lie in 1..n_max."""
        wanted = {as_int(k, "level") for k in levels}
        for k in wanted:
            if not 1 <= k <= self.n_max:
                raise ValueError(f"level n={k} not in 1..n_max={self.n_max}")
        return wanted

    def window(self, n: int, *also: int) -> tuple[int, np.ndarray]:
        """(offset, cells): the stored cell masses of h^{(*n)} up to the
        horizon node, which start at grid index offset; every other cell
        of the grid up to the horizon holds zero.  1 <= n <= n_max.  The
        levels among n and also that are not stored yet are built together
        in one walk.  The cells are read-only."""
        wanted = self._wanted((n, *also))
        if not wanted.issubset(self._masses):
            self._walk(wanted)
        return self._masses[n]

    def level(self, n: int) -> np.ndarray:
        """Cell-mass array of h^{(*n)} on the whole grid, from the stored
        level; the horizon moves to the grid's last node first.
        1 <= n <= n_max."""
        self._wanted((n,))
        if self._horizon < self.n_grid - 1:
            self._rebase(self.n_grid - 1)
        offset, cells = self.window(n)
        out = np.zeros(self.n_grid)
        out[offset:offset + cells.size] = cells
        return out

    def _walk(self, wanted: set[int]) -> None:
        """Store the wanted levels and the missing levels of their tree,
        each up to the horizon node.

        A level n >= 2 sits on tier ceil(log2 n) and its halves on lower
        tiers, so the tiers are built in ascending order.  Within a tier
        each factor is transformed once, over its window, which is found
        among its cells; every new level is the inverse transform of the
        product of its halves' spectra, stored from the sum of their
        windows' first cells on, over the sum of the windows cut at the
        horizon.  Cell m of a convolution reads only cells <= m of its
        factors, so the cut moves no cell up to the horizon by more than
        transform rounding.  A tier's transforms share one length, the
        smallest 5-smooth one that holds the linear convolution of its
        widest pair of windows, and write into buffers that live for one
        walk.
        """
        masses, last = self._masses, self._horizon
        missing: set[int] = set()
        stack = list(wanted)
        while stack:
            n = stack.pop()
            if n not in masses and n not in missing:
                missing.add(n)
                stack.extend(self.halves(n))
        tiers: dict[int, list[int]] = {}
        for n in sorted(missing):
            tiers.setdefault((n - 1).bit_length(), []).append(n)
        # sized for the longest transform a walk can need; a tier touches
        # only the pages it writes
        spectra: list[np.ndarray] = []
        signal = np.empty(_fast_length(2 * (last + 1)))
        product = np.empty(signal.size // 2 + 1, dtype=complex)
        for tier in sorted(tiers):
            levels = tiers[tier]
            win, factor = {}, {}
            for h in dict.fromkeys(h for n in levels for h in self.halves(n)):
                offset, cells = masses[h]
                lo, hi = _window(cells)
                win[h] = (offset + lo, offset + hi)
                factor[h] = cells[lo:hi + 1]
            length = _fast_length(max(
                win[a][1] - win[a][0] + win[b][1] - win[b][0] + 2
                for a, b in map(self.halves, levels)))
            size = length // 2 + 1
            while len(spectra) < len(win):
                spectra.append(np.empty(product.size, dtype=complex))
            spectrum = {h: np.fft.rfft(cells, length, out=buf[:size])
                        for (h, cells), buf in zip(factor.items(), spectra)}
            for n in levels:
                a, b = self.halves(n)
                lo = win[a][0] + win[b][0]
                hi = min(win[a][1] + win[b][1], last)
                np.multiply(spectrum[a], spectrum[b], out=product[:size])
                np.fft.irfft(product[:size], length, out=signal[:length])
                cells = np.maximum(signal[:hi + 1 - lo], 0.0)
                freeze(cells)
                masses[n] = (lo, cells)

    # -- queries --------------------------------------------------------

    def _log_nodes(self, level: tuple[int, np.ndarray],
                   k: np.ndarray) -> np.ndarray:
        """log h^{(*n)} at the grid nodes k of level = (offset, cells),
        clipped at the density floor 1e-300, which every node outside the
        cells holds."""
        offset, cells = level
        i = k - offset
        inside = (i >= 0) & (i < cells.size)
        dens = np.where(inside, cells[np.clip(i, 0, cells.size - 1)], 0.0)
        return np.log(np.maximum(dens / self.du, 1e-300))

    def log_density(self, n: int, u) -> np.ndarray:
        """Log-linear interpolation of log h^{(*n)} between u-nodes, for u
        in [0, u_max]; any other u (NaN too) raises ValueError before a
        level is built.

        Each u reads the two grid nodes that bracket it, with
        :func:`numpy.interp`'s formula, so the values are its values on a
        log table of the stored level's cells bit for bit; past the last
        node, u takes that node's value.  A u past the horizon node moves
        the horizon to the grid's last node first."""
        u = np.asarray(u, dtype=float)
        if not np.all((u >= 0) & (u <= self.u_max)):
            raise ValueError(f"u outside the ladder grid [0, "
                             f"{self.u_max:.6g}]")
        last = self.n_grid - 1
        hi = np.clip(np.searchsorted(self.grid, u, side="right"), 1, last)
        if self._horizon < last and np.any(u > self.grid[self._horizon]):
            self._rebase(last)
        level = self.window(n)
        y0, y1 = self._log_nodes(level, hi - 1), self._log_nodes(level, hi)
        x0 = self.grid[hi - 1]
        slope = (y1 - y0) / (self.grid[hi] - x0)
        return np.where(u < self.grid[last], slope * (u - x0) + y0, y1)

    def log_z(self, n: int, u) -> np.ndarray:
        """log Z_n(f, sqrt(u))."""
        if not 2 <= n <= self.n_max:
            raise ValueError(f"level n={n} not in 2..n_max={self.n_max}")
        u = np.asarray(u, dtype=float)
        out = (np.log(2.0) + self.log_density(n, u)
               - 0.5 * (n - 2) * np.log(np.maximum(u, 1e-300))
               - log_sphere_area(n))
        return float(out) if out.ndim == 0 else out


# -- local-CLT approximation and error envelopes ------------------------


def lambda_profile(ladder: NormalizationLadder, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The remainder lambda_n(u) on the grid, restricted to u in [0, n].

    Extracted literally from the concentration display:
    lambda_n(u) = sqrt(n Sigma^2) h^{(*n)}(u) - exp(-(u-n)^2/(2 n Sigma^2))/sqrt(2 pi).
    """
    sig2 = ladder.sigma2
    u = ladder.grid[ladder.grid <= n]
    offset, cells = ladder.window(n)
    dens = np.zeros(u.size)
    part = cells[:max(u.size - offset, 0)]
    dens[offset:offset + part.size] = part / ladder.du
    scale = np.sqrt(n * sig2)
    gauss = np.exp(-((u - n) ** 2) / (2.0 * n * sig2)) / np.sqrt(2.0 * np.pi)
    return u, scale * dens - gauss


def lambda_sup(ladder: NormalizationLadder, n: int) -> float:
    """sup over u in [0, n] of |lambda_n(u)|."""
    return float(np.max(np.abs(lambda_profile(ladder, n)[1])))


def clt_envelope(generators, n_list,
                 j: int = 0) -> list[tuple[int, float, float]]:
    """(N, Sigma^2, sup|lambda_{N-j}|) for each N of n_list.

    ``generators`` is either a single density, whose rows all read one
    ladder up to max(n_list) - j, or a callable N -> density, such as the
    schedule delta_N = N^{2 beta - 1}, whose row at N reads its own ladder
    up to N - j.
    """
    if j not in (0, 1, 2):
        raise ValueError("j must be 0, 1 or 2")
    if isinstance(generators, GridDensity1D):
        ladders = itertools.repeat(
            NormalizationLadder(generators, max(n_list) - j))
    else:
        ladders = (NormalizationLadder(generators(n), n - j) for n in n_list)
    return [(n, ladder.sigma2, lambda_sup(ladder, n - j))
            for n, ladder in zip(n_list, ladders)]


def schedule_delta(beta: float, n: int) -> float:
    """The vanishing hot-component weight delta_N = N^{2 beta - 1}."""
    return float(n) ** (2.0 * beta - 1.0)
