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
most _TRIM (max m_a sum m_b + max m_b sum m_a).  A level is stored as
(offset, cells), the cells its walk wrote, and its log-density table as
those cells and one floor node on either side; a whole-grid array is
assembled only for a caller that asks for one (:meth:`level`).  The 11
levels and log tables of a 2^18-cell Gaussian ladder read up to level
1024 so take 7.7 MiB, where whole-grid arrays would take 28 MB.

The ladder also owns the sampler of its discretised measure:
:meth:`NormalizationLadder.sample_radii` draws n energies conditioned on
their sum as cells split top-down along the same tree, then each |v|
within its cell.
Everything Z-shaped is exposed in the log domain; the huge power/area
prefactors are combined with log-gamma arithmetic and cancel analytically
inside ratio queries.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

from .densities import GridDensity1D, moment
from .errors import ConfigurationError, SamplingError
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
# rejection rounds of a split draw; cells still pending after them are
# drawn from the exact law
_SPLIT_ROUNDS = 1000


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


class NormalizationLadder:
    """Log-domain tables of h^{(*n)} for a single unit-energy generator.

    The u-grid has n_grid cells up to
    u_max = n_max + 10 sqrt(max(n_max Sigma^2, 1)), ten standard deviations
    of the level-n_max energy above its mean.
    """

    def __init__(self, f: GridDensity1D, n_max: int, n_grid: int = 2**15):
        n_max, n_grid = as_int(n_max, "n_max"), as_int(n_grid, "n_grid")
        for name, value in (("n_max", n_max), ("n_grid", n_grid)):
            if value < 2:
                raise ValueError(f"{name} must be >= 2, not {value}")
        # the base masses integrate f(r) over r >= 0 for both signs of v
        require_even(f)
        # Sigma^2 = int v^4 f - 1, which u_max reads, is the variance of
        # V^2 only at unit energy
        energy = moment(f, 2)
        if abs(energy - 1.0) > 1e-6:
            raise ConfigurationError(f"generator {f.tag!r} has int v^2 f = "
                                     f"{energy:.6g}, not unit energy")
        self.generator = f
        self.sigma2 = moment(f, 4) - 1.0
        self.n_max = n_max
        self.u_max = float(n_max + 10.0 * np.sqrt(max(n_max * self.sigma2,
                                                      1.0)))
        self.n_grid = n_grid
        self.du = self.u_max / self.n_grid
        self.grid = self.du * np.arange(self.n_grid)
        # |v| at the cell edges u = du (k -+ 1/2), the lowest clipped at 0
        self._edges = np.sqrt(np.maximum(np.arange(n_grid + 1) - 0.5, 0.0)
                              * self.du)
        base = self._base_masses()
        freeze(base)
        # level n -> (offset, cells): its masses from grid index offset on;
        # the grid's other cells hold zero
        self._masses: dict[int, tuple[int, np.ndarray]] = {1: (0, base)}
        # level n -> (first node, log density on the nodes from it on)
        self._log_density: dict[int, tuple[int, np.ndarray]] = {}
        # leakage of the single-particle energy density past the grid
        if 1.0 - float(np.sum(base)) > 1e-4:
            raise ConfigurationError(
                f"u_max={self.u_max:.3g} truncates the energy density "
                f"(mass {np.sum(base):.6f})"
            )

    # -- construction ---------------------------------------------------

    def _base_masses(self) -> np.ndarray:
        """Cell masses of h around each node: 2 f(r) integrated between
        the cell's edges r = sqrt(du (k -+ 1/2)) by _BASE_RULE-point
        Gauss-Legendre.

        Only the cells that start below f.v_max, the end of f's table, are
        integrated and returned; for the package's generators, whose tables
        reach 8 standard deviations of the wider component, the rest hold
        less than _TRIM of the peak and are 0.
        """
        f, edges = self.generator, self._edges
        cells = int(np.searchsorted(edges[:-1], f.v_max))
        lo, hi = edges[:cells], edges[1:cells + 1]
        x, w = gauss_legendre(_BASE_RULE)
        r = 0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * x
        return (hi - lo) * (np.maximum(f(r), 0.0) @ w)

    @staticmethod
    def halves(n: int) -> tuple[int, int]:
        """The two levels whose convolution builds level n >= 2: ceil(n/2)
        and floor(n/2)."""
        return (n - n // 2, n // 2)

    def window(self, n: int, *also: int) -> tuple[int, np.ndarray]:
        """(offset, cells): the stored cell masses of h^{(*n)}, which
        start at grid index offset; every other cell of the grid holds
        zero.  1 <= n <= n_max.  The levels among n and also that are not
        stored yet are built together in one walk.  The cells are
        read-only."""
        wanted = {as_int(k, "level") for k in (n, *also)}
        for k in wanted:
            if not 1 <= k <= self.n_max:
                raise ValueError(f"level n={k} not in 1..n_max={self.n_max}")
        if not wanted.issubset(self._masses):
            self._walk(wanted)
        return self._masses[n]

    def level(self, n: int, *also: int) -> np.ndarray:
        """Cell-mass array of h^{(*n)} on the whole grid, assembled from
        :meth:`window` on each call; n and also as there."""
        self.window(n, *also)
        return self._head(n, self.n_grid)

    def _head(self, n: int, stop: int) -> np.ndarray:
        """A new array of the masses of stored level n on cells 0..stop-1."""
        offset, cells = self._masses[n]
        out = np.zeros(stop)
        part = cells[:max(stop - offset, 0)]
        out[offset:offset + part.size] = part
        return out

    @property
    def levels(self) -> list[int]:
        """The levels stored so far, ascending."""
        return sorted(self._masses)

    @property
    def nbytes(self) -> int:
        """Bytes held by the stored levels and log-density tables."""
        return sum(cells.nbytes for table in (self._masses, self._log_density)
                   for _, cells in table.values())

    def _walk(self, wanted: set[int]) -> None:
        """Build the wanted levels and the missing levels of their tree.

        A level n >= 2 sits on tier ceil(log2 n) and its halves on lower
        tiers, so the tiers are built in ascending order.  Within a tier
        each factor is transformed once, over its window, which is found
        among its stored cells; every new level is the inverse transform
        of the product of its halves' spectra, stored from the sum of
        their windows' first cells on, over the sum of the windows (cut at
        the grid's end).  A tier's transforms share one length, the
        smallest 5-smooth one that holds the linear convolution of its
        widest pair of windows, and write into buffers that live for one
        walk.
        """
        missing: set[int] = set()
        stack = list(wanted)
        while stack:
            n = stack.pop()
            if n not in self._masses and n not in missing:
                missing.add(n)
                stack.extend(self.halves(n))
        tiers: dict[int, list[int]] = {}
        for n in sorted(missing):
            tiers.setdefault((n - 1).bit_length(), []).append(n)
        # sized for the longest transform a walk can need; a tier touches
        # only the pages it writes
        spectra: list[np.ndarray] = []
        signal = np.empty(_fast_length(2 * self.n_grid))
        product = np.empty(signal.size // 2 + 1, dtype=complex)
        for tier in sorted(tiers):
            levels = tiers[tier]
            win, factor = {}, {}
            for h in dict.fromkeys(h for n in levels for h in self.halves(n)):
                offset, cells = self._masses[h]
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
                hi = min(win[a][1] + win[b][1], self.n_grid - 1)
                np.multiply(spectrum[a], spectrum[b], out=product[:size])
                np.fft.irfft(product[:size], length, out=signal[:length])
                cells = np.maximum(signal[:hi + 1 - lo], 0.0)
                freeze(cells)
                self._masses[n] = (lo, cells)

    # -- queries --------------------------------------------------------

    def _log_table(self, n: int) -> tuple[int, np.ndarray]:
        """(first, table): log h^{(*n)}, clipped at the density floor
        1e-300, at the nodes of level n's stored cells and at one node on
        either side (where the grid has one), from node first on.  Beyond
        the table the log density is the floor, which its end nodes hold,
        so interpolating on the table reproduces the whole grid's values."""
        entry = self._log_density.get(n)
        if entry is None:
            offset, cells = self.window(n)
            first = max(offset - 1, 0)
            dens = np.zeros(min(offset + cells.size + 1, self.n_grid) - first)
            dens[offset - first:offset - first + cells.size] = cells / self.du
            entry = first, np.log(np.maximum(dens, 1e-300))
            self._log_density[n] = entry
        return entry

    def log_density(self, n: int, u) -> np.ndarray:
        """Log-linear interpolation of log h^{(*n)} between u-nodes."""
        u = np.asarray(u, dtype=float)
        if np.any(u < 0) or np.any(u > self.u_max):
            raise ValueError("u outside the ladder grid")
        first, table = self._log_table(n)
        return np.interp(u, self.grid[first:first + table.size], table)

    def log_z(self, n: int, u) -> np.ndarray:
        """log Z_n(f, sqrt(u))."""
        if not 2 <= n <= self.n_max:
            raise ValueError(f"level n={n} not in 2..n_max={self.n_max}")
        u = np.asarray(u, dtype=float)
        out = (np.log(2.0) + self.log_density(n, u)
               - 0.5 * (n - 2) * np.log(np.maximum(u, 1e-300))
               - log_sphere_area(n))
        return float(out) if out.ndim == 0 else out

    # -- sampling -------------------------------------------------------

    def sample_radii(self, n: int, size: int,
                     rng: np.random.Generator) -> np.ndarray:
        """|v| of size draws of n velocities whose squares are i.i.d. from
        h conditioned on their sum lying in the cell of u = n, shape
        (size, n); 2 <= n <= n_max.

        The energies are drawn as ladder cells, exactly for the ladder's
        discretised measure, down the ladder's own balanced tree
        (:meth:`halves`), whose levels below n the walk for n's halves
        builds.  Starting from the cell e_0 = round(n / du) of the total,
        each node k = a + b splits its residual cell e into j and e - j
        with probability proportional to m_a[j] m_b[e - j], m_k the
        level-k cell masses (see :class:`_Split`).  A depth holds at most
        two node sizes, and the nodes of one size split in one draw.
        Within its cell each |v_i| is uniform between the cell's edges.
        """
        if not 2 <= n <= self.n_max:
            raise ValueError(f"level n={n} not in 2..n_max={self.n_max}")
        self.window(*self.halves(n))
        top = int(round(n / self.du))
        # each node size's columns of residual cells at the current depth;
        # columns of size 1 are leaves, in the order of their depths
        depth, leaves = {n: np.full((size, 1), top)}, []
        while depth:
            below: dict[int, list[np.ndarray]] = {}
            for k, cells in depth.items():
                a, b = self.halves(k)
                # no residual cell lies above the top one
                split = _Split(self._head(a, top + 1), self._head(b, top + 1))
                low = split.draw(cells.ravel(), rng).reshape(cells.shape)
                below.setdefault(a, []).append(low)
                below.setdefault(b, []).append(cells - low)
            leaves += below.pop(1, [])
            depth = {k: np.concatenate(c, axis=1) for k, c in below.items()}
        cells = np.concatenate(leaves, axis=1)
        r_lo, r_hi = self._edges[cells], self._edges[cells + 1]
        return r_lo + rng.random(cells.shape) * (r_hi - r_lo)


class _Split:
    """The split law P(j | e) proportional to m_a[j] m_b[e - j], j = 0..e.

    Drawn by rejection under the envelope that bounds the factor not
    proposed by its suffix maximum, an exact array maximum: with
    h = e // 2,

        g(j) = m_a[j] max_{k >= e - h} m_b[k]      for j <= h,
        g(j) = max_{k > h} m_a[k] m_b[e - j]       for j > h.

    Each piece is drawn in O(log n) by inverting a cumulative sum, and a
    draw from g is accepted with probability m_a[j] m_b[e - j] / g(j).

    The suffix maxima can look past e, where no draw lands, so at some
    cells the acceptance is tiny.  Cells still pending after _SPLIT_ROUNDS
    rounds are drawn by inverting the exact law, one cumulative sum per
    distinct residual e, in O(e) each: of 15 000
    draws of mixture(0.25), 0, 0, 4 and 1 cells take this path at
    N = 100, 300, 1000 and 1023.  The rounds are independent of the value
    finally drawn, so the result stays exact.
    """

    def __init__(self, m_a: np.ndarray, m_b: np.ndarray):
        self.m_a, self.m_b = m_a, m_b
        self.cum_a, self.cum_b = np.cumsum(m_a), np.cumsum(m_b)
        self.sup_a = np.maximum.accumulate(m_a[::-1])[::-1]
        self.sup_b = np.maximum.accumulate(m_b[::-1])[::-1]

    def caps(self, e: np.ndarray):
        """h = e // 2, the largest e - j over j > h (0 when there is none)
        and the envelope's mass on j <= h and on j > h."""
        h = e // 2
        top = np.maximum(e - h - 1, 0)
        low = self.cum_a[h] * self.sup_b[e - h]
        high = np.where(e > 0, self.cum_b[top] * self.sup_a[h + 1], 0.0)
        return h, top, low, high

    def envelope(self, e: np.ndarray, j: np.ndarray) -> np.ndarray:
        """g(j) for residual cells e."""
        h = e // 2
        return np.where(j <= h, self.m_a[j] * self.sup_b[e - h],
                        self.sup_a[h + 1] * self.m_b[e - j])

    def draw(self, e: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One split j for each residual cell in e."""
        h, top, low, high = self.caps(e)
        if np.any(low + high <= 0):
            raise SamplingError("a residual energy cell has no split mass")
        out = np.empty_like(e)
        todo = np.arange(e.size)
        for _ in range(_SPLIT_ROUNDS):
            if todo.size == 0:
                return out
            res = e[todo]
            below = rng.random(todo.size) * (low[todo] + high[todo]) < low[todo]
            u = rng.random(todo.size)
            j = res.copy()
            j[below] = _invert(self.cum_a, u[below], h[todo[below]])
            j[~below] -= _invert(self.cum_b, u[~below], top[todo[~below]])
            keep = (rng.random(todo.size) * self.envelope(res, j)
                    < self.m_a[j] * self.m_b[res - j])
            out[todo[keep]] = j[keep]
            todo = todo[~keep]
        res, u = e[todo], rng.random(todo.size)
        for cell in np.unique(res):
            law = np.cumsum(self.m_a[:cell + 1] * self.m_b[cell::-1])
            pick = res == cell
            out[todo[pick]] = _invert(law, u[pick], cell)
        return out


def _invert(cum: np.ndarray, u: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Index k <= last with P(k) = mass[k] / cum[last], for uniforms u."""
    return np.minimum(np.searchsorted(cum, u * cum[last], side="right"), last)


# -- local-CLT approximation and error envelopes ------------------------


def lambda_profile(ladder: NormalizationLadder, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The remainder lambda_n(u) on the grid, restricted to u in [0, n].

    Extracted literally from the concentration display:
    lambda_n(u) = sqrt(n Sigma^2) h^{(*n)}(u) - exp(-(u-n)^2/(2 n Sigma^2))/sqrt(2 pi).
    """
    sig2 = ladder.sigma2
    u = ladder.grid[ladder.grid <= n]
    ladder.window(n)
    dens = ladder._head(n, u.size) / ladder.du
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
