"""Conditioned tensorisation states on Kac's sphere.

For a unit-energy velocity density f, the state F_N = f^{otimes N} / Z_N
restricted to the sphere S^{N-1}(sqrt N) has marginals, entropy and
entropy production that all reduce to one-dimensional integrals against
ratios of convolution powers of the energy density h.  Those ratios come
from a shared :class:`~kaclab.normalization.NormalizationLadder`, so every
functional here is a quadrature over explicit log-domain tables.  The
production and log-power integrals use the polar-shell fold of
:mod:`kaclab.quadrature`, which needs an even generator.
"""

from __future__ import annotations

import functools

import numpy as np

from .densities import GridDensity1D
from .errors import AccuracyError, ConfigurationError, SamplingError
from .normalization import NormalizationLadder, as_int
from .quadrature import (ANGLES, SHELLS, TWO_PI, angle_midpoints,
                         energy_shells, fold, log_power_kernel, pair_kernel,
                         quadrant_angles, require_even, shell_sum,
                         trapezoid_weights)
from .sphere import rotate_pair

# Monte Carlo states per batch
_MC_BATCH = 50_000
# rejection rounds of a split draw; cells still pending after them are
# drawn from the exact law
_SPLIT_ROUNDS = 1000


class ConditionedFamily:
    """Marginals and entropy functionals of F_N for one even generator f."""

    def __init__(self, f: GridDensity1D, n: int,
                 ladder: NormalizationLadder | None = None):
        n = as_int(n, "N")
        if n < 3:
            raise ValueError("need at least three particles")
        require_even(f)
        self.f = f
        self.n = n
        self.ladder = (ladder if ladder is not None
                       else NormalizationLadder(f, n))
        if n > self.ladder.n_max:
            raise ValueError(f"ladder built for N <= {self.ladder.n_max}, "
                             f"not N={n}")

    @functools.cached_property
    def _levels(self) -> NormalizationLadder:
        """The ladder, on first read made to hold levels N, N - 1 and N - 2,
        all that Z_N and the marginals read, from one walk."""
        self.ladder.level(self.n, self.n - 1, self.n - 2)
        return self.ladder

    @functools.cached_property
    def _log_zn(self) -> float:
        """log Z_N(f, sqrt N)."""
        return float(self._levels.log_z(self.n, float(self.n)))

    # -- marginals ------------------------------------------------------

    def log_marginal_weight(self, k: int, s) -> np.ndarray:
        """log of the energy factor h^{*(N-k)}(N - s) / h^{*N}(N).

        Multiplying f(v_1)...f(v_k) by this weight gives the k-particle
        marginal of the conditioned state; s = v_1^2 + ... + v_k^2.
        """
        if k not in (1, 2):
            raise ValueError("only the first two marginals are supported")
        n = self.n
        s = np.asarray(s, dtype=float)
        out = np.full(s.shape, -np.inf)
        ok = (s >= 0) & (s < n)
        if np.any(ok):
            out[ok] = (self._levels.log_density(n - k, n - s[ok])
                       - self._levels.log_density(n, float(n)))
        return out

    def marginal1(self, v) -> np.ndarray:
        """First marginal F_{N,1}(v), supported on |v| <= sqrt N."""
        v = np.asarray(v, dtype=float)
        fv = self.f(v)
        logf = np.where(fv > 0, np.log(np.maximum(fv, 1e-300)), -np.inf)
        return np.exp(logf + self.log_marginal_weight(1, v * v))

    def _marginal_quadrature(self):
        """Velocity nodes, weights and unit-mass marginal values."""
        vmax = min(self.f.v_max, np.sqrt(self.n))
        v = np.linspace(-vmax, vmax, 4097)
        dens = self.marginal1(v)
        w = trapezoid_weights(v)
        mass = float(np.sum(dens * w))
        if not 0.9 < mass < 1.1:
            raise AccuracyError(f"first marginal mass {mass:.4f} far from 1")
        return v, w, dens / mass

    # -- entropy --------------------------------------------------------

    def entropy(self) -> float:
        """H(F_N | sigma_N) = int F_N log(F_N / sigma_N) on the sphere.

        Uses the additive split
        H = N int F_{N,1} log(f/M) - N/2 - (N/2) log(2 pi) - log Z_N,
        with M the unit-energy Gaussian, which needs only the first
        marginal and the partition function.
        """
        v, w, dens = self._marginal_quadrature()
        fv = np.maximum(self.f(v), 1e-300)
        log_m = -0.5 * v * v - 0.5 * np.log(TWO_PI)
        integrand = dens * (np.log(fv) - log_m)
        cross = float(np.sum(integrand * w))
        return (self.n * cross - 0.5 * self.n - 0.5 * self.n * np.log(TWO_PI)
                - self._log_zn)

    # -- entropy production ---------------------------------------------

    def _shells(self, n_s: int, angle_nodes: int):
        """Energy shells s in [0, N], their weights, the conditioning
        weight of the second marginal and the folded f(r cos) f(r sin)."""
        s, ws = energy_shells(n_s, float(self.n))
        e = self.f(np.outer(np.sqrt(s), np.cos(quadrant_angles(angle_nodes))))
        return (s, ws, np.exp(self.log_marginal_weight(2, s)),
                fold(np.maximum(e, 0.0)))

    def _checked(self, what: str, value, check: bool) -> float:
        """value(SHELLS, ANGLES); with check, it must agree with the value
        on half the shells and angles to 1e-3 relative or to 1e-12 N.

        The half rule keeps a multiple of 4 angles, so it folds too; it
        costs about half the production's value and a sixth of the
        log-power integral's.  The absolute floor sits far above the
        rounding noise of the shell sums, which grows with N: at a
        Maxwellian generator, where the production is zero, both rules
        give values of about 1e-15 N.
        """
        val = value(SHELLS, ANGLES)
        if check:
            half = value(SHELLS // 2, ANGLES // 2)
            if abs(val - half) > max(1e-3 * abs(val), 1e-12 * self.n):
                raise AccuracyError(
                    f"{what} quadrature not converged: {val} vs {half}")
        return val

    def production(self, gamma: float, check: bool = True) -> float:
        """Entropy production D_{N,gamma}(F_N) with rate (1 + v_i^2 + v_j^2)^gamma.

        In polar coordinates on each energy shell the rotation is an angle
        shift, and the symmetric kernel (x - y)(log x - log y) summed over
        angle pairs collapses to two inner products, so the cost is linear
        in the number of angle nodes.  The value is the same with or
        without check, which only skips the convergence check (see
        :meth:`_checked`).  gamma must lie in [0, 1].
        """
        if not 0.0 <= gamma <= 1.0:
            raise ConfigurationError(f"gamma must lie in [0, 1], got {gamma!r}")

        def production_value(n_s, angle_nodes):
            s, ws, weight, p = self._shells(n_s, angle_nodes)
            rate = weight * (1.0 + s) ** gamma
            # jacobian dv1 dv2 = (1/2) ds dphi, prefactor N / 4 pi
            return self.n / (4.0 * np.pi) * 0.5 * shell_sum(
                ws, rate, pair_kernel(p, angle_nodes), angle_nodes)

        return self._checked("production", production_value, check)

    def log_power_integral(self, beta: float) -> float:
        """The |log|^{1+beta}-weighted collision integral of F_N.

        Same reduction and convergence check as :meth:`production` with the
        kernel psi_beta(x, y) = (x - y) |log(x/y)|^{1+beta} and no rate
        weight.
        """
        def log_power_value(n_s, angle_nodes):
            s, ws, weight, p = self._shells(n_s, angle_nodes)
            pair = log_power_kernel(p, beta)
            # prefactor 1 / 2 pi and the polar jacobian 1/2; no N scaling
            return shell_sum(ws, weight, pair, angle_nodes) / TWO_PI * 0.5

        return self._checked("log-power", log_power_value, True)

    # -- sampling -------------------------------------------------------

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draws from F_N, shape (size, N); energies sum to N.

        Every generator is even, so the squared velocities s_i = v_i^2 are
        i.i.d. from h conditioned on sum s_i = N and the signs are fair
        coins.  The energies are drawn as ladder cells, exactly for the
        ladder's discretised measure, down the ladder's own balanced tree
        (:meth:`~kaclab.normalization.NormalizationLadder.halves`), whose
        levels below N the walk for N's halves builds.  Starting from the
        cell e_0 = round(N / du) of the total, each node n = a + b splits
        its residual cell e into j and e - j with probability proportional
        to m_a[j] m_b[e - j], m_k the level-k cell masses (see
        :class:`_Split`).  A depth holds at most two node sizes, and the
        nodes of one size split in one draw.  Within its cell each |v_i| is
        uniform between the square roots of the cell's edges; the
        velocities are then rescaled so the energies sum to N exactly.
        """
        n, ladder = self.n, self.ladder
        ladder.level(*ladder.halves(n))
        top = int(round(n / ladder.du))
        # each node size's columns of residual cells at the current depth;
        # columns of size 1 are leaves, in the order of their depths
        depth, leaves = {n: np.full((size, 1), top)}, []
        while depth:
            below: dict[int, list[np.ndarray]] = {}
            for k, cells in depth.items():
                a, b = ladder.halves(k)
                # no residual cell lies above the top one
                split = _Split(ladder.level(a)[:top + 1],
                               ladder.level(b)[:top + 1])
                low = split.draw(cells.ravel(), rng).reshape(cells.shape)
                below.setdefault(a, []).append(low)
                below.setdefault(b, []).append(cells - low)
            leaves += below.pop(1, [])
            depth = {k: np.concatenate(c, axis=1) for k, c in below.items()}
        cells = np.concatenate(leaves, axis=1)
        r_lo = np.sqrt(np.maximum(cells - 0.5, 0.0) * ladder.du)
        r_hi = np.sqrt((cells + 0.5) * ladder.du)
        r = r_lo + rng.random(cells.shape) * (r_hi - r_lo)
        r *= np.sqrt(n / np.sum(r * r, axis=1, keepdims=True))
        return np.where(rng.random(cells.shape) < 0.5, -r, r)

    # -- Monte Carlo cross-checks ---------------------------------------

    def _batches(self, samples: int, rng: np.random.Generator,
                 velocities: np.ndarray | None):
        """States in batches of _MC_BATCH: consecutive rows of velocities,
        else draws."""
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        if velocities is not None and len(velocities) < samples:
            raise ValueError(f"velocities has {len(velocities)} rows, fewer "
                             f"than samples={samples}")
        for start in range(0, samples, _MC_BATCH):
            b = min(_MC_BATCH, samples - start)
            yield (velocities[start:start + b] if velocities is not None
                   else self.sample(b, rng))

    def entropy_monte_carlo(self, samples: int, rng: np.random.Generator,
                            velocities: np.ndarray | None = None) -> float:
        """Sampling estimate of the entropy, for validating the quadrature."""
        total = 0.0
        for v in self._batches(samples, rng, velocities):
            total += float(np.sum(np.log(np.maximum(self.f(v), 1e-300))))
        return total / samples - self._log_zn

    def production_monte_carlo(self, gamma: float, samples: int,
                               rng: np.random.Generator,
                               velocities: np.ndarray | None = None) -> float:
        """Sampling estimate of D_{N,gamma}, for validating the quadrature.

        Averages the theta-integral of (1 - rho)(-log rho) over sampled
        states, with rho the post/pre collision density ratio of the
        leading pair, on 64 angle midpoints.
        """
        theta = angle_midpoints(64)
        dtheta = TWO_PI / theta.size
        total = 0.0
        for v in self._batches(samples, rng, velocities):
            v1, v2 = v[:, 0], v[:, 1]
            base = np.maximum(self.f(v1) * self.f(v2), 1e-300)
            w1, w2 = rotate_pair(v1[:, None], v2[:, None], theta)
            ratio = np.maximum(self.f(w1) * self.f(w2), 1e-300) / base[:, None]
            inner = np.sum((1.0 - ratio) * (-np.log(ratio)), axis=1) * dtheta
            s = v1 * v1 + v2 * v2
            total += float(np.sum((1.0 + s) ** gamma * inner))
        return self.n / (4.0 * np.pi) * total / samples


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
