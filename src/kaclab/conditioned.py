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

import numpy as np

from .densities import GridDensity1D
from .errors import AccuracyError, SamplingError
from .normalization import NormalizationLadder
from .quadrature import (ANGLES, TWO_PI, angle_midpoints, energy_shells, fold,
                         log_power_kernel, pair_kernel, quadrant_angles,
                         require_even, shell_sum, trapezoid_weights)

# Monte Carlo states per batch
_MC_BATCH = 50_000


class ConditionedFamily:
    """Marginals and entropy functionals of F_N for one even generator f."""

    def __init__(self, f: GridDensity1D, n: int,
                 ladder: NormalizationLadder | None = None):
        if n < 3:
            raise ValueError("need at least three particles")
        require_even(f)
        self.f = f
        self.n = n
        self.ladder = (ladder if ladder is not None
                       else NormalizationLadder(f, n))
        if self.ladder.u_max < n:
            raise ValueError("ladder grid does not reach the total energy")
        self._log_zn = float(self.ladder.log_z(n, float(n)))

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
            out[ok] = (self.ladder.log_density(n - k, n - s[ok])
                       - self.ladder.log_density(n, float(n)))
        return out

    def marginal1(self, v) -> np.ndarray:
        """First marginal F_{N,1}(v), supported on |v| <= sqrt N."""
        v = np.asarray(v, dtype=float)
        with np.errstate(divide="ignore"):
            logf = np.where(self.f(v) > 0, np.log(np.maximum(self.f(v), 1e-300)),
                            -np.inf)
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

    @staticmethod
    def _refined(what: str, value, n_s: int, check: bool) -> float:
        """value(n_s, ANGLES); with check, the value on twice the shells
        and angles, which must agree with it to 1e-3."""
        val = value(n_s, ANGLES)
        if check:
            ref = value(2 * n_s, 2 * ANGLES)
            if abs(val - ref) > 1e-3 * max(abs(ref), 1e-12):
                raise AccuracyError(
                    f"{what} quadrature not converged: {val} vs {ref}")
            val = ref
        return val

    def production(self, gamma: float, n_s: int = 192,
                   check: bool = True) -> float:
        """Entropy production D_{N,gamma}(F_N) with rate (1 + v_i^2 + v_j^2)^gamma.

        In polar coordinates on each energy shell the rotation is an angle
        shift, and the symmetric kernel (x - y)(log x - log y) summed over
        angle pairs collapses to two inner products, so the cost is linear
        in the number of angle nodes.
        """
        def production_value(n_s, angle_nodes):
            s, ws, weight, p = self._shells(n_s, angle_nodes)
            rate = weight * (1.0 + s) ** gamma
            # jacobian dv1 dv2 = (1/2) ds dphi, prefactor N / 4 pi
            return self.n / (4.0 * np.pi) * 0.5 * shell_sum(
                ws, rate, pair_kernel(p, angle_nodes), angle_nodes)

        return self._refined("production", production_value, n_s, check)

    def log_power_integral(self, beta: float, n_s: int = 192,
                           check: bool = True) -> float:
        """The |log|^{1+beta}-weighted collision integral of F_N.

        Same reduction as :meth:`production` with the kernel
        psi_beta(x, y) = (x - y) |log(x/y)|^{1+beta} and no rate weight.
        """
        def log_power_value(n_s, angle_nodes):
            s, ws, weight, p = self._shells(n_s, angle_nodes)
            pair = log_power_kernel(p, beta)
            # prefactor 1 / 2 pi and the polar jacobian 1/2; no N scaling
            return shell_sum(ws, weight, pair, angle_nodes) / TWO_PI * 0.5

        return self._refined("log-power", log_power_value, n_s, check)

    # -- sampling -------------------------------------------------------

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Exact draws from F_N, shape (size, N); energies sum to N.

        Sequential conditionals: given the residual energy E, the next
        coordinate has density proportional to f(v) h^{*(m-1)}(E - v^2)
        where m coordinates remain, inverted per sample on a 256-node
        velocity grid spanning |v| <= sqrt(E).  The final pair is drawn
        on its energy circle.
        """
        n = self.n
        out = np.empty((size, n))
        energy = np.full(size, float(n))
        t = np.linspace(-1.0, 1.0, 256)
        for pos in range(n - 2):
            m = n - pos  # coordinates still unset
            vmax = np.sqrt(energy) * (1.0 - 1e-12)
            v = vmax[:, None] * t[None, :]
            res = energy[:, None] - v * v
            logd = self.ladder.log_density(m - 1, np.maximum(res, 0.0))
            with np.errstate(divide="ignore"):
                logf = np.log(np.maximum(self.f(v), 1e-300))
            logd = logd + logf
            logd -= logd.max(axis=1, keepdims=True)
            dens = np.exp(logd)
            cum = np.cumsum(0.5 * (dens[:, 1:] + dens[:, :-1]), axis=1)
            tot = cum[:, -1]
            if np.any(tot <= 0):
                raise SamplingError("degenerate conditional in coordinate draw")
            u = rng.random(size) * tot
            idx = np.sum(cum < u[:, None], axis=1)
            idx = np.clip(idx, 0, len(t) - 2)
            lo = np.where(idx > 0, cum[np.arange(size), idx - 1], 0.0)
            frac = (u - lo) / np.maximum(cum[np.arange(size), idx] - lo, 1e-300)
            draw = v[np.arange(size), idx] + frac * (
                v[np.arange(size), idx + 1] - v[np.arange(size), idx])
            out[:, pos] = draw
            energy = np.maximum(energy - draw * draw, 0.0)
        out[:, n - 2:] = self._sample_pair(energy, rng)
        return out

    def _sample_pair(self, energy: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
        """Last two coordinates on the circle of radius sqrt(energy), by
        rejection under 1.05 times the maximum on 512 angles."""
        size = energy.shape[0]
        rho = np.sqrt(energy)
        phi_grid = TWO_PI * np.arange(512) / 512
        pgrid = np.maximum(self.f(np.outer(rho, np.cos(phi_grid)))
                           * self.f(np.outer(rho, np.sin(phi_grid))), 0.0)
        pmax = pgrid.max(axis=1) * 1.05
        if np.any(pmax <= 0):
            raise SamplingError("degenerate circle density in pair draw")
        phi = np.empty(size)
        todo = np.arange(size)
        for _ in range(10_000):
            cand = rng.random(todo.size) * TWO_PI
            val = (self.f(rho[todo] * np.cos(cand))
                   * self.f(rho[todo] * np.sin(cand)))
            keep = rng.random(todo.size) * pmax[todo] < val
            phi[todo[keep]] = cand[keep]
            todo = todo[~keep]
            if todo.size == 0:
                break
        else:
            raise SamplingError("rejection sampler for the last pair stalled")
        return np.stack([rho * np.cos(phi), rho * np.sin(phi)], axis=1)

    # -- Monte Carlo cross-checks ---------------------------------------

    def _batches(self, samples: int, rng: np.random.Generator,
                 velocities: np.ndarray | None):
        """States in batches of _MC_BATCH: consecutive rows of velocities,
        else draws."""
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
            w1 = v1[:, None] * np.cos(theta) + v2[:, None] * np.sin(theta)
            w2 = -v1[:, None] * np.sin(theta) + v2[:, None] * np.cos(theta)
            ratio = np.maximum(self.f(w1) * self.f(w2), 1e-300) / base[:, None]
            inner = np.sum((1.0 - ratio) * (-np.log(ratio)), axis=1) * dtheta
            s = v1 * v1 + v2 * v2
            total += float(np.sum((1.0 + s) ** gamma * inner))
        return self.n / (4.0 * np.pi) * total / samples
