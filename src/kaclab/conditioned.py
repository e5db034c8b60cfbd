"""Conditioned tensorisation states on Kac's sphere.

For a unit-energy velocity density f, the state F_N = f^{otimes N} / Z_N
restricted to the sphere S^{N-1}(sqrt N) has marginals, entropy and
entropy production that all reduce to one-dimensional integrals against
ratios of convolution powers of the energy density h.  Those ratios come
from a shared :class:`~kaclab.normalization.NormalizationLadder`, so every
functional here is a quadrature over explicit log-domain tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densities import GridDensity1D, moment
from .errors import AccuracyError, SamplingError
from .limit_eq import gauss_legendre
from .normalization import NormalizationLadder
from .sphere import log_sphere_area

_TWO_PI = 2.0 * np.pi


@dataclass
class AngleGrid:
    """Uniform angle nodes for the pair-rotation averages."""

    count: int = 256

    def nodes(self) -> np.ndarray:
        return _TWO_PI * (np.arange(self.count) + 0.5) / self.count

    @property
    def weight(self) -> float:
        return _TWO_PI / self.count


class ConditionedFamily:
    """Marginals and entropy functionals of F_N for one generator f."""

    def __init__(self, f: GridDensity1D, n: int,
                 ladder: NormalizationLadder | None = None,
                 n_grid: int = 2**15):
        if n < 3:
            raise ValueError("need at least three particles")
        self.f = f
        self.n = n
        self.ladder = ladder if ladder is not None else NormalizationLadder(
            f, n, n_grid=n_grid)
        if self.ladder.u_max < n:
            raise ValueError("ladder grid does not reach the total energy")
        self._log_zn = float(self.ladder.log_z(n, float(n)))

    # -- marginals ------------------------------------------------------

    @property
    def log_partition(self) -> float:
        """log Z_N(f, sqrt N)."""
        return self._log_zn

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

    def marginal2(self, v1, v2) -> np.ndarray:
        """Second marginal F_{N,2}(v1, v2)."""
        v1 = np.asarray(v1, dtype=float)
        v2 = np.asarray(v2, dtype=float)
        fv = np.maximum(self.f(v1) * self.f(v2), 0.0)
        with np.errstate(divide="ignore"):
            logf = np.where(fv > 0, np.log(np.maximum(fv, 1e-300)), -np.inf)
        return np.exp(logf + self.log_marginal_weight(2, v1 * v1 + v2 * v2))

    def _marginal_quadrature(self):
        """Velocity nodes, weights and unit-mass marginal values."""
        vmax = min(self.f.v_max, np.sqrt(self.n))
        v = np.linspace(-vmax, vmax, 4097)
        dens = self.marginal1(v)
        w = np.full(v.shape, v[1] - v[0])
        w[0] = w[-1] = 0.5 * (v[1] - v[0])
        mass = float(np.sum(dens * w))
        if not 0.9 < mass < 1.1:
            raise AccuracyError(f"first marginal mass {mass:.4f} far from 1")
        return v, w, dens / mass

    def chaos_distance(self) -> float:
        """L^1 distance between the first marginal and the generator."""
        v, w, dens = self._marginal_quadrature()
        return float(np.sum(np.abs(dens - self.f(v)) * w))

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
        log_m = -0.5 * v * v - 0.5 * np.log(_TWO_PI)
        integrand = dens * (np.log(fv) - log_m)
        cross = float(np.sum(integrand * w))
        return (self.n * cross - 0.5 * self.n - 0.5 * self.n * np.log(_TWO_PI)
                - self._log_zn)

    # -- entropy production ---------------------------------------------

    def _polar_tables(self, n_s: int, angles: AngleGrid):
        """Gauss-Legendre s-nodes with P(phi) = f(r cos) f(r sin) tables."""
        x, ws = gauss_legendre(n_s)
        s = 0.5 * float(self.n) * (x + 1.0)
        ws = 0.5 * float(self.n) * ws
        phi = angles.nodes()
        r = np.sqrt(s)
        p = (self.f(np.outer(r, np.cos(phi)))
             * self.f(np.outer(r, np.sin(phi))))
        return s, ws, phi, np.maximum(p, 0.0)

    def production(self, gamma: float, n_s: int = 192,
                   angles: AngleGrid | None = None,
                   check: bool = True) -> float:
        """Entropy production D_{N,gamma}(F_N) with rate (1 + v_i^2 + v_j^2)^gamma.

        In polar coordinates on each energy shell the rotation is an angle
        shift, and the symmetric kernel (x - y)(log x - log y) summed over
        angle pairs collapses to two inner products, so the cost is linear
        in the number of angle nodes.
        """
        val = self._production_value(gamma, n_s, angles or AngleGrid())
        if check:
            ref = self._production_value(gamma, 2 * n_s,
                                         AngleGrid(2 * (angles or AngleGrid()).count))
            if abs(val - ref) > 1e-3 * max(abs(ref), 1e-12):
                raise AccuracyError(
                    f"production quadrature not converged: {val} vs {ref}")
            val = ref
        return val

    def _production_value(self, gamma: float, n_s: int, angles: AngleGrid) -> float:
        s, ws, phi, p = self._polar_tables(n_s, angles)
        dphi = angles.weight
        logw = self.log_marginal_weight(2, s)
        k = p.shape[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = np.where(p > 0, np.log(np.maximum(p, 1e-300)), 0.0)
        pl = p * logp
        # sum_{i,j} (p_i - p_j)(log p_i - log p_j)
        #   = 2 K sum p_i log p_i - 2 (sum p)(sum log... p)
        pair = 2.0 * (k * np.sum(pl, axis=1)
                      - np.sum(p, axis=1) * np.sum(logp * (p > 0), axis=1))
        shell = np.exp(logw) * (1.0 + s) ** gamma * pair * dphi * dphi
        # jacobian dv1 dv2 = (1/2) ds dphi, prefactor N / 4 pi
        return float(self.n / (4.0 * np.pi) * 0.5 * np.sum(ws * shell))

    def log_power_integral(self, beta: float, n_s: int = 192,
                           angles: AngleGrid | None = None,
                           check: bool = True) -> float:
        """The |log|^{1+beta}-weighted collision integral of F_N.

        Same reduction as :meth:`production` with the kernel
        psi_beta(x, y) = (x - y) |log(x/y)|^{1+beta} and no rate weight,
        but the kernel does not factorize, so angle pairs cost O(K^2).
        """
        val = self._log_power_value(beta, n_s, angles or AngleGrid())
        if check:
            ref = self._log_power_value(beta, 2 * n_s,
                                        AngleGrid(2 * (angles or AngleGrid()).count))
            if abs(val - ref) > 1e-3 * max(abs(ref), 1e-12):
                raise AccuracyError(
                    f"log-power quadrature not converged: {val} vs {ref}")
            val = ref
        return val

    def _log_power_value(self, beta: float, n_s: int, angles: AngleGrid) -> float:
        s, ws, phi, p = self._polar_tables(n_s, angles)
        dphi = angles.weight
        logw = self.log_marginal_weight(2, s)
        with np.errstate(divide="ignore"):
            logp = np.log(np.maximum(p, 1e-300))
        total = 0.0
        for a in range(len(s)):
            row, lrow = p[a], logp[a]
            live = row > 0
            x, lx = row[live], lrow[live]
            d = x[:, None] - x[None, :]
            dl = lx[:, None] - lx[None, :]
            pair = float(np.sum(d * np.sign(dl) * np.abs(dl) ** (1.0 + beta)))
            total += ws[a] * np.exp(logw[a]) * pair * dphi * dphi
        # prefactor 1 / 2 pi and the polar jacobian 1/2; no N scaling here
        return float(total / _TWO_PI * 0.5)

    # -- sampling -------------------------------------------------------

    def sample(self, size: int, rng: np.random.Generator,
               grid_nodes: int = 256) -> np.ndarray:
        """Exact draws from F_N, shape (size, N); energies sum to N.

        Sequential conditionals: given the residual energy E, the next
        coordinate has density proportional to f(v) h^{*(m-1)}(E - v^2)
        where m coordinates remain, inverted per sample on an adaptive
        velocity grid.  The final pair is drawn on its energy circle.
        """
        n = self.n
        out = np.empty((size, n))
        energy = np.full(size, float(n))
        for pos in range(n - 2):
            m = n - pos  # coordinates still unset
            vmax = np.sqrt(energy) * (1.0 - 1e-12)
            t = np.linspace(-1.0, 1.0, grid_nodes)
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
            idx = np.clip(idx, 0, grid_nodes - 2)
            lo = np.where(idx > 0, cum[np.arange(size), idx - 1], 0.0)
            frac = (u - lo) / np.maximum(cum[np.arange(size), idx] - lo, 1e-300)
            draw = v[np.arange(size), idx] + frac * (
                v[np.arange(size), idx + 1] - v[np.arange(size), idx])
            out[:, pos] = draw
            energy = np.maximum(energy - draw * draw, 0.0)
        out[:, n - 2:] = self._sample_pair(energy, rng)
        return out

    def _sample_pair(self, energy: np.ndarray, rng: np.random.Generator,
                     grid_nodes: int = 512) -> np.ndarray:
        """Last two coordinates on the circle of radius sqrt(energy)."""
        size = energy.shape[0]
        rho = np.sqrt(energy)
        phi_grid = _TWO_PI * np.arange(grid_nodes) / grid_nodes
        pgrid = np.maximum(self.f(np.outer(rho, np.cos(phi_grid)))
                           * self.f(np.outer(rho, np.sin(phi_grid))), 0.0)
        pmax = pgrid.max(axis=1) * 1.05
        if np.any(pmax <= 0):
            raise SamplingError("degenerate circle density in pair draw")
        phi = np.empty(size)
        todo = np.arange(size)
        for _ in range(10_000):
            cand = rng.random(todo.size) * _TWO_PI
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

    def entropy_monte_carlo(self, samples: int, rng: np.random.Generator,
                            batch: int = 50_000,
                            velocities: np.ndarray | None = None) -> float:
        """Sampling estimate of the entropy, for validating the quadrature."""
        total, count = 0.0, 0
        while count < samples:
            b = min(batch, samples - count)
            v = (velocities[count:count + b] if velocities is not None
                 else self.sample(b, rng))
            with np.errstate(divide="ignore"):
                lf = np.log(np.maximum(self.f(v), 1e-300))
            total += float(np.sum(lf))
            count += b
        return total / samples - self._log_zn

    def production_monte_carlo(self, gamma: float, samples: int,
                               rng: np.random.Generator,
                               angle_nodes: int = 64,
                               batch: int = 50_000,
                               velocities: np.ndarray | None = None) -> float:
        """Sampling estimate of D_{N,gamma}, for validating the quadrature.

        Averages the theta-integral of (1 - rho)(−log rho) over sampled
        states, with rho the post/pre collision density ratio of the
        leading pair.
        """
        theta = _TWO_PI * (np.arange(angle_nodes) + 0.5) / angle_nodes
        dtheta = _TWO_PI / angle_nodes
        total, count = 0.0, 0
        while count < samples:
            b = min(batch, samples - count)
            v = (velocities[count:count + b] if velocities is not None
                 else self.sample(b, rng))
            v1, v2 = v[:, 0], v[:, 1]
            base = np.maximum(self.f(v1) * self.f(v2), 1e-300)
            w1 = v1[:, None] * np.cos(theta) + v2[:, None] * np.sin(theta)
            w2 = -v1[:, None] * np.sin(theta) + v2[:, None] * np.cos(theta)
            ratio = np.maximum(self.f(w1) * self.f(w2), 1e-300) / base[:, None]
            inner = np.sum((1.0 - ratio) * (-np.log(ratio)), axis=1) * dtheta
            s = v1 * v1 + v2 * v2
            total += float(np.sum((1.0 + s) ** gamma * inner))
            count += b
        return self.n / (4.0 * np.pi) * total / samples
