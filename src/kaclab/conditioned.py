"""Conditioned tensorisation states on Kac's sphere.

For a unit-energy velocity density f, the state F_N = f^{otimes N} / Z_N
restricted to the sphere S^{N-1}(sqrt N) has marginals, entropy and
entropy production that all reduce to one-dimensional integrals against
ratios of convolution powers of the energy density h.  Those ratios come
from a :class:`~kaclab.normalization.NormalizationLadder`, so every
functional here is a quadrature over explicit log-domain tables, and the
sampler draws from the ladder's discretised measure.  The production and
log-power integrals use the polar-shell fold of :mod:`kaclab.quadrature`,
which needs an even generator, as the ladder does.
"""

from __future__ import annotations

import functools

import numpy as np

from .densities import GridDensity1D
from .errors import AccuracyError, ConfigurationError
from .normalization import NormalizationLadder, as_int
from .quadrature import (ANGLES, SHELLS, TWO_PI, angle_midpoints, fold,
                         half_rule_checked, log_power_kernel, pair_kernel,
                         polar_integral, polar_shells, trapezoid_weights)
from .sphere import rotate_pair

# Monte Carlo states per batch
_MC_BATCH = 50_000


class ConditionedFamily:
    """Marginals and entropy functionals of F_N for one even generator f.

    source is f itself, which gets its own ladder up to N, or a
    :class:`~kaclab.normalization.NormalizationLadder` with n_max >= N,
    whose generator is f.
    """

    def __init__(self, source: GridDensity1D | NormalizationLadder, n: int):
        n = as_int(n, "N")
        if n < 3:
            raise ValueError("need at least three particles")
        self.n = n
        self.ladder = (source if isinstance(source, NormalizationLadder)
                       else NormalizationLadder(source, n))
        self.f = self.ladder.generator
        if n > self.ladder.n_max:
            raise ValueError(f"ladder built for N <= {self.ladder.n_max}, "
                             f"not N={n}")

    @functools.cached_property
    def _levels(self) -> NormalizationLadder:
        """The ladder, on first read made to hold levels N, N - 1 and N - 2,
        all that Z_N and the marginals read, from one walk."""
        self.ladder.window(self.n, self.n - 1, self.n - 2)
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

    def marginal_moment(self, p: float) -> float:
        """int |v|^p F_{N,1}(v) dv, by the trapezoid rule of the entropy."""
        v, w, dens = self._marginal_quadrature()
        return float(np.sum(np.abs(v) ** p * dens * w))

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
        """Energy shells on the support of f(v1) f(v2) within s <= N, their
        weights, the conditioning weight of the second marginal and the
        folded f(r cos) f(r sin)."""
        s, ws, x = polar_shells(self.f.v_max, self.n, n_s, angle_nodes)
        return (s, ws, np.exp(self.log_marginal_weight(2, s)),
                fold(np.maximum(self.f(x), 0.0)))

    def _checked(self, what: str, value, check: bool) -> float:
        """value(SHELLS, ANGLES); with check, it must pass the half rule
        (:func:`~kaclab.quadrature.half_rule_checked`) to 1e-3 relative or
        to 1e-12 N.

        The half rule costs about half the production's value and a sixth
        of the log-power integral's.  The absolute floor sits far above
        the rounding noise of the shell sums, which grows with N: at a
        Maxwellian generator, where the production is zero, both rules
        give values of about 1e-15 N.
        """
        if not check:
            return value(SHELLS, ANGLES)
        return half_rule_checked(what, value, 1e-12 * self.n)

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
            # prefactor N / 2 on the polar measure
            return 0.5 * self.n * polar_integral(
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
            return polar_integral(ws, weight, log_power_kernel(p, beta),
                                  angle_nodes)

        return self._checked("log-power", log_power_value, True)

    # -- sampling -------------------------------------------------------

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draws from F_N, shape (size, N); energies sum to N.

        Every generator is even, so the squared velocities s_i = v_i^2 are
        i.i.d. from h conditioned on sum s_i = N and the signs are fair
        coins.  The ladder draws the |v_i| for its discretised measure
        (:meth:`~kaclab.normalization.NormalizationLadder.sample_radii`);
        they are rescaled so the energies sum to N exactly.
        """
        r = self.ladder.sample_radii(self.n, size, rng)
        r *= np.sqrt(self.n / np.sum(r * r, axis=1, keepdims=True))
        return np.where(rng.random(r.shape) < 0.5, -r, r)

    # -- Monte Carlo cross-checks ---------------------------------------

    def _batches(self, samples: int, rng: np.random.Generator,
                 velocities: np.ndarray | None):
        """States in batches of _MC_BATCH: consecutive rows of velocities,
        else draws."""
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        if velocities is not None and np.shape(velocities)[1:] != (self.n,):
            raise ValueError(f"velocities must have N={self.n} columns, got "
                             f"shape {np.shape(velocities)}")
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
