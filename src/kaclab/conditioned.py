"""Conditioned tensorisation states on Kac's sphere.

For a unit-energy velocity density f, the state F_N = f^{otimes N} / Z_N
restricted to the sphere S^{N-1}(sqrt N) has marginals, entropy and
entropy production that all reduce to one-dimensional integrals against
ratios of convolution powers of the energy density h.  Those ratios come
from a :class:`~kaclab.normalization.NormalizationLadder`, so every
functional here is a quadrature over explicit log-domain tables.  The
production and log-power integrals use the polar-shell fold of
:mod:`kaclab.quadrature`, which needs an even generator, as the ladder
does.  The sampler reads no ladder: for a generator that is a mixture of
at most two centred Gaussians it draws F_N exactly (see
:meth:`ConditionedFamily.sample`).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .densities import GridDensity1D
from .errors import AccuracyError, ConfigurationError
from .normalization import NormalizationLadder, as_int, check_generator
from .quadrature import (ANGLES, SHELLS, TWO_PI, angle_midpoints, freeze,
                         half_grid_weights, half_rule_checked,
                         log_power_kernel, pair_kernel, polar_integral,
                         polar_shells)
from .sphere import rotate_pair

# Monte Carlo states per batch
_MC_BATCH = 50_000
# the exact sampler keeps the (k, j) terms within e^-40 of the largest; the
# rest hold under 1e-17 of the sum of all terms (mixture(0.1), (0.25) and
# (0.7) at N <= 1024)
_SPLIT_CUT = 40.0


def _split_terms(f: GridDensity1D, n: int):
    """(k, j, log T): the terms of the exact law of F_N that lie within
    e^-_SPLIT_CUT of the largest, for a generator f that is a mixture of
    the centred Gaussians in f.components, (weight, variance) pairs; a
    generator without them raises ConfigurationError.

    With the wider component first, rates rho_1 = 1/(2 a_1) < rho_2 and
    c = (rho_2 - rho_1) N,

        T(k, j) = C(N, k) w_1^k w_2^(N-k) rho_1^(k/2) rho_2^((N-k)/2)
                  (k/2)_j c^j / ((N/2)_j j!),

    so that h^{*N}(N) = sum T N^(N/2-1) e^(-rho_2 N) / Gamma(N/2).  k counts
    the particles of the wider component and j indexes the series of
    1F1(k/2; N/2; c).  Components of one variance are one Gaussian, whose
    single term is k = N, j = 0.

    For each k the largest term over j >= 1 sits just past the larger root
    of j^2 + (N/2 + 1 - c) j + N/2 - c k/2, where T(k, j + 1) / T(k, j)
    falls below 1; below that root the terms rise, after a fall from j = 0
    when the smaller root is positive.  So the kept terms of one k lie in
    one run of j, found on a window around the peak that doubles until
    both its ends fall below the cut.  Its half-width starts at 6 standard
    deviations of the largest term's row, from the curvature of log T
    there; most tables need one doubling.
    """
    if f.components is None:
        raise ConfigurationError(f"generator {f.tag or 'f'!r} has no "
                                 f"Gaussian components to sample F_N from")
    (w1, a1), *rest = sorted(f.components, key=lambda p: -p[1])
    if not rest or rest[0][1] == a1:
        w = sum(p[0] for p in f.components)
        return (np.array([n]), np.array([0]),
                np.array([0.5 * n * math.log(w * w / (2.0 * a1))]))
    (w2, a2), = rest
    rho1, rho2 = 0.5 / a1, 0.5 / a2
    b, c, k = 0.5 * n, (rho2 - rho1) * n, np.arange(n + 1)
    lgamma = np.vectorize(math.lgamma, otypes=[float])
    log_k = (math.lgamma(n + 1.0) - lgamma(k + 1.0) - lgamma(n + 1.0 - k)
             + k * math.log(w1 * math.sqrt(rho1))
             + (n - k) * math.log(w2 * math.sqrt(rho2)))
    disc = (b + 1.0 - c) ** 2 - 4.0 * (b - 0.5 * c * k)
    root = 0.5 * (np.sqrt(np.maximum(disc, 0.0)) - (b + 1.0 - c))
    peak = np.where((disc >= 0) & (root >= 0) & (k > 0), np.floor(root) + 1,
                    0).astype(np.int64)

    def series(k, j):
        """log (k/2)_j c^j / ((N/2)_j j!), exactly 0 at j = 0 (k = 0 has
        j = 0 only, so its a may be any positive number)."""
        a = np.maximum(0.5 * k, 0.5)
        return (lgamma(a + j) - lgamma(a) - lgamma(b + j) + math.lgamma(b)
                - lgamma(j + 1.0) + j * math.log(c))

    top = log_k + np.maximum(series(k, peak), 0.0)
    cut, m, a = top.max() - _SPLIT_CUT, peak[top.argmax()], 0.5 * top.argmax()
    curve = 1.0 / (m + 1.0) + 1.0 / (b + m) - 1.0 / max(a + m, 1.0)
    half = 8 + math.ceil(6.0 / math.sqrt(curve) if curve > 0 else 6.0)
    k = np.flatnonzero(top >= cut)
    while True:
        lo = np.maximum(peak[k] - half, 0)
        j = lo[:, None] + np.arange(2 * half + 1)
        log_t = np.empty(j.shape)
        log_t[:, 0] = log_k[k] + series(k, lo)
        # log T(k, j + 1) / T(k, j); -inf at k = 0, which has j = 0 only
        with np.errstate(divide="ignore"):
            log_t[:, 1:] = (math.log(c) + np.log(0.5 * k[:, None] + j[:, :-1])
                            - np.log(b + j[:, :-1]) - np.log1p(j[:, :-1]))
        np.cumsum(log_t, axis=1, out=log_t)
        if np.all((log_t[:, -1] < cut) & ((lo == 0) | (log_t[:, 0] < cut))):
            keep = log_t >= cut
            k = np.broadcast_to(k[:, None], j.shape)
            return k[keep], j[keep], log_t[keep]
        half *= 2


class ConditionedFamily:
    """Marginals and entropy functionals of F_N for one even generator f.

    source is f itself, which gets its own ladder up to N, or a
    :class:`~kaclab.normalization.NormalizationLadder` with n_max >= N,
    whose generator is f.  f's own ladder is built when Z_N or a marginal
    is first read, so a family that only samples builds none; f's evenness
    and unit energy are checked here, the ladder's truncation check fires
    on that first read.
    """

    def __init__(self, source: GridDensity1D | NormalizationLadder, n: int):
        n = as_int(n, "N")
        if n < 3:
            raise ValueError("need at least three particles")
        self.n = n
        if isinstance(source, NormalizationLadder):
            if n > source.n_max:
                raise ValueError(f"ladder built for N <= {source.n_max}, "
                                 f"not N={n}")
            self.ladder = source
            self.f = source.generator
        else:
            check_generator(source)
            self.f = source
        # shell tables, built on first read and kept on the family: a
        # class-level cache would keep every family alive
        self._shell_tables: dict[tuple[int, int], tuple] = {}

    @functools.cached_property
    def ladder(self) -> NormalizationLadder:
        """f's ladder up to N, built on first read."""
        return NormalizationLadder(self.f, self.n)

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

    @functools.cached_property
    def _marginal(self):
        """Velocity nodes on [0, min(v_max, sqrt N)], their half-grid
        weights and the unit-mass marginal values, read-only: F_{N,1} is
        even, so the half line carries its integrals."""
        v = np.linspace(0.0, min(self.f.v_max, np.sqrt(self.n)), 2049)
        dens = self.marginal1(v)
        w = half_grid_weights(v)
        mass = float(np.sum(dens * w))
        if not 0.9 < mass < 1.1:
            raise AccuracyError(f"first marginal mass {mass:.4f} far from 1")
        dens = dens / mass
        freeze(v, w, dens)
        return v, w, dens

    def marginal_moment(self, p: float) -> float:
        """int |v|^p F_{N,1}(v) dv, by the trapezoid rule of the entropy."""
        v, w, dens = self._marginal
        return float(np.sum(v ** p * dens * w))

    # -- entropy --------------------------------------------------------

    def entropy(self) -> float:
        """H(F_N | sigma_N) = int F_N log(F_N / sigma_N) on the sphere.

        Uses the additive split
        H = N int F_{N,1} log(f/M) - N/2 - (N/2) log(2 pi) - log Z_N,
        with M the unit-energy Gaussian, which needs only the first
        marginal and the partition function.
        """
        v, w, dens = self._marginal
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
        folded table, each distinct f(r cos) f(r sin) once (see
        :mod:`kaclab.quadrature`): read-only, built once per family and
        rule, as the entropy production at each gamma and the log-power
        integral all read them."""
        key = (n_s, angle_nodes)
        if key not in self._shell_tables:
            s, ws, x = polar_shells(self.f.v_max, self.n, n_s, angle_nodes)
            e = np.maximum(self.f(x), 0.0)
            table = (s, ws, np.exp(self.log_marginal_weight(2, s)),
                     e[0] * e[1])
            freeze(*table)
            self._shell_tables[key] = table
        return self._shell_tables[key]

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
                ws, rate, pair_kernel(p), angle_nodes)

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

    @functools.cached_property
    def _split_law(self):
        """(k, j, cum): the terms of :func:`_split_terms` and their
        cumulative sums, scaled to a largest term of 1."""
        k, j, log_t = _split_terms(self.f, self.n)
        return k, j, np.cumsum(np.exp(log_t - log_t.max()))

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Exact draws from F_N, shape (size, N); energies sum to N.

        The generator must be a mixture of at most two centred Gaussians
        (its ``components``; a generator without them raises
        ConfigurationError).  Expanding f^{otimes N} picks for each
        particle the wider component, k of them, or the narrower one; given
        k, the wider block's share t = X/N of the energy has density
        proportional to t^(k/2-1) (1-t)^((N-k)/2-1) e^(ct), and the series
        of e^(ct) splits it into Beta(k/2 + j, (N-k)/2) laws (see
        :func:`_split_terms`).  So each row draws (k, j) from one table
        lookup and t from one Beta draw (t = 0 at k = 0, 1 at k = N).  One
        Gaussian row, normalised over each block, puts energy tN on the
        first k coordinates and (1-t)N on the rest, uniformly on each
        block's sphere, and a uniform permutation of the row makes the
        coordinates exchangeable.  One component gives the uniform sphere.
        """
        k, j, cum = self._split_law
        n = self.n
        # every term is positive, so u cum[-1] in [0, cum[-1]] picks the
        # entry i with cum[i - 1] < u cum[-1] <= cum[i]
        pick = np.searchsorted(cum, rng.random(size) * cum[-1])
        k, j = k[pick], j[pick]
        t, mid = (k > 0).astype(float), (k > 0) & (k < n)
        t[mid] = rng.beta(0.5 * k[mid] + j[mid], 0.5 * (n - k[mid]))
        g = rng.standard_normal((size, n))
        wide = np.arange(n) < k[:, None]
        sq = g * g
        # each coordinate's share of N over its own block's sum of g^2
        block = np.where(wide, np.sum(sq, axis=1, where=wide)[:, None],
                         np.sum(sq, axis=1, where=~wide)[:, None])
        share = np.where(wide, t[:, None], 1.0 - t[:, None])
        return rng.permuted(g * np.sqrt(n * share / block), axis=1)

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
