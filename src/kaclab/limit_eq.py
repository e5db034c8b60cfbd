"""The Boltzmann-Kac limit equation in one velocity dimension.

The mean-field limit of the pair-collision process is

    d/dt f(v) = 2 integral [ (1 + v^2 + w^2)^gamma
                 ( <f(v(th)) f(w(th))>_th - f(v) f(w) ) ] dw,

where <.>_th is the uniform average over rotation angles.  The gain term
depends on (v, w) only through r = sqrt(v^2 + w^2), so one radial table
A(r) = <f(r cos) f(r sin)>_th serves every grid pair.

Quadrant fold.  f is even, so the radial table and the polar production
integral use the first-quadrant fold of :mod:`kaclab.quadrature`, on a
quarter of the angles and with a single spline evaluation per point.
The folded products are symmetric in the quadrant, so A(r) sums half of
them.  The gain is even in w and symmetric in (v, w), so it is evaluated
at the half-grid pairs v_i <= v_j only.

Cached geometry.  A not-a-knot cubic spline is linear in its knot
values twice over: its B-spline coefficients solve a banded collocation
system that depends on the knots alone, and the spline at fixed points is
a sparse design matrix (four entries a row) times those coefficients.
The knot vector and the B-spline values, by de Boor's recursion, are
built here in numpy with scipy's arithmetic, so both matrices are
scipy's bit for bit without importing scipy's interpolation package
(about 50 MB and half a second at start-up).  Each collocation matrix
is LU-factored once with LAPACK's dgbtrf, the factorization
make_interp_spline runs on every call, so a fit is one banded solve and
gives make_interp_spline's coefficients bit for bit.
The factorizations, the design matrices and a sparse map from the pairs
v_i <= v_j to the grid, rates[i, pair(i, j)] = (1 + v_i^2 + v_j^2)^gamma
times the weight of v_j, are built once per grid (and gamma) and held in
small caches.  The profile fit serves the radial and the production
folds; the radial fold and the fit of A(r) serve every gamma.  A
right-hand side call is then two banded solves, two sparse products, the
pairwise loss and one sparse row sum.  scipy's sparse and LAPACK modules
load with the first geometry, not with this module, so runs that never
reach the limit equation do not pay for them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .densities import GridDensity1D
from .errors import AccuracyError, ConfigurationError
from .quadrature import (ANGLES, fold, freeze, gaussian_relative_entropy,
                         half_grid_weights, pair_kernel, polar_integral,
                         polar_shells, quadrant_points, trapezoid_weights)


def _check_limit_inputs(gamma: float, v_max: float, nodes: int) -> None:
    """Raise unless gamma lies in [0, 1] and the half grid [0, v_max] of
    nodes points, v_max finite, carries a not-a-knot cubic spline (four
    knots at least)."""
    if not 0.0 <= gamma <= 1.0:
        raise ConfigurationError(f"gamma must lie in [0, 1], got {gamma!r}")
    if not (0 < v_max < np.inf and nodes >= 4):
        raise ConfigurationError(f"need 0 < v_max < inf and nodes >= 4, got "
                                 f"{v_max!r} and {nodes!r}")


def _grid_cache(build):
    """Cache build(v, *key) by the bytes of the grid v (arrays do not hash)."""
    cached = functools.lru_cache(maxsize=8)(
        lambda grid, *key: build(np.frombuffer(grid), *key))

    @functools.wraps(build)
    def lookup(v, *key):
        return cached(np.ascontiguousarray(v, dtype=float).tobytes(), *key)

    return lookup


def _cubic_basis(t: np.ndarray, x: np.ndarray):
    """The four nonzero cubic B-splines on knots t at each point of x, shape
    (len(x), 4), and the index of the first of them.

    Each point takes the knot interval t[l] <= x < t[l + 1], l clipped to
    the spline's pieces 3..len(t) - 5 so that the end pieces extend, and
    the de Boor triangle (de Boor 1972) raises the degree from 0 to 3.
    The arithmetic is scipy's BSpline.design_matrix, step for step.
    """
    ell = np.clip(np.searchsorted(t, x, side="right") - 1, 3, len(t) - 5)
    h = np.zeros((len(x), 4))
    h[:, 0] = 1.0
    for j in range(1, 4):
        prev = h[:, :j].copy()
        h[:, 0] = 0.0
        for k in range(1, j + 1):
            hi, lo = t[ell + k], t[ell + k - j]
            w = prev[:, k - 1] / (hi - lo)
            h[:, k - 1] += w * (hi - x)
            h[:, k] = w * (x - lo)
    return h, ell - 3


class _CubicFit:
    """make_interp_spline(knots, vals, k=3).c for fixed knots and any vals.

    The knot vector is make_interp_spline's not-a-knot one.  It solves its
    banded collocation system with LAPACK's gbsv, which is gbtrf followed
    by gbtrs; the factorization is done once here, so a fit is one gbtrs
    solve with the same arithmetic.
    """

    def __init__(self, knots: np.ndarray):
        from scipy.linalg import lapack

        n = len(knots)
        if not (knots.ndim == 1 and np.all(np.isfinite(knots))
                and np.all(np.diff(knots) > 0)):
            raise ValueError("knots must be a finite, strictly increasing "
                             "1-D grid")
        if n < 4:
            raise ConfigurationError(
                f"a not-a-knot cubic spline needs 4 knots, got {n}")
        self.t = np.r_[(knots[0],) * 4, knots[2:-2], (knots[-1],) * 4]
        values, first = _cubic_basis(self.t, knots)
        # band storage of kl = ku = 3, with kl more rows for the fill-in:
        # entry (i, first[i] + k) sits at row 6 + i - first[i] - k
        rows = np.arange(n)[:, None]
        cols = first[:, None] + np.arange(4)
        band = np.zeros((10, n), order="F")
        band[6 + rows - cols, cols] = values
        self.lu, self.pivots, info = lapack.dgbtrf(band, 3, 3)
        if info != 0:
            raise AccuracyError(f"collocation matrix on {n} knots is "
                                f"singular (dgbtrf info {info})")
        freeze(self.t, self.lu, self.pivots)
        self._solve = lapack.dgbtrs

    def __call__(self, vals: np.ndarray) -> np.ndarray:
        return self._solve(self.lu, 3, 3, vals, self.pivots)[0]

    def design(self, points: np.ndarray):
        """Sparse map from the coefficients to the spline's values at
        points; beyond the knots the end pieces extend.  Its int32 indices
        keep the sparse products on their fastest path."""
        from scipy.sparse import csr_array

        values, first = _cubic_basis(self.t, points)
        cols = first.astype(np.int32)[:, None] + np.arange(4, dtype=np.int32)
        rows = np.arange(0, 4 * len(points) + 1, 4, dtype=np.int32)
        return csr_array((values.ravel(), cols.ravel(), rows),
                         shape=(len(points), len(self.t) - 4))


_fit = _grid_cache(_CubicFit)


class _QuadrantFold:
    """f(r cos th) f(r sin th) of an even f, folded to the first quadrant.

    f is max(0, S) with S the cubic spline of max(f_vals, 0) on the half
    grid, and vanishes beyond the last knot.  Rows are radii, columns the
    q first-quadrant angle midpoints of the ANGLES-point rule.
    """

    def __init__(self, v: np.ndarray, radii: np.ndarray):
        from scipy.sparse import diags_array

        points = quadrant_points(radii)
        x = points.ravel()
        self.fit = _fit(v)
        self.radii = radii
        freeze(radii)
        self.shape = points.shape
        # points beyond v_max get zero rows
        self.design = diags_array((x <= v[-1]) * 1.0) @ self.fit.design(x)
        freeze(self.design.data, self.design.indices, self.design.indptr)

    def _cosine_values(self, f_vals: np.ndarray) -> np.ndarray:
        """E[r, k] = f(r cos th_k)."""
        c = self.fit(np.maximum(f_vals, 0.0))
        return np.maximum(self.design @ c, 0.0).reshape(self.shape)

    def products(self, f_vals: np.ndarray) -> np.ndarray:
        return fold(self._cosine_values(f_vals))

    def angle_mean(self, f_vals: np.ndarray) -> np.ndarray:
        """products(f_vals).mean(axis=1), from the half k < q/2 of each
        row: E[k] E[q-1-k] takes each value twice."""
        e = self._cosine_values(f_vals)
        half = self.shape[1] // 2
        return (2.0 / self.shape[1]) * np.einsum(
            "ij,ij->i", e[:, :half], e[:, ::-1][:, :half])


@dataclass(frozen=True)
class _OperatorGeometry:
    """Everything in collision_operator that depends only on its key."""

    fold: _QuadrantFold        # angle table on the knots of A(r)
    radial_fit: _CubicFit      # A(r) on those knots -> spline coefficients
    gain: csr_array            # A-spline design at sqrt(v_i^2 + v_j^2), i <= j
    pair_i: np.ndarray         # grid indices i <= j of each pair
    pair_j: np.ndarray
    rates: csr_array           # [i, pair(i, j)] = (1 + v_i^2 + v_j^2)^gamma w_j


@_grid_cache
def _radial_fold(v: np.ndarray) -> _QuadrantFold:
    return _QuadrantFold(v, np.linspace(0.0, np.sqrt(2.0) * v[-1], 4 * len(v)))


@_grid_cache
def _operator_geometry(v: np.ndarray, gamma: float) -> _OperatorGeometry:
    from scipy.sparse import csr_array

    n = len(v)
    fold = _radial_fold(v)
    radial_fit = _fit(fold.radii)
    sq = v * v
    # r(v, w) = r(w, v) exactly, so the gain is evaluated on i <= j only
    pair_i, pair_j = np.triu_indices(n)
    gain = radial_fit.design(np.sqrt(sq[pair_i] + sq[pair_j]))
    # row i of rates holds the grid cells (i, j), j = 0..n-1, each at the
    # column of its pair
    pair_of = np.empty((n, n), dtype=np.intp)
    pair_of[pair_i, pair_j] = pair_of[pair_j, pair_i] = np.arange(len(pair_i))
    rate_weights = ((1.0 + sq[:, None] + sq[None, :]) ** gamma
                    * half_grid_weights(v))
    rates = csr_array((rate_weights.ravel(), pair_of.ravel(),
                       np.arange(0, n * n + 1, n)), shape=(n, len(pair_i)))
    freeze(gain.data, gain.indices, gain.indptr, pair_i, pair_j,
           rates.data, rates.indices, rates.indptr)
    return _OperatorGeometry(fold, radial_fit, gain, pair_i, pair_j, rates)


def collision_operator(f_vals: np.ndarray, v: np.ndarray,
                       gamma: float) -> np.ndarray:
    """Right-hand side of the limit equation on a symmetric uniform grid.

    Assumes f is even; f_vals are values on the v >= 0 half-grid.
    """
    geo = _operator_geometry(v, gamma)
    c = geo.radial_fit(geo.fold.angle_mean(f_vals))
    gain = np.maximum(geo.gain @ c, 0.0)
    # loss subtracted pair by pair: 2 (sum R gain - f (R f)) would cancel
    # two O(1) sums and lose about 1e-14 of the result
    gain -= np.take(f_vals, geo.pair_i) * np.take(f_vals, geo.pair_j)
    return 2.0 * (geo.rates @ gain)


@dataclass
class EvolutionRecord:
    """Per-step diagnostics of one PDE run."""

    times: list = field(default_factory=list)
    entropy: list = field(default_factory=list)
    production: list = field(default_factory=list)
    mass_drift: list = field(default_factory=list)
    clipped_mass: list = field(default_factory=list)


class LimitSolver:
    """RK4 integrator for the limit equation on [0, v_max]."""

    # largest negative mass a step may clip before it counts as unstable
    clip_tolerance = 1e-6

    def __init__(self, f0: GridDensity1D, gamma: float, v_max: float = 8.0,
                 nodes: int = 257):
        _check_limit_inputs(gamma, v_max, nodes)
        self.gamma = gamma
        self.v = np.linspace(0.0, v_max, nodes)
        self._weights = half_grid_weights(self.v)
        self.vals = np.maximum(np.asarray(f0(self.v), dtype=float), 0.0)
        self.time = 0.0
        self.record = EvolutionRecord()
        self._last_clipped = 0.0
        self._normalize()
        # product of the per-step masses before renormalising: the mass the
        # operator and the clamp would have left without the rescaling
        self._mass_gain = 1.0

    def mass(self) -> float:
        return float(np.sum(self.vals * self._weights))

    def energy(self) -> float:
        return float(np.sum(self.v**2 * self.vals * self._weights))

    def entropy(self) -> float:
        """H(f | M) with M the unit-energy Gaussian."""
        return gaussian_relative_entropy(self.vals, self.v, self._weights)

    def production(self) -> float:
        """The limit production D_gamma(f) of the current profile."""
        return limit_production(self.vals, self.v, self.gamma)

    def _normalize(self) -> float:
        m = self.mass()
        if not 0 < m < np.inf:
            raise AccuracyError(f"profile mass {m} is not positive and finite")
        self.vals /= m
        return m

    def _rhs(self, vals: np.ndarray) -> np.ndarray:
        return collision_operator(vals, self.v, self.gamma)

    def step(self, dt: float) -> None:
        y = self.vals
        k1 = self._rhs(y)
        k2 = self._rhs(np.maximum(y + 0.5 * dt * k1, 0.0))
        k3 = self._rhs(np.maximum(y + 0.5 * dt * k2, 0.0))
        k4 = self._rhs(np.maximum(y + dt * k3, 0.0))
        new = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        clipped = float(np.sum(np.minimum(new, 0.0) * self._weights))
        # a NaN from an overflowing step fails this test too
        if not abs(clipped) <= self.clip_tolerance:
            raise AccuracyError(
                f"negative mass {clipped:.2e} exceeds the stability budget; "
                "reduce dt")
        self.vals = np.maximum(new, 0.0)
        self._last_clipped = abs(clipped)
        self.time += dt
        self._mass_gain *= self._normalize()

    def evolve(self, t_final: float, dt: float,
               record_every: int = 1) -> EvolutionRecord:
        if not (0 < t_final < np.inf and 0 < dt < np.inf):
            raise ConfigurationError(f"need finite t_final > 0 and dt > 0, "
                                     f"got {t_final} and {dt}")
        # 0 records the end point only
        if not record_every >= 0:
            raise ConfigurationError(
                f"need record_every >= 0, got {record_every!r}")
        steps = int(np.ceil(t_final / dt))
        dt = t_final / steps
        for k in range(steps):
            if record_every and k % record_every == 0:
                self._record_point()
            self.step(dt)
        self._record_point()
        return self.record

    def _record_point(self) -> None:
        rec = self.record
        rec.times.append(self.time)
        rec.entropy.append(self.entropy())
        rec.production.append(self.production())
        rec.mass_drift.append(abs(self._mass_gain - 1.0))
        rec.clipped_mass.append(self._last_clipped)

    def density(self) -> GridDensity1D:
        """Current profile as a symmetric grid density on [-v_max, v_max]:
        table only (``nodes``, ``values``, ``quadrature_weights``); it has
        no pdf and is not callable."""
        v_full = np.concatenate([-self.v[:0:-1], self.v])
        vals = np.concatenate([self.vals[:0:-1], self.vals])
        return GridDensity1D(float(self.v[-1]), v_full, vals,
                             trapezoid_weights(v_full),
                             tag=f"limit(t={self.time:g})")


@_grid_cache
def _production_geometry(v: np.ndarray):
    """Quadrant fold on the polar shells of the half grid [0, v_max]."""
    s, ws, _ = polar_shells(v[-1])
    freeze(s, ws)
    return _QuadrantFold(v, np.sqrt(s)), s, ws


def limit_production(f_vals: np.ndarray, v: np.ndarray, gamma: float) -> float:
    """D_gamma(f) = (1/2pi) int (1+v^2+w^2)^gamma psi(ff, f(th)f(th)).

    The polar-shell reduction of the N-particle production (see
    :mod:`kaclab.quadrature`) with the conditioning weight replaced by 1.
    """
    quadrant, s, ws = _production_geometry(v)
    pair = pair_kernel(quadrant.products(f_vals), ANGLES)
    return polar_integral(ws, (1.0 + s) ** gamma, pair, ANGLES)


def cercignani_ratio(f_vals: np.ndarray, v: np.ndarray,
                     gamma: float = 0.0) -> float:
    """D_gamma(f) / (2 H(f | M)), the limiting entropic-gap value.

    D_gamma integrates the nonnegative psi(f f_*, f' f'_*), so a
    production D <= 0 means the grid does not resolve f.
    """
    _check_limit_inputs(gamma, v[-1] if len(v) else 0.0, len(v))
    h = gaussian_relative_entropy(f_vals, v, half_grid_weights(v))
    if h <= 1e-9:
        raise AccuracyError("entropy numerically zero; ratio undefined")
    d = limit_production(f_vals, v, gamma)
    if d <= 0.0:
        raise AccuracyError(f"production D={d:.4g} <= 0 at H={h:.4g} on "
                            f"{len(v)} nodes: the grid does not resolve f")
    return d / (2.0 * h)
