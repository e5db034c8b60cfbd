"""The Boltzmann-Kac limit equation in one velocity dimension.

The mean-field limit of the pair-collision process is

    d/dt f(v) = 2 integral [ (1 + v^2 + w^2)^gamma
                 ( <f(v(th)) f(w(th))>_th - f(v) f(w) ) ] dw,

where <.>_th is the uniform average over rotation angles.  The gain term
depends on (v, w) only through r = sqrt(v^2 + w^2), so one radial table
A(r) = <f(r cos) f(r sin)>_th serves every grid pair.

Quadrant fold.  f is even, so the radial table and the polar production
integral use the quadrant fold of :mod:`kaclab.quadrature`: the two
halves of the quadrant points, on an eighth of the angles each, with a
single spline evaluation per point, and their products, each distinct
value of f(r cos) f(r sin) once.  A(r) is the mean of those products.
The gain is even in w and symmetric in (v, w), so the half grid carries
it, and the clamp correction keeps the pairs v_i <= v_j only.

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
The factorizations and the design matrices are built once per grid and
held in small caches; the profile fit serves the radial and the
production folds.

Dense gain map.  The operator is linear in A(r) but for the clamp
max(gain, 0) of the pair gains, so the spline of A(r) at every grid cell,
weighted by 2 (1 + v_i^2 + v_j^2)^gamma w_j and summed over j, is composed
with the fit of A(r) once per grid and gamma into a dense n x 4n map from
the knot values of A(r) to the rows.  The loss is the n x n kernel times
f, times f.  The B-splines are >= 0, so a pair gain can be negative only
on a knot interval with a negative coefficient of A(r); the clamp is
taken out exactly at the pairs on such intervals, which lie near
r = sqrt(2) v_max when there are any.  A right-hand side call is then
the profile fit, one sparse product for the fold, two dense products,
the fit of A(r) for the signs of its coefficients and the correction at
those few pairs.  scipy's sparse and LAPACK modules load with the first
geometry, not with this module, so runs that never reach the limit
equation do not pay for them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .densities import GridDensity1D
from .errors import AccuracyError, ConfigurationError
from .quadrature import (ANGLES, freeze, gaussian_relative_entropy,
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

    def compose(self, rows: np.ndarray) -> np.ndarray:
        """rows C^-1, C the collocation matrix: rows of a linear map on the
        coefficients, as a map on the knot values.  One transposed banded
        solve, C^T X = rows^T, that overwrites rows (C order)."""
        return self._solve(self.lu, 3, 3, rows.T, self.pivots, trans=1,
                           overwrite_b=1)[0].T

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
    """f(r cos th) f(r sin th) of an even f, folded to the first octant.

    f is max(0, S) with S the cubic spline of max(f_vals, 0) on the half
    grid, and vanishes beyond the last knot.  The design holds the two
    halves of :func:`~kaclab.quadrature.quadrant_points`, r cos th_k and
    r sin th_k for every radius r and first-octant angle th_k of the
    ANGLES-point rule, one after the other.
    """

    def __init__(self, v: np.ndarray, radii: np.ndarray):
        from scipy.sparse import diags_array

        points = quadrant_points(radii)
        self.fit = _fit(v)
        self.radii = radii
        freeze(radii)
        self.shape = points.shape
        # f vanishes beyond v_max, so a product with x = r cos th_k >=
        # r sin th_k there is 0: both of its rows are zero rows
        live = np.tile((points[0] <= v[-1]).ravel(), 2) * 1.0
        self.design = diags_array(live) @ self.fit.design(points.ravel())
        freeze(self.design.data, self.design.indices, self.design.indptr)

    def _halves(self, f_vals: np.ndarray) -> np.ndarray:
        """E[0, r, k] = f(r cos th_k) and E[1, r, k] = f(r sin th_k)."""
        e = self.design @ self.fit(np.maximum(f_vals, 0.0))
        return np.maximum(e, 0.0, out=e).reshape(self.shape)

    def products(self, f_vals: np.ndarray) -> np.ndarray:
        """The folded table E[0] E[1]."""
        ex, ey = self._halves(f_vals)
        return ex * ey

    def angle_mean(self, f_vals: np.ndarray) -> np.ndarray:
        """products(f_vals).mean(axis=1), as one row-wise inner product."""
        ex, ey = self._halves(f_vals)
        return (1.0 / ex.shape[1]) * np.einsum("ij,ij->i", ex, ey)


@dataclass(frozen=True)
class _GainPairs:
    """The grid pairs v_i <= v_j ordered by the first of the four A-spline
    coefficients on the knot interval of r = sqrt(v_i^2 + v_j^2)."""

    first: np.ndarray          # that coefficient's index, ascending
    basis: np.ndarray          # the four B-splines at r, each >= 0
    i: np.ndarray              # grid indices i <= j of each pair
    j: np.ndarray


@dataclass(frozen=True)
class _OperatorGeometry:
    """Everything in collision_operator that depends only on its key."""

    fold: _QuadrantFold        # angle table on the knots of A(r)
    radial_fit: _CubicFit      # A(r) on those knots -> spline coefficients
    gain: np.ndarray           # A(r) on its knots -> unclamped gain of row i
    kernel: np.ndarray         # [i, j] = 2 (1 + v_i^2 + v_j^2)^gamma w_j
    pairs: _GainPairs          # the pairs the gain clamp can reach


@_grid_cache
def _radial_fold(v: np.ndarray) -> _QuadrantFold:
    return _QuadrantFold(v, np.linspace(0.0, np.sqrt(2.0) * v[-1], 4 * len(v)))


@_grid_cache
def _gain_pairs(v: np.ndarray) -> _GainPairs:
    radii = _radial_fold(v).radii
    i, j = np.triu_indices(len(v))
    # r is capped at the last knot of A(r), where the B-splines are still
    # >= 0; past it the end piece's extension can make one negative
    sq = v * v
    r = np.minimum(np.sqrt(sq[i] + sq[j]), radii[-1])
    basis, first = _cubic_basis(_fit(radii).t, r)
    order = np.argsort(first, kind="stable")
    pairs = _GainPairs(first[order].astype(np.int32), basis[order],
                       i[order].astype(np.int32), j[order].astype(np.int32))
    freeze(pairs.first, pairs.basis, pairs.i, pairs.j)
    return pairs


@_grid_cache
def _operator_geometry(v: np.ndarray, gamma: float) -> _OperatorGeometry:
    fold = _radial_fold(v)
    radial_fit = _fit(fold.radii)
    pairs = _gain_pairs(v)
    sq = v * v
    kernel = (2.0 * (1.0 + sq[:, None] + sq[None, :]) ** gamma
              * half_grid_weights(v))
    # row i of the unclamped gain sums kernel[i, j] times the A-spline at
    # r_ij over every j; a pair i <= j serves the cells (i, j) and (j, i).
    # Composed with the fit, the rows act on the knot values of A(r).
    upper = kernel[pairs.i, pairs.j]
    lower = np.where(pairs.i < pairs.j, kernel[pairs.j, pairs.i], 0.0)
    rows = np.zeros((len(v), len(fold.radii)))
    for k in range(4):
        cols = pairs.first + k
        np.add.at(rows, (pairs.i, cols), upper * pairs.basis[:, k])
        np.add.at(rows, (pairs.j, cols), lower * pairs.basis[:, k])
    gain = radial_fit.compose(rows)
    freeze(gain, kernel)
    return _OperatorGeometry(fold, radial_fit, gain, kernel, pairs)


def _clamp_suffix(pairs: _GainPairs, c: np.ndarray) -> int:
    """Where the pairs whose gain can be negative start, given the
    coefficients c of A(r); len(pairs.first) when no gain can be.

    The B-splines are >= 0 on the knots, so a pair's gain, four of them
    times the coefficients of its knot interval, is negative only if one
    of those coefficients is, in floating point too.  With the pairs by
    first coefficient, every such pair lies in the suffix that starts 3
    before the first negative coefficient.
    """
    negative = np.flatnonzero(c < 0.0)
    if not negative.size:
        return len(pairs.first)
    return int(np.searchsorted(pairs.first, negative[0] - 3))


def _clamp_correction(geo: _OperatorGeometry, c: np.ndarray,
                      out: np.ndarray) -> None:
    """Apply the clamp max(gain, 0) of the pair gains to out, the rows of
    the unclamped gain minus the loss: each negative gain among the pairs
    of :func:`_clamp_suffix` is taken out of both of its rows."""
    pairs = geo.pairs
    start = _clamp_suffix(pairs, c)
    if start == len(pairs.first):
        return
    first = pairs.first[start:, None] + np.arange(4)
    g = np.einsum("pk,pk->p", pairs.basis[start:], c[first])
    hit = np.flatnonzero(g < 0.0)
    g = g[hit]
    i, j = pairs.i[start:][hit], pairs.j[start:][hit]
    np.subtract.at(out, i, geo.kernel[i, j] * g)
    np.subtract.at(out, j, np.where(i < j, geo.kernel[j, i], 0.0) * g)


def collision_operator(f_vals: np.ndarray, v: np.ndarray,
                       gamma: float) -> np.ndarray:
    """Right-hand side of the limit equation on a symmetric uniform grid.

    Assumes f is even; f_vals are values on the v >= 0 half-grid.
    """
    geo = _operator_geometry(v, gamma)
    a = geo.fold.angle_mean(f_vals)
    # gain and loss are two O(1) sums that nearly cancel; on 257 nodes the
    # result stays within 1.5e-15 of subtracting the loss pair by pair
    out = geo.gain @ a
    out -= f_vals * (geo.kernel @ f_vals)
    _clamp_correction(geo, geo.radial_fit(a), out)
    return out


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
    pair = pair_kernel(quadrant.products(f_vals))
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
