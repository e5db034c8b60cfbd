"""The Boltzmann-Kac limit equation in one velocity dimension.

The mean-field limit of the pair-collision process is

    d/dt f(v) = 2 integral [ (1 + v^2 + w^2)^gamma
                 ( <f(v(th)) f(w(th))>_th - f(v) f(w) ) ] dw,

where <.>_th is the uniform average over rotation angles.  The gain term
depends on (v, w) only through r = sqrt(v^2 + w^2), so one radial table
A(r) = <f(r cos) f(r sin)>_th serves every grid pair.

Quadrant fold.  f is even and the angle midpoints th_k are symmetric
about both axes, so every quadrant of an angle average repeats the first
one.  With q = angle_nodes / 4 and E[r, k] = f(r cos th_k) for k < q,
sin th_k = cos th_{q-1-k} gives f(r cos th_k) f(r sin th_k) =
E[r, k] E[r, q-1-k].  The radial table and the polar production
integral both use this product, on a quarter of the angles and with a
single spline evaluation per point.  The gain is even in w and
symmetric in (v, w), so it is evaluated at the half-grid pairs
v_i <= v_j only.

Cached geometry.  The evaluation points never change for a given grid,
gamma and angle_nodes: each point's spline interval and local offset,
and the trapezoid weights times the rate (1 + v^2 + w^2)^gamma, are
built once per key and held in a small cache.  A right-hand side call
then fits two cubic splines and does gathers and sums only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .densities import GridDensity1D
from .errors import AccuracyError, ConfigurationError

_TWO_PI = 2.0 * np.pi


def _half_grid_weights(v: np.ndarray) -> np.ndarray:
    """Full-line trapezoid weights for an even function on the half grid."""
    dv = v[1] - v[0]
    w = np.full(v.shape, 2.0 * dv)
    w[0] = w[-1] = dv
    return w


def half_grid_entropy(f_vals: np.ndarray, v: np.ndarray) -> float:
    """H(f | M) of an even profile on the half grid, M the unit Gaussian."""
    live = f_vals > 0
    log_m = -0.5 * v[live] ** 2 - 0.5 * np.log(_TWO_PI)
    return float(np.sum(f_vals[live] * (np.log(f_vals[live]) - log_m)
                        * _half_grid_weights(v)[live]))


def _stencil(knots: np.ndarray, x: np.ndarray):
    """Spline interval index and local offset of each point x.

    Points beyond the knots use the nearest end interval, as CubicSpline
    extrapolates.
    """
    idx = np.clip(np.searchsorted(knots, x, side="right") - 1, 0,
                  len(knots) - 2)
    return idx, x - knots[idx]


def _spline_at(c: np.ndarray, idx: np.ndarray, s: np.ndarray) -> np.ndarray:
    """A cubic spline with coefficients c (CubicSpline.c) at stencil points."""
    out = np.take(c[0], idx)
    for row in c[1:]:
        out *= s
        out += np.take(row, idx)
    return out


def _freeze(*arrays) -> None:
    # cached geometry is shared by every caller
    for a in arrays:
        a.flags.writeable = False


@functools.cache
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on [-1, 1], built once per n.

    The arrays are shared by every caller and therefore read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    _freeze(x, w)
    return x, w


def _quadrant_count(angle_nodes: int) -> int:
    if angle_nodes < 4 or angle_nodes % 4:
        raise ConfigurationError(
            f"angle_nodes must be a positive multiple of 4, got {angle_nodes}")
    return angle_nodes // 4


class _QuadrantFold:
    """f(r cos th) f(r sin th) of an even f, folded to the first quadrant.

    f is max(0, S) with S the cubic spline of max(f_vals, 0) on the half
    grid, and vanishes beyond the last knot.  Rows are radii, columns the
    q first-quadrant angle midpoints of an angle_nodes-point rule.
    """

    def __init__(self, v: np.ndarray, radii: np.ndarray, angle_nodes: int):
        q = _quadrant_count(angle_nodes)
        th = _TWO_PI * (np.arange(q) + 0.5) / angle_nodes
        x = np.outer(radii, np.cos(th)).ravel()
        self.v = v
        self.shape = (len(radii), q)
        self.idx, self.offset = _stencil(v, x)
        # points beyond v_max read the zero column appended in products()
        beyond = x > v[-1]
        self.idx[beyond] = len(v) - 1
        self.offset[beyond] = 0.0
        _freeze(self.idx, self.offset)

    def products(self, f_vals: np.ndarray) -> np.ndarray:
        c = np.zeros((4, len(self.v)))
        c[:, :-1] = CubicSpline(self.v, np.maximum(f_vals, 0.0)).c
        e = np.maximum(_spline_at(c, self.idx, self.offset), 0.0)
        e = e.reshape(self.shape)
        return e * e[:, ::-1]


@dataclass(frozen=True)
class _OperatorGeometry:
    """Everything in collision_operator that depends only on its key."""

    fold: _QuadrantFold        # angle table on the radial grid
    r_grid: np.ndarray         # knots of the radial table A(r)
    gain_idx: np.ndarray       # A-spline stencil at sqrt(v_i^2 + v_j^2),
    gain_offset: np.ndarray    # i <= j
    gain_pairs: np.ndarray     # (v, w) grid cell -> its i <= j stencil point
    rate_weights: np.ndarray   # (1 + v^2 + w^2)^gamma * weight of w


def _grid_cache(build):
    """Cache build(v, *key) by the bytes of the grid v (arrays do not hash)."""
    cached = functools.lru_cache(maxsize=8)(
        lambda grid, *key: build(np.frombuffer(grid), *key))

    @functools.wraps(build)
    def lookup(v, *key):
        return cached(np.ascontiguousarray(v, dtype=float).tobytes(), *key)

    return lookup


@_grid_cache
def _operator_geometry(v: np.ndarray, gamma: float,
                       angle_nodes: int) -> _OperatorGeometry:
    n = len(v)
    r_grid = np.linspace(0.0, np.sqrt(2.0) * v[-1], 4 * n)
    fold = _QuadrantFold(v, r_grid, angle_nodes)
    sq = v * v
    # r(v, w) = r(w, v) exactly, so the gain is evaluated on i <= j only
    upper_i, upper_j = np.triu_indices(n)
    gain_idx, gain_offset = _stencil(
        r_grid, np.sqrt(sq[upper_i] + sq[upper_j]))
    gain_pairs = np.empty((n, n), dtype=np.intp)
    gain_pairs[upper_i, upper_j] = np.arange(len(upper_i))
    gain_pairs[upper_j, upper_i] = np.arange(len(upper_i))
    rate_weights = ((1.0 + sq[:, None] + sq[None, :]) ** gamma
                    * _half_grid_weights(v))
    _freeze(r_grid, gain_idx, gain_offset, gain_pairs, rate_weights)
    return _OperatorGeometry(fold, r_grid, gain_idx, gain_offset, gain_pairs,
                             rate_weights)


def collision_operator(f_vals: np.ndarray, v: np.ndarray, gamma: float,
                       angle_nodes: int = 256) -> np.ndarray:
    """Right-hand side of the limit equation on a symmetric uniform grid.

    Assumes f is even; f_vals are values on the v >= 0 half-grid.
    angle_nodes must be a multiple of 4.
    """
    geo = _operator_geometry(v, gamma, angle_nodes)
    a_of_r = geo.fold.products(f_vals).mean(axis=1)
    c = CubicSpline(geo.r_grid, a_of_r).c
    gain = np.maximum(_spline_at(c, geo.gain_idx, geo.gain_offset), 0.0)
    gain = np.take(gain, geo.gain_pairs)
    # loss subtracted cell by cell: 2 (sum R gain - f (R f)) would cancel
    # two O(1) sums and lose about 1e-14 of the result
    gain -= np.multiply.outer(f_vals, f_vals)
    return 2.0 * np.einsum("ij,ij->i", geo.rate_weights, gain)


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

    def __init__(self, f0: GridDensity1D, gamma: float, v_max: float = 8.0,
                 nodes: int = 257, angle_nodes: int = 256,
                 clip_tolerance: float = 1e-6):
        if not 0.0 <= gamma <= 1.0:
            raise ConfigurationError("gamma must lie in [0, 1]")
        _quadrant_count(angle_nodes)
        self.gamma = gamma
        self.v = np.linspace(0.0, v_max, nodes)
        self.dv = self.v[1] - self.v[0]
        self._weights = _half_grid_weights(self.v)
        self.vals = np.maximum(np.asarray(f0(self.v), dtype=float), 0.0)
        self.angle_nodes = angle_nodes
        self.clip_tolerance = clip_tolerance
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
        return half_grid_entropy(self.vals, self.v)

    def production(self) -> float:
        """The limit production D_gamma(f) of the current profile."""
        return limit_production(self.vals, self.v, self.gamma,
                                angle_nodes=self.angle_nodes)

    def _normalize(self) -> float:
        m = self.mass()
        if m <= 0:
            raise AccuracyError("profile lost all its mass")
        self.vals /= m
        return m

    def _rhs(self, vals: np.ndarray) -> np.ndarray:
        return collision_operator(vals, self.v, self.gamma, self.angle_nodes)

    def step(self, dt: float) -> None:
        y = self.vals
        k1 = self._rhs(y)
        k2 = self._rhs(np.maximum(y + 0.5 * dt * k1, 0.0))
        k3 = self._rhs(np.maximum(y + 0.5 * dt * k2, 0.0))
        k4 = self._rhs(np.maximum(y + dt * k3, 0.0))
        new = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        clipped = float(np.sum(np.minimum(new, 0.0) * self._weights))
        if abs(clipped) > self.clip_tolerance:
            raise AccuracyError(
                f"negative mass {clipped:.2e} exceeds the stability budget; "
                "reduce dt")
        self.vals = np.maximum(new, 0.0)
        self._last_clipped = abs(clipped)
        self.time += dt
        self._mass_gain *= self._normalize()

    def evolve(self, t_final: float, dt: float,
               record_every: int = 1) -> EvolutionRecord:
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
        """Current profile as a symmetric grid density on [-v_max, v_max]."""
        v_full = np.concatenate([-self.v[:0:-1], self.v])
        vals = np.concatenate([self.vals[:0:-1], self.vals])
        w = np.full(v_full.shape, self.dv)
        w[0] = w[-1] = 0.5 * self.dv
        return GridDensity1D(float(self.v[-1]), v_full, vals, w,
                             tag=f"limit(t={self.time:g})")


def suggested_dt(gamma: float, v_max: float) -> float:
    """Conservative explicit step bound from the dominating loss rate."""
    return 0.25 / (1.0 + 2.0 * v_max**2) ** gamma


@_grid_cache
def _production_geometry(v: np.ndarray, angle_nodes: int):
    """Quadrant fold on Gauss-Legendre energy shells s in [0, 2 v_max^2]."""
    x, w = gauss_legendre(256)
    s_max = 2.0 * v[-1] ** 2
    s = 0.5 * s_max * (x + 1.0)
    ws = 0.5 * s_max * w
    _freeze(s, ws)
    return _QuadrantFold(v, np.sqrt(s), angle_nodes), s, ws


def limit_production(f_vals: np.ndarray, v: np.ndarray, gamma: float,
                     angle_nodes: int = 256) -> float:
    """D_gamma(f) = (1/2pi) int (1+v^2+w^2)^gamma psi(ff, f(th)f(th)).

    Reduced to polar coordinates exactly like the N-particle production,
    with the conditioning weight replaced by 1.  On each shell the four
    quadrants repeat, so with p on the q = angle_nodes/4 folded angles the
    pair kernel 2 (K sum p log p - sum p sum log p) over all K angles is
    2 (4 K sum_q p log p - 16 sum_q p sum_q log p).
    """
    fold, s, ws = _production_geometry(v, angle_nodes)
    p = fold.products(f_vals)
    logp = np.where(p > 0, np.log(np.maximum(p, 1e-300)), 0.0)
    pair = 2.0 * (4.0 * angle_nodes * np.sum(p * logp, axis=1)
                  - 16.0 * np.sum(p, axis=1) * np.sum(logp, axis=1))
    dphi = _TWO_PI / angle_nodes
    shell = (1.0 + s) ** gamma * pair * dphi * dphi
    return float(np.sum(ws * shell) / _TWO_PI * 0.5)


def cercignani_ratio(f_vals: np.ndarray, v: np.ndarray,
                     gamma: float = 0.0) -> float:
    """D_gamma(f) / (2 H(f | M)), the limiting entropic-gap value."""
    h = half_grid_entropy(f_vals, v)
    if h <= 1e-9:
        raise AccuracyError("entropy numerically zero; ratio undefined")
    return limit_production(f_vals, v, gamma) / (2.0 * h)
