"""The Kac jump process and its exact spectral gap.

The master equation evolves a symmetric density on the energy sphere by
random pair rotations at rate N (1 + v_i^2 + v_j^2)^gamma per clock tick,
averaged over pairs.  Here we run the process by thinning against the
dominating rate N (1 + N)^gamma, estimate spectral-gap quotients with a
Rayleigh/Dirichlet Monte Carlo, and write the generator exactly on the
power sums p_4 and p_6 at any N, where its lowest eigenvalue is the gap
known in closed form: Delta_N = (N + 2) / (2 (N - 1)).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateTestFunctionError
from .quadrature import TWO_PI, angle_midpoints
from .sphere import rotate_pair, uniform_sphere_batch

# candidate events drawn per block; bounds memory on long runs
_BLOCK = 2**16
# sphere entries per block of Rayleigh samples; one block draws the same
# random stream as an unbatched estimate
_RAYLEIGH_BLOCK = 2**20
# largest degree of the power sums p_4, ..., p_DEGREE in the generator basis;
# at degree 8 the product p_4 p_4 appears and single power sums no longer close
_DEGREE = 6


def spectral_gap(n: int) -> float:
    """Closed-form gap of the gamma = 0 Kac walk: (N + 2) / (2 (N - 1))."""
    if n < 2:
        raise ValueError("need at least two particles")
    return (n + 2.0) / (2.0 * (n - 1.0))


# -- trajectory simulation ----------------------------------------------


@dataclass
class SimulationConfig:
    """Parameters of one thinned jump-process run."""

    n: int
    gamma: float = 0.0
    t_final: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ConfigurationError("need at least two particles")
        if self.t_final <= 0:
            raise ConfigurationError("t_final must be positive")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigurationError("gamma must lie in [0, 1]")


@dataclass
class TrajectoryStats:
    """Outcome of a run: final state plus acceptance bookkeeping."""

    velocities: np.ndarray
    proposed: int
    accepted: int


def simulate(config: SimulationConfig, initial: np.ndarray | None = None,
             rng: np.random.Generator | None = None) -> TrajectoryStats:
    """Run the jump process to t_final by thinning.

    Candidate events arrive at the dominating rate N (1 + N)^gamma; a
    uniformly chosen pair is rotated by a uniform angle with probability
    ((1 + v_i^2 + v_j^2) / (1 + N))^gamma, which reproduces the
    energy-dependent collision rates exactly.  The candidates' times,
    pairs, thinning uniforms and angles are drawn as arrays, a block at a
    time; only the accept/rotate step runs per event.
    """
    n, gamma, t_final = config.n, config.gamma, config.t_final
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    if initial is None:
        v = uniform_sphere_batch(n, 1, rng)[0]
    else:
        v = np.array(initial, dtype=float)
        if v.shape != (n,):
            raise ConfigurationError(f"initial state must have shape ({n},)")
    lam = n * (1.0 + n) ** gamma
    vel = v.tolist()
    t, proposed, accepted = 0.0, 0, 0
    while True:
        # enough candidates to reach t_final with high probability
        expect = lam * (t_final - t)
        size = min(_BLOCK, int(expect + 5.0 * math.sqrt(expect)) + 16)
        times = t + np.cumsum(rng.exponential(1.0 / lam, size))
        first = rng.integers(n, size=size)
        second = rng.integers(n - 1, size=size)
        second += second >= first  # uniform over j != i
        if gamma > 0:
            # u < ((1 + s) / (1 + N))^gamma  <=>  s > (1 + N) u^(1/gamma) - 1
            threshold = (1.0 + n) * rng.random(size) ** (1.0 / gamma) - 1.0
        else:
            threshold = np.full(size, -1.0)
        theta = rng.uniform(0.0, TWO_PI, size)
        stop = int(np.searchsorted(times, t_final))
        proposed += stop
        events = zip(first[:stop].tolist(), second[:stop].tolist(),
                     threshold[:stop].tolist(), theta[:stop].tolist())
        for i, j, cut, th in events:
            vi, vj = vel[i], vel[j]
            if vi * vi + vj * vj <= cut:
                continue
            c, s = math.cos(th), math.sin(th)
            vel[i] = vi * c + vj * s
            vel[j] = vj * c - vi * s
            accepted += 1
        if stop < size:
            break
        t = float(times[-1])
    # each rotation conserves v_i^2 + v_j^2, so the rescale only removes
    # rounding drift
    v = np.array(vel)
    v *= np.sqrt(n / np.sum(v * v))
    return TrajectoryStats(v, proposed, accepted)


def simulate_ensemble(config: SimulationConfig, replicas: int,
                      initial: np.ndarray | None = None,
                      seed: int | None = None) -> np.ndarray:
    """Final states of independent replicas, shape (replicas, N)."""
    base = config.seed if seed is None else seed
    out = np.empty((replicas, config.n))
    for r in range(replicas):
        rng = np.random.default_rng((base, r))
        init_r = initial[r] if (initial is not None and initial.ndim == 2) else initial
        out[r] = simulate(config, initial=init_r, rng=rng).velocities
    return out


# -- Rayleigh quotient estimates ----------------------------------------


def dirichlet_rayleigh(phi, n: int, gamma: float, samples: int,
                       rng: np.random.Generator) -> float:
    """Monte Carlo Rayleigh quotient <phi, -L phi> / Var(phi).

    The Dirichlet form of the generator is
    (N / 2) E[(1 + v_i^2 + v_j^2)^gamma (phi(V) - phi(RV))^2] with the
    expectation over a uniform sphere point, a uniform pair and a uniform
    rotation angle (a midpoint rule on 32 angles).  The quotient
    upper-bounds nothing and lower-bounds nothing per se, but concentrates
    above the true gap for any phi.  The samples are drawn and rotated a
    block of rows at a time, so memory stays bounded in samples * N.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    rows = max(1, _RAYLEIGH_BLOCK // n)
    blocks = [_rayleigh_block(phi, n, gamma, min(rows, samples - start), rng)
              for start in range(0, samples, rows)]
    base = np.concatenate([b for b, _ in blocks])
    if np.std(base) < 1e-12:
        raise DegenerateTestFunctionError(
            "test function is constant on the sphere")
    dirichlet = 0.5 * n * (sum(d for _, d in blocks) / samples)
    return float(dirichlet / np.var(base))


def _rayleigh_block(phi, n: int, gamma: float, size: int,
                    rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """phi at size uniform sphere points, and the sum over them of
    (1 + v_i^2 + v_j^2)^gamma times the angle mean of (phi(V) - phi(RV))^2."""
    v = uniform_sphere_batch(n, size, rng)
    # the pair's columns of v are rotated in place below, so base is a
    # copy (phi may return a view of v); vi and vj are copies too
    base = np.array(phi(v))
    idx = rng.integers(n, size=size)
    jdx = rng.integers(n - 1, size=size)
    jdx = np.where(jdx >= idx, jdx + 1, jdx)
    rows = np.arange(size)
    vi, vj = v[rows, idx], v[rows, jdx]
    theta = angle_midpoints(32)
    acc = np.zeros(size)
    s = vi * vi + vj * vj
    for th in theta:
        v[rows, idx], v[rows, jdx] = rotate_pair(vi, vj, th)
        acc += (phi(v) - base) ** 2
    return base, np.sum((1.0 + s) ** gamma * acc / theta.size)


# -- exact generator on power sums --------------------------------------


def _half_integer_moment(p: int, q: int) -> float:
    """(1/2pi) integral of cos^p sin^q over the circle (0 unless p, q even).

    For even p, q it is (p - 1)!! (q - 1)!! / (p + q)!!, a ratio of
    integers, so the result is correctly rounded.
    """
    if p % 2 or q % 2:
        return 0.0
    return (math.prod(range(p - 1, 0, -2)) * math.prod(range(q - 1, 0, -2))
            / math.prod(range(p + q, 0, -2)))


@functools.cache
def _rotation_average(k: int) -> tuple:
    """Circle average of v_i^k after rotating the pair (i, j).

    Expands (vi c + vj s)^k binomially and averages the trig coefficients,
    yielding ((power of vi, power of vj), coef) terms.
    """
    out = []
    for a in range(k + 1):
        trig = _half_integer_moment(a, k - a)
        if trig != 0.0:
            out.append(((a, k - a), math.comb(k, a) * trig))
    return tuple(out)


def _power_sum(k: int, n: int) -> np.ndarray:
    """p_k = sum_i v_i^k (k even) in the basis (1, p_4, ..., p_DEGREE).

    On the sphere of radius sqrt(N), p_0 = p_2 = N are constants.
    """
    out = np.zeros(_DEGREE // 2)
    if k <= 2:
        out[0] = n
    else:
        out[k // 2 - 1] = 1.0
    return out


def generator_matrix_smalln(n: int) -> np.ndarray:
    """Matrix of -L at gamma = 0 on the power sums (1, p_4, ..., p_DEGREE).

    Row r is -L of the r-th basis function, written in the basis.  The
    circle average of the pair rotation of v_i^k + v_j^k is a sum of terms
    coef v_i^e v_j^f + coef v_j^e v_i^f with e + f = k
    (``_rotation_average(k)``), and over ordered pairs
    sum_{i != j} v_i^e v_j^f = p_e p_f - p_k, so

        -L p_k = 2 p_k - (2 / (N - 1)) sum coef (p_e p_f - p_k).

    Up to degree 6 one of e, f is at most 2, so p_e p_f is N times one
    power sum: the basis is closed and the matrix lower triangular.  Only
    gamma = 0 keeps the polynomial sector invariant.
    """
    if n < 3:
        raise ConfigurationError("the exact gap needs N >= 3")
    mat = np.zeros((_DEGREE // 2, _DEGREE // 2))
    for row in range(1, _DEGREE // 2):
        k = 2 * row + 2
        p_k = _power_sum(k, n)
        pairs = sum(coef * (n * _power_sum(max(e, f), n) - p_k)
                    for (e, f), coef in _rotation_average(k))
        mat[row] = 2.0 * p_k - 2.0 * pairs / (n - 1.0)
    return mat


def exact_gap_smalln(n: int) -> float:
    """Smallest nonzero eigenvalue of -L on the power sums: the gap Delta_N.

    The matrix is triangular, so its eigenvalues are its diagonal; the
    constant row holds the zero.  The smallest is p_4's, which is Delta_N
    (Carlen, Carvalho and Loss 2003); p_6's, 3 (N + 4) / (4 (N - 1)), lies
    above it at every N.
    """
    return float(np.min(np.diag(generator_matrix_smalln(n))[1:]))
