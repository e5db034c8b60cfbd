"""The Kac jump process and its exact spectral gap.

The master equation evolves a symmetric density on the energy sphere by
random pair rotations at rate N (1 + v_i^2 + v_j^2)^gamma per clock tick,
averaged over pairs.  Here we run the process by thinning, estimate
spectral-gap quotients with a Rayleigh/Dirichlet Monte Carlo, and write
the generator exactly on the power sums p_4 and p_6 at any N, where its
lowest eigenvalue is the gap known in closed form:
Delta_N = (N + 2) / (2 (N - 1)).

At gamma > 0 each block of candidates thins against N (1 + cap)^gamma,
with cap = min(1.25 (e_1 + e_2), N) from the two largest energies at the
block's start, and the block ends once the pair energies could exceed cap
(see :func:`simulate`); at N = 512 and gamma = 0.5 about a quarter of the
candidates are rotations, where the constant bound N (1 + N)^gamma kept
7%.  An ensemble at gamma > 0 runs one simulate per replica.  At
gamma = 0 every candidate is a rotation, so a state at time t is a
Poisson(N t) number of independent uniform rotations of its start: an
ensemble draws each replica's event count and then runs all replicas in
lockstep from one generator, the k-th events of all replicas as one array
operation (see :func:`_poisson_walk`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateTestFunctionError
from .quadrature import TWO_PI, angle_midpoints
from .sphere import uniform_sphere_batch

# candidate events drawn per block; bounds memory on long runs
_BLOCK = 2**16
# entries of each array of a block of gamma = 0 ensemble events: at most
# 128 KiB, under glibc's mmap threshold, like sphere._BLOCK
_LOCKSTEP_ENTRIES = 2**14
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
    """Outcome of a run: final state plus acceptance bookkeeping.

    proposed counts the candidates examined, accepted the rotations; the
    candidates a cut block drops are not counted.
    """

    velocities: np.ndarray
    proposed: int
    accepted: int


def _start(n: int, initial, rng: np.random.Generator) -> np.ndarray:
    """The run's first state: initial, checked to lie on the sphere, or a
    uniform sphere point drawn from rng."""
    if initial is None:
        return uniform_sphere_batch(n, 1, rng)[0]
    v = np.array(initial, dtype=float)
    if v.shape != (n,):
        raise ConfigurationError(f"initial state must have shape ({n},)")
    _check_energy(v, n)
    return v


def _check_energy(v: np.ndarray, n: int) -> None:
    """Raise ConfigurationError unless the state v, or each row of v, has
    energy N to 1e-9 relative."""
    energy = np.einsum("...i,...i->...", v, v)
    bad = np.flatnonzero(~(np.abs(energy - n) <= 1e-9 * n))
    if bad.size:
        raise ConfigurationError(
            f"initial state has energy {energy.flat[bad[0]]}, not N={n}")


def _block_size(expect: float) -> int:
    """Candidates per block when expect of them are expected before
    t_final: five standard deviations more, at most _BLOCK."""
    return min(_BLOCK, int(expect + 5.0 * math.sqrt(expect)) + 16)


def _pairs(rng: np.random.Generator, n: int, size: int):
    """size uniform pairs (i, j) of distinct particles, as two arrays."""
    first = rng.integers(n, size=size)
    second = rng.integers(n - 1, size=size)
    second += second >= first  # uniform over j != i
    return first, second


def _candidates(rng: np.random.Generator, n: int, lam: float, t: float,
                t_final: float, thin: bool):
    """One block of candidates from time t at rate lam: their times, pairs
    (i, j), thinning uniforms (None unless thin) and angles, enough to
    reach t_final with high probability."""
    size = _block_size(lam * (t_final - t))
    times = t + np.cumsum(rng.exponential(1.0 / lam, size))
    first, second = _pairs(rng, n, size)
    u = rng.random(size) if thin else None
    theta = rng.uniform(0.0, TWO_PI, size)
    return times, first, second, u, theta


def simulate(config: SimulationConfig, initial: np.ndarray | None = None,
             rng: np.random.Generator | None = None) -> TrajectoryStats:
    """Run the jump process to t_final by thinning.

    Each candidate block starts from the current state with a bound cap on
    every pair energy s = v_i^2 + v_j^2, draws candidates at rate
    N (1 + cap)^gamma, and rotates a uniformly chosen pair by a uniform
    angle with probability ((1 + s) / (1 + cap))^gamma, which reproduces
    the energy-dependent collision rates exactly.  The candidates' times,
    pairs, thinning uniforms and angles are drawn as arrays, a block at a
    time; only the accept/rotate step runs per event.

    At gamma > 0, cap = min(1.25 (e_1 + e_2), N) for the two largest
    energies e_1 >= e_2 at the block's start.  The block keeps bounds
    U_1 >= U_2 on the two largest energies, raised with the two new
    energies of each accepted rotation: those are the only energies that
    change, so the largest and second largest stay at most U_1 and U_2,
    and every pair energy, a sum of two distinct energies, at most
    U_1 + U_2.  When U_1 + U_2 exceeds cap, the block ends at that event
    and its later candidates are dropped; the Poisson clock has no memory,
    so the next block starts afresh from the state there.  A bound on the
    largest energy alone would not do: s reaches 2 U_1, which exceeds cap
    from the start when e_1 > 1.67 e_2.  No pair energy exceeds N, so at
    cap = N no block is cut.  At gamma = 0 the rate is N, every candidate
    is a rotation and no bound is kept.
    """
    n, gamma, t_final = config.n, config.gamma, config.t_final
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    v = _start(n, initial, rng)
    thin = gamma > 0
    vel = v.tolist()
    t, proposed, accepted = 0.0, 0, 0
    while True:
        cap = float(n)
        if thin:
            e2, e1 = np.partition(np.square(vel), n - 2)[-2:]
            cap = min(1.25 * float(e1 + e2), cap)
            u1, u2 = float(e1), float(e2)
        lam = n * (1.0 + cap) ** gamma
        times, first, second, u, theta = _candidates(rng, n, lam, t, t_final,
                                                     thin)
        stop = int(np.searchsorted(times, t_final))
        if thin:
            # u < ((1 + s) / (1 + cap))^gamma  <=>  s > (1 + cap) u^(1/gamma) - 1
            threshold = ((1.0 + cap) * u[:stop] ** (1.0 / gamma) - 1.0).tolist()
        else:
            threshold = itertools.repeat(-1.0)
        events = zip(first[:stop].tolist(), second[:stop].tolist(),
                     threshold, theta[:stop].tolist())
        bounded = cap < n
        cut = None
        for k, (i, j, low, th) in enumerate(events):
            vi, vj = vel[i], vel[j]
            if vi * vi + vj * vj <= low:
                continue
            c, s = math.cos(th), math.sin(th)
            vi, vj = vi * c + vj * s, vj * c - vi * s
            vel[i], vel[j] = vi, vj
            accepted += 1
            if bounded:
                a, b = vi * vi, vj * vj
                if a < b:
                    a, b = b, a
                if a > u1:
                    u1, u2 = a, max(u1, b)
                elif a > u2:
                    u2 = a
                if u1 + u2 > cap:
                    cut = k
                    break
        if cut is not None:
            proposed += cut + 1
            t = float(times[cut])
            continue
        proposed += stop
        if stop < times.size:
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
    """Final states of independent replicas, shape (replicas, N).

    initial is one state for every replica, or one row per replica; seed
    defaults to config.seed.  At gamma > 0 replica r runs :func:`simulate`
    on the generator default_rng((seed, r)).  At gamma = 0 the whole
    ensemble is drawn from default_rng(seed) by :func:`_poisson_walk`: a
    deterministic function of (config, replicas, initial, seed) with the
    law of the walk, but not replica r's simulate.
    """
    n = config.n
    if initial is not None:
        initial = np.asarray(initial, dtype=float)
        if initial.ndim == 2 and len(initial) != replicas:
            raise ConfigurationError(f"initial has {len(initial)} rows for "
                                     f"{replicas} replicas")
        if initial.shape not in ((n,), (replicas, n)):
            raise ConfigurationError(
                f"initial must have shape ({n},) or ({replicas}, {n}), "
                f"not {initial.shape}")
    base = config.seed if seed is None else seed
    if config.gamma == 0:
        return _poisson_walk(config, replicas, initial,
                             np.random.default_rng(base))
    rows = (initial if initial is not None and initial.ndim == 2
            else [initial] * replicas)
    out = np.empty((replicas, n))
    for r in range(replicas):
        rng = np.random.default_rng((base, r))
        out[r] = simulate(config, rows[r], rng).velocities
    return out


def _poisson_walk(config: SimulationConfig, replicas: int,
                  initial: np.ndarray | None,
                  rng: np.random.Generator) -> np.ndarray:
    """Final states of the gamma = 0 walk for replicas rows, from rng.

    At gamma = 0 the clock ticks at rate N and every tick rotates a
    uniform pair by a uniform angle, so a replica's state at t_final is a
    Poisson(N t_final) number of independent rotations of its start.  The
    starts (initial, or uniform sphere points) and the event counts are
    drawn first.  The replicas are ordered by count, so the ones still
    running at step k are a prefix, and the k-th events of all of them
    are one array operation on the state through flat indices.  Pairs and
    angles are drawn step-major, in blocks of at most _LOCKSTEP_ENTRIES
    entries per array.  A row with no events left is not touched, not
    rotated by the identity, which would turn -0.0 into 0.0.
    """
    n = config.n
    if initial is None:
        state = uniform_sphere_batch(n, replicas, rng)
    else:
        state = np.empty((replicas, n))
        state[...] = initial
        _check_energy(state, n)
    counts = rng.poisson(n * config.t_final, replicas)
    order = np.argsort(-counts, kind="stable")
    # running[k] replicas make a k-th event: entries off[k]:off[k + 1] of
    # the step-major stream
    running = np.searchsorted(-counts[order],
                              -np.arange(counts.max(initial=0)), "left")
    off = np.concatenate(([0], np.cumsum(running)))
    rows = order * n
    flat = state.reshape(-1)
    for lo in range(0, int(off[-1]), _LOCKSTEP_ENTRIES):
        size = min(_LOCKSTEP_ENTRIES, int(off[-1]) - lo)
        at_i, at_j = _pairs(rng, n, size)
        sin = rng.uniform(0.0, TWO_PI, size)
        cos = np.cos(sin)
        np.sin(sin, out=sin)
        # entries bounds[m]:bounds[m + 1] of the block are events of step
        # first + m; entry e of the stream is replica order[e - off[k]]
        # at step k
        first = int(np.searchsorted(off, lo, "right")) - 1
        last = int(np.searchsorted(off, lo + size, "left"))
        bounds = np.clip(off[first:last + 1] - lo, 0, size).tolist()
        starts = (off[first:last] - lo).tolist()
        at = np.concatenate([rows[a - s:b - s] for a, b, s in
                             zip(bounds, bounds[1:], starts)])
        at_i += at
        at_j += at
        for a, b in zip(bounds, bounds[1:]):
            i, j = at_i[a:b], at_j[a:b]
            c, s = cos[a:b], sin[a:b]
            vi, vj = flat[i], flat[j]
            flat[i] = vi * c + vj * s
            flat[j] = vj * c - vi * s
    # each rotation conserves v_i^2 + v_j^2, so the rescale only removes
    # rounding drift
    state *= np.sqrt(n / np.sum(state * state, axis=1))[:, None]
    return state


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
    # the pair's entries as flat indices into v: one 1-D scatter per write
    at = np.arange(0, size * n, n)
    idx, jdx = (k + at for k in _pairs(rng, n, size))
    flat = v.reshape(-1)
    vi, vj = flat[idx], flat[jdx]
    theta = angle_midpoints(32)
    acc = np.zeros(size)
    s = vi * vi + vj * vj
    # the rotated pair and the squared change of phi go to two buffers
    # reused at every angle, with rotate_pair's arithmetic: fresh
    # batch-sized temporaries would be trimmed from the heap and faulted
    # back in at every angle or not, depending on what ran before
    w, d = np.empty(size), np.empty(size)
    for th in theta:
        c, sn = np.cos(th), np.sin(th)
        np.multiply(vi, c, out=w)
        w += np.multiply(vj, sn, out=d)
        flat[idx] = w
        np.multiply(vj, c, out=w)
        w -= np.multiply(vi, sn, out=d)
        flat[jdx] = w
        np.subtract(phi(v), base, out=d)
        d *= d
        acc += d
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
