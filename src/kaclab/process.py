"""The Kac jump process and its exact small-N spectral analysis.

The master equation evolves a symmetric density on the energy sphere by
random pair rotations at rate N (1 + v_i^2 + v_j^2)^gamma per clock tick,
averaged over pairs.  Here we run the process by thinning against the
dominating rate N (1 + N)^gamma, estimate spectral-gap quotients with a
Rayleigh/Dirichlet Monte Carlo, and assemble the generator exactly on a
polynomial Galerkin basis for small N where the gap is known in closed
form: Delta_N = (N + 2) / (2 (N - 1)).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations

import numpy as np

from .errors import ConfigurationError, DegenerateTestFunctionError
from .quadrature import TWO_PI, angle_midpoints
from .sphere import rotate_pair, uniform_sphere_batch

# candidate events drawn per block; bounds memory on long runs
_BLOCK = 2**16
# accepted events between energy renormalisations of a trajectory
_RENORMALIZE_EVERY = 1024
# largest total degree of the Galerkin basis polynomials
_DEGREE = 4


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

    config: SimulationConfig
    velocities: np.ndarray
    time: float
    proposed: int
    accepted: int

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / max(self.proposed, 1)


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
    countdown = _RENORMALIZE_EVERY
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
            countdown -= 1
            if not countdown:
                scale = math.sqrt(n / math.fsum(x * x for x in vel))
                vel = [x * scale for x in vel]
                countdown = _RENORMALIZE_EVERY
        if stop < size:
            break
        t = float(times[-1])
    v = np.array(vel)
    v *= np.sqrt(n / np.sum(v * v))
    return TrajectoryStats(config, v, t_final, proposed, accepted)


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
    above the true gap for any phi.
    """
    v = uniform_sphere_batch(n, samples, rng)
    base = phi(v)
    if np.std(base) < 1e-12:
        raise DegenerateTestFunctionError(
            "test function is constant on the sphere")
    idx = rng.integers(n, size=samples)
    jdx = rng.integers(n - 1, size=samples)
    jdx = np.where(jdx >= idx, jdx + 1, jdx)
    rows = np.arange(samples)
    vi, vj = v[rows, idx], v[rows, jdx]
    theta = angle_midpoints(32)
    acc = np.zeros(samples)
    s = vi * vi + vj * vj
    for th in theta:
        w = v.copy()
        wi, wj = rotate_pair(vi, vj, th)
        w[rows, idx] = wi
        w[rows, jdx] = wj
        acc += (phi(w) - base) ** 2
    dirichlet = 0.5 * n * np.mean((1.0 + s) ** gamma * acc / theta.size)
    return float(dirichlet / np.var(base))


# -- exact generator on a polynomial basis ------------------------------


def _half_integer_moment(p: int, q: int) -> float:
    """(1/2pi) integral of cos^p sin^q over the circle (0 unless p, q even)."""
    if p % 2 or q % 2:
        return 0.0
    return math.exp(math.lgamma((p + 1) / 2.0) + math.lgamma((q + 1) / 2.0)
                    - math.lgamma((p + q + 2) / 2.0)) / math.pi


@functools.cache
def _sphere_even_moment(n: int, powers: tuple) -> float:
    """E[prod v_i^{2 a_i}] on the sphere of radius sqrt(N).

    Closed form from the Dirichlet distribution of v_i^2 / N.  ``powers``
    is the sorted tuple of the nonzero a_i: the moment depends only on
    that multiset.
    """
    total = sum(powers)
    log_val = (math.lgamma(n / 2.0) - math.lgamma(n / 2.0 + total)
               + sum(math.lgamma(a + 0.5) - math.lgamma(0.5) for a in powers))
    return n**total * math.exp(log_val)


def _sphere_moment(n: int, p) -> float:
    """E[prod v_i^{p_i}] on the sphere of radius sqrt(N)."""
    if any(x % 2 for x in p):
        return 0.0
    return _sphere_even_moment(n, tuple(sorted(x // 2 for x in p if x)))


@functools.cache
def _rotation_average(pi: int, pj: int) -> tuple:
    """Circle average of v_i^{pi} v_j^{pj} after rotating the pair (i, j).

    Expands (vi c + vj s)^{pi} (-vi s + vj c)^{pj} binomially and averages
    the trig coefficients, yielding ((power of vi, power of vj), coef)
    terms.
    """
    out: dict[tuple, float] = {}
    for a in range(pi + 1):
        for b in range(pj + 1):
            # cos exponent a + b, sin exponent (pi - a) + (pj - b)
            trig = _half_integer_moment(a + b, pi - a + pj - b)
            if trig == 0.0:
                continue
            coef = (math.comb(pi, a) * math.comb(pj, b) * (-1.0) ** (pj - b)
                    * trig)
            key = (a + pj - b, pi - a + b)
            out[key] = out.get(key, 0.0) + coef
    return tuple(out.items())


def _monomials(n: int):
    """Multi-indices of symmetric even monomials up to degree _DEGREE.

    Basis functions are symmetrized products prod_i v_{c_i}^{2 e_i} over
    distinct coordinates; odd monomials decouple at gamma = 0 and carry
    no lower spectrum, so the even sector suffices for the gap.
    """
    basis = [()]
    for k in range(1, _DEGREE // 2 + 1):
        for combo in combinations_with_replacement(range(1, _DEGREE // 2 + 1), k):
            if sum(combo) * 2 <= _DEGREE and k <= n:
                basis.append(tuple(sorted(combo, reverse=True)))
    return basis


def _expand_monomial(exps: tuple, n: int) -> list[tuple[tuple, float]]:
    """Distinct-coordinate assignments realizing a symmetric monomial.

    Returns (power-vector, multiplicity-weight) pairs; point evaluation of
    the symmetrized basis function averages these assignments.
    """
    table: dict[tuple, float] = {}
    for coords in permutations(range(n), len(exps)):
        p = [0] * n
        for c, e in zip(coords, exps):
            p[c] += 2 * e
        key = tuple(p)
        table[key] = table.get(key, 0.0) + 1.0
    total = sum(table.values())
    return [(key, w / total) for key, w in table.items()]


def generator_matrix_smalln(n: int):
    """Exact Galerkin matrices (A, G) of -L at gamma = 0, even polynomials.

    A_{ab} = <p_a, -L p_b> and G_{ab} = <p_a, p_b> under the uniform
    sphere measure; pair-rotation averages of monomials are evaluated with
    circle moments, sphere moments with Dirichlet closed forms.  The basis
    functions are symmetric and the sphere measure is
    permutation-invariant, so <p_a, Q_ij p_b> is the same for every pair
    (i, j) and the pair average is its value on the pair (0, 1).  Only
    gamma = 0 keeps the polynomial sector invariant.
    """
    if n < 3 or n > 8:
        raise ConfigurationError("small-N analysis supports 3 <= N <= 8")
    expanded = [_expand_monomial(b, n) for b in _monomials(n)]
    m = len(expanded)
    gram = np.zeros((m, m))
    amat = np.zeros((m, m))
    for a in range(m):
        for b in range(m):
            g = 0.0
            q = 0.0
            for pa, wa in expanded[a]:
                for pb, wb in expanded[b]:
                    w = wa * wb
                    p_sum = tuple(x + y for x, y in zip(pa, pb))
                    mom = _sphere_moment(n, p_sum)
                    g += w * mom
                    # <p_a, Q_01 p_b>: rotate p_b on (0, 1), multiply by p_a;
                    # a p_b free of the pair is left exactly as it is
                    if pb[0] == 0 and pb[1] == 0:
                        q += w * mom
                        continue
                    rest = p_sum[2:]
                    for (e0, e1), coef in _rotation_average(pb[0], pb[1]):
                        q += w * coef * _sphere_moment(
                            n, (pa[0] + e0, pa[1] + e1) + rest)
            gram[a, b] = g
            amat[a, b] = n * (g - q)
    return amat, gram


def exact_gap_smalln(n: int) -> float:
    """Smallest nonzero eigenvalue of -L restricted to even polynomials.

    Solves the generalized problem A x = mu G x after projecting out the
    Gram null space (redundant symmetrized monomials) and the constant.
    """
    amat, gram = generator_matrix_smalln(n)
    amat = 0.5 * (amat + amat.T)
    gram = 0.5 * (gram + gram.T)
    evals, evecs = np.linalg.eigh(gram)
    keep = evals > 1e-9 * evals.max()
    basis = evecs[:, keep] / np.sqrt(evals[keep])
    small = basis.T @ amat @ basis
    mu = np.linalg.eigvalsh(0.5 * (small + small.T))
    nonzero = mu[mu > 1e-8]
    if nonzero.size == 0:
        raise DegenerateTestFunctionError("no nonzero spectrum in the basis")
    return float(np.min(nonzero))
