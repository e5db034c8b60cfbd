"""Quadrature primitives shared by the N-particle and limit levels.

The entropy production D_{N,gamma} of a conditioned state and D_gamma of
the limit equation reduce to the same two-body integral: Gauss-Legendre
energy shells s = v1^2 + v2^2, angle midpoints on each shell, and the
pair kernel psi(x, y) = (x - y)(log x - log y) summed over angle pairs.
The log-power integral and the angle-averaged moment of the log-power
envelope use the same shells.

Quadrant fold.  For an even f and a midpoint rule with a multiple of 4
angles, f(r cos th) f(r sin th) takes each first-quadrant value once per
quadrant.  With q = angle_nodes / 4 and E[r, k] = f(r cos th_k) for k < q,
sin th_k = cos th_{q-1-k} gives the products E[r, k] E[r, q-1-k], so
every shell needs q evaluations of f and sums over all angle pairs are
16 times the sums over the q^2 folded pairs.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigurationError

TWO_PI = 2.0 * np.pi
# angle midpoints per energy shell (a multiple of 4, for the fold) and
# Gauss-Legendre shells per integral
ANGLES = 256
SHELLS = 256


def freeze(*arrays) -> None:
    """Make arrays read-only: cached tables are shared by every caller."""
    for a in arrays:
        a.flags.writeable = False


def trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    """Trapezoid-rule weights on a grid of increasing nodes."""
    if len(nodes) < 2:
        raise ValueError(f"trapezoid rule needs 2 nodes, got {len(nodes)}")
    w = np.empty_like(nodes)
    d = np.diff(nodes)
    w[0] = d[0] / 2.0
    w[-1] = d[-1] / 2.0
    w[1:-1] = (d[1:] + d[:-1]) / 2.0
    return w


def half_grid_weights(v: np.ndarray) -> np.ndarray:
    """Full-line trapezoid weights for an even function on the grid v >= 0."""
    return 2.0 * trapezoid_weights(v)


def gaussian_relative_entropy(vals: np.ndarray, v: np.ndarray,
                              weights: np.ndarray) -> float:
    """H(f | M) = int f (log f - log M), M the unit Gaussian, from the
    values of f at the nodes v and the nodes' quadrature weights."""
    live = vals > 0
    log_m = -0.5 * v[live] ** 2 - 0.5 * np.log(TWO_PI)
    return float(np.sum(vals[live] * (np.log(vals[live]) - log_m)
                        * weights[live]))


@functools.cache
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on [-1, 1], built once per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    freeze(x, w)
    return x, w


def energy_shells(count: int, s_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre shell energies s on [0, s_max] and their weights."""
    x, w = gauss_legendre(count)
    return 0.5 * s_max * (x + 1.0), 0.5 * s_max * w


def angle_midpoints(count: int) -> np.ndarray:
    """Midpoints of count equal arcs of [0, 2 pi)."""
    return TWO_PI * (np.arange(count) + 0.5) / count


def quadrant_angles(angle_nodes: int) -> np.ndarray:
    """The first-quadrant midpoints of an angle_nodes-point rule, for
    angle_nodes a multiple of 4."""
    return angle_midpoints(angle_nodes)[:angle_nodes // 4]


def fold(e: np.ndarray) -> np.ndarray:
    """f(r cos th) f(r sin th) on quadrant angles from E = f(r cos th)."""
    return e * e[:, ::-1]


def require_even(f) -> None:
    """Raise unless the density f is even on its grid, as the fold needs."""
    v = f.nodes
    if not np.allclose(f(-v), f(v), rtol=1e-9, atol=1e-12 * f.sup_norm()):
        raise ConfigurationError(
            f"generator {f.tag or 'f'} is not even; the quadrant fold needs "
            "f(-v) = f(v)")


def pair_kernel(p: np.ndarray, angle_nodes: int) -> np.ndarray:
    """Per shell, psi summed over all ordered angle pairs, from folded p.

    Over K = angle_nodes angles, sum_{i,j} (p_i - p_j)(log p_i - log p_j)
    = 2 (K sum p log p - sum p sum log p); each folded value stands for
    four angles, which gives 2 (4 K sum_q p log p - 16 sum_q p sum_q log p).
    """
    logp = np.where(p > 0, np.log(np.maximum(p, 1e-300)), 0.0)
    return 2.0 * (4.0 * angle_nodes * np.sum(p * logp, axis=1)
                  - 16.0 * np.sum(p, axis=1) * np.sum(logp, axis=1))


def log_power_kernel(p: np.ndarray, beta: float) -> np.ndarray:
    """Per shell, psi_beta(x, y) = (x - y)|log(x/y)|^{1+beta} over all
    ordered angle pairs, from folded p: 16 times the q^2 folded pairs.

    The kernel does not factorize, so each shell costs O(q^2).
    """
    logp = np.log(np.maximum(p, 1e-300))
    out = np.empty(len(p))
    for a, (row, lrow) in enumerate(zip(p, logp)):
        live = row > 0
        x, lx = row[live], lrow[live]
        d = x[:, None] - x[None, :]
        dl = lx[:, None] - lx[None, :]
        out[a] = 16.0 * np.sum(d * np.sign(dl) * np.abs(dl) ** (1.0 + beta))
    return out


def shell_sum(ws: np.ndarray, weight: np.ndarray, pair: np.ndarray,
              angle_nodes: int) -> float:
    """sum over shells of ws * weight * pair * dphi^2, dphi = 2 pi / K."""
    dphi = TWO_PI / angle_nodes
    return float(np.sum(ws * (weight * pair * dphi * dphi)))
