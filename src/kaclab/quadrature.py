"""Quadrature primitives shared by the N-particle and limit levels.

The entropy production D_{N,gamma} of a conditioned state and D_gamma of
the limit equation reduce to the same two-body integral: Gauss-Legendre
energy shells s = v1^2 + v2^2, angle midpoints on each shell, and the
pair kernel psi(x, y) = (x - y)(log x - log y) summed over angle pairs.
The log-power integral and the angle-averaged moment of the log-power
envelope use the same shells.  Every one of these integrands carries
f(v1) f(v2), which vanishes beyond v1^2 + v2^2 = 2 v_max^2 for f = 0 beyond
v_max, so the shells always cover [0, min(s_max, 2 v_max^2)]
(:func:`polar_shells`) and the sums always take the polar measure
(1/2 pi) ds dphi / 2 (:func:`polar_integral`).

Quadrant fold.  For an even f and a midpoint rule with a multiple of 8
angles, f(r cos th) f(r sin th) at a first-octant midpoint th_k,
k < q = angle_nodes / 8, recurs at its 7 mirror images in the other
octants, and sin th_k = cos th_{2q-1-k} is another quadrant point.
So every shell needs the two halves E[0, r, k] = f(r cos th_k) and
E[1, r, k] = f(r sin th_k) of its 2q quadrant points
(:func:`quadrant_points`), and the products P = E[0] E[1] hold each
distinct value once: sums over all ordered angle pairs are 64 times the
sums over the q^2 ordered pairs of P (:func:`pair_kernel`,
:func:`log_power_kernel`).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import AccuracyError, ConfigurationError

TWO_PI = 2.0 * np.pi
# angle midpoints per energy shell (a multiple of 8, for the fold) and
# Gauss-Legendre shells per integral
ANGLES = 256
SHELLS = 256
# pair terms per pass of log_power_kernel: a pass's 128 KiB arrays stay
# in cache; on a 2-core Xeon, 32-shell passes over the 256-angle rule take
# 0.9 ms per call at beta = 1, one pass over all 256 shells 2.2 ms
_PAIR_BLOCK = 2**14


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


def angle_midpoints(count: int) -> np.ndarray:
    """Midpoints of count equal arcs of [0, 2 pi)."""
    return TWO_PI * (np.arange(count) + 0.5) / count


def quadrant_points(radii: np.ndarray, angle_nodes: int = ANGLES):
    """The quadrant points of an angle_nodes-point rule, angle_nodes a
    multiple of 8, as two stacked halves of shape (2, len(radii), q),
    q = angle_nodes / 8: r cos th_k and its partner r cos th_{2q-1-k}
    = r sin th_k for each radius r (rows) and first-octant midpoint th_k
    (columns)."""
    if angle_nodes % 8:
        raise ValueError(f"the quadrant fold needs a multiple of 8 angles, "
                         f"got {angle_nodes}")
    th = angle_midpoints(angle_nodes)[:angle_nodes // 4]
    points = np.outer(radii, np.cos(th))
    q = angle_nodes // 8
    return np.stack([points[:, :q], points[:, :q - 1:-1]])


def polar_shells(v_max: float, s_max: float = np.inf, count: int = SHELLS,
                 angle_nodes: int = ANGLES):
    """Gauss-Legendre energy shells s on [0, min(s_max, 2 v_max^2)], the
    support of f(v1) f(v2) below s_max for f = 0 beyond v_max, their
    weights and the two halves of the quadrant points at r = sqrt(s)
    (:func:`quadrant_points`)."""
    top = min(float(s_max), 2.0 * v_max ** 2)
    x, w = gauss_legendre(count)
    s = 0.5 * top * (x + 1.0)
    return s, 0.5 * top * w, quadrant_points(np.sqrt(s), angle_nodes)


def require_even(f) -> None:
    """Raise unless the density f is even on its grid, as the fold needs."""
    v = f.nodes
    if not np.allclose(f(-v), f(v), rtol=1e-9, atol=1e-12 * f.sup_norm()):
        raise ConfigurationError(
            f"generator {f.tag or 'f'} is not even; the quadrant fold needs "
            "f(-v) = f(v)")


def pair_kernel(p: np.ndarray) -> np.ndarray:
    """Per shell, psi summed over all ordered angle pairs, from folded p.

    Over K angles, sum_{i,j} (p_i - p_j)(log p_i - log p_j)
    = 2 (K sum p log p - sum p sum log p); each folded value stands for
    8 angles, K = 8 h with h = p.shape[1], which gives
    128 (h sum_h p log p - sum_h p sum_h log p).
    """
    logp = np.where(p > 0, np.log(np.maximum(p, 1e-300)), 0.0)
    return 128.0 * (p.shape[1] * np.sum(p * logp, axis=1)
                    - np.sum(p, axis=1) * np.sum(logp, axis=1))


def log_power_kernel(p: np.ndarray, beta: float) -> np.ndarray:
    """Per shell, psi_beta(x, y) = (x - y)|log(x/y)|^{1+beta} over all
    ordered angle pairs, from folded p.

    Each folded value stands for 8 angles, so the sum over all ordered
    angle pairs is 128 times the sum over the unordered pairs i < j of
    each row.  With the rows sorted, x_j - x_i and log x_j - log x_i are
    >= 0 for i < j, and a pair whose smaller value is 0 is left out.  The
    kernel does not factorize; the h (h - 1) / 2 pairs of a block of
    shells are summed in one vectorised pass.
    """
    x = np.sort(p, axis=1)
    # np.log need not be monotone to the last bit, so the running maximum
    # keeps every log difference >= 0
    logx = np.maximum.accumulate(np.log(np.maximum(x, 1e-300)), axis=1)
    i, j = np.triu_indices(p.shape[1], 1)
    rows = max(_PAIR_BLOCK // max(i.size, 1), 1)
    out = np.empty(len(p))
    for a in range(0, len(p), rows):
        xs, ls = x[a:a + rows], logx[a:a + rows]
        x_i = xs.take(i, axis=1)
        d = np.where(x_i > 0, xs.take(j, axis=1) - x_i, 0.0)
        dl = ls.take(j, axis=1) - ls.take(i, axis=1)
        out[a:a + rows] = np.einsum("sk,sk->s", d, dl ** (1.0 + beta))
    return 128.0 * out


def polar_integral(ws: np.ndarray, weight: np.ndarray, pair: np.ndarray,
                   angle_nodes: int) -> float:
    """(1/2 pi) int weight * pair ds dphi / 2 on the shells of
    :func:`polar_shells`, pair summed over ordered angle pairs: the sum of
    ws * weight * pair * dphi^2 / (4 pi), dphi = 2 pi / K."""
    dphi = TWO_PI / angle_nodes
    return float(np.sum(ws * (weight * pair * dphi * dphi))) / TWO_PI * 0.5


def half_rule_checked(what: str, value, atol: float) -> float:
    """value(SHELLS, ANGLES), which must agree with value(SHELLS // 2,
    ANGLES // 2), the rule on half the shells and angles, to 1e-3
    relative or to atol, else AccuracyError.

    The half rule keeps a multiple of 8 angles, so it folds too; it costs
    about half the full rule.
    """
    val = value(SHELLS, ANGLES)
    half = value(SHELLS // 2, ANGLES // 2)
    if abs(val - half) > max(1e-3 * abs(val), atol):
        raise AccuracyError(
            f"{what} quadrature not converged: {val} vs {half}")
    return val
