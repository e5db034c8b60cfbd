"""Closed forms that the tests compare the package's numbers with."""

import math

import numpy as np
from scipy.special import gammaln, logsumexp

# terms below e^-_CUT of the largest are dropped, as the exact sampler's
# table drops them (conditioned._split_terms)
_CUT = 40.0


def log_h(f, n: int, u: float) -> float:
    """log h^{*n}(u), the density of V_1^2 + ... + V_n^2 at u > 0 for V_i
    drawn from f, a mixture of at most two centred Gaussians
    (f.components, (weight, variance) pairs).

    V^2 from a component of variance a is Gamma(1/2, rho) with rate
    rho = 1/(2a), and the convolution of Gamma(k/2, rho_1) and
    Gamma((n-k)/2, rho_2) at u is a 1F1(k/2; n/2; c) series.  With the
    wider component first, rho_1 <= rho_2 and c = (rho_2 - rho_1) u >= 0,

        h^{*n}(u) = u^(n/2-1) e^(-rho_2 u) / Gamma(n/2) sum_{k, j} T(k, j),
        T(k, j) = C(n, k) w_1^k w_2^(n-k) rho_1^(k/2) rho_2^((n-k)/2)
                  (k/2)_j c^j / ((n/2)_j j!),

    the terms of the sampler's table with u in place of N.  Every term is
    positive, so the sum keeps the terms within e^-_CUT of the largest.
    For each k the terms over j fall, rise to the peak just past the
    larger root of j^2 + (n/2 + 1 - c) j + n/2 - c k/2 and fall again, so
    the rows whose peak reaches the cut are summed on a window around the
    peak that doubles until both its ends lie below the cut; each term is
    evaluated with gammaln, not by recursion.
    """
    (w1, a1), *rest = sorted(f.components, key=lambda p: -p[1])
    if not rest or rest[0][1] == a1:
        w = sum(p[0] for p in f.components)
        rho = 0.5 / a1
        return (0.5 * n * math.log(w * w * rho) + (0.5 * n - 1.0) * math.log(u)
                - rho * u - math.lgamma(0.5 * n))
    (w2, a2), = rest
    rho1, rho2 = 0.5 / a1, 0.5 / a2
    b, c, k = 0.5 * n, (rho2 - rho1) * u, np.arange(n + 1)
    log_k = (gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n + 1.0 - k)
             + k * math.log(w1 * math.sqrt(rho1))
             + (n - k) * math.log(w2 * math.sqrt(rho2)))

    def log_t(k, j):
        """log T(k, j); k = 0 has the term j = 0 only."""
        with np.errstate(divide="ignore", invalid="ignore"):
            series = (gammaln(0.5 * k + j) - gammaln(0.5 * k) - gammaln(b + j)
                      + gammaln(b) - gammaln(j + 1.0) + j * math.log(c))
        series = np.where(j == 0, 0.0, np.where(k == 0, -np.inf, series))
        return log_k[k] + series

    disc = (b + 1.0 - c) ** 2 - 4.0 * (b - 0.5 * c * k)
    root = 0.5 * (np.sqrt(np.maximum(disc, 0.0)) - (b + 1.0 - c))
    peak = np.where((disc >= 0) & (root >= 0) & (k > 0), np.floor(root) + 1,
                    0).astype(np.int64)
    top = np.maximum(log_t(k, peak), log_k)
    cut = top.max() - _CUT
    k = np.flatnonzero(top >= cut)
    half = 64
    while True:
        lo = np.maximum(peak[k] - half, 0)
        j = lo[:, None] + np.arange(2 * half + 1)
        terms = log_t(k[:, None], j)
        if np.all((terms[:, -1] < cut) & ((lo == 0) | (terms[:, 0] < cut))):
            break
        half *= 2
    # the terms below a window fall from j = 0 to its start, so none
    # reaches the cut unless the first one does
    assert np.all((lo == 0) | (log_k[k] < cut))
    return float(logsumexp(terms[terms >= cut]) + (0.5 * n - 1.0) * math.log(u)
                 - rho2 * u - math.lgamma(0.5 * n))
