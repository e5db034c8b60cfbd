"""Entropy-production inequalities for conditioned states.

Everything here instantiates one of three layers: the entropic-gap ratios
Gamma_N = D_{N,gamma} / H_N with Villani's lower bound as a hard floor,
the log-power envelope that certifies a uniform-in-N bound on the
collision log-integral, and the rescaled inequality that converts both
into a power-law lower bound D_{N,gamma}/N >= C (H_N/N)^{1+eta} which
survives the mean-field limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conditioned import ConditionedFamily
from .densities import GridDensity1D, mixture
from .errors import (AccuracyError, ConfigurationError,
                     DegenerateTestFunctionError)
from .normalization import NormalizationLadder, lambda_sup
from .quadrature import (ANGLES, SHELLS, TWO_PI, angle_midpoints,
                         energy_shells, fold, quadrant_angles, shell_sum,
                         trapezoid_weights)


def villani_floor(n: int) -> float:
    """Villani's lower bound on the entropic gap at gamma = 0: 2/(N-1)."""
    return 2.0 / (n - 1.0)


def rescaled_exponent(gamma: float, beta: float, k: float) -> float:
    """The exponent 1 + (1-gamma)(1+beta)/(k beta - (1+beta))."""
    if k * beta <= 1.0 + beta:
        raise ConfigurationError("need k > 1 + 1/beta")
    return 1.0 + (1.0 - gamma) * (1.0 + beta) / (k * beta - (1.0 + beta))


# -- entropic gap sweeps ------------------------------------------------


@dataclass
class GapRatioRow:
    n: int
    entropy: float
    production: float

    @property
    def ratio(self) -> float:
        return self.production / self.entropy


def gamma_ratio_sweep(generators, gamma: float, n_list) -> list[GapRatioRow]:
    """Gamma_N = D_{N,gamma}(F_N) / H_N(F_N) along an N-sweep.

    ``generators`` is either a single density (fixed f) or a callable
    N -> density (a schedule such as the shrinking-mixture family).  At
    gamma = 0 every ratio is checked against Villani's 2/(N-1) floor and
    a violation raises immediately: it would mean a numerical bug, never
    physics.
    """
    rows = []
    for n in n_list:
        f = generators if isinstance(generators, GridDensity1D) else generators(n)
        fam = ConditionedFamily(f, n)
        h = fam.entropy()
        if h / n < 1e-5:
            raise DegenerateTestFunctionError(
                f"entropy {h:.2e} at N={n}: generator too close to Maxwellian")
        d = fam.production(gamma)
        if gamma == 0.0 and d / h < villani_floor(n):
            raise AccuracyError(
                f"Villani bound violated at N={n}: D/H = {d / h:.6f} < "
                f"2/(N-1) = {villani_floor(n):.6f}")
        rows.append(GapRatioRow(fam.n, h, d))
    return rows


def fit_loglog_slope(n_values, ratios) -> float:
    """Least-squares slope of log(ratio) against log(N), from at least two
    distinct N."""
    if len(set(n_values)) < 2:
        raise ValueError(f"a slope needs two distinct N, got {list(n_values)}")
    return float(np.polyfit(np.log(np.asarray(n_values, dtype=float)),
                            np.log(np.asarray(ratios, dtype=float)), 1)[0])


# -- log-power envelope -------------------------------------------------


@dataclass
class LogPowerWitness:
    """Certificate inputs for the log-power envelope of mixture(delta)."""

    delta: float
    beta: float
    k: float
    epsilon: float = 0.5

    def __post_init__(self):
        if not (0 < self.beta < np.inf and 0 < self.epsilon < np.inf):
            raise ConfigurationError(
                "beta and epsilon must be finite and positive")
        if not 1.0 + 1.0 / self.beta < self.k < np.inf:
            raise ConfigurationError("need k > 1 + 1/beta")

    def phi(self, v):
        """Pointwise exponent Phi with f_delta >= exp(-Phi), from the cold part.

        f_delta >= (1-delta) M_{1/(2(1-delta))} gives
        Phi(v) = (1-delta) v^2 - log((1-delta) sqrt((1-delta)/pi)),
        with margin delta M_hot.  Phi is positive: the constant term is at
        least log sqrt(pi) > 0.57 for every delta in (0, 1).
        """
        d = self.delta
        const = -np.log((1.0 - d) * np.sqrt((1.0 - d) / np.pi))
        return (1.0 - d) * np.asarray(v, dtype=float) ** 2 + const


def log_over_power_sup(epsilon: float) -> float:
    """sup_{x >= 1} log(x) / x^epsilon = 1/(e epsilon), at x = e^{1/epsilon}."""
    return 1.0 / (np.e * epsilon)


def moment_envelope(witness: LogPowerWitness) -> dict:
    """The three moment pieces of the envelope of f = mixture(witness.delta)
    and their total.

    total = 2 (sup log x / x^eps)^{1+beta} ||f||_inf^{eps (1+beta)}
            + int Phi^{1+beta} f + int (int_0^{2pi} Phi(v1(th))^{1+beta} dth) f f.

    With (v1, v2) = r (cos a, sin a), v1(th) = r cos(th - a), so the angle
    integral is B(r) = int_0^{2pi} Phi(r cos th)^{1+beta} dth for every a,
    and the last piece is (1/2) int B(sqrt s) A(s) ds over the energy
    shells s = r^2 in [0, v_max^2], A(s) = int_0^{2pi} f(r cos) f(r sin),
    by the quadrant fold.
    """
    f = mixture(witness.delta)
    beta, eps = witness.beta, witness.epsilon
    v = np.linspace(-f.v_max, f.v_max, 2001)
    fv = np.maximum(f(v), 0.0)
    m_phi = float(np.sum(witness.phi(v) ** (1.0 + beta) * fv
                         * trapezoid_weights(v)))
    s, ws = energy_shells(SHELLS, f.v_max ** 2)
    r = np.sqrt(s)
    b = np.sum(witness.phi(np.outer(r, np.cos(angle_midpoints(ANGLES))))
               ** (1.0 + beta), axis=1)
    e = np.maximum(f(np.outer(r, np.cos(quadrant_angles(ANGLES)))), 0.0)
    # four quadrants per folded value; the jacobian dv1 dv2 = ds da / 2
    m_avg = 0.5 * shell_sum(ws, b, 4.0 * np.sum(fold(e), axis=1), ANGLES)
    head = (2.0 * log_over_power_sup(eps) ** (1.0 + beta)
            * f.sup_norm() ** (eps * (1.0 + beta)))
    return {"head": head, "m_phi": m_phi, "m_avg": m_avg,
            "total": head + m_phi + m_avg}


@dataclass
class EnvelopeRow:
    n: int
    measured: float
    bound: float | None          # C_beta^{1+beta}; None when undefined
    lambda_sup_n: float
    family: ConditionedFamily    # the state measured, for the next layer

    @property
    def applicable(self) -> bool:
        return self.bound is not None

    @property
    def holds(self) -> bool:
        return self.bound is not None and self.measured <= self.bound


def logpower_envelope(witness: LogPowerWitness,
                      n_list) -> list[EnvelopeRow]:
    """Measured log-power integrals of mixture(witness.delta) against the
    certified constant.

    The envelope at each N uses the local-CLT remainder suprema of levels
    N and N-1; when sqrt(2 pi) sup|lambda_N| >= 1 the denominator of the
    certified constant is nonpositive and the bound is undefined there.
    """
    beta = witness.beta
    m_total = moment_envelope(witness)["total"]
    ladder = NormalizationLadder(mixture(witness.delta), max(n_list))
    rows = []
    for n in n_list:
        fam = ConditionedFamily(ladder, n)
        measured = fam.log_power_integral(beta)
        sup_n = lambda_sup(ladder, n)
        sup_nm1 = lambda_sup(ladder, n - 1)
        denom = 1.0 - np.sqrt(TWO_PI) * sup_n
        if denom <= 0:
            bound = None
        else:
            ratio = (1.0 + np.sqrt(TWO_PI) * sup_nm1) / denom
            bound = float(2.0 ** (1.0 + 2.0 * beta) * np.sqrt(3.0)
                          * ratio * m_total)
        rows.append(EnvelopeRow(n, measured, bound, sup_n, fam))
    return rows


# -- the rescaled inequality --------------------------------------------


@dataclass
class RescaledReport:
    """Both layers of the rescaled inequality for one N."""

    n: int
    lambda_grid_ok: bool
    final_lhs: float
    final_rhs: float
    constant: float
    exponent: float

    @property
    def final_holds(self) -> bool:
        return self.final_lhs >= self.final_rhs


def _intermediate_rhs(lam, gamma, beta, k, d_gamma_per_n, c_beta, m_2k):
    """The lambda-split bound on D_{N,1}/N:
    lam^{1-gamma} D_{N,gamma}/N + b lam^{1 - k beta/(1+beta)}."""
    ob = 1.0 + beta
    b = (2.0 ** (beta / ob) * 3.0 ** (k * beta / ob) * c_beta / 2.0
         * (1.0 + 2.0 * m_2k) ** (beta / ob))
    return (lam ** (1.0 - gamma) * d_gamma_per_n
            + b * lam ** (1.0 - k * beta / ob))


def optimized_constant(gamma: float, beta: float, k: float,
                       c_beta: float, m_2k: float) -> tuple[float, float]:
    """(K, q) with D_{N,1}/N <= K (D_{N,gamma}/N)^q after optimizing lambda."""
    kb, ob = k * beta, 1.0 + beta
    q = (kb - ob) / (kb - gamma * ob)
    front = (kb - gamma * ob) / (ob * (1.0 - gamma))
    middle = (ob * (1.0 - gamma) / (kb - ob)) ** q
    tail = (3.0 ** (kb * (1.0 - gamma) / (kb - gamma * ob))
            * c_beta ** (ob * (1.0 - gamma) / (kb - gamma * ob))
            / 2.0 ** ((1.0 - gamma) / (kb - gamma * ob))
            * (1.0 + 2.0 * m_2k) ** (beta * (1.0 - gamma) / (kb - gamma * ob)))
    return front * middle * tail, q


def check_rescaled_inputs(gamma: float, c1: float) -> None:
    """Raise ConfigurationError unless 0 <= gamma < 1 and 0 < c1 < inf,
    the inputs :func:`rescaled_inequality_check` takes besides the
    envelope, so a caller can check them before building one."""
    if not 0.0 <= gamma < 1.0:
        raise ConfigurationError("gamma must lie in [0, 1)")
    if not 0.0 < c1 < np.inf:
        raise ConfigurationError(f"c1 must be finite and positive, got {c1}")


def rescaled_inequality_check(gamma: float, witness: LogPowerWitness,
                              envelope: list[EnvelopeRow],
                              c1: float = 2.0) -> list[RescaledReport]:
    """Verify the lambda-split inequality and its optimized consequence.

    Reads the states and the measured log-power integrals of ``envelope``
    (the rows of :func:`logpower_envelope` for the same witness).  Uses
    sweep-suprema of the measured log-power integral and of the 2k-th
    marginal moment as stand-ins for the (unreachable) true suprema over
    all N, and C_1 as the configured gamma = 1 entropic-gap constant.
    """
    check_rescaled_inputs(gamma, c1)
    beta, k = witness.beta, witness.k
    # sweep-sup estimates of C_beta^{1+beta} and M_{2k}
    c_beta = max(r.measured for r in envelope) ** (1.0 / (1.0 + beta))
    m_2k = max(r.family.marginal_moment(2.0 * k) for r in envelope)
    exponent = rescaled_exponent(gamma, beta, k)
    big_k, q = optimized_constant(gamma, beta, k, c_beta, m_2k)
    constant = (c1 / big_k) ** (1.0 / q)
    grid = np.logspace(-3, 3, 100)
    reports = []
    for r in envelope:
        fam, n = r.family, r.n
        h = fam.entropy()
        d_g = fam.production(gamma)
        d_1 = fam.production(1.0)
        rhs = _intermediate_rhs(grid, gamma, beta, k, d_g / n, c_beta, m_2k)
        reports.append(RescaledReport(
            n=n, lambda_grid_ok=bool(np.all(d_1 / n <= rhs * (1.0 + 1e-12))),
            final_lhs=d_g / n, final_rhs=constant * (h / n) ** exponent,
            constant=constant, exponent=exponent))
    return reports

