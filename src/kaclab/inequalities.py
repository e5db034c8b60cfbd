"""Entropy-production inequalities for conditioned states and their limit.

Everything here instantiates one of three layers: the entropic-gap ratios
Gamma_N = D_{N,gamma} / H_N with Villani's lower bound as a hard floor,
the log-power envelope that certifies a uniform-in-N bound on the
collision log-integral, and the rescaled inequality that converts both
into a power-law lower bound D_{N,gamma}/N >= C (H_N/N)^{1+eta} which
survives the mean-field limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conditioned import ConditionedFamily
from .densities import GridDensity1D, MixtureSpec, mixture, moment
from .errors import (AccuracyError, ConfigurationError,
                     DegenerateTestFunctionError)
from .normalization import NormalizationLadder, lambda_profile

_TWO_PI = 2.0 * np.pi


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


def gamma_ratio_sweep(generators, gamma: float, n_list,
                      n_grid: int = 2**15,
                      production_kwargs: dict | None = None) -> list[GapRatioRow]:
    """Gamma_N = D_{N,gamma}(F_N) / H_N(F_N) along an N-sweep.

    ``generators`` is either a single density (fixed f) or a callable
    N -> density (a schedule such as the shrinking-mixture family).  At
    gamma = 0 every ratio is checked against Villani's 2/(N-1) floor and
    a violation raises immediately: it would mean a numerical bug, never
    physics.
    """
    kwargs = dict(n_s=160, check=False)
    kwargs.update(production_kwargs or {})
    rows = []
    for n in n_list:
        f = generators if isinstance(generators, GridDensity1D) else generators(n)
        fam = ConditionedFamily(f, n, n_grid=n_grid)
        h = fam.entropy()
        if h / n < 1e-5:
            raise DegenerateTestFunctionError(
                f"entropy {h:.2e} at N={n}: generator too close to Maxwellian")
        d = fam.production(gamma, **kwargs)
        if gamma == 0.0 and d / h < villani_floor(n):
            raise AccuracyError(
                f"Villani bound violated at N={n}: D/H = {d / h:.6f} < "
                f"2/(N-1) = {villani_floor(n):.6f}")
        rows.append(GapRatioRow(n, h, d))
    return rows


def fit_loglog_slope(n_values, ratios) -> float:
    """Least-squares slope of log(ratio) against log(N)."""
    return float(np.polyfit(np.log(np.asarray(n_values, dtype=float)),
                            np.log(np.asarray(ratios, dtype=float)), 1)[0])


# -- log-power envelope -------------------------------------------------


def mixture_exponent_bound(spec: MixtureSpec):
    """Pointwise exponent Phi with f_delta >= exp(-Phi), from the cold part.

    f_delta >= (1-delta) M_{1/(2(1-delta))} gives
    Phi(v) = (1-delta) v^2 - log((1-delta) sqrt((1-delta)/pi)),
    which is positive since the constant term exceeds 1 for delta <= 1/2.
    """
    d = spec.delta
    const = -np.log((1.0 - d) * np.sqrt((1.0 - d) / np.pi))
    if const <= 0:
        raise ConfigurationError(
            "exponent bound not positive at this mixture weight")

    def phi(v):
        return (1.0 - d) * np.asarray(v, dtype=float) ** 2 + const

    return phi


@dataclass
class LogPowerWitness:
    """Certificate inputs for the log-power envelope of one generator."""

    beta: float
    k: float
    phi: object  # callable v -> exponent with f >= exp(-phi)
    epsilon: float = 0.5
    measured: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.beta <= 0 or self.epsilon <= 0:
            raise ConfigurationError("beta and epsilon must be positive")
        if self.k <= 1.0 + 1.0 / self.beta:
            raise ConfigurationError("need k > 1 + 1/beta")

    def validate_lower_bound(self, f: GridDensity1D) -> None:
        v = np.linspace(-f.v_max, f.v_max, 2001)
        fv = f(v)
        live = fv > 0
        if np.any(np.exp(-self.phi(v[live])) > fv[live] * (1.0 + 1e-9)):
            raise ConfigurationError(
                "exponent function does not dominate -log f on the grid")


def log_over_power_sup(epsilon: float) -> float:
    """sup_{x >= 1} log(x) / x^epsilon = 1/(e epsilon), at x = e^{1/epsilon}."""
    return 1.0 / (np.e * epsilon)


def moment_envelope(f: GridDensity1D, witness: LogPowerWitness,
                    angle_nodes: int = 128) -> dict:
    """The three moment pieces of the envelope and their total.

    total = 2 (sup log x / x^eps)^{1+beta} ||f||_inf^{eps (1+beta)}
            + int Phi^{1+beta} f + int (int_0^{2pi} Phi(v1(th))^{1+beta} dth) f f.
    """
    beta, eps = witness.beta, witness.epsilon
    v = np.linspace(-f.v_max, f.v_max, 2001)
    dv = v[1] - v[0]
    w = np.full(v.shape, dv)
    w[0] = w[-1] = 0.5 * dv
    fv = np.maximum(f(v), 0.0)
    m_phi = float(np.sum(witness.phi(v) ** (1.0 + beta) * fv * w))
    th = _TWO_PI * (np.arange(angle_nodes) + 0.5) / angle_nodes
    # marginalize v2 first: for each (v1, th) integrate over v2
    inner = np.zeros(v.shape)
    for t, dth in zip(th, np.full(angle_nodes, _TWO_PI / angle_nodes)):
        rotated = v[:, None] * np.cos(t) + v[None, :] * np.sin(t)
        inner += dth * np.sum(witness.phi(rotated) ** (1.0 + beta)
                              * (fv * w)[None, :], axis=1)
    m_avg = float(np.sum(inner * fv * w))
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
    lambda_sup_nm1: float

    @property
    def applicable(self) -> bool:
        return self.bound is not None

    @property
    def holds(self) -> bool:
        return self.bound is not None and self.measured <= self.bound


def logpower_envelope(f: GridDensity1D, witness: LogPowerWitness, n_list,
                      n_grid: int = 2**15,
                      integral_kwargs: dict | None = None) -> list[EnvelopeRow]:
    """Measured log-power integrals against the certified constant.

    The envelope at each N uses the local-CLT remainder suprema of levels
    N and N-1; when sqrt(2 pi) sup|lambda_N| >= 1 the denominator of the
    certified constant is nonpositive and the bound is undefined there.
    """
    witness.validate_lower_bound(f)
    beta = witness.beta
    kwargs = dict(n_s=160, check=False)
    kwargs.update(integral_kwargs or {})
    m_total = moment_envelope(f, witness)["total"]
    ladder = NormalizationLadder(f, max(n_list), n_grid=n_grid)
    rows = []
    for n in n_list:
        fam = ConditionedFamily(f, n, ladder=ladder)
        measured = fam.log_power_integral(beta, **kwargs)
        sup_n = float(np.max(np.abs(lambda_profile(ladder, n)[1])))
        sup_nm1 = float(np.max(np.abs(lambda_profile(ladder, n - 1)[1])))
        denom = 1.0 - np.sqrt(_TWO_PI) * sup_n
        if denom <= 0:
            bound = None
        else:
            ratio = (1.0 + np.sqrt(_TWO_PI) * sup_nm1) / denom
            bound = float(2.0 ** (1.0 + 2.0 * beta) * np.sqrt(3.0)
                          * ratio * m_total)
        rows.append(EnvelopeRow(n, measured, bound, sup_n, sup_nm1))
    witness.measured["c_beta_power"] = max(
        (r.measured for r in rows), default=np.nan)
    return rows


# -- the rescaled inequality --------------------------------------------


@dataclass
class RescaledReport:
    """Both layers of the rescaled inequality for one N."""

    n: int
    gamma: float
    beta: float
    k: float
    c1: float
    entropy: float
    production_gamma: float
    production_one: float
    c_beta: float
    m_2k: float
    lambda_grid_ok: bool
    lambda_optimal: float
    lambda_argmin: float
    final_lhs: float
    final_rhs: float
    constant: float
    exponent: float

    @property
    def final_holds(self) -> bool:
        return self.final_lhs >= self.final_rhs


def _intermediate_rhs(lam, gamma, beta, k, d_gamma_per_n, c_beta, m_2k):
    b = (2.0 ** (beta / (1.0 + beta)) * 3.0 ** (k * beta / (1.0 + beta))
         * c_beta / 2.0) * (1.0 + 2.0 * m_2k) ** (beta / (1.0 + beta))
    lam = np.asarray(lam, dtype=float)
    return (lam ** (1.0 - gamma) * d_gamma_per_n
            + b * lam ** (1.0 - k * beta / (1.0 + beta)))


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


def rescaled_inequality_check(f: GridDensity1D, gamma: float,
                              witness: LogPowerWitness, n_list,
                              c1: float = 2.0, n_grid: int = 2**15,
                              lambda_points: int = 100,
                              production_kwargs: dict | None = None
                              ) -> list[RescaledReport]:
    """Verify the lambda-split inequality and its optimized consequence.

    Uses sweep-suprema of the measured log-power integral and of the
    2k-th marginal moment as stand-ins for the (unreachable) true
    suprema over all N, and C_1 as the configured gamma = 1 entropic-gap
    constant.
    """
    if not 0.0 <= gamma < 1.0:
        raise ConfigurationError("gamma must lie in [0, 1)")
    beta, k = witness.beta, witness.k
    kwargs = dict(n_s=160, check=False)
    kwargs.update(production_kwargs or {})
    ladder = NormalizationLadder(f, max(n_list), n_grid=n_grid)
    families = {n: ConditionedFamily(f, n, ladder=ladder) for n in n_list}
    # sweep-sup estimates of C_beta^{1+beta} and M_{2k}
    c_beta = max(families[n].log_power_integral(beta, **kwargs)
                 for n in n_list) ** (1.0 / (1.0 + beta))
    m_2k = 0.0
    for n in n_list:
        v, w, dens = families[n]._marginal_quadrature()
        m_2k = max(m_2k, float(np.sum(np.abs(v) ** (2.0 * k) * dens * w)))
    reports = []
    exponent = rescaled_exponent(gamma, beta, k)
    for n in n_list:
        fam = families[n]
        h = fam.entropy()
        d_g = fam.production(gamma, **kwargs)
        d_1 = fam.production(1.0, **kwargs)
        grid = np.logspace(-3, 3, lambda_points)
        rhs = _intermediate_rhs(grid, gamma, beta, k, d_g / n, c_beta, m_2k)
        grid_ok = bool(np.all(d_1 / n <= rhs * (1.0 + 1e-12)))
        # analytic minimizer of the right-hand side
        m = k * beta / (1.0 + beta)
        b = (2.0 ** (beta / (1.0 + beta)) * 3.0 ** m * c_beta / 2.0) \
            * (1.0 + 2.0 * m_2k) ** (beta / (1.0 + beta))
        lam_star = (b * (m - 1.0) / ((1.0 - gamma) * d_g / n)) ** (1.0 / (m - gamma))
        lam_argmin = float(grid[np.argmin(rhs)])
        big_k, q = optimized_constant(gamma, beta, k, c_beta, m_2k)
        constant = (c1 / big_k) ** (1.0 / q)
        reports.append(RescaledReport(
            n=n, gamma=gamma, beta=beta, k=k, c1=c1, entropy=h,
            production_gamma=d_g, production_one=d_1, c_beta=c_beta,
            m_2k=m_2k, lambda_grid_ok=grid_ok, lambda_optimal=float(lam_star),
            lambda_argmin=lam_argmin, final_lhs=d_g / n,
            final_rhs=constant * (h / n) ** exponent,
            constant=constant, exponent=exponent))
    return reports


# -- the transferred limit inequality ----------------------------------


@dataclass
class BoltzmannReport:
    gamma: float
    beta: float
    k: float
    exponent: float
    hypotheses_ok: bool
    hypothesis_notes: list
    entropy: float
    production: float
    ratio: float  # D_gamma / H^{exponent}; inf when H = 0 and D > 0

    @property
    def trivially_satisfied(self) -> bool:
        return self.entropy < 1e-12 and self.production < 1e-10


def boltzmann_inequality_check(f_vals: np.ndarray, v: np.ndarray,
                               gamma: float, beta: float, k: float,
                               fisher: float | None = None) -> BoltzmannReport:
    """Instantiate the limit inequality D_gamma >= C H^{1+eta} on a profile.

    Hypothesis failures (missing Gaussian lower bound, infinite moments)
    are reported, not raised: the theorem simply does not apply there.
    """
    exponent = rescaled_exponent(gamma, beta, k)
    notes = []
    ok = True
    live = f_vals > 0
    if np.any(~live[np.abs(v) < 0.9 * v[-1]]):
        ok = False
        notes.append("density vanishes inside the core grid")
    else:
        # largest C with f >= C exp(-v^2) over the grid support
        c_low = float(np.min(f_vals[live] / np.exp(-v[live] ** 2)))
        if c_low <= 0:
            ok = False
            notes.append("no Gaussian lower bound on the grid")
        else:
            notes.append(f"gaussian lower bound constant {c_low:.3e}")
    dv = v[1] - v[0]
    p_need = max(2.0 * k, k * (1.0 + beta), 4.0)
    tail = float(f_vals[-1] * np.abs(v[-1]) ** p_need * dv)
    if tail > 1e-8:
        ok = False
        notes.append(f"moment of order {p_need:g} not resolved on the grid")
    from .limit_eq import half_grid_entropy, limit_production

    h = half_grid_entropy(f_vals, v)
    d = limit_production(f_vals, v, gamma)
    if h < 1e-12:
        ratio = 0.0 if d < 1e-10 else np.inf
    else:
        ratio = d / h ** exponent
    if fisher is not None and not np.isfinite(fisher):
        ok = False
        notes.append("Fisher information not finite")
    return BoltzmannReport(gamma, beta, k, exponent, ok, notes,
                           max(h, 0.0), max(d, 0.0), ratio)
