"""Reproducible experiment harness for the collision-model laboratory.

One subcommand per experiment family.  Every run takes an optional JSON
config, writes CSV/JSON artifacts (each with a provenance header carrying
the config hash and seed) plus quick-look SVG charts, and exits with 0 on
success, 2 on configuration problems and 3 on tolerance failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import svg
from .densities import GridDensity1D, gaussian, mixture
from .errors import (AccuracyError, ConfigurationError,
                     DegenerateTestFunctionError, SamplingError)
from .conditioned import ConditionedFamily
from .inequalities import (LogPowerWitness, check_rescaled_inputs,
                           fit_loglog_slope, gamma_ratio_sweep, villani_floor,
                           logpower_envelope, rescaled_inequality_check)
from .limit_eq import LimitSolver, cercignani_ratio
from .normalization import clt_envelope, schedule_delta
from .process import (SimulationConfig, dirichlet_rayleigh, exact_gap_smalln,
                      simulate_ensemble, spectral_gap)

EXIT_OK, EXIT_CONFIG, EXIT_TOLERANCE = 0, 2, 3
SCHEDULE_BETA = 0.1  # beta of a schedule generator that states none


def _finite(text: str) -> float:
    """A JSON number as a float; NaN, Infinity and -Infinity, and literals
    such as 1e999 that overflow to them, raise ConfigurationError."""
    value = float(text)
    if not np.isfinite(value):
        raise ConfigurationError(f"config holds the non-finite number {text}")
    return value


def _load_config(path: str | None) -> tuple[dict, str]:
    if path is None:
        return {}, hashlib.sha256(b"{}").hexdigest()[:16]
    with open(path) as fh:
        text = fh.read()
    try:
        cfg = json.loads(text, parse_constant=_finite, parse_float=_finite)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError("config must be a JSON object")
    return cfg, hashlib.sha256(text.encode()).hexdigest()[:16]


def _get(cfg: dict, key: str, default):
    """cfg[key], or default when it is absent.

    The value must have the default's JSON type, else ConfigurationError:
    an int passes where the default is a float, a bool never passes as a
    number.
    """
    value = cfg.get(key, default)
    number = type(default) is float and type(value) in (int, float)
    if not (number or type(value) is type(default)):
        raise ConfigurationError(
            f"{key} must be of type {type(default).__name__}, got {value!r}")
    return value


def _generator(cfg: dict):
    spec = _get(cfg, "generator", {"kind": "mixture", "delta": 0.25})
    kind = _get(spec, "kind", "mixture")
    if kind == "gaussian":
        return gaussian(_get(spec, "variance", 1.0))
    if kind == "mixture":
        return mixture(_get(spec, "delta", 0.25))
    if kind == "schedule":
        beta = _get(spec, "beta", SCHEDULE_BETA)
        # delta_N = N^{2 beta - 1} meets both growth conditions of the
        # N-dependent concentration theorem for 0 < beta < 1/6
        if not 0.0 < beta < 1.0 / 6.0:
            raise ConfigurationError(
                f"schedule beta must lie in (0, 1/6), got {beta!r}")
        return lambda n: mixture(schedule_delta(beta, n))
    raise ConfigurationError(f"unknown generator kind {kind!r}")


def _n_list(cfg: dict, default: list) -> list:
    n_list = _get(cfg, "n_list", default)
    if not (n_list and all(type(n) is int for n in n_list)):
        raise ConfigurationError("n_list must be a nonempty list of integers")
    return n_list


class Artifacts:
    """Output directory with provenance-stamped writers."""

    def __init__(self, out_dir: str, config_hash: str, seed: int):
        self.dir = out_dir
        self.header = f"# config_hash={config_hash} seed={seed}\n"
        os.makedirs(out_dir, exist_ok=True)
        self.config_hash = config_hash
        self.seed = seed

    def csv(self, name: str, columns, rows) -> None:
        with open(self.path(name), "w") as fh:
            fh.write(self.header)
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(
                    repr(float(x)) if isinstance(x, (float, np.floating))
                    else str(x) for x in row) + "\n")

    def json(self, name: str, payload: dict) -> None:
        payload = {"config_hash": self.config_hash, "seed": self.seed,
                   **payload}
        with open(self.path(name), "w") as fh:
            json.dump(payload, fh, indent=2)

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)


# -- subcommands --------------------------------------------------------


def cmd_gap(cfg: dict, art: Artifacts, rng: np.random.Generator) -> int:
    n_list = _n_list(cfg, [3, 4, 5])
    samples = _get(cfg, "rayleigh_samples", 100_000)
    rows = []
    worst = 0.0
    for n in n_list:
        exact = spectral_gap(n)
        numeric = exact_gap_smalln(n)
        rayleigh = dirichlet_rayleigh(lambda v: v[:, 0] ** 2, n, 0.0,
                                      samples, rng)
        worst = max(worst, abs(numeric - exact))
        rows.append((n, numeric, exact, rayleigh))
    art.csv("gap.csv", ["n", "gap_numeric", "gap_exact", "rayleigh_v1sq"], rows)
    if worst > 1e-6:
        raise AccuracyError(f"spectral gap off by {worst:.2e}")
    return EXIT_OK


def cmd_clt(cfg: dict, art: Artifacts, rng) -> int:
    rows = clt_envelope(_generator(cfg), _n_list(cfg, [32, 64, 128, 256]),
                        _get(cfg, "j", 0))
    art.csv("clt.csv", ["n", "sigma2", "lambda_sup"], rows)
    svg.line_chart(art.path("clt.svg"),
                   [("sup|lambda_N|", [r[0] for r in rows],
                     [r[2] for r in rows])],
                   title="local CLT remainder", x_label="N",
                   y_label="sup|lambda|", log_x=True, log_y=True)
    return EXIT_OK


def cmd_entropy_scan(cfg: dict, art: Artifacts, rng) -> int:
    gen = _generator(cfg)
    if not isinstance(gen, GridDensity1D):
        raise ConfigurationError("entropy-scan expects a fixed generator")
    n_list = _n_list(cfg, [32, 64, 128, 256])
    gamma = _get(cfg, "gamma", 0.0)
    rows = []
    for n in n_list:
        fam = ConditionedFamily(gen, n)
        rows.append((n, fam.entropy() / n, fam.production(gamma) / n))
    art.csv("entropy_scan.csv", ["n", "entropy_per_n", "production_per_n"],
            rows)
    svg.line_chart(art.path("entropy_scan.svg"),
                   [("H_N/N", [r[0] for r in rows], [r[1] for r in rows]),
                    ("D_N/N", [r[0] for r in rows], [r[2] for r in rows])],
                   title="entropy and production per particle", x_label="N",
                   y_label="value", log_x=True)
    return EXIT_OK


def cmd_villani(cfg: dict, art: Artifacts, rng) -> int:
    gen = _generator(cfg)
    n_list = _n_list(cfg, [64, 128, 256, 512, 1024])
    rows = gamma_ratio_sweep(gen, _get(cfg, "gamma", 0.0), n_list)
    slope = fit_loglog_slope([r.n for r in rows], [r.ratio for r in rows])
    art.csv("villani.csv", ["n", "entropy", "production", "ratio", "floor"],
            [(r.n, r.entropy, r.production, r.ratio, villani_floor(r.n))
             for r in rows])
    art.json("villani.json", {"slope": slope})
    svg.line_chart(art.path("villani.svg"),
                   [("ratio", [r.n for r in rows], [r.ratio for r in rows]),
                    ("2/(N-1)", [r.n for r in rows],
                     [villani_floor(r.n) for r in rows])],
                   title=f"entropic gap sweep (slope {slope:.3f})",
                   x_label="N", y_label="Gamma_N", log_x=True, log_y=True)
    return EXIT_OK


def cmd_cercignani(cfg: dict, art: Artifacts, rng) -> int:
    deltas = _get(cfg, "deltas", [0.1, 0.03, 0.01, 0.003])
    if not (deltas and all(type(d) in (int, float) for d in deltas)):
        raise ConfigurationError(f"deltas must be a nonempty number list: {deltas!r}")
    rows = []
    for d in deltas:
        f = mixture(d)
        v = np.linspace(0.0, f.v_max, _get(cfg, "nodes", 513))
        ratio = cercignani_ratio(f(v), v, _get(cfg, "gamma", 0.0))
        rows.append((d, ratio, d * np.log(1.0 / d)))
    art.csv("cercignani.csv", ["delta", "ratio", "delta_log_inv_delta"], rows)
    svg.line_chart(art.path("cercignani.svg"),
                   [("D/(2H)", [r[0] for r in rows], [r[1] for r in rows]),
                    ("delta log 1/delta", [r[0] for r in rows],
                     [r[2] for r in rows])],
                   title="entropic gap collapse of the limit equation",
                   x_label="delta", y_label="ratio", log_x=True, log_y=True)
    return EXIT_OK


def cmd_inequality(cfg: dict, art: Artifacts, rng) -> int:
    witness = LogPowerWitness(delta=_get(cfg, "delta", 0.25),
                              beta=_get(cfg, "beta", 1.0),
                              k=_get(cfg, "k", 3.0),
                              epsilon=_get(cfg, "epsilon", 0.5))
    gamma, c1 = _get(cfg, "gamma", 0.5), _get(cfg, "c1", 2.0)
    check_rescaled_inputs(gamma, c1)
    env = logpower_envelope(witness, _n_list(cfg, [32, 64, 128, 256]))
    reports = rescaled_inequality_check(gamma, witness, env, c1=c1)
    art.csv("logpower.csv",
            ["n", "measured", "bound", "lambda_sup_n", "holds"],
            [(r.n, r.measured, r.bound if r.bound is not None else "",
              r.lambda_sup_n, r.holds) for r in env])
    art.csv("rescaled.csv",
            ["n", "final_lhs", "final_rhs", "constant", "exponent",
             "lambda_grid_ok", "holds"],
            [(r.n, r.final_lhs, r.final_rhs, r.constant, r.exponent,
              r.lambda_grid_ok, r.final_holds) for r in reports])
    bad = [r.n for r in reports if not (r.lambda_grid_ok and r.final_holds)]
    bad += [r.n for r in env if r.applicable and not r.holds]
    if bad:
        raise AccuracyError(f"inequality failed at N = {sorted(set(bad))}")
    return EXIT_OK


def _limit_solver(cfg: dict):
    """mixture(delta) and a LimitSolver started from it, from a pde or
    chaos config."""
    f0 = mixture(_get(cfg, "delta", 0.25))
    return f0, LimitSolver(f0, _get(cfg, "gamma", 0.0),
                           v_max=_get(cfg, "v_max", 8.0),
                           nodes=_get(cfg, "nodes", 257))


def cmd_pde(cfg: dict, art: Artifacts, rng) -> int:
    _, solver = _limit_solver(cfg)
    rec = solver.evolve(_get(cfg, "t_final", 5.0), _get(cfg, "dt", 0.01),
                        record_every=_get(cfg, "record_every", 10))
    rows = list(zip(rec.times, rec.entropy, rec.production, rec.mass_drift))
    art.csv("pde.csv", ["t", "entropy", "production", "mass_drift"], rows)
    svg.line_chart(art.path("pde.svg"),
                   [("H(f|M)", rec.times, np.maximum(rec.entropy, 1e-16)),
                    ("D_gamma", rec.times, np.maximum(rec.production, 1e-16))],
                   title="H-theorem decay", x_label="t", y_label="value",
                   log_y=True)
    if np.any(np.diff(rec.entropy) > 1e-10):
        raise AccuracyError("entropy increased along the PDE flow")
    return EXIT_OK


def cmd_chaos(cfg: dict, art: Artifacts, rng) -> int:
    from scipy.stats import wasserstein_distance

    f0, solver = _limit_solver(cfg)
    t_final = _get(cfg, "t_final", 1.0)
    replicas = _get(cfg, "replicas", 200)
    solver.evolve(t_final, _get(cfg, "dt", 0.01), record_every=0)
    pde = solver.density()
    rows = []
    for n in _n_list(cfg, [64, 512]):
        sim = SimulationConfig(n=n, gamma=solver.gamma, t_final=t_final,
                               seed=art.seed)
        init = ConditionedFamily(f0, n).sample(replicas, rng)
        states = simulate_ensemble(sim, replicas, initial=init,
                                   seed=art.seed)
        pooled = np.ravel(states)
        w1 = wasserstein_distance(pooled, pde.nodes,
                                  v_weights=pde.values * pde.quadrature_weights)
        rows.append((n, w1))
    art.csv("chaos.csv", ["n", "wasserstein1"], rows)
    if rows[-1][1] > _get(cfg, "w1_tolerance", 0.05):
        raise AccuracyError(f"W1 bridge too wide: {rows[-1][1]:.4f}")
    return EXIT_OK


_COMMANDS = {
    "gap": cmd_gap,
    "clt": cmd_clt,
    "entropy-scan": cmd_entropy_scan,
    "villani": cmd_villani,
    "cercignani": cmd_cercignani,
    "inequality": cmd_inequality,
    "pde": cmd_pde,
    "chaos": cmd_chaos,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kaclab", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default="kaclab-out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        cfg, cfg_hash = _load_config(args.config)
    except (ConfigurationError, OSError) as exc:
        json.dump({"error": str(exc)}, sys.stderr)
        return EXIT_CONFIG
    art = Artifacts(args.out, cfg_hash, args.seed)
    rng = np.random.default_rng(args.seed)
    try:
        return _COMMANDS[args.command](cfg, art, rng)
    except (ConfigurationError, ValueError,
            DegenerateTestFunctionError) as exc:
        # ValueError is the library's bad-argument type (see errors.py)
        json.dump({"error": str(exc), "kind": "validation"}, sys.stderr)
        return EXIT_CONFIG
    except (AccuracyError, SamplingError) as exc:
        json.dump({"error": str(exc), "kind": "tolerance"}, sys.stderr)
        return EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
