"""The three workloads and their closed-form correctness checks.

Each workload is built once from the seed (set-up) and then run as whole
passes.  A pass takes a :class:`Checks` recorder, calls kaclab only through
public functions, and returns accuracy diagnostics for the traced run.  A
typed ``kaclab.errors`` exception, a bare ``AssertionError`` or a nonzero
CLI exit code fails every check of the step it happened in.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import os
import shutil

import numpy as np

# Functions are called through their module so that the traced run's
# wrappers, installed on the module attributes, see the calls.
from kaclab import cli, errors, process, sphere
from kaclab.conditioned import ConditionedFamily
from kaclab.densities import gaussian, mixture
from kaclab.limit_eq import LimitSolver
from kaclab.normalization import NormalizationLadder
from kaclab.process import SimulationConfig

STEP_FAILURES = tuple(
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, Exception)) + (AssertionError,)

# Gaussian-ladder points that miss at the seed (large-deviation tails at
# N >= 256).  They stay checked and counted; a failure here does not mark
# the run incorrect because the defect is known and tracked.
KNOWN_DEFECTS = {"gauss_ladder.n256_r0.2", "gauss_ladder.n1024_r0.2",
                 "gauss_ladder.n1024_r0.5"}


# Gaussian-ladder oracle points (N, u/N); all lie inside the ladder's
# default truncation u_max = N + 10 sqrt(2 N) for a unit Gaussian.
GAUSS_POINTS = tuple((n, r) for n in (64, 256, 1024)
                     for r in (0.2, 0.5, 1.0, 1.5) if (n, r) != (1024, 1.5))


def gauss_point_name(n: int, r: float) -> str:
    return f"normalization.gauss_logz_rel_err.n{n}_r{r:g}"


# -- closed forms the checks compare with ---------------------------------


def spectral_gap_oracle(n: int) -> float:
    """Delta_N = (N + 2) / (2 (N - 1)), Carlen-Carvalho-Loss 2003."""
    return (n + 2.0) / (2.0 * (n - 1.0))


def m4_law(m4_0: float, t: float) -> float:
    """Fourth moment of the gamma = 0 limit equation at time t."""
    return 3.0 + (m4_0 - 3.0) * math.exp(-t / 2.0)


def villani_floor(n: int) -> float:
    """Lower bound 2 / (N - 1) of D_N / H_N."""
    return 2.0 / (n - 1.0)


def gauss_log_z(n: int, u: float) -> float:
    """log Z_n(sqrt u) of the unit Gaussian."""
    return -0.5 * n * math.log(2.0 * math.pi) - 0.5 * u


class Checks:
    """Pass/fail record of every correctness check in a run."""

    def __init__(self):
        self.rows: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.rows.append((name, bool(ok), detail))

    def step(self, names, fn):
        """Run ``fn`` -> {name: (ok, detail)}; a step failure fails all."""
        try:
            results = fn()
        except STEP_FAILURES as exc:
            for name in names:
                self.add(name, False, f"{type(exc).__name__}: {exc}")
            return None
        for name in names:
            self.add(name, *results.get(name, (False, "not produced")))
        return results

    @property
    def attempted(self) -> int:
        return len(self.rows)

    def failed(self) -> list[tuple[str, bool, str]]:
        return [row for row in self.rows if not row[1]]

    def unexpected(self) -> list[tuple[str, bool, str]]:
        return [row for row in self.failed() if row[0] not in KNOWN_DEFECTS]


def _z(batch_values, exact: float) -> float:
    vals = np.asarray(batch_values, dtype=float)
    se = float(np.std(vals, ddof=1)) / math.sqrt(vals.size)
    return (float(np.mean(vals)) - exact) / se


# -- pde_relax ------------------------------------------------------------


class PdeRelax:
    """LimitSolver runs from mixture(0.25) at gamma = 0 and gamma = 0.5.

    The inputs are fixed (the seed has no random input to drive here).
    Records every ``spacing`` time units; checks mass and energy drift,
    clipped mass, H nonincreasing, the dissipation identity dH/dt = -D/2 at
    the interior record times and, at gamma = 0, the fourth-moment law
    m4(t) = 3 + (m4(0) - 3) exp(-t/2).
    """

    DELTA = 0.25
    M4_TOL = 1e-4
    IDENTITY_TOL = 0.02
    DRIFT_TOL = 1e-6

    def __init__(self, seed: int, smoke: bool):
        self.f0 = mixture(self.DELTA)
        # (gamma, dt, t_final, record spacing)
        self.runs = ([(0.0, 0.01, 0.1, 0.05), (0.5, 0.005, 0.05, 0.025)]
                     if smoke else
                     [(0.0, 0.01, 0.3, 0.1), (0.5, 0.005, 0.2, 0.1)])

    @staticmethod
    def _m4(sol: LimitSolver) -> float:
        dens = sol.density()
        return float(np.sum(dens.nodes**4 * dens.values
                            * dens.quadrature_weights))

    def run_pass(self, checks: Checks, region) -> dict:
        diag = {}

        def worst(key, value):
            diag[key] = max(diag.get(key, 0.0), value)

        for gamma, dt, t_final, spacing in self.runs:
            every = round(spacing / dt)
            n_rec = round(t_final / dt) // every + 1
            tag = f"pde.g{gamma:g}"
            names = [f"{tag}.mass_drift", f"{tag}.energy_drift",
                     f"{tag}.clipped_mass", f"{tag}.h_nonincreasing"]
            names += [f"{tag}.dissipation_t{k * spacing:g}"
                      for k in range(1, n_rec - 1)]
            if gamma == 0.0:
                names.append(f"{tag}.m4_law")

            def trajectory(gamma=gamma, dt=dt, t_final=t_final, every=every,
                           tag=tag):
                sol = LimitSolver(self.f0, gamma)
                e0, m4_0 = sol.energy(), self._m4(sol)
                rec = sol.evolve(t_final, dt, record_every=every)
                out = {}
                mass = max(rec.mass_drift)
                energy = abs(sol.energy() - e0)
                clipped = max(rec.clipped_mass)
                out[f"{tag}.mass_drift"] = (mass < self.DRIFT_TOL,
                                            f"{mass:.2e}")
                out[f"{tag}.energy_drift"] = (energy < self.DRIFT_TOL,
                                              f"{energy:.2e}")
                out[f"{tag}.clipped_mass"] = (clipped <= sol.clip_tolerance,
                                              f"{clipped:.2e}")
                t = np.asarray(rec.times)
                h = np.asarray(rec.entropy)
                d = np.asarray(rec.production)
                rise = float(np.max(np.diff(h)))
                out[f"{tag}.h_nonincreasing"] = (rise <= 1e-12, f"{rise:.2e}")
                dh = np.gradient(h, t)
                for i in range(1, t.size - 1):
                    err = abs(dh[i] + d[i] / 2.0) / d[i]
                    worst("limit_eq.dissipation_err", err)
                    out[f"{tag}.dissipation_t{i * spacing:g}"] = (
                        err < self.IDENTITY_TOL, f"{err:.4f}")
                worst("limit_eq.mass_drift", mass)
                worst("limit_eq.energy_drift", energy)
                worst("limit_eq.clipped_mass_max", clipped)
                if gamma == 0.0:
                    err = abs(self._m4(sol) - m4_law(m4_0, sol.time))
                    diag["limit_eq.m4_law_err"] = err
                    out[f"{tag}.m4_law"] = (err < self.M4_TOL, f"{err:.2e}")
                return out

            with region(f"bench.{tag}"):
                checks.step(names, trajectory)
        return diag


# -- sphere_sweep ---------------------------------------------------------


def _read_csv(path: str) -> list[dict]:
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


class SphereSweep:
    """CLI subcommands in-process, then a Gaussian-ladder oracle sweep.

    The seed draws the mixture weight of the generator (uniform on
    [0.2, 0.3]); the CLI N-lists are the CLI defaults.  Grid sizes do not
    depend on the weight, so neither does the cost.
    """

    GAUSS_TOL = 1e-3
    # the CLI defaults, written out so that the workload stays fixed
    N_LISTS = {"villani": [64, 128, 256, 512, 1024],
               "entropy-scan": [32, 64, 128, 256],
               "inequality": [32, 64, 128, 256],
               "cercignani": [0.1, 0.03, 0.01, 0.003],
               "clt": [32, 64, 128, 256]}
    SMOKE_N_LISTS = {"villani": [16, 32], "entropy-scan": [16, 32],
                     "inequality": [16, 32], "cercignani": [0.1],
                     "clt": [16, 32]}

    def __init__(self, seed: int, smoke: bool, workdir: str):
        rng = np.random.default_rng([seed, 0])
        self.delta = round(float(rng.uniform(0.2, 0.3)), 4)
        self.seed = seed
        self.workdir = workdir
        self.n_lists = n_lists = self.SMOKE_N_LISTS if smoke else self.N_LISTS
        self.gauss_n = (64,) if smoke else (64, 256, 1024)
        self.gauss_grid = 2**16 if smoke else 2**18
        self.gauss_points = [(n, r) for n, r in GAUSS_POINTS
                             if n in self.gauss_n]
        generator = {"kind": "mixture", "delta": self.delta}
        configs = {
            "villani": {"generator": generator,
                        "n_list": n_lists["villani"]},
            "entropy-scan": {"generator": generator,
                             "n_list": n_lists["entropy-scan"]},
            "inequality": {"delta": self.delta,
                           "n_list": n_lists["inequality"]},
            "cercignani": {"deltas": n_lists["cercignani"]},
            "clt": {"generator": generator, "n_list": n_lists["clt"]},
        }
        os.makedirs(workdir, exist_ok=True)
        self.config_paths = {}
        for cmd, cfg in configs.items():
            path = os.path.join(workdir, f"{cmd}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            self.config_paths[cmd] = path

    def _cli(self, checks: Checks, cmd: str, out_dir: str, names, parse):
        def step():
            rc = cli.main([cmd, "--config", self.config_paths[cmd],
                           "--out", out_dir, "--seed", str(self.seed)])
            if rc != 0:
                raise AssertionError(f"kaclab {cmd} exited with {rc}")
            try:
                parsed = parse(out_dir)
            except OSError as exc:
                raise AssertionError(f"kaclab {cmd} artifact: {exc}") from exc
            return {f"cli.{cmd}.exit": (True, "0"), **parsed}
        return checks.step([f"cli.{cmd}.exit", *names], step)

    def run_pass(self, checks: Checks, region) -> dict:
        diag = {}
        out_root = os.path.join(self.workdir, "out")
        shutil.rmtree(out_root, ignore_errors=True)
        margins = []

        def villani(out_dir):
            res = {}
            for row in _read_csv(os.path.join(out_dir, "villani.csv")):
                n = int(row["n"])
                floor = villani_floor(n)
                ratio = float(row["production"]) / float(row["entropy"])
                margins.append(ratio - floor)
                res[f"villani.n{n}"] = (ratio >= floor,
                                        f"{ratio:.4f} vs {floor:.4f}")
            return res

        def inequality(out_dir):
            res = {}
            for row in _read_csv(os.path.join(out_dir, "logpower.csv")):
                applicable = row["bound"] != ""
                res[f"logpower.n{row['n']}"] = (
                    row["holds"] == "True" or not applicable,
                    f"measured {row['measured']} "
                    f"bound {row['bound'] or 'n/a'}")
            for row in _read_csv(os.path.join(out_dir, "rescaled.csv")):
                res[f"rescaled.n{row['n']}"] = (
                    row["holds"] == "True" and row["lambda_grid_ok"] == "True",
                    f"lhs {row['final_lhs']} rhs {row['final_rhs']}")
            return res

        def rows_present(csv_name, count):
            def parse(out_dir):
                rows = _read_csv(os.path.join(out_dir, csv_name))
                return {f"{csv_name}.rows": (len(rows) == count,
                                             f"{len(rows)} rows")}
            return parse

        plan = [
            ("villani", [f"villani.n{n}" for n in self.n_lists["villani"]],
             villani),
            ("entropy-scan", ["entropy_scan.csv.rows"],
             rows_present("entropy_scan.csv",
                          len(self.n_lists["entropy-scan"]))),
            ("inequality",
             [f"{kind}.n{n}" for kind in ("logpower", "rescaled")
              for n in self.n_lists["inequality"]], inequality),
            ("cercignani", ["cercignani.csv.rows"],
             rows_present("cercignani.csv", len(self.n_lists["cercignani"]))),
            ("clt", ["clt.csv.rows"],
             rows_present("clt.csv", len(self.n_lists["clt"]))),
        ]
        for cmd, names, parse in plan:
            with region(f"bench.cli.{cmd}"):
                self._cli(checks, cmd, os.path.join(out_root, cmd), names,
                          parse)
        shutil.rmtree(out_root, ignore_errors=True)
        if margins:
            diag["inequalities.villani_margin_min"] = min(margins)

        with region("bench.gauss_ladder"):
            points = self.gauss_points

            def ladder_sweep():
                ladder = NormalizationLadder(gaussian(1.0), max(self.gauss_n),
                                             n_grid=self.gauss_grid)
                res = {}
                for n, r in points:
                    u = r * n
                    exact = gauss_log_z(n, u)
                    got = float(ladder.log_z(n, u))
                    err = abs(got - exact) / abs(exact)
                    diag[gauss_point_name(n, r)] = err
                    res[f"gauss_ladder.n{n}_r{r:g}"] = (
                        err < self.GAUSS_TOL, f"{got:.4f} vs {exact:.4f}")
                return res

            names = [f"gauss_ladder.n{n}_r{r:g}" for n, r in points]
            checks.step(names, ladder_sweep)
        return diag


# -- kac_ensemble ---------------------------------------------------------


class KacEnsemble:
    """Sampler, jump process and small-N spectrum: the N-particle side.

    Every random input comes from numpy generators seeded by (seed, part).
    Monte Carlo checks use batch means and pass within Z_MAX standard
    errors of the closed form or quadrature value.
    """

    Z_MAX = 5.0
    GAP_TOL = 1e-6
    ENERGY_RTOL = 1e-9

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.f8 = mixture(0.3)
        self.f512 = mixture(0.25)
        if smoke:
            self.mc_batches, self.mc_batch = 4, 100
            self.r512, self.t512 = 2, 0.2
            self.r64 = 50
            self.gap_n = range(3, 6)
            self.ray_batches, self.ray_batch = 4, 500
        else:
            self.mc_batches, self.mc_batch = 40, 150
            self.r512, self.t512 = 12, 1.0
            self.r64 = 800
            self.gap_n = range(3, 9)
            self.ray_batches, self.ray_batch = 25, 2000
        self.last_ensemble = None

    def _energy_check(self, states: np.ndarray, n: int):
        dev = float(np.max(np.abs(np.sum(states * states, axis=1) - n)))
        return dev <= self.ENERGY_RTOL * n, f"max |sum v^2 - N| {dev:.2e}"

    def run_pass(self, checks: Checks, region) -> dict:
        diag = {}
        seed = self.seed

        def oracle_n8():
            fam = ConditionedFamily(self.f8, 8)
            rng = np.random.default_rng([seed, 1])
            h_b, d_b, energy_ok = [], [], []
            for _ in range(self.mc_batches):
                draws = fam.sample(self.mc_batch, rng)
                energy_ok.append(self._energy_check(draws, 8))
                h_b.append(fam.entropy_monte_carlo(self.mc_batch, rng,
                                                   velocities=draws))
                d_b.append(fam.production_monte_carlo(
                    0.5, self.mc_batch, rng, velocities=draws))
            z_h = _z(h_b, fam.entropy())
            z_d = _z(d_b, fam.production(0.5, check=False))
            diag["conditioned.mc_vs_quad_z.H"] = abs(z_h)
            diag["conditioned.mc_vs_quad_z.D"] = abs(z_d)
            bad = [d for ok, d in energy_ok if not ok]
            return {"n8.entropy_mc_vs_quad": (abs(z_h) <= self.Z_MAX,
                                              f"z {z_h:.2f}"),
                    "n8.production_mc_vs_quad": (abs(z_d) <= self.Z_MAX,
                                                 f"z {z_d:.2f}"),
                    "n8.sample_energy": (not bad, bad[0] if bad else "ok")}

        def ensemble_n512():
            fam = ConditionedFamily(self.f512, 512)
            rng = np.random.default_rng([seed, 2])
            init = fam.sample(self.r512, rng)
            cfg = SimulationConfig(n=512, gamma=0.5, t_final=self.t512,
                                   seed=seed)
            states = process.simulate_ensemble(cfg, self.r512, initial=init,
                                               seed=seed)
            self.last_ensemble = (cfg, init, states)
            return {"n512.sample_energy": self._energy_check(init, 512),
                    "n512.final_energy": self._energy_check(states, 512)}

        def ensemble_n64():
            n, t = 64, 1.0
            rng = np.random.default_rng([seed, 3])
            starts = sphere.uniform_sphere_batch(n, self.r64, rng)
            cfg = SimulationConfig(n=n, gamma=0.0, t_final=t, seed=seed)
            states = process.simulate_ensemble(cfg, self.r64, initial=starts,
                                               seed=seed)
            # E[S4(t) | v0]/N = c + (S4(v0)/N - c) exp(-Delta_N t)
            c = 3.0 * n / (n + 2.0)
            decay = math.exp(-spectral_gap_oracle(n) * t)
            x = np.sum(starts**4, axis=1) / n - c
            y = np.sum(states**4, axis=1) / n - c
            resid = y - decay * x
            z_mean = float(np.mean(resid)) / (
                float(np.std(resid, ddof=1)) / math.sqrt(resid.size))
            # slope through the origin with a heteroskedasticity-robust SE
            sxx = float(np.sum(x * x))
            slope = float(np.sum(x * y)) / sxx
            noise = y - slope * x
            z_slope = (slope - decay) / (
                math.sqrt(float(np.sum(x * x * noise * noise))) / sxx)
            diag["process.m4_law_z"] = max(abs(z_mean), abs(z_slope))
            return {"n64.m4_law_mean": (abs(z_mean) <= self.Z_MAX,
                                        f"z {z_mean:.2f}"),
                    "n64.m4_law_rate": (abs(z_slope) <= self.Z_MAX,
                                        f"slope {slope:.4f} vs {decay:.4f}"),
                    "n64.final_energy": self._energy_check(states, n)}

        def galerkin():
            res, worst = {}, 0.0
            for n in self.gap_n:
                exact = spectral_gap_oracle(n)
                err = abs(process.exact_gap_smalln(n) - exact)
                worst = max(worst, err)
                res[f"galerkin.n{n}"] = (err < self.GAP_TOL, f"{err:.2e}")
            diag["process.galerkin_gap_err"] = worst
            return res

        def rayleigh():
            n = 64
            rng = np.random.default_rng([seed, 4])
            quot = [process.dirichlet_rayleigh(
                        lambda v: v[:, 0] ** 2 - 1.0, n, 0.0, self.ray_batch,
                        rng)
                    for _ in range(self.ray_batches)]
            exact = n / (n - 1.0)
            z = _z(quot, exact)
            diag["process.rayleigh_err"] = abs(float(np.mean(quot)) - exact)
            return {"rayleigh.n64": (abs(z) <= self.Z_MAX,
                                     f"{np.mean(quot):.4f} vs {exact:.4f}, "
                                     f"z {z:.2f}")}

        parts = [
            ("n8", ["n8.entropy_mc_vs_quad", "n8.production_mc_vs_quad",
                    "n8.sample_energy"], oracle_n8),
            ("n512", ["n512.sample_energy", "n512.final_energy"],
             ensemble_n512),
            ("n64", ["n64.m4_law_mean", "n64.m4_law_rate",
                     "n64.final_energy"], ensemble_n64),
            ("galerkin", [f"galerkin.n{n}" for n in self.gap_n], galerkin),
            ("rayleigh", ["rayleigh.n64"], rayleigh),
        ]
        for tag, names, fn in parts:
            with region(f"bench.kac.{tag}"):
                checks.step(names, fn)
        return diag


def make(name: str, seed: int, smoke: bool, workdir: str):
    if name == "pde_relax":
        return PdeRelax(seed, smoke)
    if name == "sphere_sweep":
        return SphereSweep(seed, smoke, workdir)
    if name == "kac_ensemble":
        return KacEnsemble(seed, smoke)
    raise ValueError(f"unknown workload {name!r}")
