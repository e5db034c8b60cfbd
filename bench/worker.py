"""One workload process: set-up, closed-loop passes, optional tracing.

Started by ``run.py``; prints nothing on success and writes its result as
JSON to ``--result``.  The BLAS/OpenMP thread variables are pinned to 1
before numpy is imported.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import kaclab  # noqa: E402

if not os.path.abspath(kaclab.__file__).startswith(SRC + os.sep):
    raise ImportError(f"kaclab imported from {kaclab.__file__}, not {SRC}")

import tracing  # noqa: E402
import workloads  # noqa: E402
from metrics import PER_LAYER  # noqa: E402


def git_commit() -> str:
    """HEAD of the repository holding the benchmark, read from .git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kaclab": kaclab.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "smoke": args.smoke,
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def per_pass_metrics(spans: list, lo: int, hi: int) -> dict:
    """Per-layer metrics of the spans recorded during one traced pass.

    Only the metrics the pass exercised are set.
    """
    sub = spans[lo:hi]
    own = tracing.self_times(spans)[lo:hi]
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    by_name: dict[str, list[int]] = {}
    for i, rec in enumerate(sub):
        by_name.setdefault(rec[0], []).append(i)
        layer = rec[0].split(".", 1)[0]
        if layer == "cli":
            add("cli.self_ms", 1e3 * own[i])
        elif f"{layer}.self_s" in PER_LAYER:
            add(f"{layer}.self_s", own[i])

    def dur(i):
        return sub[i][2] - sub[i][1]

    def info(i):
        # a call that raised has no info
        return sub[i][4] or {}

    def calls(name):
        return by_name.get(name, [])

    def set_if_called(key, name, fn):
        if calls(name):
            out[key] = fn(calls(name))

    def total_ms(idx):
        return 1e3 * sum(dur(i) for i in idx)

    def self_ms(idx):
        return 1e3 * sum(own[i] for i in idx)

    def p50_ms(idx):
        return float(np.median([1e3 * dur(i) for i in idx]))

    def points(idx):
        return sum(info(i).get("points", 0) for i in idx)

    rhs = [1e3 * dur(i) for i in calls("limit_eq.collision_operator")]
    if rhs:
        out["limit_eq.rhs_ms.p50"] = float(np.quantile(rhs, 0.5))
        out["limit_eq.rhs_ms.p90"] = float(np.quantile(rhs, 0.9))
        out["limit_eq.rhs_calls"] = len(rhs)
        out["limit_eq.rhs_share"] = 1e-3 * sum(rhs) / dur(0)
    set_if_called("limit_eq.step_ms.p50", "limit_eq.LimitSolver.step", p50_ms)
    set_if_called("limit_eq.production_ms.per_call",
                  "limit_eq.limit_production", p50_ms)

    # Self times: a level first built inside a log_density query counts as
    # build time only.
    levels = "normalization.NormalizationLadder.level"
    set_if_called("normalization.level_ms", levels, self_ms)
    set_if_called("normalization.levels_built", levels,
                  lambda idx: sum(1 for i in idx if info(i).get("built")))
    queries = "normalization.NormalizationLadder.log_density"
    set_if_called("normalization.log_density_ms", queries, self_ms)
    set_if_called("normalization.log_density_points", queries, points)

    for key, name in (("conditioned.entropy_ms", "entropy"),
                      ("conditioned.production_ms", "production"),
                      ("conditioned.log_power_ms", "log_power_integral")):
        set_if_called(key, f"conditioned.ConditionedFamily.{name}", total_ms)
    for n in (8, 512):
        picked = [i for i in calls("conditioned.ConditionedFamily.sample")
                  if info(i).get("n") == n]
        coords = sum(sub[i][4]["size"] * n for i in picked)
        if coords:
            out[f"conditioned.sample_us_per_coord.n{n}"] = (
                1e6 * sum(dur(i) for i in picked) / coords)

    set_if_called("densities.pdf_points", "densities.GridDensity1D.__call__",
                  points)

    for n in (512, 64):
        picked = [i for i in calls("process.simulate_ensemble")
                  if info(i).get("n") == n]
        replicas = sum(sub[i][4]["replicas"] for i in picked)
        if replicas:
            out[f"process.ensemble_ms_per_replica.n{n}"] = (
                total_ms(picked) / replicas)
    for i in calls("process.exact_gap_smalln"):
        key = f"process.galerkin_ms.n{info(i).get('n')}"
        if key in PER_LAYER:
            add(key, 1e3 * dur(i))
    set_if_called("process.rayleigh_ms.per_call", "process.dirichlet_rayleigh",
                  p50_ms)
    set_if_called("sphere.uniform_batch_ms", "sphere.uniform_sphere_batch",
                  total_ms)

    set_if_called("inequalities.moment_envelope_ms",
                  "inequalities.moment_envelope", total_ms)
    for key, name in (("inequalities.logpower_envelope_s",
                       "inequalities.logpower_envelope"),
                      ("inequalities.rescaled_check_s",
                       "inequalities.rescaled_inequality_check"),
                      ("inequalities.gamma_ratio_sweep_s",
                       "inequalities.gamma_ratio_sweep")):
        set_if_called(key, name, lambda idx: sum(own[i] for i in idx))
    for i in calls("cli.main"):
        key = f"cli.{info(i).get('command')}_s"
        if key in PER_LAYER:
            add(key, dur(i))
    return out


def thinning_replay(ensemble) -> dict:
    """Re-run each replica with simulate_ensemble's (seed, r) seeding.

    The final states must equal the ensemble's bit for bit; the returned
    stats give the thinning acceptance and the event rate.
    """
    from kaclab.process import simulate

    cfg, init, states = ensemble
    proposed = accepted = 0
    same = True
    start = time.perf_counter()
    for r in range(states.shape[0]):
        stats = simulate(cfg, initial=init[r],
                         rng=np.random.default_rng((cfg.seed, r)))
        same = same and np.array_equal(stats.velocities, states[r])
        proposed += stats.proposed
        accepted += stats.accepted
    elapsed = time.perf_counter() - start
    return {"identical": bool(same),
            "process.thinning_acceptance": accepted / max(proposed, 1),
            "process.events_per_s": proposed / elapsed}


def run(args, workdir: str) -> dict:
    wl = workloads.make(args.workload, args.seed, args.smoke, workdir)
    ready = time.monotonic()
    result = {"ready_monotonic": ready, "provenance": provenance(args)}
    if args.setup_only:
        return result

    checks = workloads.Checks()
    plain = lambda name: contextlib.nullcontext()  # noqa: E731

    def one_pass(region):
        c0, t0 = time.process_time(), time.perf_counter()
        with region("bench.pass"):
            diag = wl.run_pass(checks, region)
        return time.perf_counter() - t0, time.process_time() - c0, diag

    def keep_going(times, start):
        if args.smoke:
            return False
        elapsed = time.perf_counter() - start
        return elapsed + statistics.median(times) <= args.seconds

    # Untraced passes give run_s.  A traced run alternates untraced and
    # traced passes, so that warm-up does not bias the tracing overhead.
    tracer = tracing.Tracer() if args.trace else None
    start = time.perf_counter()
    pass_s, cpu_s, traced_s, bounds, diag = [], [], [], [], {}
    while True:
        if tracer is not None and len(pass_s) > len(traced_s):
            lo = len(tracer.spans)
            tracer.install()
            try:
                wall, _, diag = one_pass(tracer.region)
            finally:
                tracer.uninstall()
            traced_s.append(wall)
            bounds.append((lo, len(tracer.spans)))
        else:
            wall, cpu, diag = one_pass(plain)
            pass_s.append(wall)
            cpu_s.append(cpu)
        if tracer is not None and not traced_s:
            continue  # a traced run makes at least one traced pass
        if not keep_going(pass_s + traced_s, start):
            break
    result.update(pass_s=pass_s, cpu_s=cpu_s)

    if tracer is not None:
        layer = [per_pass_metrics(tracer.spans, lo, hi) for lo, hi in bounds]
        metrics = {key: float(statistics.median(m[key] for m in layer
                                                if key in m))
                   for key in set().union(*layer)}
        metrics.update({k: float(v) for k, v in diag.items()})
        metrics["bench.cpu_s"] = float(statistics.median(cpu_s))
        metrics["bench.trace_overhead"] = (
            statistics.median(traced_s) / statistics.median(pass_s) - 1.0)
        ensemble = getattr(wl, "last_ensemble", None)
        if ensemble is not None:
            replay = thinning_replay(ensemble)
            checks.add("n512.thinning_replay_identical",
                       replay.pop("identical"))
            metrics.update(replay)
        # the result line must hold every per-layer metric: the ones this
        # workload does not exercise read 0 and are listed as not measured
        not_measured = sorted(set(PER_LAYER) - set(metrics))
        metrics.update(dict.fromkeys(not_measured, 0.0))
        result.update(traced_pass_s=traced_s, per_layer=metrics,
                      not_measured=not_measured,
                      untraced_names=tracer.missing, spans=tracer.spans)

    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["checks"] = {
        "attempted": checks.attempted,
        "failed": len(checks.failed()),
        "unexpected_failures": len(checks.unexpected()),
        "known_defects": sorted(workloads.KNOWN_DEFECTS),
        "rows": checks.rows,
    }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    workdir = os.path.join(BENCH_DIR, "results", f"work-{os.getpid()}")
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
