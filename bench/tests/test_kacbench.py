"""Tests of the benchmark itself, on smoke-sized workloads.

    python3 -m pytest bench/tests -q

Tests marked ``slow`` (whole ``run.py`` runs and the sphere_sweep pass) are
collected only when ``bench`` is named on the command line; see
``conftest.py``.
"""

import contextlib
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

slow = pytest.mark.slow

# per workload: the closed form to replace, a wrong value of it, and the
# checks that must then fail
WRONG_ORACLES = {
    "pde_relax": ("m4_law",
                  lambda m4_0, t: 3.5 + (m4_0 - 3.5) * math.exp(-t / 2.0),
                  ["pde.g0.m4_law"]),
    "sphere_sweep": ("villani_floor", lambda n: 200.0 / (n - 1.0),
                     ["villani.n16", "villani.n32"]),
    "kac_ensemble": ("spectral_gap_oracle",
                     lambda n: 1.5 * (n + 2.0) / (2.0 * (n - 1.0)),
                     ["galerkin.n3", "galerkin.n4", "galerkin.n5"]),
}


def smoke_pass(name, workdir):
    checks = workloads.Checks()
    wl = workloads.make(name, 5, True, str(workdir))
    wl.run_pass(checks, lambda region: contextlib.nullcontext())
    return checks


@pytest.mark.parametrize("workload", [
    "pde_relax", "kac_ensemble", pytest.param("sphere_sweep", marks=slow)])
def test_wrong_oracle_is_counted_as_failure(workload, monkeypatch, tmp_path):
    oracle, wrong, must_fail = WRONG_ORACLES[workload]
    right = {row[0]: row[1] for row in smoke_pass(workload, tmp_path).rows}
    assert all(right[name] for name in must_fail)

    monkeypatch.setattr(workloads, oracle, wrong)
    checks = smoke_pass(workload, tmp_path)
    failed = {row[0] for row in checks.failed()}
    assert set(must_fail) <= failed
    assert checks.unexpected()
    assert checks.attempted == len(right)


def test_step_failure_fails_every_check_of_the_step():
    from kaclab.errors import AccuracyError

    checks = workloads.Checks()

    def broken():
        raise AccuracyError("quadrature not converged")

    checks.step(["a", "b"], broken)
    checks.step(["c"], lambda: {"c": (True, "")})
    assert checks.attempted == 3
    assert [row[0] for row in checks.failed()] == ["a", "b"]


def test_self_time_subtracts_direct_children():
    spans = [["root", 0.0, 10.0, -1, None], ["a", 1.0, 4.0, 0, None],
             ["b", 2.0, 3.0, 1, None], ["c", 5.0, 9.0, 0, None]]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_patches_by_name_imports_and_restores_them():
    import kaclab.cli
    import kaclab.limit_eq

    originals = (kaclab.limit_eq.cercignani_ratio, kaclab.cli.cercignani_ratio)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert kaclab.cli.cercignani_ratio is kaclab.limit_eq.cercignani_ratio
        assert kaclab.cli.cercignani_ratio is not originals[0]
    finally:
        tracer.uninstall()
    assert (kaclab.limit_eq.cercignani_ratio,
            kaclab.cli.cercignani_ratio) == originals
    assert tracer.missing == []


# -- whole runs of run.py ------------------------------------------------

# a per-layer metric each workload must exercise
EXERCISED = {
    "pde_relax": "limit_eq.rhs_calls",
    "sphere_sweep": "cli.inequality_s",
    "kac_ensemble": "process.galerkin_ms.n3",
}


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--seconds", "5",
         "--smoke", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170)


def last_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def result_file(workload, seed, trace):
    path = os.path.join(BENCH, "results",
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        return json.load(fh)


@slow
@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_traced_smoke_run_emits_every_metric(workload):
    line = last_line(run_bench("--workload", workload, "--seed", "3",
                               "--trace", "1"))
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == set(metrics.PER_LAYER)
    for name, m in line["metrics"].items():
        assert m["unit"] == metrics.PER_LAYER[name]
        assert isinstance(m["value"], (int, float)) and math.isfinite(
            m["value"])
    assert line["metrics"][EXERCISED[workload]]["value"] > 0
    record = result_file(workload, 3, 1)
    assert EXERCISED[workload] not in record["not_measured"]
    assert all(line["metrics"][k]["value"] == 0
               for k in record["not_measured"])
    assert set(record["samples"]) == set(metrics.END_TO_END)
    prov = record["provenance"]
    for key in ("python", "numpy", "scipy", "nproc", "thread_env", "seed",
                "git_commit", "traced"):
        assert key in prov
    assert prov["traced"] is True and prov["seed"] == 3
    assert all(v == "1" for v in prov["thread_env"].values())
    assert record["untraced_names"] == []


@slow
def test_untraced_smoke_run_emits_end_to_end_metrics():
    line = last_line(run_bench("--workload", "kac_ensemble", "--seed", "4",
                               "--trace", "0"))
    assert line["correct"] is True
    assert {k: m["unit"] for k, m in line["metrics"].items()} == \
        metrics.END_TO_END
    assert all(m["value"] > 0 for m in line["metrics"].values())


@slow
def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("--workload", "kac_ensemble", "--seed", "1",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
