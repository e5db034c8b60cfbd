"""kaclab benchmark: run one workload (or all) and print its metrics.

    python3 bench/run.py --workload pde_relax --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

Run from the root of a kaclab checkout.  Each workload runs in its own
single-threaded process (``bench/worker.py``); set-up time is measured
from the spawn of that process to its first timed call, on several fresh
processes.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
Human-readable lines before it give medians, quartiles and sample counts.
Each run also writes ``bench/results/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULTS = os.path.join(BENCH_DIR, "results")
sys.path.insert(0, BENCH_DIR)

from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

SETUP_PROBES = 2
RUN_TIMEOUT_S = 175.0


class BenchError(RuntimeError):
    pass


def _spawn(args, extra: list[str], result_path: str, deadline: float) -> float:
    """Run the worker to completion; return its spawn time (monotonic)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", result_path, *extra]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload}: worker exceeded the time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise BenchError(f"{args.workload}: worker exited with {code}")
    return spawned


def _load(path: str) -> dict:
    with open(path) as fh:
        out = json.load(fh)
    os.remove(path)
    return out


def _describe(values) -> str:
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return (f"median {statistics.median(values):.4f}  q1 {q1:.4f}  "
            f"q3 {q3:.4f}  n={len(values)}")


def run_workload(args) -> dict:
    """Set-up probes plus one measured worker; returns the full record."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    setup = []
    probes = 0 if args.trace else (1 if args.smoke else SETUP_PROBES)
    for k in range(probes):
        path = f"{stem}.probe{k}.json"
        spawned = _spawn(args, ["--setup-only"], path, deadline)
        setup.append(_load(path)["ready_monotonic"] - spawned)
    path = f"{stem}.worker.json"
    spawned = _spawn(args, [], path, deadline)
    res = _load(path)
    setup.append(res["ready_monotonic"] - spawned)

    checks = res["checks"]
    attempted, failed = checks["attempted"], checks["failed"]
    summary = {
        "setup_s": setup,
        "run_s": res["pass_s"],
        "peak_rss_mb": [res["peak_rss_mb"]],
        "passed_frac": [(attempted - failed) / attempted],
    }
    if args.trace:
        metrics = {k: {"value": res["per_layer"][k], "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": statistics.median(summary[k]), "unit": u}
                   for k, u in END_TO_END.items()}
    bad = [k for k, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        raise BenchError(f"{args.workload}: non-finite metrics {bad}")
    record = {
        "workload": args.workload,
        "correct": checks["unexpected_failures"] == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": metrics,
        "samples": summary,
        "checks": checks,
        "provenance": res["provenance"],
    }
    if args.trace:
        record.update(traced_pass_s=res["traced_pass_s"],
                      not_measured=res["not_measured"],
                      untraced_names=res["untraced_names"])
        with open(f"{stem}.spans.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "info"],
                       "spans": res["spans"]}, fh)
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record: dict) -> None:
    name = record["workload"]
    for key, values in record["samples"].items():
        print(f"[{name}] {key} ({END_TO_END[key]}): {_describe(values)}")
    print(f"[{name}] failed_frac (frac): {record['failed_frac']:.4f}  "
          f"({record['failed']} of {record['attempted']} checks failed)")
    failures: dict[str, list] = {}
    for row in record["checks"]["rows"]:
        if not row[1]:
            failures.setdefault(row[0], []).append(row[2])
    for check, details in failures.items():
        known = check in record["checks"]["known_defects"]
        print(f"[{name}]   FAIL x{len(details)} {check}: {details[0]}"
              + ("  (known defect)" if known else ""))
    if "traced_pass_s" in record:
        for key, m in record["metrics"].items():
            value = ("not measured" if key in record["not_measured"]
                     else f"{m['value']:.6g}")
            print(f"[{name}] {key} ({m['unit']}): {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one pass, one set-up probe")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a nonnegative integer")
    # turn SIGTERM into SystemExit so that the worker is stopped on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "kaclab", "__init__.py")):
        print(f"kaclab sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = {}
    try:
        for name in names:
            args.workload = name
            records[name] = run_workload(args)
            report(records[name])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    line = {
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
    }
    if len(records) == 1:
        line["metrics"] = next(iter(records.values()))["metrics"]
    else:
        line["metrics"] = {f"{name}.{key}": m for name, r in records.items()
                           for key, m in r["metrics"].items()}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
