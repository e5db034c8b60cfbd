"""Workload and metric names, read from ``BENCHMARK.json``.

``END_TO_END`` metrics come from untraced runs, ``PER_LAYER`` metrics from
traced runs; both map a metric name to its unit.  Timings named ``*_ms`` /
``*_s`` are totals per pass unless the name says ``p50``/``p90``/
``per_call``/``per_replica``/``per_coord``.
"""

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)

WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
