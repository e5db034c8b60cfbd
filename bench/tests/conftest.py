"""Collect the slow self-tests only when ``bench`` is on the command line.

A plain ``pytest`` at the repository root skips them (they start whole
benchmark runs); ``pytest bench/tests`` runs them.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: a benchmark run; collected only when bench/ is "
        "named on the command line")


def _names_bench(config) -> bool:
    cwd = Path(config.invocation_params.dir)
    for arg in config.args:
        path = (cwd / arg.split("::")[0]).resolve()
        if path == BENCH or BENCH in path.parents:
            return True
    return False


def pytest_collection_modifyitems(config, items):
    if _names_bench(config):
        return
    slow = [item for item in items if item.get_closest_marker("slow")]
    if slow:
        config.hook.pytest_deselected(items=slow)
        items[:] = [item for item in items if item not in slow]
