"""Which statements of kaclab's functions the runs reach, and which only
the tests reach.

A line tracer (``sys.settrace``, limited to frames of ``src/kaclab``)
records the lines executed in four phases, all in this process:

- cli:        the eight CLI subcommands on their default configs, writing
              into a temporary directory;
- acceptance: ``tests/test_acceptance.py``;
- bench:      one full pass of each workload of ``bench/workloads.py``;
- unit:       the rest of Tier-1 (the pytest run at the repository root,
              without the acceptance file).

Pytest runs with ``-p no:cacheprovider`` and from a temporary working
directory, so nothing is written into the repository.  For each module the
report lists the statements inside functions that no phase reached, those
that only the unit phase reached, and those that the acceptance phase
reached but neither the CLI nor the bench, with or without the unit
phase.  A statement counts as reached
when a line of it ran; for a compound statement (if, for, while, with, an
except clause) only its header lines count.  A full run takes two to three
minutes on a 2-core machine.

Usage: python tools/traffic.py
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kaclab"
PHASES = ("cli", "acceptance", "bench", "unit")

_seen: set = set()


def _local(frame, event, arg):
    if event == "line":
        _seen.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    if frame.f_code.co_filename.startswith(str(SRC)):
        return _local
    return None


@contextlib.contextmanager
def _traced(seen: set):
    global _seen
    _seen = seen
    sys.settrace(_global)
    try:
        yield
    finally:
        sys.settrace(None)


def _run_cli(tmp: str) -> None:
    from kaclab import cli
    for cmd in sorted(cli._COMMANDS):
        code = cli.main([cmd, "--out", os.path.join(tmp, "cli", cmd)])
        print(f"cli {cmd}: exit {code}")


def _pytest(*args: str) -> None:
    import pytest
    code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    print(f"pytest {' '.join(args)}: exit {int(code)}")


def _run_bench(tmp: str) -> None:
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    plain = lambda name: contextlib.nullcontext()  # noqa: E731
    for name in ("pde_relax", "sphere_sweep", "kac_ensemble"):
        workdir = os.path.join(tmp, "bench", name)
        os.makedirs(workdir)
        checks = workloads.Checks()
        workloads.make(name, 0, False, workdir).run_pass(checks, plain)
        print(f"bench {name}: {len(checks.failed())} of "
              f"{checks.attempted} checks failed")


def _body(stmts):
    """Statements of a function body, nested blocks included, not entering
    nested function or class bodies; each as (first, last) lines counted."""
    for stmt in stmts:
        children = [getattr(stmt, key, []) for key in
                    ("body", "orelse", "finalbody")]
        if isinstance(stmt, ast.Try):
            for handler in stmt.handlers:
                yield handler.lineno, handler.body[0].lineno - 1
                yield from _body(handler.body)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            first = min([stmt.lineno] + [d.lineno for d in
                                         stmt.decorator_list])
            yield first, stmt.lineno
            continue
        elif any(children):
            yield stmt.lineno, stmt.body[0].lineno - 1
        else:
            yield stmt.lineno, stmt.end_lineno
        for block in children:
            yield from _body(block)


def _statements(path: Path) -> list:
    """(first, last) lines of every statement inside a function."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                body = body[1:]
            out += list(_body(body))
    return sorted(set(out))


def report(hits: dict) -> None:
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        never, unit_only, tests_only = [], [], []
        for first, last in _statements(path):
            span = {(str(path), k) for k in range(first, last + 1)}
            reached = {p for p in PHASES if span & hits[p]}
            entry = f"    {first:4d}  {lines[first - 1].strip()[:72]}"
            if not reached:
                never.append(entry)
            elif reached == {"unit"}:
                unit_only.append(entry)
            elif reached <= {"acceptance", "unit"}:
                tests_only.append(entry)
        print(f"\n{path.relative_to(ROOT)}: {len(never)} statements never "
              f"reached, {len(unit_only)} reached only by unit tests, "
              f"{len(tests_only)} only by the gate and unit tests")
        for title, rows in (("never reached", never),
                            ("unit tests only", unit_only),
                            ("gate and unit tests only", tests_only)):
            if rows:
                print(f"  {title}:")
                print("\n".join(rows))


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    hits = {p: set() for p in PHASES}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        with _traced(hits["cli"]):
            _run_cli(tmp)
        with _traced(hits["acceptance"]):
            _pytest(str(ROOT / "tests" / "test_acceptance.py"))
        with _traced(hits["bench"]):
            _run_bench(tmp)
        with _traced(hits["unit"]):
            _pytest("--continue-on-collection-errors",
                    f"--ignore={ROOT / 'tests' / 'test_acceptance.py'}",
                    str(ROOT))
        os.chdir(ROOT)
    report(hits)
    return 0


if __name__ == "__main__":
    sys.exit(main())
