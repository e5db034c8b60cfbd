"""Start-up and run cost of each kaclab CLI subcommand.

Runs each of the eight subcommands on its default config (no --config,
seed 3) in K fresh Python processes, writing into a temporary directory,
and prints per subcommand:

- wall:   the median over the K runs of the seconds from starting the
          process to reaping it, interpreter start-up and imports
          included;
- rss:    the largest of the K children's peak resident set sizes in MB
          (ru_maxrss of os.wait4, in KiB on Linux);
- exit:   the subcommand's exit code;
- scipy:  the public top-level scipy submodules loaded when it ends
          (scipy.sparse, scipy.linalg, ...).

Uses the standard library only.  OPENBLAS_NUM_THREADS defaults to 1.

Usage: python tools/cli_cost.py [--src DIR] [--repeat K]

--src is the directory that holds the kaclab package (default: src of
this repository), so two checkouts can be compared.  --repeat is the
number of runs per subcommand, K >= 1 (default 1).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("gap", "clt", "entropy-scan", "villani", "cercignani",
            "inequality", "pde", "chaos")
SEED = 3

# runs one subcommand, then reports its exit code and the scipy submodules
# loaded, as one JSON line on stdout (the CLI itself writes only files and
# stderr)
_CHILD = """
import json, sys
from kaclab.cli import main
rc = main(sys.argv[1:])
mods = sorted({m.split(".")[1] for m in sys.modules
               if m.startswith("scipy.") and not m.startswith("scipy._")})
print(json.dumps({"exit": rc, "scipy": mods}))
"""


def run_once(command: str, src: Path, out: str) -> dict:
    """Wall seconds, peak RSS in MB, exit code and scipy submodules of one
    fresh-process run of command."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD, command, "--out", out,
         "--seed", str(SEED)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, text=True)
    report = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0 or not report.strip():
        raise RuntimeError(f"{command} failed with status {child.returncode}")
    return {"wall": wall, "rss": usage.ru_maxrss / 1024.0,
            **json.loads(report)}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error(f"--repeat must be >= 1, not {args.repeat}")
    print(f"{'command':<13} {'wall_s':>7} {'rss_mb':>7} {'exit':>4}  scipy")
    with tempfile.TemporaryDirectory() as tmp:
        for c in COMMANDS:
            runs = [run_once(c, args.src.resolve(), os.path.join(tmp, c))
                    for _ in range(args.repeat)]
            wall = statistics.median(r["wall"] for r in runs)
            rss = max(r["rss"] for r in runs)
            r = runs[-1]
            print(f"{c:<13} {wall:7.2f} {rss:7.1f} {r['exit']:>4}  "
                  f"{' '.join(r['scipy']) or '-'}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
