"""Time whole CLI processes: the wall time and peak memory of ``unmate``.

Each run starts a fresh ``python -m unmating.cli unmate MAPFILE --depth N``
on the package in this checkout's ``src/``, with stdout to /dev/null.  Its
wall time is the clock from spawn to exit, and its peak resident memory the
``ru_maxrss`` that ``os.wait4`` reports for it (KiB on Linux).  One line per
run, then the medians.

    python tests/clitime.py examples/symmetric_jordan.json --depth 12 --runs 5
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_once(mapfile: str, depth: int) -> tuple[float, float, int]:
    """(wall seconds, peak RSS in MiB, exit code) of one fresh ``unmate`` process."""
    argv = [sys.executable, "-m", "unmating.cli", "unmate", mapfile, "--depth", str(depth)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    null = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=null)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return wall, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mapfile")
    parser.add_argument("--depth", type=int, required=True)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    print(" run  wall_s  maxrss_mib  exit")
    runs = []
    for i in range(1, args.runs + 1):
        runs.append(run_once(args.mapfile, args.depth))
        wall, rss, code = runs[-1]
        print(f"{i:4d}  {wall:6.3f}  {rss:10.1f}  {code:4d}")
    walls, rsses, _ = zip(*runs)
    print(f"median {statistics.median(walls):6.3f}  {statistics.median(rsses):10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
