"""Benchmark of the unmating CLI: run from the root of a checkout.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh child process (``workload.py``) against the
package in ``src/``; without ``--workload`` all of them run in turn.  An
operation is one ``unmating.cli.main(argv)`` call, one at a time (closed
loop, one client).  The last line a workload prints is its JSON result: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``; the lines before it give each metric with its unit, sample
count and raw wall value.

Workloads (inputs come from the seed; the program only sees the files):

deep-meyer   ``unmate --depth 9 --svg`` on the Meyer fixture
deep-jordan  the same on the symmetric Jordan fixture
shallow-mix  ``unmate`` at depth 1-3 over variants of both fixtures: 60%
             renamed ids only, 20% flipped white anchor, 10% reversed word1
             image labels, 10% crossing rotation at Meyer's p0 (the last
             two must exit 3 with a named finding)

End-to-end metrics (times are speed-normalized, see ``workload.py``):

op_p50_s      median time per operation
ops_per_s     operations per second of timed operation, per half-second
              segment of the run; the median over segments
setup_s       median time of ``import unmating.cli`` in a fresh interpreter
peak_rss_mib  peak resident memory of the workload's process

Printed but not in the JSON: ``op_p90_s`` (only with at least 100
operations) and ``failed_ratio`` (also given by ``failed``/``attempted``).

Per-layer metric -> end-to-end metric and workload it should move:

mapspec.parse_s, validate_s, faces_s, rejected_ratio -> op_p50_s, ops_per_s on shallow-mix
spectral.certify_s, matrix_size                      -> shallow-mix
parameterize.solve_s                                 -> shallow-mix
portraits.extract_s, certify_s                       -> shallow-mix
laminations.depth1_s, pullback_s, pullback_growth,
  classes, planar_pairs                              -> op_p50_s on both deep workloads
laminations.join_s, join_classes                     -> both deep workloads
laminations.moore_s, moore_pairs, moore_crossings,
  moore_hit_ratio                                    -> op_p50_s, mostly deep-meyer
pipeline.to_json_s, cli.emit_s, cli.stdout_bytes     -> op_p50_s, peak_rss_mib on deep-jordan
svg.render_s, svg.bytes                              -> both deep workloads
cli.overhead_s, trace.overhead_s                     -> every workload

``circle`` is timed only through its callers.  The exit code is the
child's; 2 if the checkout has no ``src/unmating``.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["deep-meyer", "deep-jordan", "shallow-mix"]
CHILD_TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "unmating" / "cli.py").is_file():
        print(f"error: no src/unmating/cli.py under {root}; run from a checkout root", file=sys.stderr)
        return 2

    code = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        child = [
            sys.executable, str(HERE / "workload.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        try:
            done = subprocess.run(child, cwd=root, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: {workload} ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1
        code = code or done.returncode
    return code


if __name__ == "__main__":
    sys.exit(main())
