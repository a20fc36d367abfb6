"""One workload in one fresh process; ``run.py`` starts it.

Usage (from the root of a checkout):
    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1

Operations are ``unmating.cli.main(argv)`` calls, in process, with stdout and
stderr captured to memory: a closed loop with one client, one operation at a
time.  Inputs come from ``mix`` and are written under ``.bench_run/`` before
each operation; every output is checked by ``check`` outside the timed
region.  The last line of stdout is the JSON result.

Reported times are speed-normalized (see ``calib``): the calibration loop
runs before and after every segment of about half a second of operations,
and each operation's wall time is multiplied by ``calib.scale`` of the mean
of the two calibration times; each import sample is normalized by a
calibration in its own interpreter.  The raw wall times are printed beside
them.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, perf_counter_ns

import check
import fixtures
import mix
from calib import calibrate, scale
from spans import PER_LAYER_UNITS, Tracer, per_layer

DEEP_DEPTH = 9
WORKLOADS = {
    "deep-meyer": {"warmup": 1, "stream": lambda bases, seed: mix.deep_stream(bases, "meyer", DEEP_DEPTH, seed)},
    "deep-jordan": {"warmup": 1, "stream": lambda bases, seed: mix.deep_stream(bases, "jordan", DEEP_DEPTH, seed)},
    "shallow-mix": {"warmup": 60, "stream": mix.shallow_stream},
}
SETUP_SAMPLES = 20
# the import is timed first; the calibration then runs in the same process
SETUP_CODE = (
    "import time; t = time.perf_counter(); import unmating.cli; t = time.perf_counter() - t; "
    "import calib; calib.calibrate(); print(t, calib.calibrate())"
)
P90_MIN_OPS = 100
SEGMENT_S = 0.5


def setup_samples(root: Path, workdir: Path, n: int) -> list[tuple[float, float]]:
    """(wall, normalized) time of ``import unmating.cli`` in ``n`` fresh
    interpreters.

    Bytecode is cached under ``workdir``; one extra interpreter first fills
    that cache and is not counted.
    """
    path = os.pathsep.join([str(root / "src"), str(Path(__file__).resolve().parent)])
    env = dict(os.environ, PYTHONPATH=path, PYTHONPYCACHEPREFIX=str(workdir / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    samples = []
    for _ in range(n + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=root,
            capture_output=True, text=True, check=True, timeout=60,
        )
        wall, cal = map(float, out.stdout.split())
        samples.append((wall, wall * scale(cal)))
    return samples[1:]


class Runner:
    def __init__(self, cli, workdir: Path, svg: bool):
        self.cli = cli
        self.workdir = workdir
        self.svg = svg
        self.ops = 0
        self.failures: list[str] = []

    def run(self, inp: mix.Input, tracer: Tracer | None = None) -> float:
        """Run one operation; return its wall time in seconds."""
        path = self.workdir / "input.json"
        path.write_text(json.dumps(inp.raw))
        argv = ["unmate", str(path), "--depth", str(inp.depth)]
        if self.svg:
            argv += ["--svg", str(self.workdir / "out.svg")]
        out, err = io.StringIO(), io.StringIO()
        traced = tracer.operation(self.ops) if tracer else nullcontext({})
        with redirect_stdout(out), redirect_stderr(err), traced as attrs:
            t0 = perf_counter_ns()
            try:
                code = self.cli.main(argv)
            except Exception as e:  # an operation that raises is a failed operation
                code = f"{type(e).__name__}: {e}"
            t1 = perf_counter_ns()
        stdout = out.getvalue()
        del out
        attrs["stdout_bytes"] = len(stdout.encode())
        problems = check.check_unmate(code, stdout, inp.depth, inp.raw["degree"], inp.expected)
        if problems:
            self.failures.append(f"op {self.ops} ({inp.expected.base}, depth {inp.depth}): {problems[0]}")
        self.ops += 1
        return (t1 - t0) / 1e9


def timed_loop(runner: Runner, stream, seconds: float, tracer: Tracer | None = None):
    """Run operations for ``seconds`` of wall time, in calibrated segments.

    Garbage is collected between segments, outside the timed operations.
    Returns one (speed scale, {operation id: wall time}) pair per segment.
    """
    segments: list[tuple[float, dict[int, float]]] = []
    deadline = perf_counter() + seconds
    gc.collect()
    before = calibrate()
    while not segments or perf_counter() < deadline:
        segment = {}
        segment_end = perf_counter() + SEGMENT_S
        while not segment or perf_counter() < segment_end:
            op = runner.ops
            segment[op] = runner.run(next(stream), tracer)
        gc.collect()
        after = calibrate()
        segments.append((scale((before + after) / 2), segment))
        before = after
    return segments


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    # calibration, operations and import samples share one CPU, so the
    # calibration sees the speed the measured work gets
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    root = Path.cwd()
    workdir = root / ".bench_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run_workload(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass


def run_workload(args, root: Path, workdir: Path) -> int:
    spec = WORKLOADS[args.workload]
    setup = setup_samples(root, workdir, SETUP_SAMPLES) if not args.trace else []

    sys.path.insert(0, str(root / "src"))
    import unmating.cli as cli

    bases = fixtures.load_checked(cli, workdir)
    stream = spec["stream"](bases, args.seed)
    runner = Runner(cli, workdir, svg=args.workload.startswith("deep-"))
    for _ in range(spec["warmup"]):
        runner.run(next(stream))
    failed_before = len(runner.failures)

    if not args.trace:
        segments = timed_loop(runner, stream, args.seconds)
        wall = [w for _, seg in segments for w in seg.values()]
        norm = [w * k for k, seg in segments for w in seg.values()]
        n = len(wall)
        failed = len(runner.failures) - failed_before
        metrics = {
            "op_p50_s": (statistics.median(norm), "s"),
            # throughput of each segment, then the median over segments
            "ops_per_s": (statistics.median(len(seg) / (k * sum(seg.values())) for k, seg in segments), "1/s"),
            "setup_s": (statistics.median(s for _, s in setup), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        p90 = (
            f"{statistics.quantiles(norm, n=10)[-1]:.6f} s (wall {statistics.quantiles(wall, n=10)[-1]:.6f} s)"
            if n >= P90_MIN_OPS else f"not reported: {n} < {P90_MIN_OPS} operations"
        )
        report = [
            f"op_p50_s      {metrics['op_p50_s'][0]:.6f} s (wall {statistics.median(wall):.6f} s)  n={n}",
            f"op_p90_s      {p90}  n={n}",
            f"ops_per_s     {metrics['ops_per_s'][0]:.4f} 1/s (wall {n / sum(wall):.4f} 1/s over the run)"
            f"  n={len(segments)} segments",
            f"setup_s       {metrics['setup_s'][0]:.6f} s (wall {statistics.median(w for w, _ in setup):.6f} s)"
            f"  n={len(setup)} fresh interpreters",
            f"peak_rss_mib  {metrics['peak_rss_mib'][0]:.2f} MiB  n=1 process",
            f"failed_ratio  {failed / n:.4f}  ({failed} of {n} operations)",
        ]
    else:
        # half the time untraced for the baseline, half traced
        untraced = [w * k for k, seg in timed_loop(runner, stream, args.seconds / 2) for w in seg.values()]
        tracer = Tracer()
        with tracer.installed():
            traced = {op: k for k, seg in timed_loop(runner, stream, args.seconds / 2, tracer) for op in seg}
        n = len(untraced) + len(traced)
        failed = len(runner.failures) - failed_before
        layer = per_layer(tracer.spans, traced, untraced)
        metrics = {name: (layer[name], unit) for name, unit in PER_LAYER_UNITS.items()}
        report = [f"{name:30s} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
        report.append(
            f"n={len(traced)} traced, {len(untraced)} untraced operations; times are "
            "normalized self times per operation; *_pairs are computed as n(n-1)/2"
        )

    print(f"{args.workload} seed {args.seed}: {n} timed operations, {failed} failed")
    for line in report:
        print("  " + line)
    for failure in runner.failures[:5]:
        print("  FAILED " + failure)
    result = {
        "correct": not runner.failures,
        "attempted": runner.ops,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
