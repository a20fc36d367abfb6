"""Count the bytecode one call runs: opcode events per function.

A count does not depend on the host's speed, so it places a saving in a
function and makes a perf claim reproducible; it complements perfbench and
does not replace it.  One call of `run_pipeline(spec, depth=N)` or of
`cli.main(argv)` runs under ``sys.settrace`` with ``f_trace_opcodes`` on and
the cyclic collector off, and every "opcode" event is counted against the
code object that runs it.  A call into C (``sorted``, a slice, ``str.join``)
is one opcode however much it does.  `cli.main`'s stdout goes to /dev/null.

    python tests/opcount.py pipeline examples/meyer_example.json --depth 9
    python tests/opcount.py cli unmate examples/meyer_example.json --depth 9 --svg out.svg

prints the total, then the functions with the most opcodes.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def count(fn, *args, **kwargs) -> Counter:
    """Opcodes run by ``fn(*args, **kwargs)``, by "module:line qualified
    name" of each function (its code object)."""
    codes: Counter = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            codes[frame.f_code] += 1
        return local

    def enter(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    enabled = gc.isenabled()
    gc.disable()
    sys.settrace(enter)
    try:
        fn(*args, **kwargs)
    finally:
        sys.settrace(None)
        if enabled:
            gc.enable()
    out: Counter = Counter()
    for code, n in codes.items():
        out[f"{Path(code.co_filename).stem}:{code.co_firstlineno} {getattr(code, 'co_qualname', code.co_name)}"] += n
    return out


def pipeline_count(mapfile, depth: int) -> Counter:
    """The opcodes of one `run_pipeline` call on a parsed mapfile."""
    from unmating import parse_file, run_pipeline

    spec = parse_file(mapfile)
    return count(run_pipeline, spec, depth=depth)


def cli_count(argv: list[str]) -> Counter:
    """The opcodes of one `cli.main(argv)` call, its stdout discarded."""
    from unmating import cli

    cli.build_parser()  # built once per process, as in a long-lived caller
    with open(os.devnull, "w") as null, redirect_stdout(null):
        return count(cli.main, argv)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--top", type=int, default=15, help="functions to list (default 15)")
    sub = parser.add_subparsers(dest="target", required=True)
    pipeline = sub.add_parser("pipeline", help="one run_pipeline call")
    pipeline.add_argument("mapfile")
    pipeline.add_argument("--depth", type=int, required=True)
    cli = sub.add_parser("cli", help="one cli.main call with the remaining arguments")
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    counts = pipeline_count(args.mapfile, args.depth) if args.target == "pipeline" else cli_count(args.argv)
    print(f"{sum(counts.values()):10d}  total")
    for name, n in counts.most_common(args.top):
        print(f"{n:10d}  {name}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main(sys.argv[1:]))
