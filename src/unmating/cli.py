"""Command-line front end.

Subcommands: validate, matrix, parameters, unmate, lamination, render.
All JSON output is deterministic; exit codes partition the failure modes,
with the stage that `errors` gives each code:

    0  -             success
    1  -             validation failed (validate)
    2  -             parse/usage failure, or an unwritable --svg or stdout
    3  complex       validation failed (pipeline commands)
    4  spectral      Perron certificate failed
    6  portraits     portrait extraction failed
    7  laminations   lamination failed

`main` pauses Python's cyclic collector for the whole call, from building
the parser to the last byte of the report, and then leaves it as it found
it.  A depth-9 run holds thousands of live classes, texts and chords, which
the collector would walk four or five times and find no garbage in.  Pausing
it is safe because no run leaves a reference cycle, so reference counting
frees what a run allocates: `tests/test_cli.py::TestCollector` checks this
for every subcommand and every exit.  Only argparse leaves cycles, its help
formatters, when it builds the parser (once per process) and when it
rejects the arguments; the collector frees them once it is back on.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as quote

from . import mapspec
from .errors import MapfileError, UnmatingError, ValidationFailure
from .laminations import BLACK, WHITE, Crossings
from .pipeline import (
    PipelineResult,
    certified_lengths,
    lamination_for_side,
    marker_parameters,
    matrix_json,
    parameters_json,
    run_pipeline,
)
from .svg import SvgScene, label_grid, render_svg, write_svg


# the JSON text of a str, an int or a bool, by exact type
_SPELL = {str: quote, int: repr, bool: {False: "false", True: "true"}.__getitem__}
_LISTS = {list, tuple}  # the sequences json writes as arrays


def _dumps(obj) -> str:
    """The text of ``json.dumps(obj, indent=2, default=list)``: ASCII-escaped,
    keys in dict order, tuples and `Crossings` as lists.  Dict keys must be
    ``str``, and a `Crossings` is the only object that needs ``default``.

    Built as one list of parts joined once.  A non-empty list of ``str``s,
    of ``int``s or of ``bool``s renders with one join.  One helper renders
    a batch of such lists: a single list is a batch of one, and a list of
    such lists (the report's class lists) is one batch, written in one loop
    with no call per list.

    A `Crossings` is written from its columns, building no entry: each
    class's text and row head (``{"a": <text>, "b": ``) are spelled once,
    and so is the one row tail that every entry shares, its sides and note;
    a row is three of those parts.
    """
    parts: list[str] = []
    pads = ["\n"]  # pads[level] = newline + indentation at that level

    def batch(lists, level: int) -> list[str] | None:
        """The texts of ``lists`` at ``level`` if each is a non-empty list or
        tuple and all their items are ``str``s, all ``int``s or all
        ``bool``s, else None."""
        if not (all(lists) and set(map(type, lists)) <= _LISTS):
            return None
        kinds = set(map(type, chain.from_iterable(lists)))
        spell = _SPELL.get(kinds.pop()) if len(kinds) == 1 else None
        if spell is None:
            return None
        head, sep, end = "[" + pads[level + 1], "," + pads[level + 1], pads[level] + "]"
        return [head + sep.join(map(spell, o)) + end for o in lists]

    def write(o, level: int) -> None:
        spell = _SPELL.get(type(o))
        if spell is not None:
            parts.append(spell(o))
            return
        if not isinstance(o, (dict, list, tuple, Crossings)):
            parts.append(json.dumps(o))  # json's spelling of floats and null, and its errors
            return
        if not o:
            parts.append("{}" if isinstance(o, dict) else "[]")
            return
        while len(pads) < level + 4:  # down to the items of a Crossings' cells
            pads.append(pads[-1] + "  ")
        inner = pads[level + 1]
        if isinstance(o, dict):
            sep = "{" + inner
            for key, value in o.items():
                parts.append(sep + quote(key) + ": ")
                write(value, level + 1)
                sep = "," + inner
            parts.append(pads[level] + "}")
            return
        if type(o) is Crossings:
            a, b, sides, note = (pads[level + 2] + quote(key) + ": " for key in Crossings.KEYS)
            cells = batch(o.text, level + 2)
            heads = ["{" + a + text + "," + b for text in cells]
            # the row tail closes a row; the tail of any row but the last also opens the next
            end = "," + sides + batch([Crossings.SIDES], level + 2)[0]
            end += "," + note + quote(Crossings.NOTE) + inner + "}"
            parts.append("[" + inner)
            rows = zip(map(heads.__getitem__, o.a), map(cells.__getitem__, o.b), repeat(end + "," + inner))
            parts.extend(chain.from_iterable(rows))
            parts[-1] = end + pads[level] + "]"
            return
        nested = type(o[0]) in _LISTS
        texts = batch(o, level + 1) if nested else batch([o], level)
        if texts is not None:
            parts.append("[" + inner + ("," + inner).join(texts) + pads[level] + "]" if nested else texts[0])
        else:
            sep = "[" + inner
            for x in o:
                parts.append(sep)
                write(x, level + 1)
                sep = "," + inner
            parts.append(pads[level] + "]")

    write(obj, 0)
    del write  # break write's self-reference, so parts is freed on return
    return "".join(parts)


def _emit(obj) -> None:
    sys.stdout.write(_dumps(obj))
    sys.stdout.write("\n")  # a separate write: text + "\n" would copy a report of megabytes


def _load(path: str) -> mapspec.MapSpec:
    try:
        return mapspec.parse_file(path)
    except OSError as e:
        raise MapfileError(f"cannot read {path}: {e}") from None


def _write_svg(scene: SvgScene, path: str) -> None:
    try:
        write_svg(scene, path)
    except OSError as e:
        raise MapfileError(f"cannot write {path}: {e}") from None


def _check_branch(spec: mapspec.MapSpec, branch: int) -> None:
    if not 0 <= branch < spec.degree - 1:
        raise MapfileError(
            f"--branch {branch} out of range for degree {spec.degree} "
            f"(need 0 <= branch < {spec.degree - 1})"
        )


def _depth(text: str) -> int:
    """Type of --depth: an integer >= 1 (argparse turns the errors into exit 2)."""
    try:
        depth = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if depth < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {depth}")
    return depth


def cmd_validate(args) -> int:
    spec = _load(args.mapfile)
    report = mapspec.validate(spec)
    _emit(report.to_json())
    return 0 if report.passed else 1


def cmd_matrix(args) -> int:
    spec = _load(args.mapfile)
    _, matrix, lengths = certified_lengths(spec)
    _emit(matrix_json(matrix, lengths))
    return 0


def cmd_parameters(args) -> int:
    spec = _load(args.mapfile)
    _check_branch(spec, args.branch)
    _, _, lengths = certified_lengths(spec)
    params, pullback = marker_parameters(spec, lengths, args.branch)
    _emit(parameters_json(spec, params, pullback))
    return 0


def _run(args) -> PipelineResult:
    spec = _load(args.mapfile)
    _check_branch(spec, args.branch)
    return run_pipeline(spec, branch=args.branch, depth=args.depth)


def _scene(result: PipelineResult, side: str) -> SvgScene:
    """Chords of one side; "join" overlays the white and black sides.  Only
    the chord ends on the run's `label_grid` are labelled."""
    labels = label_grid(result.pullback.grid, result.spec.degree)
    if side == "join":
        return SvgScene.from_classes([result.lamination_white, result.lamination_black], labels)
    return SvgScene.from_classes([lamination_for_side(result, side)], labels)


def _write_sides(result: PipelineResult, path: str) -> None:
    """The two-sided overlay at ``path``, plus one file per side: the
    overlay's chords of that side and the labels at their ends, drawn from
    its coordinates, so each angle is formatted once.  Only angles a label
    apart are labelled (`svg.label_grid`): at depth 9, 28 on the Meyer
    fixture and 62 on the symmetric Jordan one, where the JSON report
    carries every angle's ``p/q``.  The scene is freed on return, before
    the report is built."""
    base = path[:-4] if path.endswith(".svg") else path
    scene = _scene(result, "join")
    _write_svg(scene, path)
    _write_svg(scene.side(WHITE), f"{base}.white.svg")
    _write_svg(scene.side(BLACK), f"{base}.black.svg")


def cmd_unmate(args) -> int:
    result = _run(args)
    if args.svg is not None:  # before the report, so a failed write leaves stdout empty
        _write_sides(result, args.svg)
    _emit(result.to_json())
    return 0


def cmd_lamination(args) -> int:
    result = _run(args)
    if args.svg is not None:  # before the report, so a failed write leaves stdout empty
        _write_svg(_scene(result, args.side), args.svg)
    _emit(result.lamination_json(lamination_for_side(result, args.side)))
    return 0


def cmd_render(args) -> int:
    result = _run(args)
    scene = _scene(result, args.side)
    if args.svg is not None:
        _write_svg(scene, args.svg)
    else:
        sys.stdout.write(render_svg(scene))
    return 0


@functools.cache  # built on the first main() call, then reused
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unmating",
        description="Unmate an expanding Thurston map given an invariant oriented curve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, branch=False, depth=False, side=False, svg=False):
        p = sub.add_parser(name)
        p.add_argument("mapfile")
        if branch:
            p.add_argument("--branch", type=int, default=0)
        if depth:
            p.add_argument("--depth", type=_depth, default=3)
        if side:
            p.add_argument("--side", choices=["w", "b", "join"], default="join")
        if svg:
            p.add_argument("--svg", default=None)
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate)
    add("matrix", cmd_matrix)
    add("parameters", cmd_parameters, branch=True)
    add("unmate", cmd_unmate, branch=True, depth=True, svg=True)
    add("lamination", cmd_lamination, branch=True, depth=True, side=True, svg=True)
    add("render", cmd_render, branch=True, depth=True, side=True, svg=True)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code, with the cyclic collector
    paused throughout (see the module docstring)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            code = args.fn(args)
        except UnmatingError as e:
            detail = str(e)
            if isinstance(e, ValidationFailure):
                _emit(e.report.to_json())
                detail = "validation failed"
            stage = f" (stage: {e.stage})" if e.stage else ""
            print(f"error: {detail}{stage}", file=sys.stderr)
            code = e.exit_code
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError as e:
        # the reader closed stdout: point it at devnull so the interpreter's
        # final flush stays quiet (Python's signal docs, "Note on SIGPIPE")
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        print(f"error: cannot write stdout: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
