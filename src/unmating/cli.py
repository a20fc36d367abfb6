"""Command-line front end.

Subcommands: validate, matrix, parameters, unmate, lamination, render.
All JSON output is deterministic; exit codes partition the failure modes:

    0  success                     4  spectral certification failed
    1  validation failed           5  parameterization failed
    2  parse/usage failure, or an  6  portrait extraction failed
       unwritable --svg or stdout  7  lamination failed
    3  validation failed (unmate)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii as quote

from . import mapspec
from .errors import MapfileError, UnmatingError, ValidationFailure
from .pipeline import (
    PipelineResult,
    certified_lengths,
    lamination_for_side,
    marker_parameters,
    matrix_json,
    parameters_json,
    run_pipeline,
)
from .svg import SvgScene, render_svg, write_svg


def _dumps(obj) -> str:
    """The text of ``json.dumps(obj, indent=2)``: ASCII-escaped, keys in dict
    order, tuples as lists.  Dict keys must be ``str``.

    Built as one list of parts joined once.  A list of strings renders with
    one join, memoized per call by its level and ``id``: the Moore report
    shares each joined class's angle list, and each distinct sides list,
    across its crossings, so a repeat costs one dict lookup.  Keying by
    ``id`` is sound because ``obj`` keeps every sub-object alive until the
    call returns, so no id is reused for another object meanwhile; two equal
    lists that are distinct objects render separately, to the same text.
    Each dict key's head (separator, padding, quoted key, ``": "``) is
    memoized per level and key.
    """
    parts: list[str] = []
    pads = ["\n"]  # pads[level] = newline + indentation at that level
    rendered: list[dict[int, str]] = [{}]  # rendered[level][id of a string list] = its text
    heads: list[dict[str, str]] = [{}]  # heads[level][key] = "," + padding + quoted key + ": "

    def write(o, level: int) -> None:
        if isinstance(o, str):
            parts.append(quote(o))
            return
        if type(o) is int:
            parts.append(repr(o))
            return
        if type(o) is bool:
            parts.append("true" if o else "false")
            return
        if not isinstance(o, (dict, list, tuple)):
            parts.append(json.dumps(o))  # json's spelling of floats and null, and its errors
            return
        if not o:
            parts.append("{}" if isinstance(o, dict) else "[]")
            return
        if len(pads) == level + 1:
            pads.append(pads[level] + "  ")
            rendered.append({})
            heads.append({})
        inner = pads[level + 1]
        if isinstance(o, dict):
            first = len(parts)
            known, below = heads[level], rendered[level + 1]
            for key, value in o.items():
                head = known.get(key)
                if head is None:
                    head = known[key] = "," + inner + quote(key) + ": "
                parts.append(head)
                if type(value) is str:
                    parts.append(quote(value))
                else:
                    text = below.get(id(value))
                    if text is None:
                        write(value, level + 1)
                    else:
                        parts.append(text)
            parts[first] = "{" + parts[first][1:]  # the first head opens the dict
            parts.append(pads[level] + "}")
            return
        text = rendered[level].get(id(o))
        if text is None and all(isinstance(x, str) for x in o):
            text = rendered[level][id(o)] = (
                "[" + inner + ("," + inner).join(map(quote, o)) + pads[level] + "]"
            )
        if text is not None:
            parts.append(text)
        else:
            sep = "[" + inner
            for x in o:
                parts.append(sep)
                write(x, level + 1)
                sep = "," + inner
            parts.append(pads[level] + "]")

    write(obj, 0)
    del write  # break write's self-reference, so parts and the memo are freed on return
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
    _emit(parameters_json(spec, params, pullback, args.branch))
    return 0


def _run(args) -> PipelineResult:
    spec = _load(args.mapfile)
    _check_branch(spec, args.branch)
    return run_pipeline(spec, branch=args.branch, depth=args.depth)


def _scene(result: PipelineResult, side: str) -> SvgScene:
    """Chords of one side; "join" overlays the white and black sides."""
    if side == "join":
        return SvgScene.from_classes([result.lamination_white, result.lamination_black])
    return SvgScene.from_classes([lamination_for_side(result, side)])


def cmd_unmate(args) -> int:
    result = _run(args)
    if args.svg is not None:  # before the report, so a failed write leaves stdout empty
        # the requested path gets the two-sided overlay, plus one file per side
        base = args.svg[:-4] if args.svg.endswith(".svg") else args.svg
        _write_svg(_scene(result, "join"), args.svg)
        _write_svg(_scene(result, "w"), f"{base}.white.svg")
        _write_svg(_scene(result, "b"), f"{base}.black.svg")
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
        sys.stdout.write(render_svg(scene).decode("utf-8"))
    return 0


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
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
