"""Golden CLI output: one sha256 per command line over everything it emits.

Each case hashes the exit code, stdout, stderr (with the temporary directory
masked) and the bytes of every SVG file the command wrote, in file-name
order.  The digests in ``golden_cli.json`` pin the CLI's observable output,
so a refactor that changes any byte fails here.  To rewrite the file after a
deliberate output change, run ``PYTHONPATH=src python3 -m tests.test_golden``
from the repository root.
"""

from __future__ import annotations

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from unmating.cli import main

from .conftest import JORDAN, MEYER, REVERSED, meyer_raw

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
DEPTHS = range(1, 7)
SIDES = ("w", "b", "join")
INPUTS = ("meyer", "jordan", "reversed", "crossing")


def _input_path(name: str, tmp: Path) -> Path:
    if name == "crossing":
        raw = meyer_raw()
        raw["rotation1"]["p0"] = [[3, "in"], [7, "in"], [4, "out"], [8, "out"]]
        path = tmp / "crossing.json"
        path.write_text(json.dumps(raw))
        return path
    return {"meyer": MEYER, "jordan": JORDAN, "reversed": REVERSED}[name]


def cases() -> list[tuple[str, ...]]:
    """(input name, argv after the mapfile...) per case; "OUT" marks the SVG path."""
    out = []
    for name in INPUTS:
        for command in ("validate", "matrix", "parameters"):
            out.append((name, command))
        for depth in map(str, DEPTHS):
            out.append((name, "unmate", "--depth", depth, "--svg", "OUT"))
            for side in SIDES:
                out.append((name, "lamination", "--depth", depth, "--side", side, "--svg", "OUT"))
                out.append((name, "render", "--depth", depth, "--side", side, "--svg", "OUT"))
            out.append((name, "render", "--depth", depth))
    return out


def case_id(case: tuple[str, ...]) -> str:
    return " ".join(a for a in case if a != "OUT")


def digest(case: tuple[str, ...]) -> str:
    name, command, *rest = case
    with tempfile.TemporaryDirectory() as tmp_dir:
        tmp = Path(tmp_dir)
        svg_dir = tmp / "svg"
        svg_dir.mkdir()
        argv = [command, str(_input_path(name, tmp))]
        argv += [str(svg_dir / "out.svg") if a == "OUT" else a for a in rest]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        h = hashlib.sha256()
        for part in (str(code), out.getvalue(), err.getvalue()):
            h.update(part.replace(tmp_dir, "<tmp>").encode("utf-8"))
            h.update(b"\0")
        for svg in sorted(svg_dir.iterdir()):
            h.update(svg.name.encode("utf-8") + b"\0" + svg.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case_id(c) for c in cases())


@pytest.mark.parametrize("case", cases(), ids=case_id)
def test_cli_output_unchanged(case, golden):
    assert digest(case) == golden[case_id(case)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({case_id(c): digest(c) for c in cases()}, indent=1) + "\n")
