"""The opcode census: the pipeline's Python-level work grows with its output."""

from __future__ import annotations

import pytest

from .conftest import JORDAN, MEYER
from .opcount import main, pipeline_count


@pytest.mark.parametrize("fixture", [MEYER, JORDAN], ids=["meyer", "jordan"])
def test_pipeline_count_at_most_doubles_per_depth(fixture):
    """Classes double with each depth, and so may the opcodes of
    `run_pipeline`, with 2.5 % to spare: an all-pairs step would grow them
    faster."""
    last = sum(pipeline_count(fixture, 6).values())
    for depth in range(7, 11):
        total = sum(pipeline_count(fixture, depth).values())
        assert total <= 2.05 * last, (depth, last, total)
        last = total


def test_count_is_repeatable_and_per_function():
    first, again = pipeline_count(MEYER, 3), pipeline_count(MEYER, 3)
    assert first == again
    (name,) = [name for name in first if name.endswith(" run_pipeline")]
    assert name.startswith("pipeline:") and first[name] > 0


def test_command_line(capsys, tmp_path):
    svg = tmp_path / "out.svg"
    assert main(["--top", "2", "cli", "unmate", str(MEYER), "--depth", "2", "--svg", str(svg)]) == 0
    total, *top = capsys.readouterr().out.splitlines()
    assert total.split()[1] == "total" and len(top) == 2
    counts = [int(line.split()[0]) for line in top]
    assert counts == sorted(counts, reverse=True) and sum(counts) < int(total.split()[0])
    assert svg.read_bytes().startswith(b"<?xml")
