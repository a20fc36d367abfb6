"""The process timer behind the depth-12 cost in README."""

from __future__ import annotations

from .clitime import main
from .conftest import MEYER


def test_one_run_at_depth_two(capsys):
    assert main([str(MEYER), "--depth", "2", "--runs", "1"]) == 0
    header, run, median = capsys.readouterr().out.splitlines()
    assert header.split() == ["run", "wall_s", "maxrss_mib", "exit"]
    index, wall, rss, code = run.split()
    assert (index, code) == ("1", "0")
    assert 0 < float(wall) < 60 and 1 < float(rss) < 1024
    assert median.split() == ["median", wall, rss]
