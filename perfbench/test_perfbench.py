"""Tests of the benchmark itself: seeded inputs, the checker, the tracer.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import io
import itertools
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import check  # noqa: E402
import fixtures  # noqa: E402
import mix  # noqa: E402
import unmating.cli as cli  # noqa: E402
from spans import ROOT, Tracer, per_layer  # noqa: E402


@pytest.fixture(scope="module")
def bases(tmp_path_factory):
    return fixtures.load_checked(cli, tmp_path_factory.mktemp("fixtures"))


def unmate(raw: dict, depth: int, tmp_path: Path) -> tuple[int, str]:
    path = tmp_path / "in.json"
    path.write_text(json.dumps(raw))
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["unmate", str(path), "--depth", str(depth)])
    return code, out.getvalue()


def first_inputs(stream, n=60) -> list[bytes]:
    return [json.dumps([i.raw, i.depth]).encode() for i in itertools.islice(stream, n)]


class TestInputs:
    def test_same_seed_same_bytes(self, bases):
        assert first_inputs(mix.shallow_stream(bases, 7)) == first_inputs(mix.shallow_stream(bases, 7))
        deep = lambda: mix.deep_stream(bases, "jordan", 9, 7)  # noqa: E731
        assert first_inputs(deep(), 5) == first_inputs(deep(), 5)

    def test_other_seed_other_bytes(self, bases):
        assert first_inputs(mix.shallow_stream(bases, 7)) != first_inputs(mix.shallow_stream(bases, 8))

    def test_every_input_distinct(self, bases):
        inputs = first_inputs(mix.shallow_stream(bases, 3), 120)
        assert len(set(inputs)) == len(inputs)

    def test_shallow_block_proportions(self, bases):
        block = list(itertools.islice(mix.shallow_stream(bases, 1), 60))
        codes = [i.expected.exit_code for i in block]
        assert codes.count(3) == 12
        assert sorted(i.depth for i in block) == [1] * 20 + [2] * 20 + [3] * 20

    def test_program_gives_every_expected_answer(self, bases, tmp_path):
        for inp in itertools.islice(mix.shallow_stream(bases, 5), 60):
            code, out = unmate(inp.raw, inp.depth, tmp_path)
            assert check.check_unmate(code, out, inp.depth, 2, inp.expected) == []


class TestChecker:
    @pytest.fixture(scope="class")
    def good(self, bases, tmp_path_factory):
        inp = next(mix.deep_stream(bases, "meyer", 4, 0))
        code, out = unmate(inp.raw, inp.depth, tmp_path_factory.mktemp("good"))
        return inp, code, json.loads(out)

    def verdict(self, good, data, code=None):
        inp, good_code, _ = good
        return check.check_unmate(good_code if code is None else code, json.dumps(data), 4, 2, inp.expected)

    def test_accepts_correct_output(self, good):
        assert self.verdict(good, good[2]) == []

    def test_rejects_swapped_portraits(self, good):
        data = copy.deepcopy(good[2])
        data["white"], data["black"] = data["black"], data["white"]
        assert any("portraits" in p for p in self.verdict(good, data))

    def test_rejects_dropped_class(self, good):
        data = copy.deepcopy(good[2])
        data["laminations"]["black"]["classes"].pop()
        assert any("14 classes at depth 4" in p for p in self.verdict(good, data))

    def test_rejects_same_side_crossing(self, good):
        data = copy.deepcopy(good[2])
        white = data["laminations"]["white"]["classes"]
        lo, hi = (check.angle(a) for a in white[0][:2])
        # swap the last class for a chord from inside the first class's hull to outside it
        eps = Fraction(1, 10**9)
        white[-1] = [f"{x.numerator}/{x.denominator}" for x in ((lo + hi) / 2 + eps, hi + eps)]
        assert any("cross" in p for p in self.verdict(good, data))

    def test_rejects_wrong_exit_code(self, good):
        assert self.verdict(good, good[2], code=7) == ["exit code 7, expected 0"]

    def test_rejects_missing_finding(self):
        expected = mix.Expected(exit_code=3, base="meyer", finding="curve not oriented")
        out = json.dumps({"passed": False, "findings": [{"check": "other", "detail": ""}]})
        assert check.check_unmate(3, out, 2, 2, expected) != []

    @pytest.mark.parametrize("classes, crossing", [
        ([[0, 2], [1, 3]], True),
        ([[0, 3], [1, 2]], False),
        ([[0, 1], [2, 3]], False),
        ([[0, 2, 4], [1], [3, 5]], True),
        ([[0, 4], [1, 3], [2]], False),
        ([[0, 1], [1, 2]], True),   # shared angle
    ])
    def test_crossing_pair(self, classes, crossing):
        fracs = [[Fraction(x, 8) for x in c] for c in classes]
        assert (check.crossing_pair(fracs) is not None) == crossing


class TestTracer:
    def test_spans_account_for_traced_time(self, bases, tmp_path):
        tracer = Tracer()
        stream = mix.shallow_stream(bases, 2)
        with tracer.installed():
            for op_id, inp in enumerate(itertools.islice(stream, 20)):
                with tracer.operation(op_id) as attrs:
                    code, out = unmate(inp.raw, inp.depth, tmp_path)
                attrs["stdout_bytes"] = len(out)
        roots = [s for s in tracer.spans if s[0] == ROOT]
        assert len(roots) == 20
        metrics = per_layer(tracer.spans, dict.fromkeys(range(20), 1.0), [1.0])
        layers = sum(v for k, v in metrics.items() if k.endswith("_s") and k != "trace.overhead_s")
        traced_mean = sum(s[2] - s[1] for s in roots) / 1e9 / 20
        assert layers == pytest.approx(traced_mean)
        assert metrics["mapspec.rejected_ratio"] > 0
        assert metrics["mapspec.validate_s"] > 0 and metrics["laminations.moore_s"] > 0

    def test_uninstall_restores_program(self):
        from unmating import laminations, mapspec, svg

        before = (mapspec.faces, laminations.pullback_step, svg.SvgScene.__dict__["from_classes"])
        with Tracer().installed():
            assert mapspec.faces is not before[0]
        assert (mapspec.faces, laminations.pullback_step, svg.SvgScene.__dict__["from_classes"]) == before
