from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from unmating import cli, errors, spectral
from unmating.cli import _dumps, main
from unmating.laminations import Crossings, pullback_to_depth
from unmating.pipeline import run_pipeline
from unmating.svg import SvgScene, render_svg

from .conftest import JORDAN, MEYER, REVERSED, failing_certificate, meyer_raw, replaced

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def zero_transition_matrix(monkeypatch):
    """The spectral stage gets a zero transition matrix."""
    build = spectral.transition_matrix

    def zero(spec):
        m = build(spec)
        return replaced(m, entries=tuple((0,) * m.size for _ in m.entries))

    monkeypatch.setattr(spectral, "transition_matrix", zero)


class TestValidateCommand:
    def test_meyer_fixture_exit_zero(self, capsys):
        code, out, _ = run(capsys, "validate", MEYER)
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_reversed_exit_one(self, capsys):
        code, out, _ = run(capsys, "validate", REVERSED)
        assert code == 1
        report = json.loads(out)
        assert "fully invariant condition violated" in [f["check"] for f in report["findings"]]

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run(capsys, "validate", "does_not_exist.json")
        assert code == 2
        assert "error" in err

    def test_findings_in_declared_order_whatever_the_hash_seed(self, tmp_path):
        raw = meyer_raw()
        for vertex in ("p0", "c1", "p3"):
            del raw["rotation1"][vertex]
        path = tmp_path / "missing_rotations.json"
        path.write_text(json.dumps(raw))
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "unmating.cli", "validate", str(path)],
                cwd=ROOT, env=env, capture_output=True, timeout=60,
            )
            assert proc.returncode == 1
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        details = [f["detail"] for f in json.loads(outs[0])["findings"]]
        # vertices1 declares p1, p2, p3, p0, c1, c2
        assert details[:3] == [f"level 1: no rotation for vertex {v!r}" for v in ("p3", "p0", "c1")]

    def test_crossing_chords_message(self, capsys, tmp_path):
        raw = meyer_raw()
        raw["rotation1"]["p0"] = [[3, "in"], [7, "in"], [4, "out"], [8, "out"]]
        path = tmp_path / "crossing.json"
        path.write_text(json.dumps(raw))
        code, out, _ = run(capsys, "validate", path)
        assert code == 1
        assert "curve not oriented" in [f["check"] for f in json.loads(out)["findings"]]


    @pytest.mark.parametrize("key, index, value", [("post", 1, ["x"]), ("edges0", 0, None)])
    def test_non_string_id_exit_two(self, capsys, tmp_path, key, index, value):
        raw = meyer_raw()
        raw[key][index] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        code, out, err = run(capsys, "validate", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed mapfile:") and "is not a string" in err

    def test_wrong_json_type_exit_two(self, capsys, tmp_path):
        raw = meyer_raw()
        raw["degree"] = 2.7
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        code, out, err = run(capsys, "validate", path)
        assert code == 2
        assert out == ""
        assert err == "error: malformed mapfile: degree 2.7 is not an integer\n"


class TestMatrixCommand:
    def test_meyer_output(self, capsys):
        code, out, _ = run(capsys, "matrix", MEYER)
        assert code == 0
        data = json.loads(out)
        assert data["eigenvector"] == ["1/1", "2/1", "1/1", "3/1", "2/1", "3/1"]
        assert data["lengths"] == ["1/12", "1/6", "1/12", "1/4", "1/6", "1/4"]


class TestParametersCommand:
    def test_meyer_output(self, capsys):
        code, out, _ = run(capsys, "parameters", MEYER)
        data = json.loads(out)
        assert code == 0
        assert data["branch"] == 0
        assert set(data["t"].values()) == {"1/12", "1/6", "1/3", "5/12", "2/3", "5/6"}
        assert data["t"]["p2#0"] == "1/12"
        assert len(data["s"]) == 12


class TestUnmateCommand:
    def test_meyer_pipeline(self, capsys):
        code, out, _ = run(capsys, "unmate", MEYER)
        assert code == 0
        data = json.loads(out)
        assert data["white"]["sets"] == [["5/24", "17/24"]]
        assert data["black"]["sets"] == [["1/24", "13/24"]]
        assert data["white"]["certificate"]["valid"] is True
        assert data["matrix"]["matrix"][3] == [1, 1, 0, 0, 0, 1]

    def test_branch_out_of_range(self, capsys):
        code, _, err = run(capsys, "unmate", MEYER, "--branch", "1")
        assert code == 2
        assert "branch" in err

    def test_reversed_stage_exit(self, capsys):
        code, _, err = run(capsys, "unmate", REVERSED)
        assert code == 3
        assert "complex" in err

    @pytest.mark.parametrize("patch, code, line", [
        (zero_transition_matrix, 4,
         "error: d is not an eigenvalue: nullspace of (A - 2I) is trivial (stage: spectral)\n"),
        (failing_certificate, 6,
         "error: white portrait certificate failed: c5 (periodic participants: 1/3) (stage: portraits)\n"),
    ], ids=["spectral", "portraits"])
    def test_failed_stage_exit_code(self, capsys, monkeypatch, patch, code, line):
        # a broken upstream stage: the next check refuses its output
        patch(monkeypatch)
        assert run(capsys, "unmate", MEYER) == (code, "", line)

    @pytest.mark.parametrize("fixture", [MEYER, JORDAN], ids=["meyer", "jordan"])
    def test_depth_beyond_work_limit_exit_seven(self, capsys, monkeypatch, fixture):
        from unmating import laminations

        steps = 0
        step = laminations.pullback_step

        def counting(*args):
            nonlocal steps
            steps += 1
            return step(*args)

        monkeypatch.setattr(laminations, "pullback_step", counting)
        code, out, err = run(capsys, "unmate", fixture, "--depth", "40")
        assert code == 7
        assert out == ""
        assert err == (
            "error: depth 40 is beyond the work limit: lifting the 8190 angles of depth 12 "
            "makes 16380 preimages, over the limit of 10000 (stage: laminations)\n"
        )
        assert steps == 11  # the white side stops at the first step over the limit

    @pytest.mark.parametrize("fixture", [MEYER, JORDAN], ids=["meyer", "jordan"])
    def test_huge_depth_stops_at_work_limit(self, fixture):
        # the limit trips at depth 12 whatever depth is asked for, so a grid
        # sized from the requested depth would show here as a timeout
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "unmating.cli", "unmate", str(fixture), "--depth", "100000000"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 7
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: depth 100000000 is beyond the work limit: lifting the 8190 angles of "
            "depth 12 makes 16380 preimages, over the limit of 10000 (stage: laminations)\n"
        )

    def test_jordan_certified_with_svg(self, capsys, tmp_path):
        svg = tmp_path / "jordan.svg"
        code, out, _ = run(capsys, "unmate", JORDAN, "--depth", "3", "--svg", svg)
        assert code == 0
        data = json.loads(out)
        assert data["white"]["certificate"]["valid"] is True
        assert data["black"]["certificate"]["valid"] is True
        assert svg.exists() and svg.read_bytes().startswith(b"<?xml")
        # one overlay plus one file per side
        assert (tmp_path / "jordan.white.svg").exists()
        assert (tmp_path / "jordan.black.svg").exists()

    @pytest.mark.parametrize("depth", ["0", "-1"])
    def test_depth_below_one_is_usage_error(self, capsys, depth):
        with pytest.raises(SystemExit) as exc:
            main(["unmate", str(MEYER), "--depth", depth])
        assert exc.value.code == 2
        assert "--depth: must be >= 1" in capsys.readouterr().err

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(parser, *args, **kwargs)

        cli.build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert run(capsys, "validate", MEYER)[0] == 0
        first = len(built)
        assert first > 0 and built[0] == "unmating"
        assert run(capsys, "unmate", MEYER, "--depth", "1")[0] == 0
        errs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["unmate"])
            assert exc.value.code == 2
            errs.append(capsys.readouterr().err)
        assert len(built) == first
        # a usage error reads as it does from a freshly built parser
        with pytest.raises(SystemExit):
            cli.build_parser.__wrapped__().parse_args(["unmate"])
        fresh = capsys.readouterr().err
        assert errs == [fresh, fresh]
        assert fresh.endswith("unmating unmate: error: the following arguments are required: mapfile\n")

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "unmate", MEYER, "--depth", "4")
        _, out2, _ = run(capsys, "unmate", MEYER, "--depth", "4")
        assert out1 == out2


class TestLaminationCommand:
    def test_depth_and_side(self, capsys):
        code, out, _ = run(capsys, "lamination", MEYER, "--depth", "2", "--side", "w")
        data = json.loads(out)
        assert code == 0
        assert data["depth"] == 2
        assert data["classes"] == [["5/48", "41/48"], ["5/24", "17/24"], ["17/48", "29/48"]]

    def test_default_join_depth_three(self, capsys):
        code, out, _ = run(capsys, "lamination", MEYER)
        data = json.loads(out)
        assert data["depth"] == 3
        assert len(data["classes"]) == 14  # 7 white + 7 black, disjoint here


class TestRenderCommand:
    def test_chord_count_depth1(self, capsys, tmp_path):
        svg = tmp_path / "out.svg"
        code, _, _ = run(capsys, "render", MEYER, "--depth", "1", "--svg", svg)
        assert code == 0
        assert svg.read_text().count("<line") == 2

    def test_chord_count_matches_leafset(self, capsys, tmp_path, meyer_result):
        # one leaf per two-angle class: the chords are not counted from the scene itself
        lam4 = pullback_to_depth(meyer_result.depth1_white, meyer_result.white, 2, 4)
        assert all(len(c) == 2 for c in lam4.classes)

        svg = tmp_path / "w4.svg"
        code, _, _ = run(capsys, "render", MEYER, "--depth", "4", "--side", "w", "--svg", svg)
        assert code == 0
        assert svg.read_text().count("<line") == len(lam4.classes)

    def test_byte_identical_renders(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, "render", MEYER, "--depth", "3", "--svg", a)
        run(capsys, "render", MEYER, "--depth", "3", "--svg", b)
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command", ["unmate", "lamination", "render"])
@pytest.mark.parametrize("target", ["missing_dir", "directory", "empty"])
def test_unwritable_svg_path_exit_two(capsys, tmp_path, command, target):
    path = {"missing_dir": tmp_path / "missing" / "x.svg", "directory": tmp_path, "empty": ""}[target]
    code, out, err = run(capsys, command, MEYER, "--depth", "1", "--svg", path)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


class TestSvgScene:
    def test_empty_scene_outline_only(self):
        from unmating.laminations import AngleClasses

        empty = AngleClasses(depth=1, color="white", grid=1, classes=())
        data = render_svg(SvgScene.from_classes([empty]))
        assert data.count(b"<line") == 0
        assert data.count(b"<circle") == 1

    def test_sides_styled_distinctly(self, meyer_result):
        scene = SvgScene.from_classes(
            [meyer_result.depth1_white, meyer_result.depth1_black]
        )
        data = render_svg(scene).decode()
        assert "#b03030" in data and "#3050b0" in data

    def test_labels_are_fractions(self, meyer_result):
        scene = SvgScene.from_classes([meyer_result.depth1_white])
        data = render_svg(scene).decode()
        assert ">5/24</text>" in data and ">17/24</text>" in data


# JSON trees of the kinds json.dumps accepts; text covers non-ASCII and control characters
json_text = st.text() | st.sampled_from(["", "\x00\x1f\x7f", "\u00e9\u2028", "\U0001f600", '"\\/\t\n'])
json_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=True, allow_infinity=True)
    | json_text
)
json_trees = st.recursive(
    json_scalars,
    lambda kids: st.lists(kids, max_size=5)
    | st.lists(kids, max_size=5).map(tuple)
    | st.dictionaries(json_text, kids, max_size=5),
    max_leaves=40,
)


def _aliasing(leaves):
    return st.recursive(
        st.sampled_from(leaves),  # the objects themselves, not copies
        lambda kids: st.lists(kids, min_size=1, max_size=3)
        | st.dictionaries(st.sampled_from(["k", "sides"]), kids, min_size=1),
        max_leaves=8,
    )


@st.composite
def aliased_trees(draw):
    """A tree in which a few list and tuple objects recur as dict values and
    list items at several levels, one shared list nested in another, beside
    distinct lists of equal contents; dict keys recur at several levels."""
    words = draw(st.lists(json_text, min_size=1, max_size=3))
    shared = [words, tuple(words), list(words), draw(st.lists(json_text, min_size=1, max_size=3))]
    nested = draw(_aliasing(shared))
    return draw(_aliasing(shared + [nested]))


_WORDS = ["1/3", "2/3"]
_NODE = [_WORDS, {"k": _WORDS}]

# per column kind, the value of one row; `shared` is a pool of string lists
# that recur across rows, columns and levels
_COLUMNS = {
    "str": lambda shared: json_text,
    "int": lambda shared: st.integers(),
    "bool": lambda shared: st.booleans(),
    "int or bool": lambda shared: st.integers(-2, 2) | st.booleans(),
    "none": lambda shared: st.none(),
    "float": lambda shared: st.floats(allow_nan=True, allow_infinity=True),
    "empty list": lambda shared: st.just([]),
    "dict": lambda shared: st.dictionaries(json_text, st.integers(), max_size=2),
    "shared strings": lambda shared: st.sampled_from(shared),
    "fresh strings": lambda shared: st.lists(json_text, min_size=1, max_size=3),
    "any": lambda shared: json_scalars | st.sampled_from(shared),
}


@st.composite
def record_lists(draw):
    """A tree holding a list of dicts with one key sequence, the same list
    again one level deeper, and its shared string lists at two other levels;
    at most one row lists its keys in another (rotated) order."""
    shared = draw(st.lists(st.lists(json_text, max_size=3), min_size=1, max_size=3))
    keys = draw(st.lists(json_text, min_size=1, max_size=4, unique=True))
    common = st.sampled_from(["str", "int", "shared strings", "fresh strings"])  # as in the reports
    kinds = [draw(common | st.sampled_from(sorted(_COLUMNS))) for _ in keys]
    rows = [
        {key: draw(_COLUMNS[kind](shared)) for key, kind in zip(keys, kinds)}
        for _ in range(draw(st.integers(1, 5)))
    ]
    if len(keys) > 1 and draw(st.booleans()):
        r, turn = draw(st.integers(0, len(rows) - 1)), draw(st.integers(1, len(keys) - 1))
        rows[r] = {key: rows[r][key] for key in keys[turn:] + keys[:turn]}
    return draw(st.permutations([rows, shared[0], [shared], {"deeper": [rows]}]))


class TestDumps:
    """cli._dumps against its oracle, json.dumps(indent=2)."""

    @given(json_trees)
    def test_matches_json_dumps(self, tree):
        assert _dumps(tree) == json.dumps(tree, indent=2)

    @given(st.lists(json_text, min_size=1, max_size=4))
    def test_string_list_at_several_levels(self, words):
        tree = [words, [words, [words, {"k": words}]], tuple(words), {"k": [words]}]
        assert _dumps(tree) == json.dumps(tree, indent=2)

    @given(aliased_trees())
    @example({"k": _WORDS, "x": [_WORDS, {"k": _WORDS}, _NODE, {"k": _NODE}, list(_WORDS)]})
    def test_shared_objects(self, tree):
        assert _dumps(tree) == json.dumps(tree, indent=2)

    @given(record_lists())
    @example([[{"a": ["1/3"], "b": True}, {"a": ["1/3"], "b": False}]])
    @example([[{"a": 1, "b": ["x"]}, {"b": ["x"], "a": 2}]])
    @example([[{"a": "x", "b": []}, {"a": "y", "b": []}]])
    @example([["1/3"], [{"k": _WORDS, "n": 1}, {"k": _WORDS, "n": 2}], {"deep": [{"k": _WORDS}]}])
    def test_record_lists(self, tree):
        assert _dumps(tree) == json.dumps(tree, indent=2)

    def test_leaves_no_reference_cycle(self):
        # the parts list and the memo must be freed on return, not at a later gc pass
        gc.collect()
        gc.disable()
        try:
            _dumps({"a": [["1/2", "1/3"], ["1/2", "1/3"]], "b": [1, True, None, 0.5]})
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_deep_jordan_report(self, jordan_spec):
        report = run_pipeline(jordan_spec, depth=9).to_json()
        same = _dumps(report) == json.dumps(report, indent=2, default=list)
        assert same  # not the texts themselves: pytest would diff 5.9 MB

    def test_crossings_written_from_columns(self, jordan_spec, monkeypatch):
        """The writer reads a Crossings' columns and builds none of its entries."""
        report = run_pipeline(jordan_spec, depth=6).to_json()
        expected = json.dumps(report, indent=2, default=list)
        assert len(report["laminations"]["moore"]["informational"]) > 2

        def refuse(*args):
            raise AssertionError("a Crossings entry was built")

        monkeypatch.setattr(Crossings, "__getitem__", refuse)
        monkeypatch.setattr(Crossings, "__iter__", refuse)
        same = _dumps(report) == expected
        assert same  # not the texts themselves: pytest's diff of them takes minutes

    def test_moore_report_written_by_identity(self, jordan_spec, monkeypatch):
        """Moore entries share one sides list per value, and the writer spells
        the items of each str or int list once per level, however often the
        list occurs there."""
        report = run_pipeline(jordan_spec, depth=6).to_json()
        moore = report["laminations"]["moore"]
        entries = list(moore["violations"]) + list(moore["informational"])
        assert len(entries) > 2
        assert len({id(e["sides"]) for e in entries}) <= len({tuple(e["sides"]) for e in entries})

        keys, lists, scalars = 0, {}, 0

        def walk(o, level):
            nonlocal keys, scalars
            if type(o) in (str, int):
                scalars += 1
            elif isinstance(o, Crossings):
                for entry in o:  # the entries it reads as, each built anew
                    walk(entry, level + 1)
            elif isinstance(o, dict):
                keys += len(o)
                for value in o.values():
                    walk(value, level + 1)
            elif isinstance(o, (list, tuple)):
                if o and len(set(map(type, o))) == 1 and type(o[0]) in (str, int):
                    lists[level, id(o)] = len(o)
                else:
                    for x in o:
                        walk(x, level + 1)

        walk(report, 0)
        calls = {"key": 0, "value": 0}

        def counting(spell, kind):
            def count(x):
                calls[kind] += 1
                return spell(x)
            return count

        # keys are quoted through cli.quote, strs and ints through the _SPELL table
        monkeypatch.setattr(cli, "quote", counting(cli.quote, "key"))
        monkeypatch.setitem(cli._SPELL, str, counting(cli._SPELL[str], "value"))
        monkeypatch.setitem(cli._SPELL, int, counting(cli._SPELL[int], "value"))
        text = _dumps(report)
        monkeypatch.undo()
        same = text == json.dumps(report, indent=2, default=list)
        assert same
        assert calls["key"] <= keys
        assert calls["value"] <= sum(lists.values()) + scalars


@pytest.mark.parametrize(
    "fixture, sha256",
    [
        (MEYER, "b3510c6e273f3e6bd1e7e413360b06239d6c5ce8c1debd677c89806ac407705e"),
        (JORDAN, "91b05f32dc9de748dac4a06d68d3b261a947c12bd6ced4ac5bad5be9af3def7e"),
    ],
    ids=["meyer", "jordan"],
)
def test_depth9_stdout_bytes(fixture, sha256):
    """The bytes a real process writes to stdout, at a depth the golden file does not reach."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "unmating.cli", "unmate", str(fixture), "--depth", "9"],
        cwd=ROOT, env=env, capture_output=True, check=True, timeout=120,
    ).stdout
    assert hashlib.sha256(out).hexdigest() == sha256


@pytest.mark.parametrize(
    "fixture, overlay, white, black",
    [
        (
            MEYER,
            "b3ed68522ebfeef4f6e895117f003d3cd4169981d1fffbb8b3c3eb8bde2fcb73",
            "0386dc69b5db1184d0ec24212d5854b8a4604ef98c498be5ba7f96ca5a81516c",
            "6fa7ef75a90f60ad98ba27d5f1e17b09f17f42a291bd7a3437d031dfc05e326c",
        ),
        (
            JORDAN,
            "7855a7df01501f46326acc0215fe6a7fe076a2a53b62a62bd0e677edc4d19b2e",
            "d3c3fdd090e42f61093ae482455730ac593cff039932175649a54a871a4de74a",
            "1be307a98d6826abf98dfc74c4e00cbba255f457125ac4d566aabc12a13f384e",
        ),
    ],
    ids=["meyer", "jordan"],
)
def test_depth9_svg_bytes(capsys, tmp_path, fixture, overlay, white, black):
    """The three files of ``unmate --svg``, at a depth the golden file does not reach."""
    code, _, _ = run(capsys, "unmate", fixture, "--depth", "9", "--svg", tmp_path / "out.svg")
    assert code == 0
    digests = [
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("out.svg", "out.white.svg", "out.black.svg")
    ]
    assert digests == [overlay, white, black]


def test_unmate_svg_calls_and_run_state(capsys, tmp_path, monkeypatch):
    """Each pullback depth, scene and file is one call of its entry point, and
    nothing one run leaves behind changes the bytes of the next."""
    from unmating import laminations

    lifted, scenes, written = [], [], []
    step, build, write = laminations.pullback_step, SvgScene.__dict__["from_classes"].__func__, cli.write_svg

    def counting_step(classes, *args):
        lifted.append(classes.color)
        return step(classes, *args)

    def counting_build(cls, *args):
        scenes.append(1)
        return build(cls, *args)

    def counting_write(scene, path):
        written.append((path, write(scene, path)))
        return written[-1][1]

    monkeypatch.setattr(laminations, "pullback_step", counting_step)
    monkeypatch.setattr(SvgScene, "from_classes", classmethod(counting_build))
    monkeypatch.setattr(cli, "write_svg", counting_write)
    assert run(capsys, "unmate", MEYER, "--depth", "4", "--svg", tmp_path / "one.svg")[0] == 0
    monkeypatch.undo()
    assert sorted(lifted) == ["black"] * 3 + ["white"] * 3
    assert len(scenes) == 3
    assert len(written) == 3
    assert all(size == os.path.getsize(path) for path, size in written)

    def outputs(order, folder, fresh=False):
        """stdout and the three files of each fixture's run, in process or each in a new one."""
        out = {}
        for fixture in order:
            svg = tmp_path / folder / f"{fixture.stem}.svg"
            svg.parent.mkdir(exist_ok=True)
            argv = ["unmate", str(fixture), "--depth", "4", "--svg", str(svg)]
            if fresh:
                env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
                stdout = subprocess.run(
                    [sys.executable, "-m", "unmating.cli", *argv],
                    cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120,
                ).stdout
            else:
                code, stdout, _ = run(capsys, *argv)
                assert code == 0
            files = [svg, svg.with_suffix(".white.svg"), svg.with_suffix(".black.svg")]
            out[fixture] = (stdout, [f.read_bytes() for f in files])
        return out

    expected = outputs([MEYER, JORDAN], "fresh", fresh=True)
    assert outputs([MEYER, JORDAN], "a") == expected
    assert outputs([JORDAN, MEYER], "b") == expected


def test_closed_stdout_exit_two():
    """A reader that closes stdout early gets exit 2 and one error line, not a traceback."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "unmating.cli", "unmate", str(JORDAN), "--depth", "8"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(20)) == 20
    proc.stdout.close()  # several MB are still to come
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert err.startswith("error: cannot write stdout: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err


def _exit_table(text, row):
    """{code: stage} of the lines of `text` that the pattern `row` matches,
    with None for a code that names no stage ("-" or "—")."""
    table = {}
    for m in map(re.compile(row).match, text.splitlines()):
        if m:
            table[int(m[1])] = None if m[2] in ("-", "—") else m[2].strip("`")
    return table


@pytest.mark.parametrize("text, row", [
    (cli.__doc__, r"\s{4}(\d)\s+(\S+)\s"),
    ((ROOT / "README.md").read_text(), r"\| `(\d)` \| (\S+) \|"),
], ids=["cli", "readme"])
def test_exit_code_table_follows_errors(text, row):
    """The exit-code tables of the `cli` docstring and of README give each
    code the stage of the error class that exits with it, as `errors` sets
    them; 0 and 1 (success, a failed `validate`) belong to no class.  The
    base `UnmatingError` is never raised, so it has no row and names neither
    a stage nor a code; each subclass names both in its own body."""
    classes = [
        c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, errors.UnmatingError) and c is not errors.UnmatingError
    ]
    base = vars(errors.UnmatingError)
    assert "stage" not in base and "exit_code" not in base
    assert all({"stage", "exit_code"} <= vars(c).keys() for c in classes)
    want = {0: None, 1: None} | {c.exit_code: c.stage for c in classes}
    assert len(want) == 2 + len(classes)  # one code per class
    assert _exit_table(text, row) == want


# mapfile fuzz: mutate a fixture, run it through the CLI, expect an exit code and no traceback

WRONG_TYPED = st.sampled_from([None, True, 2.5, -1, 10**20, "x", "", [], {}, [1, "in"], {"a": 1}])


def _locations(node, path=()):
    """Path of every value below the root of a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _locations(child, path + (key,))


def _at(raw, path):
    for key in path:
        raw = raw[key]
    return raw


# which (parent, value) locations each kind of mutation applies to
MUTATIONS = {
    "retype": lambda parent, value: True,
    "delete": lambda parent, value: isinstance(parent, list),
    "swap": lambda parent, value: len(parent) > 1,
    "tweak": lambda parent, value: isinstance(value, (int, str)) and not isinstance(value, bool),
}


@st.composite
def mutated_mapfiles(draw) -> dict:
    """A fixture with one or two values retyped, list items deleted, siblings
    swapped, or ints and names changed (to a name used elsewhere in the file)."""
    raw = json.loads(draw(st.sampled_from([MEYER, JORDAN])).read_text())
    values = [_at(raw, p) for p in _locations(raw)]
    names = sorted({v for v in values if isinstance(v, str)})
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(sorted(MUTATIONS)))
        fits = MUTATIONS[kind]
        path = draw(st.sampled_from(
            [p for p in _locations(raw) if fits(_at(raw, p[:-1]), _at(raw, p))]
        ))
        parent, key = _at(raw, path[:-1]), path[-1]
        if kind == "retype":
            parent[key] = draw(WRONG_TYPED)
        elif kind == "delete":
            del parent[key]
        elif kind == "swap":
            other = draw(st.sampled_from(list(parent) if isinstance(parent, dict) else range(len(parent))))
            parent[key], parent[other] = parent[other], parent[key]
        elif isinstance(parent[key], int):
            parent[key] += draw(st.integers(-3, 3))
        else:
            parent[key] = draw(st.sampled_from(names + ["zz"]))
    return raw


@given(mutated_mapfiles())
@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_mutated_mapfiles_exit_cleanly(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.json"
        path.write_text(json.dumps(raw))
        for argv in (["validate", str(path)], ["unmate", str(path), "--depth", "2"]):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in range(8), argv
