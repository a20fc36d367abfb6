from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from unmating import cli
from unmating.cli import _dumps, main
from unmating.laminations import pullback_to_depth
from unmating.pipeline import run_pipeline
from unmating.svg import SvgScene, render_svg

from .conftest import JORDAN, MEYER, REVERSED, meyer_raw

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


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

    def test_failed_certificate_exit_six(self, capsys, monkeypatch):
        from unmating import portraits

        certify = portraits.certify

        def failing_c5(portrait, d):
            cert = certify(portrait, d)
            cert["c5"] = {"passed": False, "detail": "periodic participants: 1/3"}
            cert["valid"] = False
            return cert

        monkeypatch.setattr(portraits, "certify", failing_c5)
        code, out, err = run(capsys, "unmate", MEYER)
        assert code == 6
        assert out == ""
        assert "c5 (periodic participants: 1/3)" in err and "(stage: portraits)" in err

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
        same = _dumps(report) == json.dumps(report, indent=2)
        assert same  # not the texts themselves: pytest would diff 5.9 MB

    def test_moore_report_written_by_identity(self, jordan_spec, monkeypatch):
        """Moore entries share one sides list per value, and the writer quotes
        each string list once per level and each dict key once per level."""
        report = run_pipeline(jordan_spec, depth=6).to_json()
        moore = report["laminations"]["moore"]
        entries = moore["violations"] + moore["informational"]
        assert len(entries) > 2
        assert len({id(e["sides"]) for e in entries}) <= len({tuple(e["sides"]) for e in entries})

        keys, lists, scalars = set(), {}, 0

        def walk(o, level):
            nonlocal scalars
            if isinstance(o, str):
                scalars += 1
            elif isinstance(o, dict):
                for key, value in o.items():
                    keys.add((level, key))
                    walk(value, level + 1)
            elif isinstance(o, (list, tuple)):
                if o and all(isinstance(x, str) for x in o):
                    lists[level, id(o)] = len(o)
                else:
                    for x in o:
                        walk(x, level + 1)

        walk(report, 0)
        calls = 0
        real = cli.quote

        def counting(s):
            nonlocal calls
            calls += 1
            return real(s)

        monkeypatch.setattr(cli, "quote", counting)
        text = _dumps(report)
        monkeypatch.undo()
        assert text == json.dumps(report, indent=2)
        assert calls <= len(keys) + sum(lists.values()) + scalars


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
