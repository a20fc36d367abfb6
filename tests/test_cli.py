from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
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

from unmating import cli, errors, parameterize, parse_file, spectral
from unmating.cli import _dumps, main
from unmating.laminations import BLACK, WHITE, AngleClasses, Crossings, pullback_to_depth
from unmating.pipeline import run_pipeline
from unmating.svg import FONT_SIZE, LABEL_RADIUS, SvgScene, angle_text, label_grid, render_svg

from .conftest import JORDAN, MEYER, REVERSED, failing_certificate, meyer_raw, replaced
from .oracles import WorkLimit, svg_text

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

    @pytest.mark.parametrize("command", ["parameters", "unmate", "lamination", "render"])
    @pytest.mark.parametrize("branch", ["-1", "1"])
    def test_branch_checked_before_solving(self, capsys, monkeypatch, command, branch):
        """`_check_branch` is the only branch check: every command that
        solves the parameters refuses a branch outside 0 <= branch < d - 1
        before it solves."""
        def solve(*args):
            raise AssertionError("solved with an unchecked branch")

        monkeypatch.setattr(parameterize, "solve_parameters", solve)
        code, out, err = run(capsys, command, MEYER, "--branch", branch)
        assert (code, out) == (2, "")
        assert err == f"error: --branch {branch} out of range for degree 2 (need 0 <= branch < 1)\n"

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

    @pytest.mark.parametrize("bound", ["limit", "tightest"])
    @pytest.mark.parametrize("fixture", [MEYER, JORDAN], ids=["meyer", "jordan"])
    def test_depth_beyond_work_limit_exit_seven(self, capsys, monkeypatch, fixture, bound):
        """The depth after the deepest one the work limit's rule admits
        exits 7 with the message that names its count, once each side has
        run every step the rule admits.  At the tightest bound that admits
        the same depths, the last step runs at exactly the limit.  README
        gives the cost of Jordan's deepest run, depth 12."""
        from unmating import laminations

        limit = WorkLimit(parse_file(fixture), laminations.MAX_PREIMAGES)
        if bound == "tightest":
            limit = WorkLimit(parse_file(fixture), limit.tightest)
            monkeypatch.setattr(laminations, "MAX_PREIMAGES", limit.bound)
        if fixture == JORDAN:
            assert limit.deepest == 12
        steps = 0
        step = laminations.pullback_step

        def counting(*args):
            nonlocal steps
            steps += 1
            return step(*args)

        monkeypatch.setattr(laminations, "pullback_step", counting)
        depth = limit.deepest + 1
        assert run(capsys, "unmate", fixture, "--depth", depth) == (
            7, "", f"error: {limit.refusal(depth)} (stage: laminations)\n"
        )
        refused = next(i for i, chain in enumerate(limit.chains) if chain[-1].depth < depth)
        assert steps == refused * (depth - 1) + limit.chains[refused][-1].depth - 1

    @pytest.mark.parametrize("bound", ["limit", "tightest"])
    @pytest.mark.parametrize("fixture", [MEYER, JORDAN], ids=["meyer", "jordan"])
    def test_huge_depth_stops_at_work_limit(self, fixture, bound):
        # the limit trips at the deepest depth its rule admits whatever depth
        # is asked for, so a grid sized from the requested depth would show
        # here as a timeout; a tightest bound is set before the CLI runs
        from unmating.laminations import MAX_PREIMAGES

        limit = WorkLimit(parse_file(fixture), MAX_PREIMAGES)
        command = ["-m", "unmating.cli"]
        if bound == "tightest":
            limit = WorkLimit(parse_file(fixture), limit.tightest)
            command = [
                "-c",
                "import sys; from unmating import cli, laminations; "
                "laminations.MAX_PREIMAGES = int(sys.argv.pop(1)); sys.exit(cli.main())",
                str(limit.bound),
            ]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, *command, "unmate", str(fixture), "--depth", "100000000"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 7
        assert proc.stdout == ""
        assert proc.stderr == f"error: {limit.refusal(100000000)} (stage: laminations)\n"

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
        empty = AngleClasses(depth=1, color="white", grid=1, classes=())
        data = render_svg(SvgScene.from_classes([empty], 1))
        assert data.count("<line") == 0
        assert data.count("<circle") == 1

    def test_sides_styled_distinctly(self, meyer_result):
        scene = SvgScene.from_classes([meyer_result.depth1_white, meyer_result.depth1_black], 24)
        data = render_svg(scene)
        assert "#b03030" in data and "#3050b0" in data

    def test_labels_are_fractions(self, meyer_result):
        scene = SvgScene.from_classes([meyer_result.depth1_white], 24)
        data = render_svg(scene)
        assert ">5/24</text>" in data and ">17/24</text>" in data

    @pytest.mark.parametrize("xs", [(1, 4, 9), (0, 2, 5, 11)], ids=["three", "four"])
    def test_polygon_chords_close_at_its_ends(self, xs):
        """A class of three or more angles draws its consecutive chords and one
        closing chord from its first angle to its last, and nothing else."""
        scene = SvgScene.from_classes([AngleClasses(depth=1, color="white", grid=12, classes=(xs,))], 12)
        assert scene.chords == sorted([(a, b, "white") for a, b in zip(xs, xs[1:])] + [(xs[0], xs[-1], "white")])
        assert list(scene.labels) == list(xs)
        assert scene.coords == {x: svg_text(x, 12)[:2] for x in xs}
        assert scene.labels == {x: svg_text(x, 12)[2] for x in xs}

    @pytest.mark.parametrize("side", ["w", "b", "join"])
    def test_cli_scenes_share_one_grid(self, monkeypatch, meyer_result, side):
        """`cli._scene` meets the scene's precondition: the class sets it
        draws share the grid of the run's laminations."""
        seen, build = [], SvgScene.from_classes

        def spy(class_sets, labels):
            seen.append({classes.grid for classes in class_sets})
            return build(class_sets, labels)

        monkeypatch.setattr(SvgScene, "from_classes", spy)
        cli._scene(meyer_result, side)
        assert seen == [{meyer_result.lamination_join.grid}]

    def test_label_grid_keeps_only_its_angles(self):
        """On grid 1/12 with label grid 4, only the multiples of 3 get a label,
        and every chord end keeps its coordinates."""
        scene = SvgScene.from_classes([AngleClasses(depth=1, color="white", grid=12, classes=((1, 4, 9),))], 4)
        assert list(scene.labels) == [9]
        assert scene.coords.keys() == {1, 4, 9}

    @given(
        st.integers(1, 10**6).flatmap(
            lambda grid: st.tuples(
                st.just(grid),
                st.sets(st.integers(0, grid - 1) | st.sampled_from([q * grid // 4 for q in range(4)]), max_size=40),
                st.integers(0, 2**40 - 1),
            )
        )
    )
    @example((4, {0, 1, 2, 3}, 0b1111))
    @example((4, {0, 1, 2, 3}, 0b1010))
    @example((1_000_000, {250_000, 750_000, 999_999}, 0b101))
    def test_batched_text_matches_per_angle_oracle(self, drawn):
        """The batch spells each angle, and the label of each labelled one, as
        the per-angle oracle spells them; ``mask`` picks the labelled angles."""
        grid, xs, mask = drawn
        labelled = [x for i, x in enumerate(sorted(xs)) if mask >> i & 1]
        coords, labels = angle_text(grid, sorted(xs), labelled)
        assert coords.keys() == xs and list(labels) == labelled
        for x in xs:
            assert coords[x] == svg_text(x, grid)[:2], x
        for x in labelled:
            assert labels[x] == svg_text(x, grid)[2], x

    def test_negative_zero_is_written_zero(self):
        """cos(2*pi*3/4) is -1.8e-16, which %.6f spells -0.000000; only such
        whole values become 0.000000, and other negatives keep their sign."""
        assert f"{math.cos(2 * math.pi * (3 / 4)):.6f}" == "-0.000000"
        xs = [3, 4, 9]
        coords, labels = angle_text(12, xs, xs)
        data = render_svg(SvgScene(12, [], labels, coords))
        assert coords[9] == ("0.000000", "-1.000000")
        assert ' x="0.000000" y="-1.100000" ' in labels[9] and labels[9].endswith(">3/4</text>")
        assert coords[4] == ("-0.500000", "0.866025")
        assert "-0.000000" not in data


# a label's height in turns: FONT_SIZE tall at radius LABEL_RADIUS
LABEL_HEIGHT = FONT_SIZE / (2 * math.pi * LABEL_RADIUS)
# the deepest depth L whose grid is still a label apart, and the label count at depth 9
LABELS = {MEYER: (3, 28), JORDAN: (4, 62)}


def test_label_grid():
    """The finest D*d^j, j >= 0, a label's height apart: j = 0 even when D
    itself is finer."""
    assert [label_grid(24, 2), label_grid(8, 2), label_grid(1, 3), label_grid(100, 2)] == [96, 64, 81, 100]
    for grid, degree in [(24, 2), (8, 2), (1, 3), (12, 5), (3, 7)]:
        labels = label_grid(grid, degree)
        assert labels % grid == 0 and 1 / labels >= LABEL_HEIGHT > 1 / (labels * degree)


@pytest.mark.parametrize("depth", range(1, 10))
@pytest.mark.parametrize("fixture", [MEYER, JORDAN], ids=["meyer", "jordan"])
def test_labels_a_reader_can_tell_apart(fixture, depth):
    """The drawings of ``unmate --svg`` at each depth: labels at chord ends
    only, never two closer than a label's height, every depth-1 class angle
    among them, and through depth L every chord end."""
    result = run_pipeline(parse_file(fixture), depth=depth)
    scene = cli._scene(result, "join")
    grid, labels = scene.grid, list(scene.labels)
    ends = {x for a, b, _ in scene.chords for x in (a, b)}
    assert labels == sorted(labels) and set(labels) <= ends
    assert scene.coords.keys() == ends
    gaps = [(b - a) / grid for a, b in zip(labels, labels[1:] + [labels[0] + grid])]
    assert min(gaps) >= LABEL_HEIGHT
    scale = grid // result.pullback.grid
    depth1 = {x * scale for classes in (result.depth1_white, result.depth1_black) for c in classes.classes for x in c}
    assert depth1 <= set(labels)
    deepest, at_nine = LABELS[fixture]
    if depth <= deepest:
        assert set(labels) == ends
    if depth == 9:
        assert len(labels) == at_nine
    for color in (WHITE, BLACK):
        side = scene.side(color)
        side_ends = {x for a, b, _ in side.chords for x in (a, b)}
        assert list(side.labels) == [x for x in labels if x in side_ends]


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


@st.composite
def class_sections(draw):
    """Sections like the report's class lists: lists of string lists drawn
    from one pool, so that one list object recurs within a section, across
    sections and at several levels.  An item may be one that the one-pass
    path does not take: an int list (after string lists), an empty list, a
    tuple, or a word or a dict, which iterate as strings."""
    pool = draw(st.lists(st.lists(json_text, min_size=1, max_size=3), min_size=1, max_size=4))
    odd = (
        st.lists(st.integers(), min_size=1, max_size=2) | st.just([]) | st.sampled_from(pool).map(tuple)
        | json_text | st.dictionaries(json_text, json_text, min_size=1, max_size=2)
    )
    item = st.sampled_from(pool) | st.lists(json_text, min_size=1, max_size=3) | odd
    white, black, join = (draw(st.lists(item, min_size=1, max_size=6)) for _ in range(3))
    return {
        "white": {"classes": white},
        "black": {"classes": black},
        "join": {"classes": join, "again": [white, pool]},
        "deeper": [{"classes": [white, join]}, pool[0]],
    }


class TestDumps:
    """cli._dumps against its oracle, json.dumps(indent=2)."""

    @given(class_sections())
    @example({"classes": [["1/3", "2/3"], [1, 2]]})
    @example({"classes": [["1/3", "2/3"], []]})
    @example({"classes": [["1/3", "2/3"], ("1/6", "5/6")]})
    @example({"classes": [["1/3", "2/3"], "1/6", {"5/6": "1/2"}]})
    @example({"classes": [["\u00e9", "\x00\x1f"], ["\U0001f600", '"\\/\t\n']]})
    @example({"a": [_WORDS, _WORDS], "b": [[_WORDS, [1]], [_WORDS, _WORDS]]})
    def test_class_lists(self, tree):
        assert _dumps(tree) == json.dumps(tree, indent=2)

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
        # the parts list must be freed on return, not at a later gc pass
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

    def test_moore_report_spells_each_class_once(self, jordan_spec, monkeypatch):
        """The writer quotes each key and spells each str or int item once
        where it occurs, and each class text of a `Crossings` once, with the
        one row tail its entries share, however many rows read it."""
        report = run_pipeline(jordan_spec, depth=6).to_json()
        crossings = report["laminations"]["moore"]["informational"]
        cells = sum(map(len, crossings.text))
        assert sum(len(crossings.text[i]) for i in crossings.a + crossings.b) > 2 * cells  # rows share texts

        keys, values = 0, 0

        def walk(o):
            nonlocal keys, values
            if type(o) in (str, int):
                values += 1
            elif isinstance(o, Crossings):
                keys += len(Crossings.KEYS) + 1  # the keys and the note, quoted once
                values += sum(map(len, o.text)) + len(Crossings.SIDES)
            elif isinstance(o, dict):
                keys += len(o)
                for value in o.values():
                    walk(value)
            elif isinstance(o, (list, tuple)):
                for x in o:
                    walk(x)

        walk(report)
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
        assert calls == {"key": keys, "value": values}


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
            "dd8be008037ea4aa1d94bfd36474da7537f009d91bf1217111b9700223971719",
            "e80b257502ece823dae7cbe419114f792120f6059792671a89e21dc914e68143",
            "23e66df24c55e932ec303e401b3be4ad697b1853665eec169877ecfc79b92314",
        ),
        (
            JORDAN,
            "553af651aea293e7e22b054d842c5a7bbdda163d40cf5820649eb54ebe177ab1",
            "d23d3364f0af67331cda1b7f5bb39165795e7a9294d19fc3263bfafe021fb8b5",
            "668433dd7541913394968c55ed2a92ea9fa5682a01f3e5628b9c8ce525304c80",
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


@pytest.mark.parametrize("depth", ["4", "9"])
@pytest.mark.parametrize("fixture", [MEYER, JORDAN], ids=["meyer", "jordan"])
def test_unmate_side_files_are_the_side_renders(capsys, tmp_path, fixture, depth):
    """The per-side files of ``unmate --svg``, cut from its one overlay scene,
    are the bytes ``render`` draws for that side alone: the same chords and
    the same labels."""
    assert run(capsys, "unmate", fixture, "--depth", depth, "--svg", tmp_path / "out.svg")[0] == 0
    code, white, _ = run(capsys, "render", fixture, "--depth", depth, "--side", "w")
    assert code == 0
    assert (tmp_path / "out.white.svg").read_bytes() == white.encode("utf-8")
    assert run(capsys, "render", fixture, "--depth", depth, "--side", "b", "--svg", tmp_path / "b.svg")[0] == 0
    assert (tmp_path / "out.black.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


def test_unmate_svg_calls_and_run_state(capsys, tmp_path, monkeypatch):
    """Each pullback depth and file is one call of its entry point, the run
    builds one scene, and nothing one run leaves behind changes the bytes of
    the next."""
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
    assert len(scenes) == 1
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


def test_svg_labels_spell_no_angle_again(capsys, tmp_path, monkeypatch):
    """``unmate --svg`` spells each label's ``p/q`` with `circle.frac` once,
    for the overlay, whose scene the side files share, and reads no class
    text: the run calls `circle.frac` exactly once more per ``<text`` line
    of the overlay than the same run without ``--svg``, counted through
    every module that imports it."""
    from unmating import circle

    frac = circle.frac
    importers = [
        m for name, m in sorted(sys.modules.items())
        if name.split(".")[0] == "unmating" and getattr(m, "frac", None) is frac
    ]
    assert {"unmating.circle", "unmating.laminations", "unmating.pipeline", "unmating.svg"} <= {
        m.__name__ for m in importers
    }
    calls = []

    def counting(x, grid):
        calls.append(x)
        return frac(x, grid)

    def count(*svg):
        calls.clear()
        with monkeypatch.context() as patch:
            for module in importers:
                patch.setattr(module, "frac", counting)
            assert run(capsys, "unmate", MEYER, "--depth", "4", *svg)[0] == 0
        return len(calls)

    bare = count()
    assert bare > 0
    svg = count("--svg", tmp_path / "out.svg")
    labels = (tmp_path / "out.svg").read_text().count("<text")
    assert labels > 0
    assert svg == bare + labels


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


def _call(argv, stdout=None) -> int:
    """``main(argv)``'s exit code, argparse's ``SystemExit`` included, with
    stdout and stderr captured."""
    with redirect_stdout(stdout or io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return main([str(a) for a in argv])
        except SystemExit as e:
            return e.code


def _broken_pipe():
    """A text stream whose reader is gone: flushing it raises BrokenPipeError."""
    read, write = os.pipe()
    os.close(read)
    return open(write, "w")


class TestCollector:
    """`main` pauses the cyclic collector for the whole call; that is safe
    because a run leaves no reference cycle, whatever its exit."""

    @staticmethod
    def runs(tmp_path):
        """(argv, exit code) over every subcommand, reaching exits 0-3 and 7
        from mapfiles, an unwritable ``--svg`` path included."""
        bad = tmp_path / "malformed.json"
        bad.write_text("{")
        svg, unwritable = tmp_path / "out.svg", tmp_path / "missing" / "x.svg"
        return [
            (["validate", MEYER], 0),
            (["validate", REVERSED], 1),
            (["validate", tmp_path / "does_not_exist.json"], 2),
            (["validate", bad], 2),
            (["matrix", JORDAN], 0),
            (["matrix", bad], 2),
            (["parameters", MEYER], 0),
            (["parameters", MEYER, "--branch", "1"], 2),
            (["parameters", REVERSED], 3),
            (["unmate", MEYER, "--depth", "6", "--svg", svg], 0),
            (["unmate", JORDAN, "--depth", "6"], 0),
            (["unmate", MEYER, "--depth", "2", "--svg", unwritable], 2),
            (["unmate", REVERSED], 3),
            (["unmate", JORDAN, "--depth", "40"], 7),
            (["lamination", JORDAN, "--side", "w", "--svg", svg], 0),
            (["lamination", MEYER, "--svg", unwritable], 2),
            (["lamination", REVERSED], 3),
            (["render", MEYER, "--depth", "4"], 0),
            (["render", JORDAN, "--side", "b", "--svg", svg], 0),
            (["render", MEYER, "--svg", unwritable], 2),
            (["render", MEYER, "--depth", "40"], 7),
        ]

    def test_runs_leave_no_reference_cycle(self, tmp_path, monkeypatch):
        cli.build_parser()  # built once per process; argparse's own garbage is checked below
        gc.collect()
        gc.disable()
        try:
            for argv, code in self.runs(tmp_path):
                assert (_call(argv), gc.collect()) == (code, 0), argv
            for patch, code in [(zero_transition_matrix, 4), (failing_certificate, 6)]:
                with monkeypatch.context() as m:  # no mapfile reaches these stages' exits
                    patch(m)
                    assert (_call(["unmate", MEYER]), gc.collect()) == (code, 0), code
        finally:
            gc.enable()

    @pytest.mark.parametrize("argv", [
        None,  # building the parser
        ["unmate", MEYER, "--depth", "0"],
        ["render", MEYER, "--side", "x"],
        ["matrix"],
    ], ids=["build", "depth", "side", "no-mapfile"])
    def test_argparse_leaves_only_its_formatters(self, argv):
        """argparse leaves its help formatters in cycles when it builds the
        parser and when it rejects the arguments; those, and nothing of
        ours, wait for the collector to be back on."""
        if argv is None:
            cli.build_parser.cache_clear()
        else:
            cli.build_parser()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert _call(argv or ["matrix", MEYER]) == (2 if argv else 0)
            gc.collect()
            assert {"HelpFormatter", "_Section"} <= {type(o).__name__ for o in gc.garbage}
            assert {type(o).__module__ for o in gc.garbage} == {"argparse", "builtins"}
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()

    def test_first_run_starts_no_collector_pass(self, tmp_path):
        """A fresh interpreter's first `main` call, which also builds the
        parser, runs no collector pass through a depth-9 ``unmate --svg``.
        The lowest threshold makes any allocation while the collector is on
        start a pass."""
        script = (
            "import gc, sys\n"
            "from unmating.cli import main\n"
            "starts = []\n"
            "gc.callbacks.append(lambda phase, info: phase == 'start' and starts.append(info))\n"
            "gc.set_threshold(1)\n"
            "code = main(sys.argv[1:])\n"
            "passes = len(starts)  # counted before print allocates\n"
            "print(code, passes, gc.isenabled(), file=sys.stderr)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", script, "unmate", str(MEYER), "--depth", "9", "--svg", str(tmp_path / "o.svg")],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
        )
        assert proc.stderr == "0 0 True\n"
        assert (tmp_path / "o.black.svg").stat().st_size > 0

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("argv, code, broken", [
        (["matrix", MEYER], 0, False),
        (["unmate", MEYER, "--depth", "0"], 2, False),  # argparse's SystemExit
        (["validate", "does_not_exist.json"], 2, False),
        (["unmate", REVERSED], 3, False),
        (["unmate", MEYER, "--depth", "40"], 7, False),
        (["matrix", MEYER], 2, True),
    ], ids=["exit0", "usage", "unreadable", "exit3", "exit7", "broken-pipe"])
    def test_caller_state_survives(self, argv, code, broken, enabled):
        stdout = _broken_pipe() if broken else None
        if not enabled:
            gc.disable()
        try:
            assert _call(argv, stdout) == code
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
            if stdout is not None:
                stdout.close()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd to count descriptors")
    def test_broken_pipe_leaves_no_descriptor_open(self):
        """A broken stdout is pointed at devnull, and the devnull descriptor
        that took its place is closed again."""

        def open_descriptors() -> int:
            return len(os.listdir("/proc/self/fd"))

        before = open_descriptors()
        counts = []
        for _ in range(4):
            stdout = _broken_pipe()
            try:
                assert _call(["matrix", MEYER], stdout) == 2
            finally:
                stdout.close()
            counts.append(open_descriptors())
        assert counts == [before] * 4


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
            assert code in (0, 1, 2, 3, 4, 6, 7), argv
