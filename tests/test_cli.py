from __future__ import annotations

import json

import pytest

from unmating.cli import main
from unmating.laminations import pullback_to_depth
from unmating.svg import SvgScene, render_svg

from .conftest import JORDAN, MEYER, REVERSED, meyer_raw


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
        lam4 = pullback_to_depth(meyer_result.depth1_white, meyer_result.white, 2, 4)
        from unmating.laminations import LeafSet

        svg = tmp_path / "w4.svg"
        code, _, _ = run(capsys, "render", MEYER, "--depth", "4", "--side", "w", "--svg", svg)
        assert code == 0
        assert svg.read_text().count("<line") == len(LeafSet.from_classes(lam4))

    def test_byte_identical_renders(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, "render", MEYER, "--depth", "3", "--svg", a)
        run(capsys, "render", MEYER, "--depth", "3", "--svg", b)
        assert a.read_bytes() == b.read_bytes()


class TestSvgScene:
    def test_empty_scene_outline_only(self):
        from unmating.laminations import AngleClasses

        empty = AngleClasses(depth=1, color="white", classes=())
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
