from __future__ import annotations

import re

import pytest

from unmating.errors import MapfileError
from unmating.mapspec import (
    BLACK,
    WHITE,
    ChordCrossingError,
    chord_diagram,
    critical_vertices,
    faces,
    parse,
    validate,
)

from .conftest import meyer_raw, spec_with


def _container(raw, path):
    """The dict or list that holds the value at `path`."""
    for key in path[:-1]:
        raw = raw[key]
    return raw


class TestParse:
    def test_meyer_fixture_shape(self, meyer_spec):
        assert meyer_spec.degree == 2
        assert meyer_spec.k == 6
        assert meyer_spec.n1 == 12
        assert meyer_spec.post == ("p1", "p2", "p3", "p0")

    def test_word_length_mismatch(self):
        raw = meyer_raw()
        del raw["word1"][11]
        with pytest.raises(MapfileError, match="word length mismatch"):
            parse(raw)

    def test_marker_image_contradiction(self):
        raw = meyer_raw()
        raw["markers"] = [1, 2, 4, 5, 8, 11]  # visit 11 is at p2, marker 5 marks p3
        with pytest.raises(MapfileError, match="marker"):
            parse(raw)

    def test_unknown_edge_reference(self):
        raw = meyer_raw()
        raw["word1"][0]["image_edge"] = "E9"
        with pytest.raises(MapfileError, match="unknown 0-edge"):
            parse(raw)

    def test_duplicate_vertex_id(self):
        raw = meyer_raw()
        raw["vertices1"].append({"id": "c1", "image": "p1"})
        with pytest.raises(MapfileError, match="duplicate"):
            parse(raw)

    def test_malformed_json(self):
        with pytest.raises(MapfileError, match="malformed"):
            parse(b"{not json")

    def test_markers_not_increasing(self):
        raw = meyer_raw()
        raw["markers"] = [2, 1, 4, 5, 8, 10]
        with pytest.raises(MapfileError, match="increasing"):
            parse(raw)

    @pytest.mark.parametrize("key", ["rotation0", "rotation1"])
    @pytest.mark.parametrize("value", [[], "x", 5])
    def test_rotation_not_an_object(self, key, value):
        raw = meyer_raw()
        raw[key] = value
        with pytest.raises(MapfileError, match="malformed"):
            parse(raw)

    @pytest.mark.parametrize(
        "key, index, value", [("post", 1, ["x"]), ("edges0", 0, None)]
    )
    def test_non_string_id(self, key, index, value):
        raw = meyer_raw()
        raw[key][index] = value
        with pytest.raises(MapfileError, match=f"{key} id .* is not a string"):
            parse(raw)

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("degree",), 2.7, "degree 2.7 is not an integer"),
            (("degree",), "2", "degree '2' is not an integer"),
            (("markers",), [1.9, 2, 4, 5, 8, 10], "markers item 1.9 is not an integer"),
            (("markers",), [True, 2, 4, 5, 8, 10], "markers item True is not an integer"),
            (("white_anchor",), [0.5, "left"], "white_anchor [0.5, 'left'] is not an [integer, string] pair"),
            (("white_anchor",), [0, "left", 1], "white_anchor [0, 'left', 1] is not an [integer, string] pair"),
            (("post",), "p1p2p3p0", "post 'p1p2p3p0' is not an array"),
            (("rotation1", "p0"), [[3.0, "in"], [4, "out"], [7, "in"], [8, "out"]],
             "rotation1 dart [3.0, 'in'] is not an [integer, string] pair"),
            (("rotation0", "p1"), [[2, "in"], [3, 0]], "rotation0 dart [3, 0] is not an [integer, string] pair"),
            (("word0", 0, "to"), 5, "word0 id 5 is not a string"),
            (("vertices1", 4), ["c1", "p1"], "vertices1 entry ['c1', 'p1'] is not an object"),
        ],
    )
    def test_wrong_json_type(self, path, value, message):
        raw = meyer_raw()
        _container(raw, path)[path[-1]] = value
        with pytest.raises(MapfileError, match=re.escape(f"malformed mapfile: {message}")):
            parse(raw)

    @pytest.mark.parametrize("path", [("markers",), ("word1", 3, "to")], ids=["top", "entry"])
    def test_missing_key(self, path):
        raw = meyer_raw()
        del _container(raw, path)[path[-1]]
        with pytest.raises(MapfileError, match=f"malformed mapfile: missing key '{path[-1]}'"):
            parse(raw)

    @pytest.mark.parametrize("data", [b"\xff\xfe\x00", b"[" * 100_000], ids=["encoding", "nesting"])
    def test_undecodable_json(self, data):
        with pytest.raises(MapfileError, match="malformed JSON"):
            parse(data)


class TestValidate:
    def test_meyer_fixture_passes(self, meyer_spec):
        report = validate(meyer_spec)
        assert report.passed, [f.check for f in report.findings]

    def test_jordan_fixture_passes(self, jordan_spec):
        assert validate(jordan_spec).passed

    def test_reversed_fails_fully_invariant(self, reversed_spec):
        report = validate(reversed_spec)
        assert not report.passed
        assert "fully invariant condition violated" in [f.check for f in report.findings]

    def test_crossing_chords_fail(self):
        spec = spec_with(
            lambda raw: raw["rotation1"].__setitem__(
                "p0", [[3, "in"], [7, "in"], [4, "out"], [8, "out"]]
            )
        )
        report = validate(spec)
        assert "curve not oriented" in [f.check for f in report.findings]

    def test_vertex_image_inconsistency(self):
        def mutate(raw):
            for v in raw["vertices1"]:
                if v["id"] == "p3":
                    v["image"] = "p1"

        report = validate(spec_with(mutate))
        assert not report.passed
        assert "vertex image inconsistency" in [f.check for f in report.findings]

    def test_riemann_hurwitz(self, meyer_spec):
        # two simple critical vertices: sum of (deg - 1) = 2 = 2d - 2
        crits = critical_vertices(meyer_spec)
        assert sum(c.local_degree - 1 for c in crits) == 2


class TestFaces:
    def test_meyer_level0_euler(self, meyer_spec):
        tiles = faces(meyer_spec, 0)
        assert tiles.n_vertices == 4
        assert tiles.n_edges == 6
        assert tiles.n_faces == 4
        assert tiles.euler == 2

    def test_meyer_level0_colors(self, meyer_spec):
        tiles = faces(meyer_spec, 0)
        colors = [tiles.level_map.colors[f] for f in range(tiles.n_faces)]
        assert colors.count(WHITE) == 3 and colors.count(BLACK) == 1
        # anchor: white on the left of edge position 0
        assert tiles.side_color(0, "left") == WHITE

    def test_meyer_level1_euler_and_checkerboard(self, meyer_spec):
        tiles = faces(meyer_spec, 1)
        assert (tiles.n_vertices, tiles.n_edges, tiles.n_faces) == (6, 12, 8)
        for pos in range(12):
            sides = {tiles.side_color(pos, "left"), tiles.side_color(pos, "right")}
            assert sides == {WHITE, BLACK}

    def test_jordan_level0_two_faces(self, jordan_spec):
        tiles = faces(jordan_spec, 0)
        assert tiles.n_faces == 2
        assert {tiles.side_color(0, "left"), tiles.side_color(0, "right")} == {WHITE, BLACK}

    def test_level1_left_sides_cover_level0_left_sides(self, meyer_spec):
        t0, t1 = faces(meyer_spec, 0), faces(meyer_spec, 1)
        for j in range(meyer_spec.n1):
            assert t1.side_color(j, "left") == t0.side_color(j % meyer_spec.k, "left")


class TestChordDiagram:
    def test_simple_vertex(self, meyer_spec):
        d = chord_diagram(meyer_spec, "p2", 0)
        assert len(d.passages) == 1
        assert len(d.regions) == 2
        assert sorted(r.color for r in d.regions) == [BLACK, WHITE]

    def test_white_critical_vertex(self, meyer_spec):
        d = chord_diagram(meyer_spec, "c1", 1)
        assert len(d.passages) == 2
        assert len(d.regions) == 3
        shared = [r for r in d.regions if len(r.passages) >= 2]
        assert len(shared) == 1 and shared[0].color == WHITE

    def test_black_critical_vertex(self, meyer_spec):
        d = chord_diagram(meyer_spec, "c2", 1)
        shared = [r for r in d.regions if len(r.passages) >= 2]
        assert len(shared) == 1 and shared[0].color == BLACK
        # the other two regions each border only one passage
        singles = [r for r in d.regions if len(r.passages) == 1]
        assert len(singles) == 2 and all(r.color == WHITE for r in singles)

    def test_regions_count(self, meyer_spec):
        for v in ("p2", "p3", "p0", "p1", "c1", "c2"):
            d = chord_diagram(meyer_spec, v, 1)
            assert len(d.regions) == len(d.passages) + 1

    def test_crossing_chords_error(self):
        spec = spec_with(
            lambda raw: raw["rotation1"].__setitem__(
                "p0", [[3, "in"], [7, "in"], [4, "out"], [8, "out"]]
            )
        )
        with pytest.raises(ChordCrossingError, match="unlacing does not exist"):
            chord_diagram(spec, "p0", 1)

    def test_nested_visits_share_black_region(self, meyer_spec):
        # c2's passages meet through the exterior: black connection, no white one
        d = chord_diagram(meyer_spec, "c2", 1)
        colors = {r.color for r in d.regions if len(r.passages) >= 2}
        assert colors == {BLACK}


class TestCriticalVertices:
    def test_meyer_criticals(self, meyer_spec):
        crits = {c.vertex: c for c in critical_vertices(meyer_spec)}
        assert set(crits) == {"c1", "c2"}
        assert crits["c1"].colors == (WHITE,)
        assert crits["c2"].colors == (BLACK,)
        assert crits["c1"].local_degree == crits["c2"].local_degree == 2
        assert crits["c1"].visits == (3, 9)
        assert crits["c2"].visits == (0, 6)

    def test_jordan_criticals(self, jordan_spec):
        crits = {c.vertex: c for c in critical_vertices(jordan_spec)}
        assert set(crits) == {"o", "b"}
        assert crits["b"].colors == (WHITE,)
        assert crits["o"].colors == (BLACK,)

    def test_degree_two_forces_simple_criticals(self, meyer_spec, jordan_spec):
        for spec in (meyer_spec, jordan_spec):
            for c in critical_vertices(spec):
                assert c.local_degree == 2

    def test_non_integral_local_degree_flagged(self):
        # move one pullback visit so a vertex covers a doubly-visited post once
        spec = spec_with(lambda raw: raw["word1"][10].__setitem__("to", "p3"))
        report = validate(spec)
        assert "local degree not integral" in [f.check for f in report.findings]


class TestCoveringStructure:
    """The level-1 rotations must cover the level-0 rotations: reading the
    image of each dart around a 1-vertex gives the image vertex's rotation
    repeated local-degree times."""

    @staticmethod
    def image_dart(spec, dart):
        pos, end = dart
        return (pos % spec.k, end)

    def rotation_covers(self, spec, vertex):
        from unmating.mapspec import local_degree

        image = spec.vertices1[vertex]
        upstairs = [self.image_dart(spec, d) for d in spec.rotation1[vertex]]
        downstairs = list(spec.rotation0[image])
        deg = local_degree(spec, vertex)
        assert len(upstairs) == deg * len(downstairs)
        doubled = downstairs * deg
        return any(
            upstairs == doubled[i:] + doubled[:i] for i in range(len(doubled))
        )

    def test_all_vertices_cover(self, meyer_spec, jordan_spec):
        for spec in (meyer_spec, jordan_spec):
            for v in spec.vertex_order:
                assert self.rotation_covers(spec, v), v


class TestAnchorSymmetry:
    def test_flipping_anchor_swaps_colors(self):
        from unmating.pipeline import run_pipeline

        flipped = spec_with(lambda raw: raw.__setitem__("white_anchor", [0, "right"]))
        assert validate(flipped).passed
        result = run_pipeline(flipped)
        # the roles of the two polynomials swap with the orientation choice
        assert [[str(a) for a in s.angles] for s in result.white.sets] == [["1/24", "13/24"]]
        assert [[str(a) for a in s.angles] for s in result.black.sets] == [["5/24", "17/24"]]
        assert result.white.certificate["valid"] and result.black.certificate["valid"]


class TestRobustness:
    """validate() must classify, not crash, on scrambled embedding data."""

    def test_rotation_scrambles_never_crash(self):
        import itertools
        import json as _json

        from .conftest import meyer_raw
        from unmating.mapspec import parse

        raw0 = meyer_raw()
        scrambled = 0
        for vertex in ("p3", "p0", "c1", "c2", "p2", "p1"):
            rot = raw0["rotation1"][vertex]
            for perm in itertools.permutations(rot):
                raw = _json.loads(_json.dumps(raw0))
                raw["rotation1"][vertex] = [list(p) for p in perm]
                report = validate(parse(raw))
                assert isinstance(report.passed, bool)
                scrambled += 1
        assert scrambled > 0

    def test_missing_level0_rotation_is_reported(self):
        # the level-1 coloring inherits its anchor from level 0, so it fails too
        for vertex in ("p1", "p2", "p3", "p0"):
            report = validate(spec_with(lambda raw: raw["rotation0"].pop(vertex)))
            checks = [f.check for f in report.findings]
            assert checks == ["rotation system incomplete", "not checkerboard-colorable"]

    def test_word_rewrites_never_crash(self):
        import json as _json

        from .conftest import meyer_raw
        from unmating.errors import MapfileError
        from unmating.mapspec import parse

        raw0 = meyer_raw()
        names = ["c1", "c2", "p0", "p1", "p2", "p3"]
        for j in range(12):
            for name in names:
                raw = _json.loads(_json.dumps(raw0))
                raw["word1"][j]["to"] = name
                try:
                    spec = parse(raw)
                except MapfileError:
                    continue
                report = validate(spec)
                assert isinstance(report.passed, bool)


class TestRoundTrip:
    def test_mapfile_reserialization(self, meyer_spec, tmp_path):
        import json as _json

        from .conftest import MEYER
        from unmating.mapspec import parse

        raw = _json.loads(MEYER.read_text())
        again = parse(_json.dumps(raw).encode())
        assert again == meyer_spec
