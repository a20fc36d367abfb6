from __future__ import annotations

import json
import re
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unmating import mapspec
from unmating.circle import frac
from unmating.errors import MapfileError, ValidationFailure
from unmating.mapspec import (
    BLACK,
    WHITE,
    chord_diagram,
    critical_vertices,
    faces,
    parse,
    validate,
)
from unmating.pipeline import run_pipeline

from .conftest import JORDAN, MEYER, census_spec, meyer_raw, spec_with
from .oracles import euler_count


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
        crits = _criticals(meyer_spec)
        assert sum(c.local_degree - 1 for c in crits) == 2

    @pytest.mark.parametrize("path", [MEYER, JORDAN], ids=["meyer", "jordan"])
    @given(data=st.data())
    def test_full_invariance_covers_each_edge_d_times(self, path, data):
        # permute some word1 image labels and set a few to any 0-edge: parse
        # makes word0 traverse each 0-edge once, so labels that still read
        # word0 d times label each 0-edge at exactly d positions
        raw = json.loads(path.read_text())
        word1, positions = raw["word1"], range(len(raw["word1"]))
        labels = [w["image_edge"] for w in word1]
        moved = data.draw(st.lists(st.sampled_from(positions), unique=True))
        for j, i in zip(sorted(moved), data.draw(st.permutations(moved))):
            word1[j]["image_edge"] = labels[i]
        reassign = st.tuples(st.sampled_from(positions), st.sampled_from(raw["edges0"]))
        for j, edge in data.draw(st.lists(reassign, max_size=3)):
            word1[j]["image_edge"] = edge
        spec = parse(raw)
        if "fully invariant condition violated" not in [f.check for f in validate(spec).findings]:
            counts = Counter(w.image_edge for w in spec.word1)
            assert counts == {w.edge: spec.degree for w in spec.word0}


def _criticals(spec):
    levels = validate(spec).levels
    return critical_vertices(spec, levels[0], levels[1])


def _left(lm, pos):
    return lm.colors[lm.left_face(pos)]


def _right(lm, pos):
    return lm.colors[lm.right_face(pos)]


class TestFaces:
    def test_meyer_level0_euler(self, meyer_spec):
        lm = faces(meyer_spec, 0)
        assert len(lm.rotations) == 4
        assert lm.n_edges == 6
        assert len(lm.faces) == 4
        assert len(lm.rotations) - lm.n_edges + len(lm.faces) == 2

    def test_meyer_level0_colors(self, meyer_spec):
        lm = faces(meyer_spec, 0)
        assert lm.colors.count(WHITE) == 3 and lm.colors.count(BLACK) == 1
        # anchor: white on the left of edge position 0
        assert _left(lm, 0) == WHITE

    def test_meyer_level1_euler_and_checkerboard(self, meyer_spec):
        lm = faces(meyer_spec, 1)
        assert (len(lm.rotations), lm.n_edges, len(lm.faces)) == (6, 12, 8)
        for pos in range(12):
            assert {_left(lm, pos), _right(lm, pos)} == {WHITE, BLACK}

    def test_jordan_level0_two_faces(self, jordan_spec):
        lm = faces(jordan_spec, 0)
        assert len(lm.faces) == 2
        assert {_left(lm, 0), _right(lm, 0)} == {WHITE, BLACK}

    def test_level1_left_sides_cover_level0_left_sides(self, meyer_spec):
        lm0, lm1 = faces(meyer_spec, 0), faces(meyer_spec, 1)
        for j in range(meyer_spec.n1):
            assert _left(lm1, j) == _left(lm0, j % meyer_spec.k)

    @pytest.mark.parametrize("fixture", ["meyer_spec", "jordan_spec"])
    def test_pipeline_builds_and_colors_each_level_once(self, monkeypatch, request, fixture):
        spec = request.getfixturevalue(fixture)
        multi = sum(len(js) >= 2 for js in faces(spec, 1).visits.values())  # 6 on Meyer, 2 on Jordan
        calls = {"_visit_index": 0, "_build_level": 0, "_two_color": 0, "chord_diagram": 0}
        for name in calls:
            original = getattr(mapspec, name)

            def counted(*args, _original=original, _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(mapspec, name, counted)
        run_pipeline(spec, depth=2)
        # one visit index per level, and one chord diagram per level-1 vertex of two or more visits
        assert calls == {"_visit_index": 2, "_build_level": 2, "_two_color": 2, "chord_diagram": multi}

    def test_invalid_spec_has_no_faces(self, reversed_spec):
        with pytest.raises(ValidationFailure, match="fully invariant condition violated"):
            faces(reversed_spec, 0)


class TestChordDiagram:
    """chord_diagram lists each region as (color, visits bordering it)."""

    def test_simple_vertex(self, meyer_spec):
        lm = faces(meyer_spec, 0)
        regions = chord_diagram(lm, "p2")
        assert len(lm.visits["p2"]) == 1
        assert len(regions) == 2
        assert sorted(color for color, _ in regions) == [BLACK, WHITE]

    def test_white_critical_vertex(self, meyer_spec):
        lm = faces(meyer_spec, 1)
        regions = chord_diagram(lm, "c1")
        assert len(lm.visits["c1"]) == 2
        assert len(regions) == 3
        shared = [r for r in regions if len(r[1]) >= 2]
        assert shared == [(WHITE, (3, 9))]

    def test_black_critical_vertex(self, meyer_spec):
        regions = chord_diagram(faces(meyer_spec, 1), "c2")
        shared = [r for r in regions if len(r[1]) >= 2]
        assert shared == [(BLACK, (0, 6))]
        # the other two regions each border only one visit
        singles = [r for r in regions if len(r[1]) == 1]
        assert len(singles) == 2 and all(color == WHITE for color, _ in singles)
        assert sorted(visits for _, visits in singles) == [(0,), (6,)]

    def test_regions_count(self, meyer_spec):
        lm = faces(meyer_spec, 1)
        for v in ("p2", "p3", "p0", "p1", "c1", "c2"):
            assert len(chord_diagram(lm, v)) == len(lm.visits[v]) + 1

    def test_nested_visits_share_black_region(self, meyer_spec):
        # c2's visits meet through the exterior: black connection, no white one
        regions = chord_diagram(faces(meyer_spec, 1), "c2")
        colors = {color for color, visits in regions if len(visits) >= 2}
        assert colors == {BLACK}

    def test_every_visit_borders_two_regions(self, meyer_spec, jordan_spec):
        # a chord splits the disk: the regions on its two sides both border it
        for spec in (meyer_spec, jordan_spec):
            for lm in (faces(spec, 0), faces(spec, 1)):
                for v, visits in lm.visits.items():
                    bordered = [j for _, border in chord_diagram(lm, v) for j in border]
                    assert sorted(bordered) == sorted(visits * 2), (lm.level, v)


class TestCriticalVertices:
    def test_meyer_criticals(self, meyer_spec):
        crits = {c.vertex: c for c in _criticals(meyer_spec)}
        assert set(crits) == {"c1", "c2"}
        assert crits["c1"].colors == (WHITE,)
        assert crits["c2"].colors == (BLACK,)
        assert crits["c1"].local_degree == crits["c2"].local_degree == 2
        assert crits["c1"].visits == (3, 9)
        assert crits["c2"].visits == (0, 6)
        connections = faces(meyer_spec, 1).connections
        assert connections["c1"] == ((WHITE, (3, 9)),)
        assert connections["c2"] == ((BLACK, (0, 6)),)

    def test_builds_no_chord_diagram(self, monkeypatch, meyer_spec, jordan_spec):
        # the colors are read off the level-1 map's connections
        for spec in (meyer_spec, jordan_spec):
            levels = validate(spec).levels
            with monkeypatch.context() as m:
                m.setattr(mapspec, "chord_diagram", None)
                crits = critical_vertices(spec, levels[0], levels[1])
            for c in crits:
                assert c.colors == tuple(sorted({color for color, _ in levels[1].connections[c.vertex]}))

    def test_jordan_criticals(self, jordan_spec):
        crits = {c.vertex: c for c in _criticals(jordan_spec)}
        assert set(crits) == {"o", "b"}
        assert crits["b"].colors == (WHITE,)
        assert crits["o"].colors == (BLACK,)

    def test_degree_two_forces_simple_criticals(self, meyer_spec, jordan_spec):
        for spec in (meyer_spec, jordan_spec):
            for c in _criticals(spec):
                assert c.local_degree == 2

    def test_non_integral_local_degree_flagged(self):
        # move one pullback visit so a vertex covers a doubly-visited post once
        spec = spec_with(lambda raw: raw["word1"][10].__setitem__("to", "p3"))
        report = validate(spec)
        assert "local degree not integral" in [f.check for f in report.findings]


class TestConnections:
    """The level-1 map keeps the connections of each vertex with two or more
    visits, read off its chord diagram once by validation."""

    @pytest.mark.parametrize("case", ["meyer", "meyer-flipped", "jordan", "jordan-flipped"])
    def test_identifications_follow_euler(self, request, case):
        # at a vertex of m visits the m chords and the m + 1 regions form a
        # tree, so its connections identify m - 1 pairs; the sum over the
        # vertices is Euler's F0*d - 2
        spec = census_spec(request, case)
        connections = faces(spec, 1).connections
        identified = sum(len(visits) - 1 for regions in connections.values() for _, visits in regions)
        assert identified == euler_count(spec, 1) == {"meyer": 6, "jordan": 2}[case.split("-")[0]]

    @pytest.mark.parametrize("fixture", ["meyer", "jordan"])
    def test_kept_for_every_multi_visit_vertex_of_level_one_only(self, request, fixture):
        spec = request.getfixturevalue(f"{fixture}_spec")
        assert faces(spec, 0).connections is None
        lm = faces(spec, 1)
        assert set(lm.connections) == {v for v, js in lm.visits.items() if len(js) >= 2}
        for v, regions in lm.connections.items():
            assert regions == tuple(r for r in chord_diagram(lm, v) if len(r[1]) >= 2)

    def test_rejected_spec_builds_no_chord_diagram(self, monkeypatch, reversed_spec):
        # only a validated map is read; faces() raises for any other
        monkeypatch.setattr(mapspec, "chord_diagram", None)
        report = validate(reversed_spec)
        assert not report.passed and report.levels[1].connections is None

    def test_meyer_non_critical_white_connections(self, meyer_spec, meyer_result):
        s, grid = meyer_result.pullback.s, meyer_result.pullback.grid
        connections = faces(meyer_spec, 1).connections
        assert {
            v: [(color, [frac(s[j], grid) for j in visits]) for color, visits in connections[v]]
            for v in ("p0", "p1", "p2", "p3")
        } == {
            "p0": [(WHITE, ["1/3", "2/3"])],
            "p1": [(WHITE, ["5/12", "7/12"])],
            "p2": [(WHITE, ["1/12", "11/12"])],
            "p3": [(WHITE, ["1/6", "5/6"])],
        }

    def test_jordan_multi_visit_vertices_are_its_criticals(self, jordan_spec):
        # so its depth 1, which reads the critical vertices, is exact
        assert set(faces(jordan_spec, 1).connections) == {c.vertex for c in _criticals(jordan_spec)} == {"b", "o"}


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
        deg = local_degree(spec, vertex, faces(spec, 0).visits, faces(spec, 1).visits)
        assert len(upstairs) == deg * len(downstairs)
        doubled = downstairs * deg
        return any(
            upstairs == doubled[i:] + doubled[:i] for i in range(len(doubled))
        )

    def test_all_vertices_cover(self, meyer_spec, jordan_spec):
        for spec in (meyer_spec, jordan_spec):
            for v in spec.vertices1:
                assert self.rotation_covers(spec, v), v


class TestAnchorSymmetry:
    def test_flipping_anchor_swaps_colors(self):
        from unmating.pipeline import run_pipeline

        flipped = spec_with(lambda raw: raw.__setitem__("white_anchor", [0, "right"]))
        assert validate(flipped).passed
        result = run_pipeline(flipped)
        # the roles of the two polynomials swap with the orientation choice
        white, black = result.to_json()["white"], result.to_json()["black"]
        assert white["sets"] == [["1/24", "13/24"]]
        assert black["sets"] == [["5/24", "17/24"]]
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

    def test_scrambled_colorings_are_checkerboards(self):
        # a colored level separates white from black along every edge; the
        # faces of a plane Eulerian map are 2-colorable, so a level that
        # passes the Euler check is colored
        import itertools

        colored = refused = 0
        for vertex, rot in meyer_raw()["rotation1"].items():
            for perm in itertools.permutations(rot):
                report = validate(spec_with(lambda raw: raw["rotation1"].__setitem__(vertex, list(perm))))
                checks = {f.check for f in report.findings}
                for lm in report.levels.values():
                    assert all(_left(lm, pos) != _right(lm, pos) for pos in range(lm.n_edges))
                if 1 in report.levels:
                    colored += 1
                else:
                    assert "Euler formula violated" in checks, (vertex, perm)
                    refused += 1
        assert colored > 0 and refused > 0

    @pytest.mark.parametrize("mutate, vertices", [
        # c1 and c2 trade an in-dart
        (lambda rot: (rot["c1"].__setitem__(0, [11, "in"]), rot["c2"].__setitem__(1, [2, "in"])), ["c1", "c2"]),
        (lambda rot: rot["p1"].append([4, "in"]), ["p1"]),
    ], ids=["traded_in_darts", "repeated_dart"])
    def test_misplaced_darts_are_named(self, mutate, vertices):
        report = validate(spec_with(lambda raw: mutate(raw["rotation1"])))
        assert [(f.check, f.detail) for f in report.findings] == [
            ("rotation system incomplete", f"level 1: rotation at {v!r} does not list its edge-ends exactly once")
            for v in vertices
        ]

    def test_rotation_for_unused_vertex_is_named(self):
        report = validate(spec_with(lambda raw: raw["rotation1"].__setitem__("zz", [])))
        assert [f.detail for f in report.findings] == ["level 1: rotation for unused vertex 'zz'"]

    def test_missing_level0_rotation_is_reported(self):
        # the level-1 coloring inherits its anchor from level 0, so it fails too
        for vertex in ("p1", "p2", "p3", "p0"):
            report = validate(spec_with(lambda raw: raw["rotation0"].pop(vertex)))
            assert [(f.check, f.detail) for f in report.findings] == [
                ("rotation system incomplete", f"level 0: no rotation for vertex {vertex!r}"),
                ("not checkerboard-colorable", "level 1 is uncolored because level 0 has no coloring"),
            ]

    def test_uncolorable_level1_is_named(self):
        # level 0 is colored; the scrambled rotation at p3 leaves level 1 an odd face cycle
        scramble = [[1, "in"], [2, "out"], [10, "out"], [9, "in"]]
        report = validate(spec_with(lambda raw: raw["rotation1"].__setitem__("p3", scramble)))
        assert 0 in report.levels
        assert [(f.check, f.detail) for f in report.findings] == [
            ("Euler formula violated", "level 1: V-E+F = 6-12+6"),
            ("not checkerboard-colorable", "level 1 tiles admit no 2-coloring"),
        ]

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
