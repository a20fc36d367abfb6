from __future__ import annotations

import json
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from unmating import laminations
from unmating.circle import crossing_keys
from unmating.cli import _dumps
from unmating.errors import LaminationError
from unmating.laminations import (
    MAX_PREIMAGES,
    AngleClasses,
    Crossings,
    _canon,
    check_planar,
    depth1,
    join,
    merge_tagged,
    moore_check,
    pullback_to_depth,
)
from unmating.mapspec import critical_vertices, faces
from unmating.pipeline import run_pipeline
from unmating.portraits import CriticalPortrait, PreargumentSet, sectors
from unmating.svg import SvgScene

from .conftest import replaced, spec_with
from .oracles import (
    as_fractions,
    brute_force_pullback,
    kneading_classes,
    linked_pairs_by_scan,
    merge_overlapping,
    moore_by_scan,
    p_q,
    pullback_by_relift,
    vertex_census,
)

F = Fraction


def classes(depth, color, *sets, grid=None) -> AngleClasses:
    """Classes of the given Fractions, on their least common grid unless one is given."""
    if grid is None:
        grid = lcm(*(a.denominator for s in sets for a in s))
    return AngleClasses(depth, color, grid, _canon({int(a * grid) for a in s} for s in sets))


def crossing_pairs(family) -> list[tuple[int, int]]:
    """The index pairs i < j of crossing classes, in order, decoded from `crossing_keys`."""
    keys, n = crossing_keys(family)
    return [divmod(key, n) for key in keys]


def chord_count(lam: AngleClasses) -> int:
    return len(SvgScene.from_classes([lam]).chords)


def portrait(color, grid, *angle_sets) -> CriticalPortrait:
    """A portrait whose sets hold the angles x/grid, given as the integers x."""
    return CriticalPortrait(color=color, grid=grid, sets=[PreargumentSet.of(s) for s in angle_sets])


def brute_force(classes: AngleClasses, p: CriticalPortrait, d: int):
    return brute_force_pullback(classes, sectors(p, d), p.grid, d)


MEYER_WHITE = portrait("white", 24, [5, 17])


def relift_start(request, case: str) -> tuple[AngleClasses, CriticalPortrait]:
    """Depth-1 classes and their portrait: a side of a fixture, or a hand-built portrait."""
    if case == "critical-value-square":
        return classes(1, "white", [F(0), F(1, 2)]), portrait("white", 2, [0, 1])
    if case == "boundary-preimages":
        return classes(1, "white", [F(0), F(1, 3)]), portrait("white", 2, [0, 1])
    if case == "empty":
        return classes(1, "white"), MEYER_WHITE
    name, color = case.rsplit("-", 1)
    if name == "meyer-flipped":
        flipped = spec_with(lambda raw: raw.__setitem__("white_anchor", [0, "right"]))
        result = run_pipeline(flipped, depth=1)
    else:
        result = request.getfixturevalue(f"{name}_result")
    return getattr(result, f"depth1_{color}"), getattr(result, color)


def fixture_degree(request, case: str) -> int:
    """The degree of the fixture a case names; flipping the anchor keeps it."""
    return request.getfixturevalue(f"{case.split('-')[0]}_spec").degree


class TestAngleClasses:
    @given(
        st.integers(1, 200).flatmap(
            lambda grid: st.tuples(
                st.just(grid),
                st.lists(st.frozensets(st.integers(0, grid - 1), min_size=1, max_size=5), max_size=6),
            )
        )
    )
    def test_round_trip_and_text(self, grid_sets):
        grid, sets = grid_sets
        lam = AngleClasses(1, "white", grid, _canon(sets))
        expected = {tuple(sorted(s)) for s in sets}
        assert set(lam.classes) == expected and len(lam.classes) == len(expected)
        fractions = as_fractions(lam)
        assert list(fractions) == sorted(fractions, key=lambda c: (c[0], len(c), c))
        assert lam.text() == [[p_q(f) for f in c] for c in fractions]
        table: dict = {}
        assert lam.text(table) == lam.text() == lam.text(table)

    @pytest.mark.parametrize("fixture", ["meyer_result", "jordan_result"])
    def test_lifting_builds_no_fraction(self, request, monkeypatch, fixture):
        result = request.getfixturevalue(fixture)
        built = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(1)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        white = pullback_to_depth(result.depth1_white, result.white, 2, 6)
        black = pullback_to_depth(result.depth1_black, result.black, 2, 6)
        moore_check(join(white, black))
        monkeypatch.undo()
        assert len(built) == 0


class TestTextTable:
    """A run spells each class once: its Moore report and JSON sections read
    one table of `AngleClasses.text` lists."""

    def test_join_lists_are_the_side_lists(self, meyer_result):
        laminations = meyer_result.to_json()["laminations"]
        sides = {
            tuple(words): words
            for side in ("white", "black")
            for words in laminations[side]["classes"]
        }
        joined = laminations["join"]["classes"]
        assert joined and len(joined) == len(sides)  # Meyer's join merges nothing
        for words in joined:
            assert words is sides[tuple(words)]

    def test_moore_entries_read_the_table(self, meyer_result):
        laminations = meyer_result.to_json()["laminations"]
        ids = {id(words) for words in laminations["join"]["classes"]}
        entries = laminations["moore"]["informational"]
        assert entries and all(id(e["a"]) in ids and id(e["b"]) in ids for e in entries)

    def test_runs_share_no_list(self, meyer_spec):
        first, second = (run_pipeline(meyer_spec, depth=3).to_json() for _ in range(2))
        assert first["laminations"]["moore"]["informational"]  # the walk reaches Moore's sides lists

        def list_ids(o) -> set[int]:
            if isinstance(o, dict):
                return set().union(*map(list_ids, o.values()))
            if isinstance(o, list):
                return {id(o)}.union(*map(list_ids, o))
            if isinstance(o, Crossings):  # its columns, the class texts and each sides list
                return {id(o.a), id(o.b), id(o.text), id(o.sides)}.union(*map(list_ids, o.text), *map(list_ids, o.sides))
            return set()

        assert first == second
        assert not list_ids(first) & list_ids(second)


class TestDepth1:
    def test_meyer_matches_portraits(self, meyer_spec, meyer_result):
        criticals = critical_vertices(meyer_spec, faces(meyer_spec, 0), faces(meyer_spec, 1))
        white, black = depth1(meyer_result.pullback, criticals)
        assert white.classes == ((5, 17),)
        assert black.classes == ((1, 13),)
        assert white.grid == black.grid == 24

    def test_jordan_matches_portraits(self, jordan_spec, jordan_result):
        criticals = critical_vertices(jordan_spec, faces(jordan_spec, 0), faces(jordan_spec, 1))
        white, black = depth1(jordan_result.pullback, criticals)
        assert as_fractions(white) == ((F(1, 4), F(3, 4)),)
        assert as_fractions(black) == ((F(1, 8), F(5, 8)),)
        assert white.grid == black.grid == 8


class TestPullbackStep:
    def test_meyer_depth2_white(self, meyer_result):
        step = pullback_to_depth(meyer_result.depth1_white, meyer_result.white, 2, 2)
        assert step.grid == 48
        assert step.classes == ((5, 41), (10, 34), (17, 29))

    def test_empty_fixed_point(self):
        empty = classes(1, "white")
        step = pullback_to_depth(empty, MEYER_WHITE, 2, 2)
        assert step.classes == ()
        assert step.grid == 24  # the portrait's grid is finer than 1/(2*1)
        assert step.depth == 2

    def test_matches_brute_force_to_depth_six(self, meyer_result, jordan_result):
        for result in (meyer_result, jordan_result):
            for cls, p in (
                (result.depth1_white, result.white),
                (result.depth1_black, result.black),
            ):
                cur = cls
                for _ in range(5):  # depths 2..6
                    nxt = pullback_to_depth(cur, p, 2, cur.depth + 1)
                    assert as_fractions(nxt) == brute_force(cur, p, 2), (p.color, cur.depth)
                    cur = nxt

    def test_planar_at_all_depths(self, meyer_result):
        cur = meyer_result.depth1_white
        for _ in range(5):
            cur = pullback_to_depth(cur, meyer_result.white, 2, cur.depth + 1)
            assert check_planar(cur.classes) is None

    def test_leaf_counts_nondecreasing(self, meyer_result):
        counts = []
        cur = meyer_result.depth1_white
        for _ in range(5):
            counts.append(chord_count(cur))
            cur = pullback_to_depth(cur, meyer_result.white, 2, cur.depth + 1)
        counts.append(chord_count(cur))
        assert counts == sorted(counts)

    def test_forward_compatibility(self, meyer_result):
        # each deeper class maps into a class or a single angle one level down
        prev = meyer_result.depth1_white
        for _ in range(5):
            cur = pullback_to_depth(prev, meyer_result.white, 2, prev.depth + 1)
            prev_sets = [set(c) for c in as_fractions(prev)]
            for c in as_fractions(cur):
                image = {2 * a % 1 for a in c}
                ok = len(image) == 1 or any(image <= s for s in prev_sets)
                assert ok, (prev.depth, c)
            prev = cur

    def test_critical_value_lift_merges_to_polygon(self):
        # a class through the critical value lifts to the full preimage square
        p = portrait("white", 2, [0, 1])
        start = classes(1, "white", [F(0), F(1, 2)])
        step = pullback_to_depth(start, p, 2, 2)
        assert as_fractions(step) == ((F(0), F(1, 4), F(1, 2), F(3, 4)),)

    def test_boundary_preimages_lie_in_both_sectors(self):
        # 0 and 1/2 bound both closed sectors, so both lifts of {0, 1/3} hold them
        p = portrait("white", 2, [0, 1])
        step = pullback_to_depth(classes(1, "white", [F(0), F(1, 3)]), p, 2, 2)
        assert as_fractions(step) == ((F(0), F(1, 6), F(1, 3), F(1, 2), F(2, 3)),)

    def test_color_mismatch_rejected(self, meyer_result):
        with pytest.raises(LaminationError, match="cannot lift"):
            pullback_to_depth(meyer_result.depth1_white, meyer_result.black, 2, 2)

    def test_work_limit_admits_depth_twelve_only(self, meyer_result):
        # the last step to depth n lifts 2 * (2^n - 2) angles on this fixture
        deepest = pullback_to_depth(meyer_result.depth1_white, meyer_result.white, 2, 12)
        assert 2 * sum(map(len, deepest.classes)) == 16380 > MAX_PREIMAGES
        with pytest.raises(LaminationError, match="depth 13 is beyond the work limit"):
            pullback_to_depth(deepest, meyer_result.white, 2, 13)

    @pytest.mark.parametrize("sets", [[], [[F(1, 7)]]], ids=["empty", "one-angle"])
    def test_long_chain_ends_where_single_steps_end(self, sets):
        # only a chain that stays under the work limit runs past one grid's
        # MAX_PREIMAGES.bit_length() steps; it moves to a new grid and must end
        # on the grid, and with the classes, of one depth at a time
        start = classes(1, "white", *sets, grid=7)
        last = 2 * MAX_PREIMAGES.bit_length() + 2
        cur = start
        while cur.depth < last:
            cur = pullback_to_depth(cur, MEYER_WHITE, 2, cur.depth + 1)
        assert pullback_to_depth(start, MEYER_WHITE, 2, last) == cur
        assert cur.grid == 7 * 24 * 2 ** (last - 2)

    @pytest.mark.parametrize(
        "case",
        [
            "meyer-white",
            "meyer-black",
            "jordan-white",
            "jordan-black",
            "meyer-flipped-white",
            "meyer-flipped-black",
            "critical-value-square",
            "boundary-preimages",
            "empty",
        ],
    )
    def test_matches_relift_to_depth_twelve(self, request, monkeypatch, case):
        # lifting only the new classes gives what lifting every class gives,
        # and the classes each step is given as new are those not already one
        # depth lower
        start, p = relift_start(request, case)
        given = []
        step = laminations.pullback_step

        def recording(classes, new, *args):
            given.append((classes, list(new)))
            return step(classes, new, *args)

        monkeypatch.setattr(laminations, "pullback_step", recording)
        ref = start
        for depth in range(2, 13):
            given.clear()
            cur, ref = pullback_to_depth(start, p, 2, depth), pullback_by_relift(ref, p, 2)
            assert cur == ref, (case, depth)
            assert len(given) == depth - 1
            older: set = set()
            for classes, new in given:
                assert sorted(new) == sorted(set(classes.classes) - older), (case, classes.depth)
                older = set(classes.classes)

    def test_class_growth_rate(self, meyer_result):
        # one new lift per sector per class, so counts follow 2^n - 1 here
        cur = meyer_result.depth1_white
        for depth in range(2, 7):
            cur = pullback_to_depth(cur, meyer_result.white, 2, depth)
            assert len(cur.classes) == 2 ** depth - 1


MEYER_WHITE_MISSES_CLASSES = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="depth 1 reads no identification at Meyer's non-critical self-intersections "
    "(ROADMAP direction 1), so Meyer white has 1/3/7/15 classes at depths 2-5 "
    "where its portrait's itineraries give 7/13/25/49",
)


class TestItineraryOracle:
    """The laminations against the classes their portrait's itineraries give
    on their own, without the curve.  G_n is the grid of the depth-n classes."""

    @pytest.mark.parametrize("depth", range(2, 6))
    @pytest.mark.parametrize(
        "case",
        [
            "meyer-white",
            "meyer-black",
            "jordan-white",
            "jordan-black",
            "meyer-flipped-white",
            "meyer-flipped-black",
        ],
    )
    def test_classes_lie_in_itinerary_classes(self, request, case, depth):
        # (a): every depth-n class lies inside one itinerary class of G_n
        start, p = relift_start(request, case)
        d = fixture_degree(request, case)
        lam = pullback_to_depth(start, p, d, depth)
        owner = {x: i for i, c in enumerate(kneading_classes(p, d, lam.grid)) for x in c}
        for c in lam.classes:
            assert c[0] in owner and {owner.get(x) for x in c} == {owner[c[0]]}, (case, c)

    @pytest.mark.parametrize("depth", range(2, 6))
    @pytest.mark.parametrize(
        "case",
        [
            pytest.param("meyer-white", marks=MEYER_WHITE_MISSES_CLASSES),
            "meyer-black",
            "jordan-white",
            "jordan-black",
        ],
    )
    def test_classes_on_coarser_grid_are_itinerary_classes(self, request, case, depth):
        # (b): the depth-n classes cut down to G_(n-1) are the itinerary classes
        # of G_(n-1); on G_n the newest preimages of a class complete one depth later
        start, p = relift_start(request, case)
        d = fixture_degree(request, case)
        lower = pullback_to_depth(start, p, d, depth - 1)
        lam = pullback_to_depth(lower, p, d, depth)
        k = lam.grid // lower.grid
        cut = {tuple(x // k for x in c if x % k == 0) for c in lam.classes}
        assert sorted(c for c in cut if len(c) >= 2) == kneading_classes(p, d, lower.grid)

    @pytest.mark.parametrize("color, other", [("white", "black"), ("black", "white")])
    def test_anchor_flip_swaps_itinerary_classes(self, request, color, other):
        # flipping the anchor swaps the portraits, so the itinerary classes
        # and the laminations swap sides together
        start, p = relift_start(request, f"meyer-flipped-{color}")
        start0, p0 = relift_start(request, f"meyer-{other}")
        d = fixture_degree(request, "meyer")
        for depth in range(2, 6):
            lam = pullback_to_depth(start, p, d, depth)
            assert lam.classes == pullback_to_depth(start0, p0, d, depth).classes
            assert kneading_classes(p, d, lam.grid) == kneading_classes(p0, d, lam.grid)


MEYER_MISSES_RAY_CLASSES = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="depth 1 reads no identification at Meyer's non-critical self-intersections "
    "(ROADMAP direction 1), so Meyer's join has 2/6/14/... classes at depths 1-9 "
    "where its curve has 6/10/18/... vertices of two or more visits",
)


def census_spec(request, case: str):
    """A fixture's spec, or its spec with the white anchor on the other side."""
    name, _, flipped = case.partition("-")
    spec = request.getfixturevalue(f"{name}_spec")
    return replaced(spec, white_anchor=(0, "right")) if flipped else spec


class TestVertexCensus:
    """The laminations against the curve: each point where the depth-n
    pullback curve meets itself is one ray class (Meyer 2014), so the join
    classes and the vertices of two or more visits have the same sizes."""

    @pytest.mark.parametrize("depth", range(1, 10))
    @pytest.mark.parametrize(
        "case",
        [
            pytest.param("meyer", marks=MEYER_MISSES_RAY_CLASSES),
            pytest.param("meyer-flipped", marks=MEYER_MISSES_RAY_CLASSES),
            "jordan",
            "jordan-flipped",
        ],
    )
    def test_join_class_sizes_are_vertex_visit_counts(self, request, case, depth):
        spec = census_spec(request, case)
        result = run_pipeline(spec, depth=1)
        white, black = (
            pullback_to_depth(getattr(result, f"depth1_{c}"), getattr(result, c), spec.degree, depth)
            for c in ("white", "black")
        )
        sizes = sorted(map(len, join(white, black).classes))
        assert sizes == [c for c in vertex_census(spec, depth) if c >= 2]

    @pytest.mark.parametrize("depth", range(0, 10))
    @pytest.mark.parametrize("fixture", ["meyer", "jordan"])
    def test_visit_counts_sum_to_word_length(self, request, fixture, depth):
        # gamma_n reads word0 d^n times, one visit per edge
        spec = request.getfixturevalue(f"{fixture}_spec")
        assert sum(vertex_census(spec, depth)) == spec.k * spec.degree**depth


class TestJoin:
    def test_meyer_depth1_disjoint(self, meyer_result):
        joined = join(meyer_result.depth1_white, meyer_result.depth1_black)
        assert len(joined.classes) == 2
        assert joined.sides == (("black",), ("white",))

    def test_transitive_merge(self):
        white = classes(1, "white", [F(1, 8), F(3, 8)])
        black = classes(1, "black", [F(3, 8), F(7, 8)])
        joined = join(white, black)
        assert as_fractions(joined) == ((F(1, 8), F(3, 8), F(7, 8)),)
        assert joined.sides == (("black", "white"),)

    def test_join_with_empty_is_identity(self, meyer_result):
        empty = classes(1, "black", grid=meyer_result.depth1_white.grid)
        joined = join(meyer_result.depth1_white, empty)
        assert joined.classes == meyer_result.depth1_white.classes

    def test_depth_mismatch(self, meyer_result):
        deeper = pullback_to_depth(meyer_result.depth1_black, meyer_result.black, 2, 2)
        with pytest.raises(LaminationError, match="equal depths"):
            join(meyer_result.depth1_white, deeper)

    def test_grid_mismatch(self):
        white = classes(1, "white", [F(1, 4), F(3, 4)])
        black = classes(1, "black", [F(1, 8), F(5, 8)])
        with pytest.raises(LaminationError, match="equal depths and grids"):
            join(white, black)

    def test_jordan_depth2_cross_side_merge(self, jordan_result):
        # 1/8 and 5/8 appear on both sides at depth 2: the join fuses them
        w2 = pullback_to_depth(jordan_result.depth1_white, jordan_result.white, 2, 2)
        b2 = pullback_to_depth(jordan_result.depth1_black, jordan_result.black, 2, 2)
        joined = join(w2, b2)
        merged = [c for c in as_fractions(joined) if len(c) > 2]
        assert merged == [(F(1, 8), F(3, 8), F(5, 8), F(7, 8))]


# small angle pool so random sets overlap often; sizes from singletons up
tagged_families = st.lists(
    st.tuples(
        st.frozensets(st.integers(0, 15), min_size=1, max_size=4),  # angles x/16
        st.sampled_from(["white", "black"]),
    ),
    max_size=10,
)


def naive_components(tagged) -> dict[frozenset, frozenset]:
    """Oracle components with the tags of the sets inside each."""
    return {
        frozenset(m): frozenset(tag for angles, tag in tagged if set(angles) <= m)
        for m in merge_overlapping([set(angles) for angles, _ in tagged])
    }


# both sides of merge_tagged's disjointness test: pairwise-disjoint sets (as
# in Meyer's join), one angle shared by two sets, an angle repeated in one set
DISJOINT = [(frozenset({1, 13}), "white"), (frozenset({5, 9}), "black"), (frozenset({2}), "white")]
SHARED = [(frozenset({1, 3}), "white"), (frozenset({3, 7}), "black"), (frozenset({10, 12}), "black")]


class TestMergeOracle:
    @given(tagged_families)
    @example(DISJOINT)
    @example(SHARED)
    @example([((4, 9, 4), "white"), ((2,), "black")])
    def test_merge_tagged_matches_naive(self, tagged):
        got = {frozenset(m): frozenset(tags) for m, tags in merge_tagged(tagged)}
        assert got == naive_components(tagged)

    @given(tagged_families)
    @example(DISJOINT)
    @example(SHARED)
    # the angle 3 twice within the white side
    @example([(frozenset({1, 3}), "white"), (frozenset({3, 5}), "white"), (frozenset({8}), "black")])
    def test_join_matches_naive(self, tagged):
        white = AngleClasses(1, "white", 16, _canon(a for a, t in tagged if t == "white"))
        black = AngleClasses(1, "black", 16, _canon(a for a, t in tagged if t == "black"))
        joined = join(white, black)
        got = {frozenset(c): frozenset(s) for c, s in zip(joined.classes, joined.sides)}
        assert got == naive_components(tagged)
        assert list(joined.classes) == sorted(joined.classes, key=lambda c: (c[0], len(c)))

    def test_disjoint_sets_are_their_own_components_in_order(self):
        assert merge_tagged([((13, 1), "white"), ({9, 5}, "black"), ([2], "white")]) == [
            ((1, 13), ("white",)),
            ((5, 9), ("black",)),
            ((2,), ("white",)),
        ]

    def test_chain_in_reverse_order_is_one_component(self):
        links = [(i, i + 1) for i in range(8)][::-1]
        merged = merge_tagged([(pair, "white") for pair in links] + [((15,), "black")])
        assert sorted((sorted(m), sorted(t)) for m, t in merged) == [
            (list(range(9)), ["white"]),
            ([15], ["black"]),
        ]


class TestMoore:
    def test_meyer_depth1_cross_side_informational(self, meyer_result):
        report = moore_check(meyer_result.lamination_join)
        assert report["passed"]
        assert report["violations"] == []
        assert report["informational"]
        assert all(
            e.get("note") == "two-sided crossing (informational)"
            for e in report["informational"]
        )

    def test_single_class_passes(self):
        joined = AngleClasses(
            depth=1, color="join", grid=4, classes=((0, 2),), sides=(("white",),)
        )
        assert moore_check(joined)["passed"]

    def test_same_side_crossing_fails(self):
        joined = AngleClasses(
            depth=1,
            color="join",
            grid=4,
            classes=((0, 2), (1, 3)),
            sides=(("white",), ("white",)),
        )
        report = moore_check(joined)
        assert not report["passed"]
        assert len(report["violations"]) == 1
        assert report["violations"][0]["a"] == ["0/1", "1/2"]

    def test_crossings_read_as_entries(self, meyer_result):
        joined = meyer_result.lamination_join
        crossings = moore_check(joined)["informational"]
        entries = moore_by_scan(joined)["informational"]
        assert isinstance(crossings, Crossings) and len(crossings) == len(entries) > 1
        assert list(crossings) == entries and crossings == tuple(entries)
        assert crossings[-1] == entries[-1] and crossings.index(entries[1]) == 1
        assert crossings != entries[:-1] and crossings != entries[::-1]
        for part in (slice(1, None), slice(None, None, -1), slice(-3, 1, -2), slice(5, 2)):
            assert isinstance(crossings[part], Crossings) and crossings[part] == entries[part]
            assert list(crossings[part]) == entries[part]
        assert crossings != "ab" and crossings != {} and crossings != moore_check(joined)["violations"]


@st.composite
def disjoint_families(draw):
    """Pairwise-disjoint classes of 1-5 angles x/48, given as the integers x,
    in any order; most classes straddle 0, where the walk cuts the circle."""
    pool = draw(st.permutations(range(48)))
    sizes = draw(st.lists(st.integers(1, 5), max_size=14))
    family, used = [], 0
    for size in sizes:
        if used + size > len(pool):
            break
        family.append(tuple(sorted(pool[used : used + size])))
        used += size
    return family


side_tags = st.sampled_from([("white",), ("black",), ("black", "white")])
families_with_sides = disjoint_families().flatmap(
    lambda f: st.tuples(st.just(f), st.lists(side_tags, min_size=len(f), max_size=len(f)))
)


class TestLinkedPairs:
    @given(disjoint_families())
    # two interleaved hexagons: one class pair, met by every chord of each
    @example([(0, 8, 16, 24, 32, 40), (4, 12, 20, 28, 36, 44)])
    # four diameters, all crossing: a pair key i*m + j with m one off from n decodes wrongly
    @example([(0, 24), (6, 30), (12, 36), (18, 42)])
    # a class closes in the middle of the stack; all three pairs cross
    @example([(0, 20), (10, 30), (15, 40)])
    # one pair met at five angles of the earlier-opened class gives one key
    @example([(0, 4, 8, 12, 16, 20), (2, 46)])
    # a nested class closes inside a gap while a crossing class stays open
    @example([(0, 10, 20), (2, 46), (3, 5)])
    # a class that closes above another leaves the stack, or the outer one
    # would report a false crossing at its last angle
    @example([(0, 40), (5, 20), (10, 30)])
    def test_matches_scan(self, family):
        assert crossing_pairs(family) == linked_pairs_by_scan(family)

    @given(disjoint_families())
    # a class inside the gap of another that runs through 0
    @example([(10, 40), (0, 45, 47)])
    # single-angle classes, inside a hull, in its gap through 0 and alone
    @example([(3,), (10, 20), (15,), (47,), (25,)])
    # the only crossing comes last in circle order, listed first
    @example([(42, 46), (0, 2), (40, 44), (4, 6), (8, 30)])
    def test_check_planar_is_first_scanned_pair(self, family):
        scan = linked_pairs_by_scan(family)
        expected = (family[scan[0][0]], family[scan[0][1]]) if scan else None
        assert check_planar(family) == expected

    @given(families_with_sides)
    def test_moore_matches_scan(self, family_sides):
        family, sides = family_sides
        joined = AngleClasses(1, "join", 48, tuple(family), tuple(sides))
        assert moore_check(joined) == moore_by_scan(joined)

    @given(families_with_sides)
    @example(([(0, 24), (1, 2)], [("white",), ("black",)]))  # no crossing
    @example(([(0, 24), (12, 36)], [("white",), ("white",)]))  # violations only, so no note
    @example((
        [(0, 24), (6, 30), (12, 36), (18, 42), (3, 27)],
        [("white",), ("black",), ("white",), ("black",), ("black", "white")],
    ))  # five diameters: violations on each side, crossings of every mixed kind
    def test_moore_report_text_matches_scan(self, family_sides):
        family, sides = family_sides
        joined = AngleClasses(1, "join", 48, tuple(family), tuple(sides))
        assert _dumps(moore_check(joined)) == json.dumps(moore_by_scan(joined), indent=2)

    def test_shared_angle_is_a_pair(self):
        assert crossing_pairs([(F(0), F(1, 4)), (F(1, 4), F(1, 2))]) == [(0, 1)]
        # every pair holding the shared angle 12, and no walk: the crossing
        # of (0, 12) and (6, 30) is not reported
        assert crossing_pairs([(0, 12), (12, 24), (6, 30), (12, 40)]) == [(0, 1), (0, 3), (1, 3)]

    def test_check_planar_returns_sharing_pair(self):
        assert check_planar([(0, 12), (12, 24)]) == ((0, 12), (12, 24))

    @given(st.lists(st.sets(st.integers(0, 11), min_size=1, max_size=4), max_size=5), st.randoms())
    def test_keys_follow_a_permutation(self, sets, rnd):
        # the pairs found do not depend on the order of the classes
        family = [tuple(sorted(s)) for s in sets]
        order = list(range(len(family)))
        rnd.shuffle(order)
        moved = [family[k] for k in order]
        found = {frozenset((order[i], order[j])) for i, j in crossing_pairs(moved)}
        assert found == {frozenset(pair) for pair in crossing_pairs(family)}

    def test_fixtures_at_depth_seven_match_scan(self, meyer_spec, jordan_spec):
        for spec in (meyer_spec, jordan_spec):
            result = run_pipeline(spec, depth=7)
            for lam in (result.lamination_white, result.lamination_black, result.lamination_join):
                assert crossing_pairs(lam.classes) == linked_pairs_by_scan(lam.classes), lam.color


class TestDepthNine:
    """The counts the benchmark's output check pins for both fixtures."""

    @pytest.mark.parametrize("fixture, crossings", [("meyer_spec", 5455), ("jordan_spec", 15468)])
    def test_classes_and_moore(self, request, fixture, crossings):
        result = run_pipeline(request.getfixturevalue(fixture), depth=9)
        assert len(result.lamination_white.classes) == 511
        assert len(result.lamination_black.classes) == 511
        assert result.moore["passed"] and result.moore["violations"] == []
        assert len(result.moore["informational"]) == crossings


class TestLeafSet:
    """The leaves of a class, as the SVG scene draws them."""

    def test_pair_class_single_leaf(self):
        assert chord_count(classes(1, "white", [F(0), F(1, 2)])) == 1

    def test_polygon_class_cycle(self):
        assert chord_count(classes(2, "white", [F(0), F(1, 4), F(1, 2), F(3, 4)])) == 4

    def test_depth_matches_class_count_for_leaves(self, meyer_result):
        lam = pullback_to_depth(meyer_result.depth1_white, meyer_result.white, 2, 4)
        assert chord_count(lam) == len(lam.classes)
