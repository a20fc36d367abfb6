from __future__ import annotations

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unmating.errors import LaminationError
from unmating.laminations import (
    AngleClasses,
    _canon,
    check_planar,
    depth1,
    join,
    linked_pairs,
    merge_tagged,
    moore_check,
    pullback_step,
    pullback_to_depth,
)
from unmating.mapspec import critical_vertices, faces
from unmating.pipeline import run_pipeline
from unmating.portraits import CriticalPortrait, PreargumentSet, sectors
from unmating.svg import SvgScene

from .oracles import (
    as_fractions,
    brute_force_pullback,
    linked_pairs_by_scan,
    merge_overlapping,
    moore_by_scan,
    p_q,
)

F = Fraction


def classes(depth, color, *sets, grid=None) -> AngleClasses:
    """Classes of the given Fractions, on their least common grid unless one is given."""
    if grid is None:
        grid = lcm(*(a.denominator for s in sets for a in s))
    return AngleClasses(depth, color, grid, _canon({int(a * grid) for a in s} for s in sets))


def chord_count(lam: AngleClasses) -> int:
    return len(SvgScene.from_classes([lam]).chords)


def portrait(color, d, grid, *angle_sets) -> CriticalPortrait:
    """A portrait whose sets hold the angles x/grid, given as the integers x."""
    return CriticalPortrait(
        color=color, degree=d, grid=grid, sets=[PreargumentSet.of(s) for s in angle_sets]
    )


def brute_force(classes: AngleClasses, p: CriticalPortrait, d: int):
    return brute_force_pullback(classes, sectors(p, d), p.grid, d)


MEYER_WHITE = portrait("white", 2, 24, [5, 17])


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


class TestDepth1:
    def test_meyer_matches_portraits(self, meyer_spec, meyer_result):
        criticals = critical_vertices(meyer_spec, faces(meyer_spec, 1))
        white, black = depth1(meyer_result.pullback, criticals)
        assert white.classes == ((5, 17),)
        assert black.classes == ((1, 13),)
        assert white.grid == black.grid == 24

    def test_jordan_matches_portraits(self, jordan_spec, jordan_result):
        criticals = critical_vertices(jordan_spec, faces(jordan_spec, 1))
        white, black = depth1(jordan_result.pullback, criticals)
        assert as_fractions(white) == ((F(1, 4), F(3, 4)),)
        assert as_fractions(black) == ((F(1, 8), F(5, 8)),)
        assert white.grid == black.grid == 8


class TestPullbackStep:
    def test_meyer_depth2_white(self, meyer_result):
        step = pullback_step(meyer_result.depth1_white, meyer_result.white, 2)
        assert step.grid == 48
        assert step.classes == ((5, 41), (10, 34), (17, 29))

    def test_empty_fixed_point(self):
        empty = classes(1, "white")
        step = pullback_step(empty, MEYER_WHITE, 2)
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
                    nxt = pullback_step(cur, p, 2)
                    assert as_fractions(nxt) == brute_force(cur, p, 2), (p.color, cur.depth)
                    cur = nxt

    def test_planar_at_all_depths(self, meyer_result):
        cur = meyer_result.depth1_white
        for _ in range(5):
            cur = pullback_step(cur, meyer_result.white, 2)
            assert check_planar(cur.classes) is None

    def test_leaf_counts_nondecreasing(self, meyer_result):
        counts = []
        cur = meyer_result.depth1_white
        for _ in range(5):
            counts.append(chord_count(cur))
            cur = pullback_step(cur, meyer_result.white, 2)
        counts.append(chord_count(cur))
        assert counts == sorted(counts)

    def test_forward_compatibility(self, meyer_result):
        # each deeper class maps into a class or a single angle one level down
        prev = meyer_result.depth1_white
        for _ in range(5):
            cur = pullback_step(prev, meyer_result.white, 2)
            prev_sets = [set(c) for c in as_fractions(prev)]
            for c in as_fractions(cur):
                image = {2 * a % 1 for a in c}
                ok = len(image) == 1 or any(image <= s for s in prev_sets)
                assert ok, (prev.depth, c)
            prev = cur

    def test_critical_value_lift_merges_to_polygon(self):
        # a class through the critical value lifts to the full preimage square
        p = portrait("white", 2, 2, [0, 1])
        start = classes(1, "white", [F(0), F(1, 2)])
        step = pullback_step(start, p, 2)
        assert as_fractions(step) == ((F(0), F(1, 4), F(1, 2), F(3, 4)),)

    def test_boundary_preimages_lie_in_both_sectors(self):
        # 0 and 1/2 bound both closed sectors, so both lifts of {0, 1/3} hold them
        p = portrait("white", 2, 2, [0, 1])
        step = pullback_step(classes(1, "white", [F(0), F(1, 3)]), p, 2)
        assert as_fractions(step) == ((F(0), F(1, 6), F(1, 3), F(1, 2), F(2, 3)),)

    def test_color_mismatch_rejected(self, meyer_result):
        with pytest.raises(LaminationError, match="cannot lift"):
            pullback_step(meyer_result.depth1_white, meyer_result.black, 2)

    def test_class_growth_rate(self, meyer_result):
        # one new lift per sector per class, so counts follow 2^n - 1 here
        cur = meyer_result.depth1_white
        for depth in range(2, 7):
            cur = pullback_step(cur, meyer_result.white, 2)
            assert len(cur.classes) == 2 ** depth - 1


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
        deeper = pullback_step(meyer_result.depth1_black, meyer_result.black, 2)
        with pytest.raises(LaminationError, match="equal depths"):
            join(meyer_result.depth1_white, deeper)

    def test_grid_mismatch(self):
        white = classes(1, "white", [F(1, 4), F(3, 4)])
        black = classes(1, "black", [F(1, 8), F(5, 8)])
        with pytest.raises(LaminationError, match="equal depths and grids"):
            join(white, black)

    def test_jordan_depth2_cross_side_merge(self, jordan_result):
        # 1/8 and 5/8 appear on both sides at depth 2: the join fuses them
        w2 = pullback_step(jordan_result.depth1_white, jordan_result.white, 2)
        b2 = pullback_step(jordan_result.depth1_black, jordan_result.black, 2)
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


class TestMergeOracle:
    @given(tagged_families)
    def test_merge_tagged_matches_naive(self, tagged):
        got = {frozenset(m): frozenset(tags) for m, tags in merge_tagged(tagged)}
        assert got == naive_components(tagged)

    @given(tagged_families)
    def test_join_matches_naive(self, tagged):
        white = AngleClasses(1, "white", 16, _canon(a for a, t in tagged if t == "white"))
        black = AngleClasses(1, "black", 16, _canon(a for a, t in tagged if t == "black"))
        joined = join(white, black)
        got = {frozenset(c): frozenset(s) for c, s in zip(joined.classes, joined.sides)}
        assert got == naive_components(tagged)
        assert list(joined.classes) == sorted(joined.classes, key=lambda c: (c[0], len(c)))

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


@st.composite
def disjoint_families(draw):
    """Pairwise-disjoint classes of 1-5 angles x/48, given as the integers x,
    in any order; most classes straddle 0, where the sweep cuts the circle."""
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


class TestLinkedPairs:
    @given(disjoint_families())
    def test_matches_scan(self, family):
        assert linked_pairs(family) == linked_pairs_by_scan(family)

    @given(disjoint_families())
    def test_check_planar_is_first_scanned_pair(self, family):
        scan = linked_pairs_by_scan(family)
        expected = (family[scan[0][0]], family[scan[0][1]]) if scan else None
        assert check_planar(family) == expected

    @given(disjoint_families().flatmap(
        lambda f: st.tuples(st.just(f), st.lists(side_tags, min_size=len(f), max_size=len(f)))
    ))
    def test_moore_matches_scan(self, family_sides):
        family, sides = family_sides
        joined = AngleClasses(1, "join", 48, tuple(family), tuple(sides))
        assert moore_check(joined) == moore_by_scan(joined)

    def test_shared_angle_refused(self):
        with pytest.raises(LaminationError, match="share the angle 1/4"):
            linked_pairs([(F(0), F(1, 4)), (F(1, 4), F(1, 2))])

    def test_fixtures_at_depth_seven_match_scan(self, meyer_spec, jordan_spec):
        for spec in (meyer_spec, jordan_spec):
            result = run_pipeline(spec, depth=7)
            for lam in (result.lamination_white, result.lamination_black, result.lamination_join):
                assert linked_pairs(lam.classes) == linked_pairs_by_scan(lam.classes), lam.color


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
