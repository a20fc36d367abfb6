from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unmating.circle import Angle, q_apply
from unmating.errors import LaminationError
from unmating.laminations import (
    AngleClasses,
    LeafSet,
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

from .oracles import brute_force_pullback, linked_pairs_by_scan, merge_overlapping, moore_by_scan

A = Angle.of


def classes(depth, color, *sets) -> AngleClasses:
    canon = tuple(sorted((tuple(sorted(s)) for s in sets), key=lambda c: (c[0], len(c), c)))
    return AngleClasses(depth=depth, color=color, classes=canon)


def portrait(color, d, *angle_sets) -> CriticalPortrait:
    return CriticalPortrait(
        color=color, degree=d, sets=[PreargumentSet.of(s, d) for s in angle_sets]
    )


MEYER_WHITE = portrait("white", 2, [A(5, 24), A(17, 24)])


class TestDepth1:
    def test_meyer_matches_portraits(self, meyer_spec, meyer_result):
        criticals = critical_vertices(meyer_spec, faces(meyer_spec, 1))
        white, black = depth1(meyer_result.pullback, criticals)
        assert white.classes == ((A(5, 24), A(17, 24)),)
        assert black.classes == ((A(1, 24), A(13, 24)),)

    def test_jordan_matches_portraits(self, jordan_spec, jordan_result):
        criticals = critical_vertices(jordan_spec, faces(jordan_spec, 1))
        white, black = depth1(jordan_result.pullback, criticals)
        assert white.classes == ((A(1, 4), A(3, 4)),)
        assert black.classes == ((A(1, 8), A(5, 8)),)


class TestPullbackStep:
    def test_meyer_depth2_white(self, meyer_result):
        step = pullback_step(meyer_result.depth1_white, meyer_result.white, 2)
        assert step.classes == (
            (A(5, 48), A(41, 48)),
            (A(5, 24), A(17, 24)),
            (A(17, 48), A(29, 48)),
        )

    def test_empty_fixed_point(self):
        empty = classes(1, "white")
        step = pullback_step(empty, MEYER_WHITE, 2)
        assert step.classes == ()
        assert step.depth == 2

    def test_matches_brute_force_to_depth_six(self, meyer_result, jordan_result):
        for result in (meyer_result, jordan_result):
            for cls, p in (
                (result.depth1_white, result.white),
                (result.depth1_black, result.black),
            ):
                sec = sectors(p, 2)
                cur = cls
                for _ in range(5):  # depths 2..6
                    nxt = pullback_step(cur, p, 2)
                    oracle = brute_force_pullback(cur, sec, 2)
                    assert nxt.classes == oracle.classes, (p.color, cur.depth)
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
            counts.append(len(LeafSet.from_classes(cur)))
            cur = pullback_step(cur, meyer_result.white, 2)
        counts.append(len(LeafSet.from_classes(cur)))
        assert counts == sorted(counts)

    def test_forward_compatibility(self, meyer_result):
        # each deeper class maps into a class or a single angle one level down
        prev = meyer_result.depth1_white
        for _ in range(5):
            cur = pullback_step(prev, meyer_result.white, 2)
            prev_sets = [set(c) for c in prev.classes]
            for c in cur.classes:
                image = {q_apply(a, 2) for a in c}
                ok = len(image) == 1 or any(image <= s for s in prev_sets)
                assert ok, (prev.depth, c)
            prev = cur

    def test_critical_value_lift_merges_to_polygon(self):
        # a class through the critical value lifts to the full preimage square
        p = portrait("white", 2, [A(0), A(1, 2)])
        start = classes(1, "white", [A(0), A(1, 2)])
        step = pullback_step(start, p, 2)
        assert step.classes == ((A(0), A(1, 4), A(1, 2), A(3, 4)),)

    def test_boundary_preimages_lie_in_both_sectors(self):
        # 0 and 1/2 bound both closed sectors, so both lifts of {0, 1/3} hold them
        p = portrait("white", 2, [A(0), A(1, 2)])
        step = pullback_step(classes(1, "white", [A(0), A(1, 3)]), p, 2)
        assert step.classes == ((A(0), A(1, 6), A(1, 3), A(1, 2), A(2, 3)),)

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
        white = classes(1, "white", [A(1, 8), A(3, 8)])
        black = classes(1, "black", [A(3, 8), A(7, 8)])
        joined = join(white, black)
        assert joined.classes == ((A(1, 8), A(3, 8), A(7, 8)),)
        assert joined.sides == (("black", "white"),)

    def test_join_with_empty_is_identity(self, meyer_result):
        empty = classes(1, "black")
        joined = join(meyer_result.depth1_white, empty)
        assert joined.classes == meyer_result.depth1_white.classes

    def test_depth_mismatch(self, meyer_result):
        deeper = pullback_step(meyer_result.depth1_black, meyer_result.black, 2)
        with pytest.raises(LaminationError, match="equal depths"):
            join(meyer_result.depth1_white, deeper)

    def test_jordan_depth2_cross_side_merge(self, jordan_result):
        # 1/8 and 5/8 appear on both sides at depth 2: the join fuses them
        w2 = pullback_step(jordan_result.depth1_white, jordan_result.white, 2)
        b2 = pullback_step(jordan_result.depth1_black, jordan_result.black, 2)
        joined = join(w2, b2)
        merged = [c for c in joined.classes if len(c) > 2]
        assert merged == [(A(1, 8), A(3, 8), A(5, 8), A(7, 8))]


# small angle pool so random sets overlap often; sizes from singletons up
tagged_families = st.lists(
    st.tuples(
        st.frozensets(st.builds(lambda n: A(n, 16), st.integers(0, 15)), min_size=1, max_size=4),
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
        white = AngleClasses(1, "white", tuple(tuple(sorted(a)) for a, t in tagged if t == "white"))
        black = AngleClasses(1, "black", tuple(tuple(sorted(a)) for a, t in tagged if t == "black"))
        joined = join(white, black)
        got = {frozenset(c): frozenset(s) for c, s in zip(joined.classes, joined.sides)}
        assert got == naive_components(tagged)
        assert list(joined.classes) == sorted(joined.classes, key=lambda c: (c[0], len(c)))

    def test_chain_in_reverse_order_is_one_component(self):
        links = [(A(i, 16), A(i + 1, 16)) for i in range(8)][::-1]
        merged = merge_tagged([(pair, "white") for pair in links] + [((A(15, 16),), "black")])
        assert sorted((sorted(m), sorted(t)) for m, t in merged) == [
            ([A(i, 16) for i in range(9)], ["white"]),
            ([A(15, 16)], ["black"]),
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
            depth=1, color="join", classes=((A(0), A(1, 2)),), sides=(("white",),)
        )
        assert moore_check(joined)["passed"]

    def test_same_side_crossing_fails(self):
        joined = AngleClasses(
            depth=1,
            color="join",
            classes=((A(0), A(1, 2)), (A(1, 4), A(3, 4))),
            sides=(("white",), ("white",)),
        )
        report = moore_check(joined)
        assert not report["passed"]
        assert len(report["violations"]) == 1


@st.composite
def disjoint_families(draw):
    """Pairwise-disjoint classes of 1-5 angles on the 1/48 grid, in any order;
    most classes straddle 0, where the sweep cuts the circle."""
    pool = draw(st.permutations(range(48)))
    sizes = draw(st.lists(st.integers(1, 5), max_size=14))
    family, used = [], 0
    for size in sizes:
        if used + size > len(pool):
            break
        family.append(tuple(sorted(A(n, 48) for n in pool[used : used + size])))
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
        joined = AngleClasses(1, "join", tuple(family), tuple(sides))
        assert moore_check(joined) == moore_by_scan(joined)

    def test_shared_angle_refused(self):
        with pytest.raises(LaminationError, match="share the angle 1/4"):
            linked_pairs([(A(0), A(1, 4)), (A(1, 4), A(1, 2))])

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
    def test_pair_class_single_leaf(self):
        ls = LeafSet.from_classes(classes(1, "white", [A(0), A(1, 2)]))
        assert len(ls) == 1

    def test_polygon_class_cycle(self):
        ls = LeafSet.from_classes(classes(2, "white", [A(0), A(1, 4), A(1, 2), A(3, 4)]))
        assert len(ls) == 4

    def test_depth_matches_class_count_for_leaves(self, meyer_result):
        lam = pullback_to_depth(meyer_result.depth1_white, meyer_result.white, 2, 4)
        assert len(LeafSet.from_classes(lam)) == len(lam.classes)
