from __future__ import annotations

import json
import math
from bisect import bisect_right
from contextlib import suppress
from fractions import Fraction
from math import lcm
from operator import lt
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from unmating import circle, laminations, mapspec, portraits
from unmating.cli import _dumps
from unmating.errors import LaminationError, PortraitError
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
from unmating.pipeline import run_pipeline
from unmating.portraits import CriticalPortrait, PreargumentSet, Sectors, sectors
from unmating.svg import SvgScene

from .conftest import census_spec, critical_connections, spec_with
from .oracles import (
    WorkLimit,
    admitted,
    as_fractions,
    brute_force_pullback,
    euler_count,
    kneading_classes,
    label_by_scan,
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
    """The index pairs i < j of crossing classes, in order, read from the
    columns of `circle.crossing_pairs`."""
    first, second = circle.crossing_pairs(family)
    assert len(first) == len(second)
    return list(zip(first, second))


def chord_count(lam: AngleClasses) -> int:
    return len(SvgScene.from_classes([lam], {}).chords)


def portrait(color, grid, *angle_sets) -> CriticalPortrait:
    """A portrait whose sets hold the angles x/grid, given as the integers x."""
    return CriticalPortrait(color=color, grid=grid, sets=[PreargumentSet.of(s) for s in angle_sets])


def brute_force(classes: AngleClasses, p: CriticalPortrait, d: int):
    return brute_force_pullback(classes, sectors(p), p.grid, d)


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


# the diameter {1/4, 3/4} lifts into {1/8, 3/8}, which crosses it
CROSSING_START = AngleClasses(1, "white", 4, ((1, 3),))
CROSSING_PORTRAIT = portrait("white", 4, [0, 2])


@st.composite
def chains(draw):
    """A start, a degree-2 portrait of one diameter and a depth: the start's
    classes are disjoint sets of angles x/grid in the form of the ``sets``
    of `test_long_chain_ends_where_single_steps_end`, and may cross."""
    grid = draw(st.integers(2, 12))
    angles = draw(st.lists(st.integers(0, grid - 1), unique=True, max_size=6))
    groups: dict[int, list] = {}
    for x in angles:
        groups.setdefault(draw(st.integers(0, 2)), []).append(F(x, grid))
    start = classes(1, "white", *groups.values(), grid=grid)
    p_grid = draw(st.sampled_from([2, 4, 6, 8, 12]))
    a = draw(st.integers(0, p_grid // 2 - 1))
    return start, portrait("white", p_grid, [a, a + p_grid // 2]), draw(st.integers(2, 6)), None


@st.composite
def lift_tables(draw):
    """A portrait of degree 2 or 3 on a grid d*M, M <= 6, of one or two sets
    of d-fold preimages of one angle (linked ones included, for the test to
    discard), and a grid for the step: a multiple of the portrait's."""
    d = draw(st.sampled_from([2, 3]))
    step = draw(st.integers(1, 6))
    sets = [
        [x + j * step for j in js]
        for x, js in draw(
            st.lists(
                st.tuples(st.integers(0, step - 1), st.sets(st.integers(0, d - 1), min_size=2)),
                min_size=1,
                max_size=2,
            )
        )
    ]
    return portrait("white", d * step, *sets), d, d * step * draw(st.integers(1, 3))


def outcome(pull):
    """The classes ``pull()`` returns, or the text of its `LaminationError`."""
    try:
        return pull()
    except LaminationError as e:
        return str(e)


def one_depth_at_a_time(start: AngleClasses, p: CriticalPortrait, depth: int) -> AngleClasses:
    cur = start
    while cur.depth < depth:
        cur = pullback_to_depth(cur, p, 2, cur.depth + 1)
    return cur


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
        assert lam.text({}) == [[p_q(f) for f in c] for c in fractions]
        table: dict = {}
        assert lam.text(table) == lam.text({}) == lam.text(table)

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
        moore_check(join(white, black), {})
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

        entries = []  # the entries each Crossings reads as, kept alive so no id is reused

        def list_ids(o) -> set[int]:
            if isinstance(o, dict):
                return set().union(*map(list_ids, o.values()))
            if isinstance(o, list):
                return {id(o)}.union(*map(list_ids, o))
            if isinstance(o, Crossings):  # its fields, the class texts and its entries' sides lists
                entries.append(list(o))
                fields = {id(getattr(o, name)) for name in Crossings.__slots__}
                return fields.union(*map(list_ids, o.text), list_ids(entries[-1]))
            return set()

        assert first == second
        assert not list_ids(first) & list_ids(second)


class TestDepth1:
    def test_meyer_matches_portraits(self, meyer_spec, meyer_result):
        white, black = depth1(meyer_result.pullback, critical_connections(meyer_spec))
        assert white.classes == ((5, 17),)
        assert black.classes == ((1, 13),)
        assert white.grid == black.grid == 24

    def test_jordan_matches_portraits(self, jordan_spec, jordan_result):
        white, black = depth1(jordan_result.pullback, critical_connections(jordan_spec))
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

    @pytest.mark.parametrize("case", ["critical-value-square", "boundary-preimages"])
    def test_polygons_match_brute_force(self, request, case):
        # both starts lift polygons: the square one class of 4, 8 and 16 angles at depths 2-4
        start, p = relift_start(request, case)
        cur = start
        for _ in range(4):  # depths 2..5
            nxt = pullback_to_depth(cur, p, 2, cur.depth + 1)
            assert as_fractions(nxt) == brute_force(cur, p, 2), (case, cur.depth)
            cur = nxt
        if case == "critical-value-square":
            assert [len(c) for c in cur.classes] == [32]

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

    @pytest.mark.parametrize("bound", ["limit", "tightest"])
    @pytest.mark.parametrize("fixture", ["meyer", "jordan"])
    def test_work_limit_admits_the_deepest_depth_only(self, request, monkeypatch, fixture, bound):
        """Each side's chain reaches the deepest depth that the work limit's
        rule admits, and the next depth is refused with the message that
        names its count.  At the tightest bound that admits the same depths
        the last step runs at exactly the limit.  README gives the cost of
        Jordan's deepest run, depth 12."""
        spec, result = request.getfixturevalue(f"{fixture}_spec"), request.getfixturevalue(f"{fixture}_result")
        limit = WorkLimit(spec, MAX_PREIMAGES)
        if bound == "tightest":
            limit = WorkLimit(spec, limit.tightest)
            monkeypatch.setattr(laminations, "MAX_PREIMAGES", limit.bound)
        if fixture == "jordan":
            assert limit.deepest == 12
        for color, chain in zip(("white", "black"), limit.chains):
            start, p = getattr(result, f"depth1_{color}"), getattr(result, color)
            assert pullback_to_depth(start, p, spec.degree, chain[-1].depth) == chain[-1]
            with pytest.raises(LaminationError) as info:
                pullback_to_depth(start, p, spec.degree, chain[-1].depth + 1)
            assert str(info.value) == limit.refusal(chain[-1].depth + 1, chain)

    def test_work_limit_admits_a_step_of_exactly_the_limit(self, meyer_result, monkeypatch):
        """A step whose d * count equals MAX_PREIMAGES runs; one over it is
        refused.  The bound is read off the classes the step lifts."""
        depth3 = pullback_to_depth(meyer_result.depth1_white, meyer_result.white, 2, 3)
        made = 2 * sum(map(len, depth3.classes))  # d * count: the classes are disjoint
        monkeypatch.setattr(laminations, "MAX_PREIMAGES", made)
        assert pullback_to_depth(depth3, meyer_result.white, 2, 4).depth == 4
        monkeypatch.setattr(laminations, "MAX_PREIMAGES", made - 1)
        with pytest.raises(LaminationError, match=f"makes {made} preimages, over the limit of {made - 1}"):
            pullback_to_depth(depth3, meyer_result.white, 2, 4)

    def test_step_at_exactly_the_limit_walks_no_extra_run(self, meyer_result, monkeypatch):
        """A step whose output's d * count equals MAX_PREIMAGES does not end
        its nested run: the chain walks planarity as it does under the
        default bound (on Meyer white, once, at depth 4)."""
        start, p = meyer_result.depth1_white, meyer_result.white
        depth3 = pullback_to_depth(start, p, 2, 3)
        walks, planar = [], laminations.check_planar

        def walking(cl):
            walks.append(len(cl))
            return planar(cl)

        monkeypatch.setattr(laminations, "check_planar", walking)
        out = pullback_to_depth(start, p, 2, 4)
        expected = walks[:]
        walks.clear()
        monkeypatch.setattr(laminations, "MAX_PREIMAGES", 2 * sum(map(len, depth3.classes)))
        assert pullback_to_depth(start, p, 2, 4) == out
        assert walks == expected and walks[-1] == len(out.classes)

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

    @settings(deadline=None)
    @given(chains())
    @example((CROSSING_START, CROSSING_PORTRAIT, 3, None))
    @example((CROSSING_START, CROSSING_PORTRAIT, 4, None))
    @example((CROSSING_START, CROSSING_PORTRAIT, 5, None))
    # the step from depth 2 is refused (2 * 6 angles > 11): the crossing at
    # depth 2 is still the error
    @example((CROSSING_START, CROSSING_PORTRAIT, 4, 11))
    @example((classes(1, "white", [F(0), F(1, 2)]), portrait("white", 2, [0, 1]), 6, None))  # critical-value-square
    @example((classes(1, "white", [F(0), F(1, 3)]), portrait("white", 2, [0, 1]), 6, None))  # boundary-preimages
    def test_deferred_walk_matches_one_depth_at_a_time(self, chain):
        # a chain walks planarity once per nested run; one depth at a time
        # walks every output, so both end alike, or fail with the same text
        start, p, depth, limit = chain
        with mock.patch.object(laminations, "MAX_PREIMAGES", limit or MAX_PREIMAGES):
            expected = outcome(lambda: one_depth_at_a_time(start, p, depth))
            assert outcome(lambda: pullback_to_depth(start, p, 2, depth)) == expected
        if limit is not None:
            assert expected.startswith("pullback produced crossing")

    @settings(deadline=None)
    @given(lift_tables())
    @example((portrait("white", 2, [0, 1]), 2, 4))  # the critical value's preimages bound both sectors
    @example((portrait("white", 6, [0, 2], [3, 5]), 3, 12))
    def test_lift_table_matches_label_scan(self, drawn):
        """The step reads the preimages y + m*grid/d of each angle d*y from
        the table row of y's segment, grouped by the closed sectors that
        hold them; for every y in [0, grid/d), boundary points included,
        that row is the grouping by the Fraction scan, both labels at a
        boundary point.  A start of one class per angle on the grid grid/d
        makes the step lift every y."""
        p, d, grid = drawn
        try:
            sec = sectors(p)
        except PortraitError:
            assume(False)
        step = grid // d
        start = AngleClasses(1, "white", step, tuple((y,) for y in range(step)))
        chains = []
        pull = laminations.pullback_step

        def stepping(*args):
            chains.append(args[-1])
            return pull(*args)

        with mock.patch.object(laminations, "pullback_step", stepping), suppress(LaminationError):
            pullback_to_depth(start, p, d, 2)  # the rows are filled before the output is walked
        (chain,) = chains
        for y in range(step):
            row = chain.rows[bisect_right(chain.bounds, y)]
            expected: dict[int, list[int]] = {}
            for x in range(y, grid, step):
                for side in ("left", "right"):
                    label = label_by_scan(F(x, grid), sec, p.grid, side)
                    if x not in expected.setdefault(label, []):
                        expected[label].append(x)
            assert {label: [y + offset for offset in offsets] for label, offsets in row} == expected, y

    @pytest.mark.parametrize("fixture", ["meyer", "jordan"])
    def test_depth_nine_labels_once_per_filled_row(self, request, monkeypatch, fixture):
        """A chain looks up sector labels only to fill a table row, d
        lookups per row, and not once per preimage: it fills at most one
        row per segment of its table, and looks up fewer labels than it
        lifts preimages."""
        result, d = request.getfixturevalue(f"{fixture}_result"), fixture_degree(request, fixture)
        calls, chains, lifted = [], [], []
        labels, pull = Sectors.closed_labels, laminations.pullback_step

        def labelling(sec, t):
            calls.append(t)
            return labels(sec, t)

        def stepping(classes, new, *args):
            if args[-1] not in chains:
                chains.append(args[-1])
            new = list(new)
            lifted.append(d * sum(map(len, new)))
            return pull(classes, new, *args)

        monkeypatch.setattr(Sectors, "closed_labels", labelling)
        monkeypatch.setattr(laminations, "pullback_step", stepping)
        for color in ("white", "black"):
            calls.clear()
            chains.clear()
            lifted.clear()
            pullback_to_depth(getattr(result, f"depth1_{color}"), getattr(result, color), d, 9)
            (chain,) = chains  # eight steps, on one grid
            filled = sum(row is not None for row in chain.rows)
            assert len(calls) == d * filled, color
            assert filled <= len(chain.bounds) + 1, color
            assert len(calls) < sum(lifted), color

    @pytest.mark.parametrize("case", ["meyer", "jordan", "critical-value-square"])
    def test_depth_nine_walks_once_per_nested_run(self, request, monkeypatch, case):
        """A chain walks planarity once per nested run of its outputs: once,
        plus once per step after the first that merges a retained class (the
        first step's input is the start, which no run holds).  Each walk
        checks the last output of its run, so the last walk checks the
        chain's last output."""
        chains = []  # per chain, per step: whether it merged a retained class, and the sizes it walked
        planar, step, to_depth = laminations.check_planar, laminations.pullback_step, laminations.pullback_to_depth

        def chaining(*args):
            chains.append([])
            return to_depth(*args)

        def stepping(cl, *args):
            chains[-1].append([False, []])
            out = step(cl, *args)
            chains[-1][-1][0] = not set(cl.classes) <= set(out.classes)
            return out

        def walking(cl):
            chains[-1][-1][1].append(len(cl))
            return planar(cl)

        monkeypatch.setattr(laminations, "pullback_to_depth", chaining)
        monkeypatch.setattr(laminations, "pullback_step", stepping)
        monkeypatch.setattr(laminations, "check_planar", walking)
        if case == "critical-value-square":
            start, p = relift_start(request, case)
            lams = [laminations.pullback_to_depth(start, p, 2, 9)]
        else:
            result = run_pipeline(request.getfixturevalue(f"{case}_spec"), depth=9)
            lams = [result.lamination_white, result.lamination_black]
        assert len(chains) == len(lams)
        for chain, lam in zip(chains, lams):
            assert len(chain) == 8
            walks = [n for _, sizes in chain for n in sizes]
            assert len(walks) == 1 + sum(merged for merged, _ in chain[1:])
            assert walks[-1] == len(lam.classes)
        if case == "critical-value-square":  # every step merges the retained class into a bigger one
            assert all(merged for merged, _ in chains[0])

    def test_merging_step_walks_its_pending_run_first(self, request, monkeypatch):
        # every step of this case merges the retained class into a bigger one,
        # so each step after the first ends the run its input closes
        start, p = relift_start(request, "critical-value-square")
        steps = []  # per step: its input, the classes it walked, its output
        planar, step = laminations.check_planar, laminations.pullback_step

        def walking(cl):
            steps[-1][1].append(cl)
            return planar(cl)

        def stepping(cl, *args):
            steps.append((cl.classes, []))
            out = step(cl, *args)
            steps[-1] += (out.classes,)
            return out

        monkeypatch.setattr(laminations, "check_planar", walking)
        monkeypatch.setattr(laminations, "pullback_step", stepping)
        pullback_to_depth(start, p, 2, 6)
        assert len(steps) == 5
        for k, (lifted, walks, out) in enumerate(steps):
            assert not set(lifted) <= set(out)  # a retained class merged
            assert walks == ([lifted] if k else []) + ([out] if k == 4 else [])

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
    def test_matches_relift_to_the_work_limit(self, request, monkeypatch, case):
        """Lifting only the new classes gives what lifting every class
        gives, at every depth the work limit's rule admits, and the classes
        each step is given as new are those not already one depth lower.
        The bound is the tightest that admits the same depths, so the last
        step runs at exactly the limit, and the next depth is refused with
        the message that names its count.  A start without angles never
        meets the limit, and runs to depth 12."""
        start, p = relift_start(request, case)
        refs = admitted(start, p, 2, MAX_PREIMAGES, 12 if not start.classes else math.inf)
        angles = [sum(map(len, ref.classes)) for ref in refs]
        if angles[-1]:  # the same depths at the tightest bound
            monkeypatch.setattr(laminations, "MAX_PREIMAGES", 2 * angles[-2])
            assert 2 * angles[-1] > laminations.MAX_PREIMAGES
        given = []
        step = laminations.pullback_step

        def recording(classes, new, *args):
            given.append((classes, list(new)))
            return step(classes, new, *args)

        monkeypatch.setattr(laminations, "pullback_step", recording)
        for ref in refs[1:]:
            given.clear()
            assert pullback_to_depth(start, p, 2, ref.depth) == ref, (case, ref.depth)
            assert len(given) == ref.depth - 1
            older: set = set()
            for classes, new in given:
                assert sorted(new) == sorted(set(classes.classes) - older), (case, classes.depth)
                older = set(classes.classes)
        if angles[-1]:
            with pytest.raises(LaminationError) as info:
                pullback_to_depth(start, p, 2, refs[-1].depth + 1)
            assert str(info.value) == (
                f"depth {refs[-1].depth + 1} is beyond the work limit: lifting the {angles[-1]} angles of depth "
                f"{refs[-1].depth} makes {2 * angles[-1]} preimages, over the limit of {laminations.MAX_PREIMAGES}"
            )

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


MEYER_MISSES_IDENTIFICATIONS = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="depth 1 reads no identification at Meyer's non-critical self-intersections "
    "(ROADMAP direction 1), so Meyer's join holds 2^(n+1) - 2 identifications "
    "where Euler's formula on its curve gives 2^(n+2) - 2",
)


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

    @pytest.mark.parametrize("depth", range(1, 11))
    @pytest.mark.parametrize(
        "case",
        [
            pytest.param("meyer", marks=MEYER_MISSES_IDENTIFICATIONS),
            pytest.param("meyer-flipped", marks=MEYER_MISSES_IDENTIFICATIONS),
            "jordan",
            "jordan-flipped",
        ],
    )
    def test_join_identifications_follow_euler(self, request, case, depth):
        # each join class J identifies |J| - 1 pairs of angles, one per extra
        # visit of its vertex of the curve
        spec = census_spec(request, case)
        result = run_pipeline(spec, depth=1)
        white, black = (
            pullback_to_depth(getattr(result, f"depth1_{c}"), getattr(result, c), spec.degree, depth)
            for c in ("white", "black")
        )
        assert sum(len(c) - 1 for c in join(white, black).classes) == euler_count(spec, depth)

    @pytest.mark.parametrize("depth", range(0, 10))
    @pytest.mark.parametrize("fixture", ["meyer", "jordan"])
    def test_census_follows_euler(self, request, fixture, depth):
        spec = request.getfixturevalue(f"{fixture}_spec")
        assert sum(c - 1 for c in vertex_census(spec, depth)) == euler_count(spec, depth)

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


# both sides of join's disjointness test: pairwise-disjoint sets (as in
# Meyer's join), one angle shared by two sets, an angle repeated in one set
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
    # two white sets that share 3, bridged to a third white set by a black set
    @example([
        (frozenset({1, 3}), "white"), (frozenset({3, 5}), "white"), (frozenset({9, 11}), "white"),
        (frozenset({5, 9}), "black"),
    ])
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
        report = moore_check(meyer_result.lamination_join, {})
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
        assert moore_check(joined, {})["passed"]

    def test_same_side_crossing_fails(self):
        joined = AngleClasses(
            depth=1,
            color="join",
            grid=4,
            classes=((0, 2), (1, 3)),
            sides=(("white",), ("white",)),
        )
        report = moore_check(joined, {})
        assert not report["passed"]
        assert len(report["violations"]) == 1
        assert report["violations"][0]["a"] == ["0/1", "1/2"]

    def test_crossings_read_as_entries(self, meyer_result):
        joined = meyer_result.lamination_join
        crossings = moore_check(joined, {})["informational"]
        entries = moore_by_scan(joined)["informational"]
        assert isinstance(crossings, Crossings) and len(crossings) == len(entries) > 1
        assert list(crossings) == entries and crossings == tuple(entries)
        assert crossings[-1] == entries[-1] and crossings.index(entries[1]) == 1
        assert crossings != entries[:-1] and crossings != entries[::-1]
        for part in (slice(1, None), slice(None, None, -1), slice(-3, 1, -2), slice(5, 2)):
            assert isinstance(crossings[part], Crossings) and crossings[part] == entries[part]
            assert list(crossings[part]) == entries[part]
        assert crossings != "ab" and crossings != {} and crossings != moore_check(joined, {})["violations"]


@st.composite
def disjoint_families(draw):
    """Pairwise-disjoint classes of 1-5 angles x/48, given as the integers x,
    in least-angle order, as `circle.crossing_pairs` takes them; most
    classes straddle 0, where the walk cuts the circle."""
    pool = draw(st.permutations(range(48)))
    sizes = draw(st.lists(st.integers(1, 5), max_size=14))
    family, used = [], 0
    for size in sizes:
        if used + size > len(pool):
            break
        family.append(tuple(sorted(pool[used : used + size])))
        used += size
    return sorted(family)


side_tags = st.sampled_from([("white",), ("black",), ("black", "white")])
families_with_sides = disjoint_families().flatmap(
    lambda f: st.tuples(st.just(f), st.lists(side_tags, min_size=len(f), max_size=len(f)))
)


class TestLinkedPairs:
    @given(disjoint_families())
    # two interleaved hexagons: one class pair, met by every chord of each
    @example([(0, 8, 16, 24, 32, 40), (4, 12, 20, 28, 36, 44)])
    # four diameters, all crossing: every class is above each earlier one
    @example([(0, 24), (6, 30), (12, 36), (18, 42)])
    # a class closes in the middle of the stack; all three pairs cross
    @example([(0, 20), (10, 30), (15, 40)])
    # one pair met at five angles of the earlier-opened class gives one pair
    @example([(0, 4, 8, 12, 16, 20), (2, 46)])
    # a nested class closes inside a gap while a crossing class stays open
    @example([(0, 10, 20), (2, 46), (3, 5)])
    # a class that closes above another leaves the stack, or the outer one
    # would report a false crossing at its last angle
    @example([(0, 40), (5, 20), (10, 30)])
    # two classes that cross once
    @example([(0, 20), (10, 30)])
    # a class crossed at two of its angles by one class gives one pair
    @example([(0, 10, 20, 30, 40), (15, 35)])
    # a class crossed at two angles joins its slices: (2, 30) at 20, then
    # (25, 45) at 40
    @example([(0, 20, 40), (2, 30), (25, 45)])
    def test_matches_scan(self, family):
        assert crossing_pairs(family) == linked_pairs_by_scan(family)

    @given(disjoint_families())
    # a class inside the gap of another that runs through 0
    @example([(0, 45, 47), (10, 40)])
    # single-angle classes, inside a hull, in its gap through 0 and alone
    @example([(3,), (10, 20), (15,), (25,), (47,)])
    # the only crossing comes last in circle order
    @example([(0, 2), (4, 6), (8, 30), (40, 44), (42, 46)])
    # two crossings, with a nested class between them
    @example([(0, 25), (5, 10), (20, 40), (30, 45)])
    # the least pair (0, 3) is met after the pair (1, 2) in circle order
    @example([(0, 30, 40), (5, 15), (10, 20), (25, 35)])
    def test_check_planar_is_first_scanned_pair(self, family):
        scan = linked_pairs_by_scan(family)
        expected = (family[scan[0][0]], family[scan[0][1]]) if scan else None
        assert check_planar(family) == expected

    @given(disjoint_families())
    @example([(0, 20), (10, 30)])
    def test_columns_are_increasing_pairs(self, family):
        first, second = circle.crossing_pairs(family)
        assert len(first) == len(second)
        assert all(map(lt, first, second))
        pairs = list(zip(first, second))
        assert all(map(lt, pairs, pairs[1:]))

    @given(families_with_sides)
    def test_moore_matches_scan(self, family_sides):
        family, sides = family_sides
        joined = AngleClasses(1, "join", 48, tuple(family), tuple(sides))
        assert moore_check(joined, {}) == moore_by_scan(joined)

    @given(families_with_sides)
    @example(([(0, 24), (1, 2)], [("white",), ("black",)]))  # no crossing
    @example(([(0, 24), (12, 36)], [("white",), ("white",)]))  # violations only, so no note
    @example((
        [(0, 24), (3, 27), (6, 30), (12, 36), (18, 42)],
        [("white",), ("black", "white"), ("black",), ("white",), ("black",)],
    ))  # five diameters: violations on each side, crossings of every mixed kind
    @example((
        [(0, 24), (3, 27), (6, 30), (12, 36)],
        [("black", "white"), ("black",), ("black", "white"), ("white",)],
    ))  # every crossing across the sides, so no violation among four kinds of pair
    @example((
        [(0, 24, 40), (1, 2), (6, 30), (12, 36)],
        [("black", "white")] * 4,
    ))  # every class two-sided: one kind, so no pair can be a violation
    def test_moore_report_text_matches_scan(self, family_sides):
        family, sides = family_sides
        joined = AngleClasses(1, "join", 48, tuple(family), tuple(sides))
        assert _dumps(moore_check(joined, {})) == json.dumps(moore_by_scan(joined), indent=2)

    @pytest.mark.parametrize("case", ["meyer", "meyer-flipped", "jordan", "jordan-flipped"])
    def test_every_caller_meets_the_precondition(self, request, monkeypatch, case):
        # each call site passes classes that are sorted, pairwise disjoint and
        # in least-angle order, the only input the walk takes
        walk, calls, bad = circle.crossing_pairs, [], []

        def checked(module):
            def walking(classes):
                calls.append(module)
                if not (
                    all(all(map(lt, c, c[1:])) for c in classes)
                    and all(map(lt, classes, classes[1:]))
                    and len({x for c in classes for x in c}) == sum(map(len, classes))
                ):
                    bad.append((module, classes))
                return walk(classes)

            return walking

        for module in (mapspec, portraits, laminations):
            monkeypatch.setattr(module, "crossing_pairs", checked(module.__name__))
        run_pipeline(census_spec(request, case), depth=6)
        assert set(calls) == {"unmating.mapspec", "unmating.portraits", "unmating.laminations"}
        assert bad == []

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
