from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from random import Random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from unmating.circle import orbit, q_apply
from unmating.errors import PortraitError
from unmating.portraits import (
    CriticalPortrait,
    PreargumentSet,
    _left_sequence_classes,
    _mark_color,
    certify,
    extract_portraits,
    sectors,
)

from .oracles import (
    _in_closed_sector,
    arcs_of,
    certify_by_horizon,
    hulls_linked,
    itinerary,
    itinerary_equal_to_horizon,
    label_by_scan,
    mark_color_by_iteration,
    sector_count,
    sector_lengths,
    sectors_by_midpoints,
)


def portrait(color, grid, *angle_sets) -> CriticalPortrait:
    """A portrait whose sets hold the angles x/grid, given as the integers x."""
    return CriticalPortrait(color=color, grid=grid, sets=[PreargumentSet.of(s) for s in angle_sets])


def scaled(p: CriticalPortrait, m: int) -> CriticalPortrait:
    """The same portrait on the grid m times finer."""
    return CriticalPortrait(
        color=p.color,
        grid=m * p.grid,
        sets=[
            PreargumentSet.of(
                (m * a for a in s.angles),
                preferred=None if s.preferred is None else m * s.preferred,
            )
            for s in p.sets
        ],
    )


MEYER_WHITE = portrait("white", 24, [5, 17])
MEYER_BLACK = portrait("black", 24, [1, 13])
# degree 3, nested sets {0, 1/3} and {1/2, 5/6}: one sector is a union of two
# arcs, 0 is a boundary angle
TOY_DEGREE3 = portrait("white", 6, [0, 2], [3, 5])
# degree-2 portraits that fail c7, with the first clash certify names
C7_CLASHES = [
    (portrait("white", 6, [1, 4], [5]), "q^0(1/6) = 1/6 and 5/6 share a left symbol sequence"),
    (portrait("white", 6, [1, 4]), "q^1(1/6) = 1/3 and 2/3 share a left symbol sequence"),
    (portrait("white", 10, [2, 7]), "q^2(1/5) = 4/5 and 1/5 share a left symbol sequence"),
]
# (portrait, degree) whose sets share an angle: {1/8, 3/8, 7/8} and
# {1/8, 5/8}, and {8/27, 26/27} twice, which would count twice toward c1
SHARED_ANGLE = [
    (portrait("white", 8, [1, 3, 7], [1, 5]), 4),
    (portrait("white", 8, [1, 5], [1, 3, 7]), 4),
    (portrait("white", 27, [8, 26], [8, 26]), 3),
]


@st.composite
def random_portraits(draw):
    """(portrait, d): portraits of degree 2-4 on a grid d*M, M <= 12, with
    1-3 sets: each either a set of d-fold preimages of one angle or an
    arbitrary set, with a preferred element or none.  Many are invalid,
    which certify reports."""
    d = draw(st.integers(2, 4))
    step = draw(st.integers(1, 12))
    grid = d * step
    preimages = st.tuples(
        st.integers(0, step - 1), st.sets(st.integers(0, d - 1), min_size=2)
    ).map(lambda xj: {xj[0] + j * step for j in xj[1]})
    arbitrary = st.sets(st.integers(0, grid - 1), min_size=1, max_size=4)
    sets = []
    for angles in draw(st.lists(preimages | arbitrary, min_size=1, max_size=3)):
        preferred = draw(st.none() | st.sampled_from(sorted(angles)))
        sets.append(PreargumentSet.of(angles, preferred=preferred))
    return CriticalPortrait(color="white", grid=grid, sets=sets), d


@st.composite
def unlinked_preargument_portraits(draw):
    """(portrait, d): portraits of degree 2-5 on a grid d*M, M <= 12, whose
    sets are disjoint, pairwise unlinked preargument sets: of 2d candidate
    sets of d-fold preimages of one angle, each is kept when it misses the
    angles of the sets kept before and links none of them (the
    `hulls_linked` oracle).  No bound on sum(|A|-1) is imposed; about two
    draws in three reach d - 1."""
    d = draw(st.integers(2, 5))
    step = draw(st.integers(1, 12))
    sets: list[PreargumentSet] = []
    for _ in range(2 * d):
        x, size = draw(st.integers(0, step - 1)), draw(st.integers(2, d))
        angles = {x + j * step for j in draw(st.sets(st.integers(0, d - 1), min_size=size, max_size=size))}
        if all(angles.isdisjoint(s.angles) and not hulls_linked(angles, s.angles) for s in sets):
            sets.append(PreargumentSet.of(angles))
    return CriticalPortrait(color="white", grid=d * step, sets=sets), d


@st.composite
def random_crits(draw):
    """Marking inputs: one to four critical vertices on a grid <= 48, each
    with one to four curve parameters, and a degree 2-4."""
    d = draw(st.integers(2, 4))
    grid = draw(st.integers(1, 48))
    params = st.sets(st.integers(0, grid - 1), min_size=1, max_size=4).map(lambda p: tuple(sorted(p)))
    crits = [(f"v{i}", p) for i, p in enumerate(draw(st.lists(params, min_size=1, max_size=4)))]
    return crits, d, grid


class TestExtraction:
    def test_meyer_portraits(self, meyer_result):
        assert meyer_result.white.grid == meyer_result.black.grid == 24
        assert [s.angles for s in meyer_result.white.sets] == [(5, 17)]
        assert [s.angles for s in meyer_result.black.sets] == [(1, 13)]

    def test_jordan_portraits(self, jordan_result):
        assert jordan_result.white.grid == jordan_result.black.grid == 8
        assert [s.angles for s in jordan_result.white.sets] == [(2, 6)]
        assert [s.angles for s in jordan_result.black.sets] == [(1, 5)]

    def test_preargument_property(self, meyer_result, jordan_result):
        for result in (meyer_result, jordan_result):
            for p in (result.white, result.black):
                assert p.certificate["preargument"]["passed"]
                for s in p.sets:
                    assert len(s.angles) >= 2
                    images = {result.spec.degree * Fraction(a, p.grid) % 1 for a in s.angles}
                    assert len(images) == 1

    def test_set_size_matches_local_degree(self, meyer_result):
        by_color = {"white": meyer_result.white, "black": meyer_result.black}
        for cv in meyer_result.criticals:
            for color in cv.colors:
                sets = by_color[color].sets
                assert any(len(s.angles) == cv.local_degree for s in sets)

    def test_count_condition_forced_at_degree_two(self, meyer_result):
        for p in (meyer_result.white, meyer_result.black):
            assert sum(len(s.angles) - 1 for s in p.sets) == 1

    def test_choice_independence(self, meyer_spec, meyer_result):
        # marking from either parameter at the critical vertex gives the same
        # set: the parameters there that are preimages of alpha's image
        pullback = meyer_result.pullback
        for cv in meyer_result.criticals:
            params = {Fraction(pullback.s[j], pullback.grid) for j in cv.visits}
            markings = {
                tuple(sorted(p for p in params if 2 * p % 1 == 2 * alpha % 1))
                for alpha in params
            }
            assert len(markings) == 1

    def test_marking_two_criticals_in_one_orbit(self):
        # synthetic degree-3 data on the grid 1/18: two same-color criticals,
        # one mapping over the other's parameter orbit; the start must be the
        # non-reachable one
        v1 = ("v1", (3, 9, 15))   # 1/6, 1/2, 5/6 -> 1/2 under q3
        v2 = ("v2", (1, 13))      # q3(1/18) = 1/6 lands on v1
        marked = _mark_color([v1, v2], 3, 18)
        order = [v for v, _ in marked]
        assert order == ["v2", "v1"]
        sets = {v: ps for v, ps in marked}
        assert sets["v2"].angles == (1, 13)
        assert sets["v1"].angles == (3, 9, 15)
        # hierarchy: v1's set was entered at the orbit landing 1/6
        assert sets["v1"].preferred == 3

    def test_marking_stuck_on_cyclic_orbits(self):
        # two criticals on one periodic parameter cycle (1/3, 2/3) reach each
        # other, so neither can start a marking chain
        v1 = ("v1", (1,))
        v2 = ("v2", (2,))
        with pytest.raises(PortraitError, match="stuck"):
            _mark_color([v1, v2], 2, 3)

    def test_single_vertex_marks_itself(self):
        marked = _mark_color([("v1", (1, 4))], 3, 6)
        assert len(marked) == 1

    @given(random_crits())
    @example(([("v1", (3, 9, 15)), ("v2", (1, 13))], 3, 18))
    @example(([("v1", (1,)), ("v2", (2,))], 2, 3))
    def test_marking_matches_iteration_oracle(self, case):
        """The marked list, or the stuck text, of the Fraction walk."""
        def outcome(mark):
            try:
                return mark(*case)
            except PortraitError as e:
                return str(e)

        assert outcome(_mark_color) == outcome(mark_color_by_iteration)


class TestSectors:
    def test_meyer_white_two_halves(self):
        sec = sectors(MEYER_WHITE, 2)
        assert sector_count(sec) == 2
        assert sec.boundary == (5, 17)
        assert sector_lengths(sec, 24) == [Fraction(1, 2)] * 2

    def test_diameter(self):
        sec = sectors(portrait("white", 2, [0, 1]), 2)
        assert sector_count(sec) == 2
        assert sector_lengths(sec, 2) == [Fraction(1, 2)] * 2

    def test_tripod(self):
        sec = sectors(portrait("white", 3, [0, 1, 2]), 3)
        assert sector_count(sec) == 3
        assert sector_lengths(sec, 3) == [Fraction(1, 3)] * 3

    def test_linked_sets_refused(self):
        bad = portrait("white", 4, [0, 2], [1, 3])
        with pytest.raises(PortraitError, match="not unlinked"):
            sectors(bad, 3)

    def test_multi_set_sector_arcs(self):
        # degree 3, nested sets: middle sector is a union of two arcs
        sec = sectors(TOY_DEGREE3, 3)
        assert sector_count(sec) == 3
        arcs_per_sector = [len(arcs_of(sec, 6, s)) for s in range(sector_count(sec))]
        assert sorted(arcs_per_sector) == [1, 1, 2]
        assert all(l * 3 % 1 == 0 for l in sector_lengths(sec, 6))

    def test_length_not_multiple_of_degree_refused(self):
        # {0, 1/3} cuts sectors of lengths 1/3 and 2/3, and its angles map
        # to 0 and 2/3: certify refuses it as no preargument set
        p = portrait("white", 3, [0, 1])
        assert sector_lengths(sectors(p, 2), 3) == [Fraction(1, 3), Fraction(2, 3)]
        cert = certify(p, 2)
        assert cert["preargument"] == {"passed": False, "detail": "some set is not a preargument set"}
        assert cert["unlinked"]["passed"] and not cert["valid"]


class TestSectorLengthTheorem:
    """Unlinked preargument sets cut the circle into sectors whose lengths
    are multiples of 1/d; with c1, into d sectors of length 1/d each, which
    is why `sectors` does not check the lengths."""

    @given(unlinked_preargument_portraits())
    @example((MEYER_WHITE, 2))
    @example((portrait("white", 8, [1, 3], [5, 7]), 4))  # two sets, sum(|A|-1) = 2 < d - 1
    def test_sector_lengths_are_multiples_of_one_over_d(self, drawn):
        p, d = drawn
        cert = certify(p, d)
        assert cert["preargument"]["passed"] and cert["unlinked"]["passed"]
        sec = sectors(p, d)
        lengths = sector_lengths(sec, p.grid)
        assert sum(lengths) == 1
        assert all(l > 0 and l * d % 1 == 0 for l in lengths), lengths
        # each set of n angles cuts one region into n
        assert sector_count(sec) == len(lengths) == 1 + sum(len(s.angles) - 1 for s in p.sets) <= d

    @given(unlinked_preargument_portraits())
    @example((TOY_DEGREE3, 3))
    @example((portrait("white", 5, [0, 1, 2, 3, 4]), 5))
    def test_c1_cuts_d_sectors_of_length_one_over_d(self, drawn):
        p, d = drawn
        assume(certify(p, d)["c1"]["passed"])
        assert sector_lengths(sectors(p, d), p.grid) == [Fraction(1, d)] * d


class TestSectorLabels:
    """Bisected labels against the arc-by-arc Fraction scan, at every point
    of a 1/(48 d) grid refining the portrait's."""

    def cases(self, meyer_result, jordan_result):
        for result in (meyer_result, jordan_result):
            for p in (result.white, result.black):
                yield p, 2
        yield TOY_DEGREE3, 3

    def fine(self, p, d):
        """The portrait on the least grid holding it and 1/(48 d), and its sectors."""
        q = scaled(p, lcm(p.grid, 48 * d) // p.grid)
        return q, sectors(q, d)

    def test_side_labels_match_scan(self, meyer_result, jordan_result):
        for p, d in self.cases(meyer_result, jordan_result):
            q, sec = self.fine(p, d)
            assert q.grid % (48 * d) == 0
            for x in range(q.grid):
                for side, i in (("left", 0), ("right", -1)):
                    assert sec.closed_labels(x)[i] == label_by_scan(
                        Fraction(x, q.grid), sec, q.grid, side
                    ), (x, side)

    def test_two_sides_give_closed_sectors(self, meyer_result, jordan_result):
        for p, d in self.cases(meyer_result, jordan_result):
            q, sec = self.fine(p, d)
            for x in range(q.grid):
                t = Fraction(x, q.grid)
                closed = {s for s in range(sector_count(sec)) if _in_closed_sector(t, sec, q.grid, s)}
                assert {sec.closed_labels(x)[0], sec.closed_labels(x)[-1]} == closed, x
                assert sorted(sec.closed_labels(x)) == sorted(closed), x

    @given(random_portraits())
    @example((TOY_DEGREE3, 3))
    @example((portrait("white", 4, [3], [0, 1]), 2))  # an arc starts at a vertex of one hull only
    def test_sectors_match_midpoint_oracle(self, drawn):
        p, d = drawn
        try:
            sec = sectors(p, d)
        except PortraitError:
            assume(False)
        labels, lengths = sectors_by_midpoints([[Fraction(a, p.grid) for a in s.angles] for s in p.sets])
        assert sec.sector_of_arc == labels
        assert sector_lengths(sec, p.grid) == lengths

    @given(random_portraits())
    def test_side_labels_match_scan_on_random_portraits(self, drawn):
        p, d = drawn
        try:
            sec = sectors(p, d)
        except PortraitError:
            assume(False)
        for x in range(p.grid):
            for side, i in (("left", 0), ("right", -1)):
                assert sec.closed_labels(x)[i] == label_by_scan(Fraction(x, p.grid), sec, p.grid, side)


class TestItinerary:
    def test_shift_property(self):
        sec = sectors(MEYER_WHITE, 2)
        full = itinerary(Fraction(5, 24), sec, 24, 2, 4, "left")
        shifted = itinerary(Fraction(5, 12), sec, 24, 2, 3, "left")
        assert full[1:] == shifted

    def test_boundary_sides_differ(self):
        sec = sectors(MEYER_WHITE, 2)
        left = itinerary(Fraction(5, 24), sec, 24, 2, 4, "left")
        right = itinerary(Fraction(5, 24), sec, 24, 2, 4, "right")
        assert left[0] != right[0]
        assert left[1:] == right[1:]

    def test_fixed_zero_constant(self):
        sec = sectors(portrait("white", 2, [0, 1]), 2)
        seq = itinerary(Fraction(0), sec, 2, 2, 6, "left")
        assert len(set(seq)) == 1

    def test_interior_angle_side_independent(self):
        sec = sectors(MEYER_WHITE, 2)
        t = Fraction(1, 3)
        assert itinerary(t, sec, 24, 2, 5, "left") == itinerary(t, sec, 24, 2, 5, "right")


class TestCertify:
    def test_meyer_white_passes(self, meyer_result):
        cert = meyer_result.white.certificate
        assert cert["valid"]
        for name in ("c1", "c3", "c5", "c7"):
            assert cert[name]["passed"], (name, cert[name])
        for name in ("c2", "c4", "c6"):
            assert cert[name]["passed"] and cert[name]["vacuous"]

    def test_meyer_black_passes(self, meyer_result):
        assert meyer_result.black.certificate["valid"]

    def test_c5_witness(self):
        o = orbit(5, 2, 24)
        first = o.index(q_apply(o[-1], 2, 24))
        assert (first, len(o) - first) == (3, 2)  # preperiod 3, period 2

    def test_periodic_angle_fails_c5(self):
        # inserting the periodic angle 1/3 breaks the no-periodic condition
        broken = portrait("white", 24, [5, 17, 8])
        cert = certify(broken, 2)
        assert not cert["c5"]["passed"]
        assert cert["c5"]["detail"] == "periodic participants: 1/3"
        assert not cert["valid"]

    def test_periodic_preargument_set_fails_c5_only_there(self):
        broken = portrait("white", 6, [2, 5])  # {1/3, 5/6}
        cert = certify(broken, 2)
        assert cert["preargument"]["passed"]
        assert cert["c1"]["passed"]
        assert not cert["c5"]["passed"]

    def test_deleting_angle_fails_c1(self):
        broken = portrait("white", 24, [5])
        cert = certify(broken, 2)
        assert not cert["c1"]["passed"]
        assert not cert["valid"]

    def test_non_preargument_flagged(self):
        broken = portrait("white", 24, [5, 8])  # {5/24, 1/3}
        cert = certify(broken, 2)
        assert not cert["preargument"]["passed"]

    def test_c7_detects_colliding_sequences(self):
        # {0, 1/2} with 0 participating: q(0) = 0 and q(1/2) = 0 share the
        # left tail, but symbol 0 differs, so c7 holds; a genuinely colliding
        # pair needs equal full sequences
        p = portrait("white", 2, [0, 1])
        cert = certify(p, 2)
        assert cert["c7"]["passed"]

    def test_c7_agrees_with_horizon_oracle(self, meyer_result):
        # the refinement's classes over the participants' iterates against
        # literal left strings, 2 * grid symbols long, on every pair
        for p in (meyer_result.white, meyer_result.black, *(p for p, _ in C7_CLASHES)):
            sec = sectors(p, 2)
            xs = {x for a in p.participants() for x in orbit(a, 2, p.grid)}
            cls = _left_sequence_classes(xs, sec, 2, p.grid)
            for a in xs:
                for b in xs:
                    assert (cls[a] == cls[b]) == itinerary_equal_to_horizon(
                        Fraction(a, p.grid), Fraction(b, p.grid), sec, p.grid, 2, 2 * p.grid
                    ), (a, b)

    @settings(deadline=None)  # the oracle compares Fraction itineraries 2 * grid long
    @given(random_portraits())
    @example((C7_CLASHES[0][0], 2))
    @example((C7_CLASHES[1][0], 2))
    @example((C7_CLASHES[2][0], 2))
    @example((TOY_DEGREE3, 3))
    def test_certificate_matches_horizon_oracle(self, drawn):
        p, d = drawn
        assert certify(p, d) == certify_by_horizon(p, d)

    @pytest.mark.parametrize("p, detail", C7_CLASHES)
    def test_c7_names_first_clash(self, p, detail):
        assert certify(p, 2)["c7"] == {"passed": False, "detail": detail}

    def test_jordan_certificates(self, jordan_result):
        assert jordan_result.white.certificate["valid"]
        assert jordan_result.black.certificate["valid"]

    def test_extraction_feeds_valid_types(self, meyer_spec, meyer_result):
        white, black = extract_portraits(
            meyer_spec, meyer_result.pullback, meyer_result.criticals
        )
        assert (white.grid, black.grid) == (24, 24)
        assert [s.angles for s in white.sets] == [(5, 17)]
        assert [s.angles for s in black.sets] == [(1, 13)]


class TestGridRefinement:
    """A portrait and the same portrait on a finer grid are one portrait:
    a wrong grid in q_apply, orbit or frac shows as a difference."""

    @given(random_portraits(), st.integers(2, 5))
    def test_certificate_and_sectors_unchanged(self, drawn, m):
        p, d = drawn
        fine = scaled(p, m)
        assert certify(fine, d) == certify(p, d)
        try:
            sec = sectors(p, d)
        except PortraitError as e:
            with pytest.raises(PortraitError, match=f"^{re.escape(str(e))}$"):
                sectors(fine, d)
            return
        fine_sec = sectors(fine, d)
        assert fine_sec.sector_of_arc == sec.sector_of_arc
        assert fine_sec.boundary == tuple(m * b for b in sec.boundary)
        assert sector_lengths(fine_sec, fine.grid) == sector_lengths(sec, p.grid)
        assert sec.scaled(m) == fine_sec

    def test_meyer_certificates_on_finer_grid(self, meyer_result):
        for p in (meyer_result.white, meyer_result.black):
            assert certify(scaled(p, 3), 2) == p.certificate


def refused_as_linked(p: CriticalPortrait, d: int) -> bool:
    try:
        sectors(p, d)
    except PortraitError as e:
        return str(e) == "portrait not unlinked"
    return False


class TestSharedAngles:
    """Sets that share an angle count as linked, whatever their order."""

    @pytest.mark.parametrize("p, d", SHARED_ANGLE)
    def test_shared_angle_is_not_unlinked(self, p, d):
        cert = certify(p, d)
        assert cert["unlinked"] == {"passed": False, "detail": "portrait not unlinked"}
        assert not cert["valid"]

    @given(random_portraits(), st.randoms())
    @example(SHARED_ANGLE[0], Random(0))  # which reverses the two sets
    def test_unlinked_verdict_ignores_set_order(self, drawn, rnd):
        p, d = drawn
        sets = rnd.sample(p.sets, len(p.sets))
        moved = CriticalPortrait(color=p.color, grid=p.grid, sets=sets)
        assert certify(moved, d)["unlinked"] == certify(p, d)["unlinked"]

    @given(random_portraits())
    @example((TOY_DEGREE3, 3))
    @example((portrait("white", 4, [0, 2], [1, 3]), 3))
    def test_disjoint_sets_refused_exactly_when_oracle_links(self, drawn):
        p, d = drawn
        hulls = [s.angles for s in p.sets]
        assume(len({x for h in hulls for x in h}) == sum(map(len, hulls)))
        linked = any(hulls_linked(a, b) for i, a in enumerate(hulls) for j, b in enumerate(hulls) if i != j)
        assert refused_as_linked(p, d) == linked


class TestHierarchicBookkeeping:
    # degree-3 chain on the grid 1/27: {1/27, 10/27} -> 1/9 enters
    # {1/9, 4/9, 7/9}, whose image orbit 1/3 -> 0 never returns (all
    # participants preperiodic)

    def test_c3_rejects_landing_off_preferred_element(self):
        top = PreargumentSet.of([3, 12, 21], preferred=12)
        src = PreargumentSet.of([1, 10], preferred=1)
        broken = CriticalPortrait(color="white", grid=27, sets=[top, src])
        cert = certify(broken, 3)
        assert not cert["c3"]["passed"]
        assert "preferred" in cert["c3"]["detail"]

    def test_c3_accepts_consistent_preferred_element(self):
        top = PreargumentSet.of([3, 12, 21], preferred=3)
        src = PreargumentSet.of([1, 10], preferred=1)
        portrait = CriticalPortrait(color="white", grid=27, sets=[top, src])
        assert certify(portrait, 3)["c3"]["passed"]

    def test_c3_rejects_scattered_landings(self):
        # two sources land on different elements of the target set
        top = PreargumentSet.of([3, 12, 21])
        src1 = PreargumentSet.of([1, 10])        # lands at 1/9
        src2 = PreargumentSet.of([4, 13])        # lands at 4/9
        broken = CriticalPortrait(color="white", grid=27, sets=[top, src1, src2])
        cert = certify(broken, 3)
        assert not cert["c3"]["passed"]
        assert cert["c3"]["detail"] == "set 0 entered at several elements: 1/9, 4/9"

    def test_extracted_chain_certifies_hierarchic(self):
        v1 = ("v1", (3, 12, 21))
        v2 = ("v2", (1, 10))
        marked = _mark_color([v1, v2], 3, 27)
        assert [v for v, _ in marked] == ["v2", "v1"]
        chained = CriticalPortrait(color="white", grid=27, sets=[ps for _, ps in marked])
        cert = certify(chained, 3)
        assert cert["c3"]["passed"]
        assert cert["c5"]["passed"]
        sets = {v: ps for v, ps in marked}
        assert sets["v1"].preferred == 3
