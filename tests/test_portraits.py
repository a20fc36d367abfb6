from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from unmating.circle import orbit_signature
from unmating.errors import PortraitError
from unmating.portraits import (
    CriticalPortrait,
    PreargumentSet,
    _mark_color,
    _same_left_sequence,
    certify,
    extract_portraits,
    sectors,
)

from .oracles import (
    _in_closed_sector,
    arcs_of,
    itinerary,
    itinerary_equal_to_horizon,
    label_by_scan,
    sectors_by_midpoints,
)


def portrait(color, d, grid, *angle_sets) -> CriticalPortrait:
    """A portrait whose sets hold the angles x/grid, given as the integers x."""
    return CriticalPortrait(
        color=color,
        degree=d,
        grid=grid,
        sets=[PreargumentSet.of(s) for s in angle_sets],
    )


def scaled(p: CriticalPortrait, m: int) -> CriticalPortrait:
    """The same portrait on the grid m times finer."""
    return CriticalPortrait(
        color=p.color,
        degree=p.degree,
        grid=m * p.grid,
        sets=[
            PreargumentSet.of(
                (m * a for a in s.angles),
                preferred=None if s.preferred is None else m * s.preferred,
            )
            for s in p.sets
        ],
    )


MEYER_WHITE = portrait("white", 2, 24, [5, 17])
MEYER_BLACK = portrait("black", 2, 24, [1, 13])
# degree 3, nested sets {0, 1/3} and {1/2, 5/6}: one sector is a union of two
# arcs, 0 is a boundary angle
TOY_DEGREE3 = portrait("white", 3, 6, [0, 2], [3, 5])


@st.composite
def random_portraits(draw):
    """Portraits of degree 2-4 on a grid d*M, M <= 12, with 1-3 sets: each
    either a set of d-fold preimages of one angle or an arbitrary set, with
    a preferred element or none.  Many are invalid, which certify reports."""
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
    return CriticalPortrait(color="white", degree=d, grid=grid, sets=sets)


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


class TestSectors:
    def test_meyer_white_two_halves(self):
        sec = sectors(MEYER_WHITE, 2)
        assert sec.count == 2
        assert sec.boundary == (5, 17)
        assert sec.lengths == (12, 12)  # 1/2 each

    def test_diameter(self):
        sec = sectors(portrait("white", 2, 2, [0, 1]), 2)
        assert sec.count == 2
        assert sec.lengths == (1, 1)

    def test_tripod(self):
        sec = sectors(portrait("white", 3, 3, [0, 1, 2]), 3)
        assert sec.count == 3
        assert sec.lengths == (1, 1, 1)

    def test_linked_sets_refused(self):
        bad = portrait("white", 3, 4, [0, 2], [1, 3])
        with pytest.raises(PortraitError, match="not unlinked"):
            sectors(bad, 3)

    def test_multi_set_sector_arcs(self):
        # degree 3, nested sets: middle sector is a union of two arcs
        sec = sectors(TOY_DEGREE3, 3)
        assert sec.count == 3
        arcs_per_sector = [len(arcs_of(sec, 6, s)) for s in range(sec.count)]
        assert sorted(arcs_per_sector) == [1, 1, 2]
        assert all(l * 3 % 6 == 0 for l in sec.lengths)

    def test_length_not_multiple_of_degree_refused(self):
        with pytest.raises(PortraitError, match=re.escape("sector 0 has length 1/3, not a multiple of 1/2")):
            sectors(portrait("white", 2, 3, [0, 1]), 2)


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

    def test_label_of_matches_scan(self, meyer_result, jordan_result):
        for p, d in self.cases(meyer_result, jordan_result):
            q, sec = self.fine(p, d)
            assert q.grid % (48 * d) == 0
            for x in range(q.grid):
                for side in ("left", "right"):
                    assert sec.label_of(x, side) == label_by_scan(
                        Fraction(x, q.grid), sec, q.grid, side
                    ), (x, side)

    def test_two_sides_give_closed_sectors(self, meyer_result, jordan_result):
        for p, d in self.cases(meyer_result, jordan_result):
            q, sec = self.fine(p, d)
            for x in range(q.grid):
                t = Fraction(x, q.grid)
                closed = {s for s in range(sec.count) if _in_closed_sector(t, sec, q.grid, s)}
                assert {sec.label_of(x, "left"), sec.label_of(x, "right")} == closed, x

    @given(random_portraits())
    @example(TOY_DEGREE3)
    @example(portrait("white", 2, 4, [3], [0, 1]))  # an arc starts at a vertex of one hull only
    def test_sectors_match_midpoint_oracle(self, p):
        try:
            sec = sectors(p, p.degree)
        except PortraitError:
            assume(False)
        labels, lengths = sectors_by_midpoints([[Fraction(a, p.grid) for a in s.angles] for s in p.sets])
        assert sec.sector_of_arc == labels
        assert [Fraction(l, p.grid) for l in sec.lengths] == lengths

    @given(random_portraits())
    def test_label_of_matches_scan_on_random_portraits(self, p):
        try:
            sec = sectors(p, p.degree)
        except PortraitError:
            assume(False)
        for x in range(p.grid):
            for side in ("left", "right"):
                assert sec.label_of(x, side) == label_by_scan(Fraction(x, p.grid), sec, p.grid, side)


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
        sec = sectors(portrait("white", 2, 2, [0, 1]), 2)
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
        sig = orbit_signature(5, 2, 24)
        assert (sig.preperiod, sig.period) == (3, 2)

    def test_periodic_angle_fails_c5(self):
        # inserting the periodic angle 1/3 breaks the no-periodic condition
        broken = portrait("white", 2, 24, [5, 17, 8])
        cert = certify(broken, 2)
        assert not cert["c5"]["passed"]
        assert cert["c5"]["detail"] == "periodic participants: 1/3"
        assert not cert["valid"]

    def test_periodic_preargument_set_fails_c5_only_there(self):
        broken = portrait("white", 2, 6, [2, 5])  # {1/3, 5/6}
        cert = certify(broken, 2)
        assert cert["preargument"]["passed"]
        assert cert["c1"]["passed"]
        assert not cert["c5"]["passed"]

    def test_deleting_angle_fails_c1(self):
        broken = portrait("white", 2, 24, [5])
        cert = certify(broken, 2)
        assert not cert["c1"]["passed"]
        assert not cert["valid"]

    def test_non_preargument_flagged(self):
        broken = portrait("white", 2, 24, [5, 8])  # {5/24, 1/3}
        cert = certify(broken, 2)
        assert not cert["preargument"]["passed"]

    def test_c7_detects_colliding_sequences(self):
        # {0, 1/2} with 0 participating: q(0) = 0 and q(1/2) = 0 share the
        # left tail, but symbol 0 differs, so c7 holds; a genuinely colliding
        # pair needs equal full sequences
        p = portrait("white", 2, 2, [0, 1])
        cert = certify(p, 2)
        assert cert["c7"]["passed"]

    def test_c7_agrees_with_horizon_oracle(self, meyer_result):
        for p in (meyer_result.white, meyer_result.black):
            sec = sectors(p, 2)
            parts = p.participants()
            horizon = max(
                orbit_signature(a, 2, p.grid).preperiod + orbit_signature(a, 2, p.grid).period
                for a in parts
            ) + 2
            for a in parts:
                for b in parts:
                    assert _same_left_sequence(a, b, sec, 2, p.grid) == itinerary_equal_to_horizon(
                        Fraction(a, p.grid), Fraction(b, p.grid), sec, p.grid, 2, horizon + 8
                    )

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
    a wrong grid in q_apply, orbit_signature or frac shows as a difference."""

    @given(random_portraits(), st.integers(2, 5))
    def test_certificate_and_sectors_unchanged(self, p, m):
        fine = scaled(p, m)
        assert certify(fine, p.degree) == certify(p, p.degree)
        try:
            sec = sectors(p, p.degree)
        except PortraitError as e:
            with pytest.raises(PortraitError, match=f"^{re.escape(str(e))}$"):
                sectors(fine, p.degree)
            return
        fine_sec = sectors(fine, p.degree)
        assert fine_sec.sector_of_arc == sec.sector_of_arc
        assert fine_sec.boundary == tuple(m * b for b in sec.boundary)
        assert fine_sec.lengths == tuple(m * l for l in sec.lengths)

    def test_meyer_certificates_on_finer_grid(self, meyer_result):
        for p in (meyer_result.white, meyer_result.black):
            assert certify(scaled(p, 3), 2) == p.certificate


class TestHierarchicBookkeeping:
    # degree-3 chain on the grid 1/27: {1/27, 10/27} -> 1/9 enters
    # {1/9, 4/9, 7/9}, whose image orbit 1/3 -> 0 never returns (all
    # participants preperiodic)

    def test_c3_rejects_landing_off_preferred_element(self):
        top = PreargumentSet.of([3, 12, 21], preferred=12)
        src = PreargumentSet.of([1, 10], preferred=1)
        broken = CriticalPortrait(color="white", degree=3, grid=27, sets=[top, src])
        cert = certify(broken, 3)
        assert not cert["c3"]["passed"]
        assert "preferred" in cert["c3"]["detail"]

    def test_c3_accepts_consistent_preferred_element(self):
        top = PreargumentSet.of([3, 12, 21], preferred=3)
        src = PreargumentSet.of([1, 10], preferred=1)
        portrait = CriticalPortrait(color="white", degree=3, grid=27, sets=[top, src])
        assert certify(portrait, 3)["c3"]["passed"]

    def test_c3_rejects_scattered_landings(self):
        # two sources land on different elements of the target set
        top = PreargumentSet.of([3, 12, 21])
        src1 = PreargumentSet.of([1, 10])        # lands at 1/9
        src2 = PreargumentSet.of([4, 13])        # lands at 4/9
        broken = CriticalPortrait(color="white", degree=3, grid=27, sets=[top, src1, src2])
        cert = certify(broken, 3)
        assert not cert["c3"]["passed"]
        assert cert["c3"]["detail"] == "set 0 entered at several elements: 1/9, 4/9"

    def test_extracted_chain_certifies_hierarchic(self):
        v1 = ("v1", (3, 12, 21))
        v2 = ("v2", (1, 10))
        marked = _mark_color([v1, v2], 3, 27)
        assert [v for v, _ in marked] == ["v2", "v1"]
        chained = CriticalPortrait(color="white", degree=3, grid=27, sets=[ps for _, ps in marked])
        cert = certify(chained, 3)
        assert cert["c3"]["passed"]
        assert cert["c5"]["passed"]
        sets = {v: ps for v, ps in marked}
        assert sets["v1"].preferred == 3
