from __future__ import annotations

from fractions import Fraction

import pytest

from unmating.circle import Angle, orbit_signature, q_apply
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

from .oracles import _in_closed_sector, arcs_of, itinerary, itinerary_equal_to_horizon, label_by_scan

A = Angle.of


def portrait(color, d, *angle_sets) -> CriticalPortrait:
    return CriticalPortrait(
        color=color,
        degree=d,
        sets=[PreargumentSet.of(s, d) for s in angle_sets],
    )


MEYER_WHITE = portrait("white", 2, [A(5, 24), A(17, 24)])
MEYER_BLACK = portrait("black", 2, [A(1, 24), A(13, 24)])
# degree 3, nested sets: one sector is a union of two arcs, 0 is a boundary angle
TOY_DEGREE3 = portrait("white", 3, [A(0), A(1, 3)], [A(1, 2), A(5, 6)])


class TestExtraction:
    def test_meyer_portraits(self, meyer_result):
        assert [s.angles for s in meyer_result.white.sets] == [(A(5, 24), A(17, 24))]
        assert [s.angles for s in meyer_result.black.sets] == [(A(1, 24), A(13, 24))]

    def test_jordan_portraits(self, jordan_result):
        assert [s.angles for s in jordan_result.white.sets] == [(A(1, 4), A(3, 4))]
        assert [s.angles for s in jordan_result.black.sets] == [(A(1, 8), A(5, 8))]

    def test_preargument_property(self, meyer_result, jordan_result):
        for result in (meyer_result, jordan_result):
            for p in (result.white, result.black):
                for s in p.sets:
                    assert s.is_preargument
                    assert len({q_apply(a, result.spec.degree) for a in s.angles}) == 1

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
        # marking from either parameter at the critical vertex gives the same set
        from unmating.circle import q_preimages

        for cv in meyer_result.criticals:
            params = {meyer_result.pullback.s[j] for j in cv.visits}
            markings = {
                tuple(sorted(set(q_preimages(q_apply(alpha, 2), 2)) & params))
                for alpha in params
            }
            assert len(markings) == 1

    def test_marking_two_criticals_in_one_orbit(self):
        # synthetic degree-3 data: two same-color criticals, one mapping over
        # the other's parameter orbit; the start must be the non-reachable one
        v1 = ("v1", (A(1, 6), A(1, 2), A(5, 6)))       # q3: all -> 1/2
        v2 = ("v2", (A(1, 18), A(13, 18)))             # q3(1/18) = 1/6 lands on v1
        marked = _mark_color([v1, v2], 3)
        order = [v for v, _ in marked]
        assert order == ["v2", "v1"]
        sets = {v: ps for v, ps in marked}
        assert sets["v2"].angles == (A(1, 18), A(13, 18))
        assert sets["v1"].angles == (A(1, 6), A(1, 2), A(5, 6))
        # hierarchy: v1's set was entered at the orbit landing 1/6
        assert sets["v1"].preferred == A(1, 6)

    def test_marking_stuck_on_cyclic_orbits(self):
        # two criticals on one periodic parameter cycle reach each other, so
        # neither can start a marking chain
        v1 = ("v1", (A(1, 3),))
        v2 = ("v2", (A(2, 3),))
        with pytest.raises(PortraitError, match="stuck"):
            _mark_color([v1, v2], 2)

    def test_single_vertex_marks_itself(self):
        marked = _mark_color([("v1", (A(1, 6), A(2, 3)))], 3)
        assert len(marked) == 1


class TestSectors:
    def test_meyer_white_two_halves(self):
        sec = sectors(MEYER_WHITE, 2)
        assert sec.count == 2
        assert sec.lengths == (Fraction(1, 2), Fraction(1, 2))

    def test_diameter(self):
        sec = sectors(portrait("white", 2, [A(0), A(1, 2)]), 2)
        assert sec.count == 2
        assert sec.lengths == (Fraction(1, 2), Fraction(1, 2))

    def test_tripod(self):
        sec = sectors(portrait("white", 3, [A(0), A(1, 3), A(2, 3)]), 3)
        assert sec.count == 3
        assert sec.lengths == (Fraction(1, 3),) * 3

    def test_linked_sets_refused(self):
        bad = portrait("white", 3, [A(0), A(1, 2)], [A(1, 4), A(3, 4)])
        with pytest.raises(PortraitError, match="not unlinked"):
            sectors(bad, 3)

    def test_multi_set_sector_arcs(self):
        # degree 3, nested sets: middle sector is a union of two arcs
        sec = sectors(TOY_DEGREE3, 3)
        assert sec.count == 3
        arcs_per_sector = [len(arcs_of(sec, s)) for s in range(sec.count)]
        assert sorted(arcs_per_sector) == [1, 1, 2]
        assert all((l * 3).denominator == 1 for l in sec.lengths)


class TestSectorLabels:
    """Bisected labels against the arc-by-arc scan on a 1/(48 d) grid, which
    holds every boundary angle of these portraits."""

    def cases(self, meyer_result, jordan_result):
        for result in (meyer_result, jordan_result):
            for p in (result.white, result.black):
                yield sectors(p, 2), 2
        yield sectors(TOY_DEGREE3, 3), 3

    def test_label_of_matches_scan(self, meyer_result, jordan_result):
        for sec, d in self.cases(meyer_result, jordan_result):
            grid = [A(n, 48 * d) for n in range(48 * d)]
            assert set(sec.boundary) <= set(grid)
            for x in grid:
                for side in ("left", "right"):
                    assert sec.label_of(x, side) == label_by_scan(x, sec, side), (x, side)

    def test_two_sides_give_closed_sectors(self, meyer_result, jordan_result):
        for sec, d in self.cases(meyer_result, jordan_result):
            for n in range(48 * d):
                x = A(n, 48 * d)
                closed = {s for s in range(sec.count) if _in_closed_sector(x, sec, s)}
                assert {sec.label_of(x, "left"), sec.label_of(x, "right")} == closed, x


class TestItinerary:
    def test_shift_property(self):
        sec = sectors(MEYER_WHITE, 2)
        full = itinerary(A(5, 24), sec, 2, 4, "left")
        shifted = itinerary(A(5, 12), sec, 2, 3, "left")
        assert full[1:] == shifted

    def test_boundary_sides_differ(self):
        sec = sectors(MEYER_WHITE, 2)
        left = itinerary(A(5, 24), sec, 2, 4, "left")
        right = itinerary(A(5, 24), sec, 2, 4, "right")
        assert left[0] != right[0]
        assert left[1:] == right[1:]

    def test_fixed_zero_constant(self):
        sec = sectors(portrait("white", 2, [A(0), A(1, 2)]), 2)
        seq = itinerary(A(0), sec, 2, 6, "left")
        assert len(set(seq)) == 1

    def test_interior_angle_side_independent(self):
        sec = sectors(MEYER_WHITE, 2)
        assert itinerary(A(1, 3), sec, 2, 5, "left") == itinerary(A(1, 3), sec, 2, 5, "right")


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
        sig = orbit_signature(A(5, 24), 2)
        assert (sig.preperiod, sig.period) == (3, 2)

    def test_periodic_angle_fails_c5(self):
        # inserting the periodic angle 1/3 breaks the no-periodic condition
        broken = portrait("white", 2, [A(5, 24), A(17, 24), A(1, 3)])
        cert = certify(broken, 2)
        assert not cert["c5"]["passed"]
        assert "1/3" in cert["c5"]["detail"]
        assert not cert["valid"]

    def test_periodic_preargument_set_fails_c5_only_there(self):
        broken = portrait("white", 2, [A(1, 3), A(5, 6)])
        cert = certify(broken, 2)
        assert cert["preargument"]["passed"]
        assert cert["c1"]["passed"]
        assert not cert["c5"]["passed"]

    def test_deleting_angle_fails_c1(self):
        broken = portrait("white", 2, [A(5, 24)])
        cert = certify(broken, 2)
        assert not cert["c1"]["passed"]
        assert not cert["valid"]

    def test_non_preargument_flagged(self):
        broken = portrait("white", 2, [A(5, 24), A(1, 3)])
        cert = certify(broken, 2)
        assert not cert["preargument"]["passed"]

    def test_c7_detects_colliding_sequences(self):
        # {0, 1/2} with 0 participating: q(0) = 0 and q(1/2) = 0 share the
        # left tail, but symbol 0 differs, so c7 holds; a genuinely colliding
        # pair needs equal full sequences
        p = portrait("white", 2, [A(0), A(1, 2)])
        cert = certify(p, 2)
        assert cert["c7"]["passed"]

    def test_c7_agrees_with_horizon_oracle(self, meyer_result):
        for p in (meyer_result.white, meyer_result.black):
            sec = sectors(p, 2)
            parts = p.participants()
            horizon = max(
                orbit_signature(a, 2).preperiod + orbit_signature(a, 2).period for a in parts
            ) + 2
            for a in parts:
                for b in parts:
                    assert _same_left_sequence(a, b, sec, 2) == itinerary_equal_to_horizon(
                        a, b, sec, 2, horizon + 8
                    )

    def test_jordan_certificates(self, jordan_result):
        assert jordan_result.white.certificate["valid"]
        assert jordan_result.black.certificate["valid"]

    def test_extraction_feeds_valid_types(self, meyer_spec, meyer_result):
        white, black = extract_portraits(
            meyer_spec, meyer_result.pullback, meyer_result.criticals
        )
        assert [s.angles for s in white.sets] == [(A(5, 24), A(17, 24))]
        assert [s.angles for s in black.sets] == [(A(1, 24), A(13, 24))]


class TestHierarchicBookkeeping:
    # degree-3 chain: {1/27, 10/27} -> 1/9 enters {1/9, 4/9, 7/9},
    # whose image orbit 1/3 -> 0 never returns (all participants preperiodic)

    def test_c3_rejects_landing_off_preferred_element(self):
        top = PreargumentSet.of([A(1, 9), A(4, 9), A(7, 9)], 3, preferred=A(4, 9))
        src = PreargumentSet.of([A(1, 27), A(10, 27)], 3, preferred=A(1, 27))
        broken = CriticalPortrait(color="white", degree=3, sets=[top, src])
        cert = certify(broken, 3)
        assert not cert["c3"]["passed"]
        assert "preferred" in cert["c3"]["detail"]

    def test_c3_accepts_consistent_preferred_element(self):
        top = PreargumentSet.of([A(1, 9), A(4, 9), A(7, 9)], 3, preferred=A(1, 9))
        src = PreargumentSet.of([A(1, 27), A(10, 27)], 3, preferred=A(1, 27))
        portrait = CriticalPortrait(color="white", degree=3, sets=[top, src])
        assert certify(portrait, 3)["c3"]["passed"]

    def test_c3_rejects_scattered_landings(self):
        # two sources land on different elements of the target set
        top = PreargumentSet.of([A(1, 9), A(4, 9), A(7, 9)], 3)
        src1 = PreargumentSet.of([A(1, 27), A(10, 27)], 3)        # lands at 1/9
        src2 = PreargumentSet.of([A(4, 27), A(13, 27)], 3)        # lands at 4/9
        broken = CriticalPortrait(color="white", degree=3, sets=[top, src1, src2])
        cert = certify(broken, 3)
        assert not cert["c3"]["passed"]
        assert "several elements" in cert["c3"]["detail"]

    def test_extracted_chain_certifies_hierarchic(self):
        v1 = ("v1", (A(1, 9), A(4, 9), A(7, 9)))
        v2 = ("v2", (A(1, 27), A(10, 27)))
        marked = _mark_color([v1, v2], 3)
        assert [v for v, _ in marked] == ["v2", "v1"]
        chained = CriticalPortrait(color="white", degree=3, sets=[ps for _, ps in marked])
        cert = certify(chained, 3)
        assert cert["c3"]["passed"]
        assert cert["c5"]["passed"]
        sets = {v: ps for v, ps in marked}
        assert sets["v1"].preferred == A(1, 9)
