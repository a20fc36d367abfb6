from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unmating.circle import (
    Angle,
    arc_sum,
    orbit_signature,
    q_apply,
    q_preimages,
)

A = Angle.of

MEYER_LENGTHS = [Fraction(1, 12), Fraction(1, 6), Fraction(1, 12), Fraction(1, 4), Fraction(1, 6), Fraction(1, 4)]

angles = st.builds(
    lambda n, d: Angle.of(n % d, d),
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=1, max_value=97),
)
degrees = st.integers(min_value=2, max_value=6)


class TestQApply:
    def test_meyer_doubling_identity(self):
        # inverse direction of the q_2^{-1}(5/12) step
        assert q_apply(A(5, 24), 2) == A(5, 12)

    def test_fixed_point(self):
        assert q_apply(A(0), 7) == A(0)

    def test_wraps(self):
        assert q_apply(A(2, 3), 2) == A(1, 3)

    def test_rejects_degree_one(self):
        with pytest.raises(ValueError):
            q_apply(A(1, 2), 1)


class TestQPreimages:
    def test_white_portrait_preimages(self):
        assert q_preimages(A(5, 12), 2) == [A(5, 24), A(17, 24)]

    def test_black_portrait_preimages(self):
        assert q_preimages(A(1, 12), 2) == [A(1, 24), A(13, 24)]

    def test_zero_degree_three(self):
        assert q_preimages(A(0), 3) == [A(0), A(1, 3), A(2, 3)]

    @given(angles, degrees)
    def test_roundtrip_and_distinct(self, t, d):
        pres = q_preimages(t, d)
        assert len(set(pres)) == d
        assert all(q_apply(p, d) == t for p in pres)
        assert pres == sorted(pres)


class TestOrbitSignature:
    def test_preperiodic(self):
        sig = orbit_signature(A(5, 24), 2)
        assert (sig.preperiod, sig.period) == (3, 2)
        assert not sig.is_periodic

    def test_fixed(self):
        assert (orbit_signature(A(0), 2).preperiod, orbit_signature(A(0), 2).period) == (0, 1)

    def test_periodic_cycle(self):
        sig = orbit_signature(A(1, 7), 2)
        assert (sig.preperiod, sig.period) == (0, 3)

    @given(angles, degrees)
    def test_orbit_closes(self, t, d):
        sig = orbit_signature(t, d)
        u = t
        for _ in range(sig.preperiod):
            u = q_apply(u, d)
        v = u
        for _ in range(sig.period):
            v = q_apply(v, d)
        assert u == v


class TestArcSum:
    def test_meyer_p2_to_p1(self):
        # p2 marker is index 0, p1 marker is index 3: crosses l1+l2+l3
        assert arc_sum(MEYER_LENGTHS, 0, 3) == Fraction(1, 3)

    def test_empty_walk(self):
        assert arc_sum(MEYER_LENGTHS, 2, 2) == 0

    def test_full_cycle(self):
        assert arc_sum(MEYER_LENGTHS, 2, 2, full_cycle=True) == 1

    def test_wraps(self):
        assert arc_sum(MEYER_LENGTHS, 4, 1) == Fraction(1, 6) + Fraction(1, 4) + Fraction(1, 12)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            arc_sum(MEYER_LENGTHS, 0, 6)

