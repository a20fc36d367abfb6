from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unmating.circle import (
    arc_sum,
    frac,
    orbit,
    q_apply,
)

MEYER_LENGTHS = [1, 2, 1, 3, 2, 3]  # twelfths: 1/12, 1/6, 1/12, 1/4, 1/6, 1/4

# (x, grid): the angle x/grid
angles = st.integers(min_value=1, max_value=97).flatmap(
    lambda grid: st.tuples(st.integers(min_value=0, max_value=grid - 1), st.just(grid))
)
degrees = st.integers(min_value=2, max_value=6)


class TestQApply:
    def test_meyer_doubling_identity(self):
        # inverse direction of the q_2^{-1}(5/12) step
        assert q_apply(5, 2, 24) == 10

    def test_fixed_point(self):
        assert q_apply(0, 7, 1) == 0

    def test_wraps(self):
        assert q_apply(2, 2, 3) == 1

    def test_rejects_degree_one(self):
        with pytest.raises(ValueError):
            q_apply(1, 1, 2)


class TestQPreimages:
    """Preimages on the grid: the angles q_d maps onto x/grid are the lifts
    (x + m*grid)/(d*grid), m = 0..d-1, which the marking step and the
    pullback select with q_apply."""

    @staticmethod
    def preimages(x, d, grid):
        return [y for y in range(d * grid) if q_apply(y, d, d * grid) == d * x]

    def test_white_portrait_preimages(self):
        assert self.preimages(10, 2, 24) == [10, 34]  # 5/12 -> 5/24, 17/24

    def test_black_portrait_preimages(self):
        assert self.preimages(2, 2, 24) == [2, 26]  # 1/12 -> 1/24, 13/24

    def test_zero_degree_three(self):
        assert self.preimages(0, 3, 1) == [0, 1, 2]  # 0 -> 0, 1/3, 2/3

    @given(angles, degrees)
    def test_roundtrip_and_distinct(self, t, d):
        x, grid = t
        pres = self.preimages(x, d, grid)
        assert pres == [x + m * grid for m in range(d)]
        assert {Fraction(p, d * grid) for p in pres} == {(Fraction(x, grid) + m) / d for m in range(d)}


class TestOrbit:
    def test_preperiodic(self):
        o = orbit(5, 2, 24)  # 5/24 -> 5/12 -> 5/6 -> 2/3 -> 1/3 -> 2/3
        assert o == [5, 10, 20, 16, 8]
        assert o.index(q_apply(o[-1], 2, 24)) == 3  # preperiod 3, period 2

    def test_fixed(self):
        assert orbit(0, 2, 1) == [0]

    def test_periodic_cycle(self):
        o = orbit(1, 2, 7)
        assert o == [1, 2, 4]
        assert q_apply(o[-1], 2, 7) == 1  # closes on its start

    @given(angles, degrees)
    def test_orbit_closes(self, t, d):
        x, grid = t
        o = orbit(x, d, grid)
        assert o[0] == x and len(set(o)) == len(o)
        u = Fraction(x, grid)
        for y in o:
            assert Fraction(y, grid) == u
            u = d * u % 1
        assert u in {Fraction(y, grid) for y in o}

    @given(angles, degrees, st.integers(min_value=2, max_value=5))
    def test_grid_independent(self, t, d, m):
        x, grid = t
        assert orbit(m * x, d, m * grid) == [m * y for y in orbit(x, d, grid)]


class TestFrac:
    def test_zero(self):
        assert frac(0, 24) == "0/1"

    @given(angles, st.integers(min_value=1, max_value=5))
    def test_reduced_on_any_grid(self, t, m):
        x, grid = t
        f = Fraction(x, grid)
        assert frac(m * x, m * grid) == f"{f.numerator}/{f.denominator}"


class TestArcSum:
    def test_meyer_p2_to_p1(self):
        # p2 marker is index 0, p1 marker is index 3: crosses l1+l2+l3
        assert frac(arc_sum(MEYER_LENGTHS, 0, 3), 12) == "1/3"

    def test_empty_walk(self):
        assert arc_sum(MEYER_LENGTHS, 2, 2) == 0

    def test_wraps(self):
        assert arc_sum(MEYER_LENGTHS, 4, 1) == 2 + 3 + 1  # 1/6 + 1/4 + 1/12

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            arc_sum(MEYER_LENGTHS, 0, 6)
