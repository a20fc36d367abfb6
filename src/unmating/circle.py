"""Exact arithmetic on the circle R/Z and the dynamics of the d-fold cover.

From the pullback parameters on, an angle is an integer x with 0 <= x < grid,
standing for x/grid turns: `parameterize.pullback_parameters` fixes the grid
once, the d-fold map keeps every angle on it, and `frac` spells x/grid as a
reduced "p/q" string only when it is printed.  Upstream of that grid the
same holds on grids of their own: an arc length is an integer over the sum
of the certified eigenvector, and a marker parameter an integer over that
sum times d - 1.  No floating point enters any stored value.

`orbit` is the one walk of the d-fold map to a repeat: every orbit question
downstream (marking, periodicity, landings, itineraries) reads its list.
`crossing_pairs` is the one walk over angles in circle order: every hull
question (oriented visits at a curve vertex, an unlinked critical portrait,
planar and Moore-checked laminations) reads its two index columns, which it
builds from one slice of its stack per visit that meets a crossing.  It
takes pairwise-disjoint classes in least-angle order, and each caller
passes them so.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from math import gcd


def frac(x: int, grid: int) -> str:
    """The angle x/grid as a reduced "p/q" string; zero is "0/1"."""
    g = gcd(x, grid)
    return f"{x // g}/{grid // g}"


def q_apply(x: int, d: int, grid: int) -> int:
    """The d-fold map t -> d*t mod 1 on the angle x/grid; d is a spec's
    degree, which `mapspec.parse` makes at least 2."""
    return d * x % grid


def orbit(x: int, d: int, grid: int) -> list[int]:
    """x/grid and its distinct iterates under the d-fold map, in order.

    The list stops before the first repeat: the image of its last angle is
    already in it, at the index that is x's preperiod.
    """
    seen: dict[int, None] = {}
    while x not in seen:
        seen[x] = None
        x = q_apply(x, d, grid)
    return list(seen)


def crossing_pairs(classes: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """The index columns (first, second) of the pairs i < j of classes whose
    hulls cross, in pair order.

    Precondition: the classes are pairwise disjoint, each sorted with no
    repeats, and listed in least-angle order, which for disjoint classes is
    tuple order.  Every lamination's classes come so; `mapspec.validate`
    and `portraits.sectors` sort theirs, and `sectors` refuses a shared
    angle before it walks.

    One walk over the angles in circle order keeps a stack of the open
    classes: a class is pushed at its first angle and leaves at its last.
    Disjoint classes are non-crossing exactly when every angle met belongs
    to the class on top (a non-crossing partition nests like parentheses;
    Kreweras 1972).  When an angle of class i comes while other classes sit
    above i, each of them opened inside the gap of i that this angle closes
    and is still open, so it crosses i.  Every crossing pair is met this
    way, at an angle of the earlier-opened class.

    The classes open in index order, so the stack stays sorted: one
    bisection finds i, and the classes above it are one slice, already in
    order.  A class met at several angles extends its list by the part of
    each later slice past the list's last class: any class of the slice up
    to that one opened before it and is still open, so the visit that added
    it met that class too.  The columns are read off the lists in index
    order.  So for N angles the walk costs N log N, plus a bisection per
    visit that meets a crossing, plus the crossings.
    """
    if len(classes) < 2:  # no pair: a vertex of one visit, a portrait of one set
        return [], []
    owner = {x: i for i, c in enumerate(classes) for x in c}
    above: dict[int, list[int]] = {}  # a crossed class: the later classes that cross it, in order
    stack: list[int] = []  # the open classes, in the order they opened
    for x in sorted(owner):
        i = owner[x]
        c = classes[i]
        if x != c[0]:
            if stack[-1] == i:
                if x == c[-1]:
                    del stack[-1]
                continue
            k = bisect_left(stack, i)
            met = above.get(i)
            if met is None:
                above[i] = stack[k + 1 :]
            else:
                met += stack[bisect_right(stack, met[-1], k + 1) :]
            if x == c[-1]:
                del stack[k]
        elif x != c[-1]:  # a class of one angle never opens
            stack.append(i)
    first: list[int] = []
    second: list[int] = []
    for i in sorted(above):
        later = above[i]
        first += [i] * len(later)
        second += later
    return first, second

