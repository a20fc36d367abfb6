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
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd
from typing import Iterable, Sequence


def frac(x: int, grid: int) -> str:
    """The angle x/grid as a reduced "p/q" string; zero is "0/1"."""
    g = gcd(x, grid)
    return f"{x // g}/{grid // g}"


def q_apply(x: int, d: int, grid: int) -> int:
    """The d-fold map t -> d*t mod 1 on the angle x/grid."""
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
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


def sets_linked(xs: Iterable, ys: Iterable) -> bool:
    """Whether the convex hulls of two angle sets cross.

    Unlinked means every angle of ys (shared angles aside) falls in a single
    gap of xs; gap lookup is by bisection on the sorted xs.
    """
    xs_sorted = sorted(set(xs))
    n = len(xs_sorted)
    if n < 2:
        return False
    shared = set(xs_sorted)
    gap = None
    for y in ys:
        if y in shared:
            continue
        g = (bisect_left(xs_sorted, y) - 1) % n
        if gap is None:
            gap = g
        elif g != gap:
            return True
    return False


def arc_sum(lengths: Sequence[int], frm: int, to: int) -> int:
    """Sum of interval lengths walked from marker `frm` to marker `to`.

    Marker i sits at the start of interval i, so the walk crosses intervals
    frm, frm+1, ..., to-1 cyclically; frm == to is the empty walk.
    """
    k = len(lengths)
    if not (0 <= frm < k and 0 <= to < k):
        raise IndexError(f"marker index out of range for {k} intervals")
    steps = (to - frm) % k
    return sum(lengths[(frm + i) % k] for i in range(steps))
