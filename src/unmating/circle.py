"""Exact arithmetic on the circle R/Z and the dynamics of the d-fold cover.

From the pullback parameters on, an angle is an integer x with 0 <= x < grid,
standing for x/grid turns: `parameterize.pullback_parameters` fixes the grid
once, the d-fold map keeps every angle on it, and `frac` spells x/grid as a
reduced "p/q" string only when it is printed.  Upstream of that grid the
same holds on grids of their own: an arc length is an integer over the sum
of the certified eigenvector, and a marker parameter an integer over that
sum times d - 1.  No floating point enters any stored value.
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd
from typing import Iterable, Sequence


def frac(x: int, grid: int) -> str:
    """The angle x/grid as a reduced "p/q" string; zero is "0/1"."""
    g = gcd(x, grid)
    return f"{x // g}/{grid // g}"


class OrbitSignature:
    """Eventual periodicity data of an angle under the d-fold map; read-only."""

    __slots__ = ("preperiod", "period")

    def __init__(self, preperiod: int, period: int):
        if period < 1 or preperiod < 0:
            raise ValueError("need preperiod >= 0 and period >= 1")
        object.__setattr__(self, "preperiod", preperiod)
        object.__setattr__(self, "period", period)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.preperiod, self.period) == (other.preperiod, other.period)

    def __hash__(self):
        return hash((self.preperiod, self.period))

    @property
    def is_periodic(self) -> bool:
        return self.preperiod == 0


def q_apply(x: int, d: int, grid: int) -> int:
    """The d-fold map t -> d*t mod 1 on the angle x/grid."""
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
    return d * x % grid


def orbit_signature(x: int, d: int, grid: int) -> OrbitSignature:
    """Iterate x/grid under the d-fold map and report (preperiod, period)."""
    seen: dict[int, int] = {}
    step = 0
    while x not in seen:
        seen[x] = step
        x = q_apply(x, d, grid)
        step += 1
    first = seen[x]
    return OrbitSignature(preperiod=first, period=step - first)


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
