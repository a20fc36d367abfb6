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
`crossing_keys` is the one walk over angles in circle order: every hull
question (oriented visits at a curve vertex, an unlinked critical portrait,
planar and Moore-checked laminations) reads its keys.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence


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


def crossing_keys(classes: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """The sorted keys i*n + j of the index pairs i < j of classes whose
    hulls share an angle or cross, and n, the number of classes.

    Each class is sorted, with no repeats.  When some classes share an angle, the keys are
    those of the sharing pairs, and nothing is walked.  Otherwise one walk
    over the angles in circle order keeps a stack of the open classes: a
    class is pushed at its first angle and leaves at its last.  Disjoint
    classes are non-crossing exactly when every angle met belongs to the
    class on top (a non-crossing partition nests like parentheses; Kreweras
    1972).  When an angle of class i comes while other classes sit above i,
    each of them opened inside the gap of i that this angle closes and is
    still open, so it crosses i.  Every crossing pair is met this way, at
    the angle of the earlier-opened class that closes the gap holding the
    other's first angle.  A pair is met at most once per angle of its
    earlier-opened class, so for N angles the walk costs N log N plus the
    crossings times the largest class size.

    A pair i < j is recorded as its key: the pairs met at several angles
    collect in one set of ints, which hashes and sorts faster than pairs,
    and sorting the keys sorts the pairs.  A caller that splits the keys
    into columns (`laminations.moore_check`) makes no object per pair.
    """
    n = len(classes)
    if n < 2:
        return [], n
    owner: dict = {}
    sharing: dict[int, list[int]] = {}  # a shared angle: the classes holding it, in order
    for i, c in enumerate(classes):
        for x in c:
            if owner.setdefault(x, i) != i:
                sharing.setdefault(x, [owner[x]]).append(i)
    if sharing:
        pairs = {a * n + b for ids in sharing.values() for k, b in enumerate(ids) for a in ids[:k]}
        return sorted(pairs), n

    keys: set[int] = set()
    stack: list[int] = []  # the open classes, in the order they opened
    for x in sorted(owner):
        i = owner[x]
        c = classes[i]
        if x != c[0]:
            t = -1
            while (j := stack[t]) != i:
                keys.add(j * n + i if j < i else i * n + j)
                t -= 1
            if x == c[-1]:
                del stack[t]
        elif x != c[-1]:  # a class of one angle never opens
            stack.append(i)
    return sorted(keys), n


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
