"""Finite-depth lamination approximations by leaf pullback.

Depth 1 reads the equivalence classes off the chord diagrams at the critical
vertices of the pullback curve; deeper relations are generated by lifting
classes through the sectors of the certified portrait, keeping everything
from lower depths (the relation is a join over levels).  Within one color
every output is checked planar.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, replace
from itertools import pairwise
from math import lcm
from typing import Iterable, Optional, Sequence

from .circle import frac
from .errors import LaminationError
from .mapspec import BLACK, WHITE, CriticalVertex
from .parameterize import PullbackParameters
from .portraits import CriticalPortrait, sectors

JOIN = "join"

AngleSet = tuple[int, ...]  # sorted; x stands for the angle x/grid


def _canon(sets: Iterable[Iterable]) -> tuple[tuple, ...]:
    uniq = {tuple(sorted(set(s))) for s in sets}
    return tuple(sorted(uniq, key=lambda s: (s[0], len(s), s)))


@dataclass(frozen=True)
class AngleClasses:
    """Classes of angles x/grid, each a sorted tuple of the integers x.

    Every depth-n angle of a degree-d pullback lies on the grid
    1/(D*d^(n-1)), D the grid of the pullback parameters.
    """

    depth: int
    color: str
    grid: int
    classes: tuple[AngleSet, ...]
    sides: Optional[tuple[tuple[str, ...], ...]] = None  # per class, join only

    def text(self) -> list[list[str]]:
        return [[frac(x, self.grid) for x in c] for c in self.classes]


def linked_pairs(classes: Sequence[Sequence]) -> list[tuple[int, int]]:
    """Sorted index pairs i < j of classes whose hulls cross.

    The classes must be pairwise disjoint.  Cut the circle at 0 and give a
    class with angles e_0 < ... < e_m the chords (e_t, e_t+1).  Two disjoint
    hulls cross exactly when a chord of one strictly crosses a chord of the
    other: an angle of one class strictly inside (e_0, e_m) of the other lies
    in a gap (e_t, e_t+1), so the closing chord (e_0, e_m) is never needed.
    One sweep over the chords by left end reports every crossing pair
    (Bentley and Ottmann 1979).  The open chords are kept sorted by right
    end; once those ending at or before a are dropped, a chord (a, b) crosses
    exactly the open chords with right end in (a, b), so each step costs the
    crossings it finds.
    """
    owner: dict = {}
    for i, c in enumerate(classes):
        for x in c:
            if owner.setdefault(x, i) != i:
                raise LaminationError(
                    f"classes {owner[x]} and {i} share the angle {x}; "
                    "the crossing sweep needs disjoint classes"
                )
    chords = sorted((a, b, i) for i, c in enumerate(classes) for a, b in pairwise(sorted(c)))

    pairs: set[tuple[int, int]] = set()
    open_chords: list[tuple[int, int]] = []  # (right end, class), sorted
    for a, b, i in chords:
        del open_chords[: bisect_right(open_chords, (a, len(classes)))]
        for right, j in open_chords:
            if right >= b:
                break
            pairs.add((j, i) if j < i else (i, j))
        insort(open_chords, (b, i))
    return sorted(pairs)


def check_planar(classes: Iterable[AngleSet]) -> Optional[tuple[AngleSet, AngleSet]]:
    """First pair of classes with crossing hulls, or None."""
    cl = list(classes)
    pairs = linked_pairs(cl)
    if not pairs:
        return None
    i, j = pairs[0]
    return (cl[i], cl[j])


# ---------------------------------------------------------------------------
# depth 1: connection classes at critical vertices

def depth1(
    pullback: PullbackParameters, criticals: list[CriticalVertex]
) -> tuple[AngleClasses, AngleClasses]:
    """White and black depth-1 classes from connections at critical vertices.

    Regular self-intersections of the pullback curve only replay the curve's
    own depth-0 identifications; the new identifications, the ones generating
    the portraits, happen where the map folds.
    """
    out: dict[str, list[set[int]]] = {WHITE: [], BLACK: []}
    for cv in criticals:
        for color, visits in cv.connections:
            out[color].append({pullback.s[j] for j in visits})
    return (
        AngleClasses(1, WHITE, pullback.grid, _canon(out[WHITE])),
        AngleClasses(1, BLACK, pullback.grid, _canon(out[BLACK])),
    )


# ---------------------------------------------------------------------------
# pullback of classes through portrait sectors

def merge_tagged(tagged: Iterable[tuple[Iterable, str]]) -> list[tuple[set, set[str]]]:
    """Connected components of non-empty angle sets, two sets being connected
    when they share an angle, each with the tags of its member sets.

    Union-find over the angles (Tarjan 1975); component order is unspecified.
    """
    tagged = [(tuple(angles), tag) for angles, tag in tagged]
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for angles, _ in tagged:
        for a in angles:
            parent.setdefault(a, a)
        root = find(angles[0])
        for a in angles[1:]:
            parent[find(a)] = root
    components: dict = {}
    for angles, tag in tagged:
        members, tags = components.setdefault(find(angles[0]), (set(), set()))
        members.update(angles)
        tags.add(tag)
    return list(components.values())


def pullback_step(
    classes: AngleClasses, portrait: CriticalPortrait, d: int
) -> AngleClasses:
    """One inductive step: depth-(n+1) classes from depth-n classes.

    New classes are the sector-consistent lifts: preimages of a class that
    lie in a common closed sector, plus preimage sets of single angles of
    classes when a closed sector holds more than one preimage.  Lifts that
    meet (only possible through sector boundary angles) merge.  Lower-depth
    classes are retained, and the output must stay planar.
    """
    if classes.color not in (portrait.color, JOIN):
        raise LaminationError(
            f"cannot lift {classes.color} classes through a {portrait.color} portrait"
        )
    sec = sectors(portrait, d)
    # one finer grid holds the preimages (u/grid + m)/d and the sector boundary
    grid = lcm(d * classes.grid, portrait.grid)
    k = grid // (d * classes.grid)
    scale = grid // portrait.grid
    sec = replace(sec, boundary=tuple(b * scale for b in sec.boundary))
    candidates = [{u * d * k for u in c} for c in classes.classes]  # lower depths, retained
    for cls in classes.classes:
        # closed sector s holds x iff s is x's left or right label
        lifts: dict[int, set[int]] = {}
        for u in cls:
            hits: dict[int, set[int]] = {}
            for m in range(d):
                x = (u + m * classes.grid) * k
                for label in {sec.label_of(x, "left"), sec.label_of(x, "right")}:
                    hits.setdefault(label, set()).add(x)
            for label, xs in hits.items():
                lifts.setdefault(label, set()).update(xs)
                # preimage sets of single angles, when a sector holds several
                if len(xs) >= 2:
                    candidates.append(xs)
        candidates.extend(xs for xs in lifts.values() if len(xs) >= 2)

    out = _canon(angles for angles, _ in merge_tagged((c, classes.color) for c in candidates))

    crossing = check_planar(out)
    if crossing is not None:
        a, b = (", ".join(frac(x, grid) for x in c) for c in crossing)
        raise LaminationError(f"pullback produced crossing: {{{a}}} links {{{b}}}")
    return AngleClasses(depth=classes.depth + 1, color=classes.color, grid=grid, classes=out)


def pullback_to_depth(
    depth1_classes: AngleClasses, portrait: CriticalPortrait, d: int, depth: int
) -> AngleClasses:
    cur = depth1_classes
    while cur.depth < depth:
        cur = pullback_step(cur, portrait, d)
    return cur


# ---------------------------------------------------------------------------
# join and the Moore condition

def join(white: AngleClasses, black: AngleClasses) -> AngleClasses:
    """Smallest common refinement: merge classes across colors through shared
    angles; each joined class records the sides it came from."""
    if (white.depth, white.grid) != (black.depth, black.grid):
        raise LaminationError(
            "join needs equal depths and grids, got depth "
            f"{white.depth} on 1/{white.grid} and depth {black.depth} on 1/{black.grid}"
        )
    merged = merge_tagged(
        [(c, WHITE) for c in white.classes] + [(c, BLACK) for c in black.classes]
    )
    order = sorted(merged, key=lambda pair: (min(pair[0]), len(pair[0])))
    return AngleClasses(
        depth=white.depth,
        color=JOIN,
        grid=white.grid,
        classes=tuple(tuple(sorted(a)) for a, _ in order),
        sides=tuple(tuple(sorted(s)) for _, s in order),
    )


def moore_check(joined: AngleClasses) -> dict:
    """Flag linked class hulls: same-side links are violations of the finite
    Moore criterion, links across the two sides are expected and reported as
    informational.  The classes must come from `join`, which records their
    sides."""
    sides = joined.sides
    violations = []
    informational = []
    text = joined.text()  # one list per class, shared by its entries
    # one sides list per distinct value, shared likewise; found once per pair of class sides
    lists: dict[tuple[str, ...], list[str]] = {}
    union: dict[tuple, list[str]] = {}
    for i, j in linked_pairs(joined.classes):
        pair = (sides[i], sides[j])
        both = union.get(pair)
        if both is None:
            value = sorted(set(sides[i]) | set(sides[j]))
            both = union[pair] = lists.setdefault(tuple(value), value)
        entry = {"a": text[i], "b": text[j], "sides": both}
        same_side = sides[i] == sides[j] and len(sides[i]) == 1
        if same_side:
            violations.append(entry)
        else:
            entry["note"] = "two-sided crossing (informational)"
            informational.append(entry)
    return {
        "passed": not violations,
        "violations": violations,
        "informational": informational,
    }
