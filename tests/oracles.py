"""Independent reference implementations used only by the tests.

These stay deliberately naive: brute-force enumeration, exact Fractions
where the pipeline works with integers on a grid, and floating point where
the pipeline is exact, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm

import numpy as np

from unmating.circle import frac, sets_linked
from unmating.errors import LaminationError
from unmating.laminations import JOIN, AngleClasses, _canon, check_planar, merge_tagged
from unmating.portraits import CriticalPortrait, Sectors, sectors


def power_iteration(matrix, iterations: int = 20000, tol: float = 1e-13) -> np.ndarray:
    """Double-precision dominant eigenvector, normalized to unit sum."""
    a = np.array(matrix, dtype=float)
    v = np.ones(a.shape[0]) / a.shape[0]
    for _ in range(iterations):
        w = a @ v
        w /= w.sum()
        if np.max(np.abs(w - v)) < tol:
            return w
        v = w
    return v


def p_q(f: Fraction) -> str:
    """A Fraction as "p/q", zero as "0/1"."""
    return f"{f.numerator}/{f.denominator}"


def as_fractions(classes: AngleClasses) -> tuple[tuple[Fraction, ...], ...]:
    """The classes with each integer x read as the rational x/grid."""
    return tuple(tuple(Fraction(x, classes.grid) for x in c) for c in classes.classes)


def merge_overlapping(sets: list[set]) -> list[set]:
    """Repeated pairwise merging of sets that share an angle, until none do."""
    merged: list[set] = []
    for s in sets:
        bucket = set(s)
        keep = []
        for m in merged:
            if m & bucket:
                bucket |= m
            else:
                keep.append(m)
        keep.append(bucket)
        merged = keep
    return merged


def linked_pairs_by_scan(classes) -> list[tuple[int, int]]:
    """Every index pair i < j, in order, whose class hulls are linked."""
    cl = list(classes)
    return [
        (i, j)
        for i in range(len(cl))
        for j in range(i + 1, len(cl))
        if sets_linked(cl[i], cl[j])
    ]


def moore_by_scan(joined: AngleClasses) -> dict:
    """The Moore report built pair by pair from the all-pairs scan."""
    sides = joined.sides
    cl = as_fractions(joined)
    report = {"passed": True, "violations": [], "informational": []}
    for i, j in linked_pairs_by_scan(cl):
        entry = {
            "a": [p_q(f) for f in cl[i]],
            "b": [p_q(f) for f in cl[j]],
            "sides": sorted(set(sides[i]) | set(sides[j])),
        }
        if sides[i] == sides[j] and len(sides[i]) == 1:
            report["violations"].append(entry)
            report["passed"] = False
        else:
            entry["note"] = "two-sided crossing (informational)"
            report["informational"].append(entry)
    return report


def _boundary(sec: Sectors, grid: int) -> list[Fraction]:
    return [Fraction(b, grid) for b in sec.boundary]


def label_by_scan(t: Fraction, sec: Sectors, grid: int, side: str) -> int:
    """Sector label of the rational t by walking the boundary arcs one by
    one, the boundary read on the portrait's grid."""
    b = _boundary(sec, grid)
    n = len(b)
    if t in b:
        i = b.index(t)
        return sec.sector_of_arc[(i - 1) % n if side == "left" else i]
    for i in range(n):
        lo, hi = b[i], b[(i + 1) % n]
        if 0 < (t - lo) % 1 < (hi - lo) % 1:
            return sec.sector_of_arc[i]
    raise AssertionError(f"angle {t} not located in any arc")


def arcs_of(sec: Sectors, grid: int, label: int) -> list[tuple[Fraction, Fraction]]:
    """The boundary arcs making up one sector."""
    b = _boundary(sec, grid)
    return [(b[i], b[(i + 1) % len(b)]) for i, s in enumerate(sec.sector_of_arc) if s == label]


def itinerary(
    t: Fraction, sec: Sectors, grid: int, d: int, depth: int, side: str = "left"
) -> tuple[int, ...]:
    """Sector symbols of t, q(t), ..., q^(depth-1)(t), one-sided at boundaries."""
    out = []
    for _ in range(depth):
        out.append(label_by_scan(t, sec, grid, side))
        t = d * t % 1
    return tuple(out)


def sectors_by_midpoints(hulls: list[list[Fraction]]) -> tuple[tuple[int, ...], list[Fraction]]:
    """Sector label of each arc between consecutive hull angles, and the
    length of each sector: arcs whose midpoints lie in the same gap of every
    hull share a sector, labelled in order of their first arc."""
    boundary = sorted({a for h in hulls for a in h})
    n = len(boundary)

    def gap(x, h):
        h = sorted(h)
        for g in range(len(h)):
            lo, hi = h[g], h[(g + 1) % len(h)]
            if 0 < (x - lo) % 1 < ((hi - lo) % 1 or 1):
                return g
        raise AssertionError(f"{x} lies on a hull angle")

    order: dict[tuple, int] = {}
    labels, lengths = [], []
    for i in range(n):
        lo, span = boundary[i], (boundary[(i + 1) % n] - boundary[i]) % 1
        label = order.setdefault(tuple(gap((lo + span / 2) % 1, h) for h in hulls), len(order))
        if label == len(lengths):
            lengths.append(Fraction(0))
        labels.append(label)
        lengths[label] += span
    return tuple(labels), lengths


def _in_closed_sector(x: Fraction, sec: Sectors, grid: int, label: int) -> bool:
    return any((x - lo) % 1 <= (hi - lo) % 1 for lo, hi in arcs_of(sec, grid, label))


def _common_sector(xs, sec: Sectors, grid: int) -> bool:
    return any(all(_in_closed_sector(x, sec, grid, s) for x in xs) for s in range(sec.count))


def brute_force_pullback(
    classes: AngleClasses, sec: Sectors, grid: int, d: int
) -> tuple[tuple[Fraction, ...], ...]:
    """All endpoint-lift combinations of size-2 classes, filtered by sector
    consistency (sectors on the portrait's grid), merged, and checked planar;
    the classes as Fraction tuples."""
    candidates = []
    for cls in as_fractions(classes):
        assert len(cls) == 2, "oracle only handles leaves"
        a, b = cls
        lifts_a = [(a + m) / d for m in range(d)]
        lifts_b = [(b + m) / d for m in range(d)]
        for a2, b2 in product(lifts_a, lifts_b):
            if a2 != b2 and _common_sector((a2, b2), sec, grid):
                candidates.append({a2, b2})
    candidates.extend(set(c) for c in as_fractions(classes))
    merged = merge_overlapping(candidates)
    out = tuple(sorted({tuple(sorted(s)) for s in merged}, key=lambda s: (s[0], len(s), s)))
    assert not linked_pairs_by_scan(out), "oracle produced a crossing"
    return out


def pullback_by_relift(
    classes: AngleClasses, portrait: CriticalPortrait, d: int
) -> AngleClasses:
    """One inductive step: depth-(n+1) classes from depth-n classes, lifting
    every class again, whether or not it is new at depth n.

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
    sec = Sectors(tuple(b * scale for b in sec.boundary), sec.sector_of_arc, sec.lengths)
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


def kneading_classes(portrait: CriticalPortrait, d: int, grid: int) -> list[tuple[int, ...]]:
    """The itinerary classes of two or more angles x/grid, each a sorted
    tuple of the integers x, in sorted order.

    Two angles are related when, for every k >= 0, their k-th images under
    the d-fold map lie in a common closed sector of the portrait (Bandt and
    Keller 1992).  The pair orbit on the grid is eventually periodic, so the
    walk ends.  The relation need not be transitive at sector boundaries,
    so the classes are the connected components of the related pairs.
    Every pair is walked: O(grid^2) walks, each up to its orbit's length.
    """
    sec = sectors(portrait, d)
    # closed sector s holds t iff s is t's left or right label
    closed = [
        {label_by_scan(Fraction(x, grid), sec, portrait.grid, side) for side in ("left", "right")}
        for x in range(grid)
    ]

    def related(x: int, y: int) -> bool:
        seen = set()
        while (x, y) not in seen:
            if not closed[x] & closed[y]:
                return False
            seen.add((x, y))
            x, y = d * x % grid, d * y % grid
        return True

    pairs = [{x, y} for x in range(grid) for y in range(x + 1, grid) if related(x, y)]
    return sorted(tuple(sorted(c)) for c in merge_overlapping(pairs))


def itinerary_equal_to_horizon(
    u: Fraction, v: Fraction, sec: Sectors, grid: int, d: int, horizon: int
) -> bool:
    """Literal finite comparison of left symbol strings."""
    return itinerary(u, sec, grid, d, horizon) == itinerary(v, sec, grid, d, horizon)
