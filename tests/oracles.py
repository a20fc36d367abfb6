"""Independent reference implementations used only by the tests.

These stay deliberately naive: brute-force enumeration, exact Fractions
where the pipeline works with integers on a grid, and floating point where
the pipeline is exact, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np

from unmating.circle import sets_linked
from unmating.laminations import AngleClasses
from unmating.portraits import Sectors


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


def itinerary_equal_to_horizon(
    u: Fraction, v: Fraction, sec: Sectors, grid: int, d: int, horizon: int
) -> bool:
    """Literal finite comparison of left symbol strings."""
    return itinerary(u, sec, grid, d, horizon) == itinerary(v, sec, grid, d, horizon)
