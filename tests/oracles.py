"""Independent reference implementations used only by the tests.

These stay deliberately naive: brute-force enumeration and floating point
where the pipeline is exact, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from unmating.circle import Angle, q_apply, q_preimages, sets_linked
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


def merge_overlapping(sets: list[set[Angle]]) -> list[set[Angle]]:
    """Repeated pairwise merging of sets that share an angle, until none do."""
    merged: list[set[Angle]] = []
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
    sides = joined.sides or tuple((joined.color,) for _ in joined.classes)
    cl = joined.classes
    report = {"passed": True, "violations": [], "informational": []}
    for i, j in linked_pairs_by_scan(cl):
        entry = {
            "a": [str(Angle.of(x, joined.grid)) for x in cl[i]],
            "b": [str(Angle.of(x, joined.grid)) for x in cl[j]],
            "sides": sorted(set(sides[i]) | set(sides[j])),
        }
        if sides[i] == sides[j] and len(sides[i]) == 1:
            report["violations"].append(entry)
            report["passed"] = False
        else:
            entry["note"] = "two-sided crossing (informational)"
            report["informational"].append(entry)
    return report


def label_by_scan(t: Angle, sec: Sectors, side: str) -> int:
    """Sector label of t by walking the boundary arcs one by one."""
    b = sec.boundary
    n = len(b)
    if t in b:
        i = b.index(t)
        return sec.sector_of_arc[(i - 1) % n if side == "left" else i]
    for i in range(n):
        lo, hi = b[i], b[(i + 1) % n]
        if 0 < (t.value - lo.value) % 1 < (hi.value - lo.value) % 1:
            return sec.sector_of_arc[i]
    raise AssertionError(f"angle {t} not located in any arc")


def arcs_of(sec: Sectors, label: int) -> list[tuple[Angle, Angle]]:
    """The boundary arcs making up one sector."""
    return [arc for arc, s in zip(sec.arcs, sec.sector_of_arc) if s == label]


def itinerary(t: Angle, sec: Sectors, d: int, depth: int, side: str = "left") -> tuple[int, ...]:
    """Sector symbols of t, q(t), ..., q^(depth-1)(t), one-sided at boundaries."""
    out = []
    for _ in range(depth):
        out.append(sec.label_of(t, side))
        t = q_apply(t, d)
    return tuple(out)


def _in_closed_sector(x: Angle, sec: Sectors, label: int) -> bool:
    for lo, hi in arcs_of(sec, label):
        span = (hi.value - lo.value) % 1
        if (x.value - lo.value) % 1 <= span:
            return True
    return False


def _common_sector(xs, sec: Sectors) -> bool:
    return any(all(_in_closed_sector(x, sec, s) for x in xs) for s in range(sec.count))


def brute_force_pullback(
    classes: AngleClasses, sec: Sectors, d: int
) -> tuple[tuple[Angle, ...], ...]:
    """All endpoint-lift combinations of size-2 classes, filtered by sector
    consistency, merged, and checked planar; the classes as Angle tuples."""
    candidates = []
    for cls in classes.angles():
        assert len(cls) == 2, "oracle only handles leaves"
        a, b = cls
        for a2, b2 in product(q_preimages(a, d), q_preimages(b, d)):
            if a2 != b2 and _common_sector((a2, b2), sec):
                candidates.append({a2, b2})
    candidates.extend(set(c) for c in classes.angles())
    merged = merge_overlapping(candidates)
    out = tuple(sorted({tuple(sorted(s)) for s in merged}, key=lambda s: (s[0], len(s), s)))
    assert not linked_pairs_by_scan(out), "oracle produced a crossing"
    return out


def itinerary_equal_to_horizon(u: Angle, v: Angle, sec: Sectors, d: int, horizon: int) -> bool:
    """Literal finite comparison of left symbol strings."""
    cu, cv = u, v
    for _ in range(horizon):
        if sec.label_of(cu, "left") != sec.label_of(cv, "left"):
            return False
        cu, cv = q_apply(cu, d), q_apply(cv, d)
    return True
