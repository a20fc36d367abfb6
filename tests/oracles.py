"""Independent reference implementations used only by the tests.

These stay deliberately naive: brute-force enumeration and floating point
where the pipeline is exact, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from unmating.circle import Angle, Leaf, q_apply, q_preimages
from unmating.laminations import AngleClasses, check_planar
from unmating.portraits import Sectors


def linked_by_walk(a: Leaf, b: Leaf) -> bool:
    """Walk the <=4 endpoints in circular order and test strict alternation."""
    pts = sorted(set(a.endpoints) | set(b.endpoints))
    if len(pts) < 4:
        return False
    tags = []
    for p in pts:
        in_a = p in a.endpoints
        in_b = p in b.endpoints
        if in_a and in_b:
            return False
        tags.append("a" if in_a else "b")
    return tags in (["a", "b", "a", "b"], ["b", "a", "b", "a"])


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


def _in_closed_sector(x: Angle, sec: Sectors, label: int) -> bool:
    for lo, hi in sec.arcs_of(label):
        span = (hi.value - lo.value) % 1
        if (x.value - lo.value) % 1 <= span:
            return True
    return False


def _common_sector(xs, sec: Sectors) -> bool:
    return any(all(_in_closed_sector(x, sec, s) for x in xs) for s in range(sec.count))


def brute_force_pullback(classes: AngleClasses, sec: Sectors, d: int) -> AngleClasses:
    """All endpoint-lift combinations of size-2 classes, filtered by sector
    consistency, merged, and checked planar."""
    candidates = []
    for cls in classes.classes:
        assert len(cls) == 2, "oracle only handles leaves"
        a, b = cls
        for a2, b2 in product(q_preimages(a, d), q_preimages(b, d)):
            if a2 != b2 and _common_sector((a2, b2), sec):
                candidates.append({a2, b2})
    candidates.extend(set(c) for c in classes.classes)
    merged = merge_overlapping(candidates)
    out = tuple(sorted({tuple(sorted(s)) for s in merged}, key=lambda s: (s[0], len(s), s)))
    assert check_planar(out) is None, "oracle produced a crossing"
    return AngleClasses(depth=classes.depth + 1, color=classes.color, classes=out)


def itinerary_equal_to_horizon(u: Angle, v: Angle, sec: Sectors, d: int, horizon: int) -> bool:
    """Literal finite comparison of left symbol strings."""
    cu, cv = u, v
    for _ in range(horizon):
        if sec.label_of(cu, "left") != sec.label_of(cv, "left"):
            return False
        cu, cv = q_apply(cu, d), q_apply(cv, d)
    return True
