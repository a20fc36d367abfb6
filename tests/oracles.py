"""Independent reference implementations used only by the tests.

These stay deliberately naive: brute-force enumeration, exact Fractions
where the pipeline works with integers on a grid, and floating point where
the pipeline is exact, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import NamedTuple, Sequence

import numpy as np

from unmating.circle import frac
from unmating.errors import LaminationError, ParameterizationError, PortraitError, SpectralError
from unmating.laminations import JOIN, AngleClasses, _canon, check_planar, merge_tagged
from unmating.mapspec import BLACK, WHITE, MapSpec, local_degree, validate
from unmating.parameterize import PullbackParameters
from unmating.pipeline import run_pipeline
from unmating.portraits import CriticalPortrait, PreargumentSet, Sectors, sectors
from unmating.spectral import TransitionMatrix, _integer_row_echelon


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


def hulls_linked(xs, ys) -> bool:
    """Whether the hulls of two disjoint angle sets cross: read around the
    circle, the angles of the two sets form more than two runs."""
    marks = [side for _, side in sorted([(x, 0) for x in xs] + [(y, 1) for y in ys])]
    return sum(a != b for a, b in zip(marks, marks[1:] + marks[:1])) > 2


def linked_pairs_by_scan(classes) -> list[tuple[int, int]]:
    """Every index pair i < j, in order, of disjoint classes whose hulls are
    linked."""
    cl = list(classes)
    return [
        (i, j)
        for i in range(len(cl))
        for j in range(i + 1, len(cl))
        if hulls_linked(cl[i], cl[j])
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


def sector_lengths(sec: Sectors, grid: int) -> list[Fraction]:
    """The length of each sector: the sum of its arcs, read from the
    boundary on the portrait's grid."""
    b = _boundary(sec, grid)
    lengths = [Fraction(0)] * (max(sec.sector_of_arc) + 1)
    for i, s in enumerate(sec.sector_of_arc):
        lengths[s] += (b[(i + 1) % len(b)] - b[i]) % 1
    return lengths


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


def sector_count(sec: Sectors) -> int:
    """How many sectors there are: labels run from 0 over the arcs."""
    return max(sec.sector_of_arc) + 1


def _common_sector(xs, sec: Sectors, grid: int) -> bool:
    return any(all(_in_closed_sector(x, sec, grid, s) for x in xs) for s in range(sector_count(sec)))


def brute_force_pullback(
    classes: AngleClasses, sec: Sectors, grid: int, d: int
) -> tuple[tuple[Fraction, ...], ...]:
    """Every pair of preimages of one class's angles that lie in a common
    closed sector (sectors on the portrait's grid; two preimages of one
    angle are a pair too), with the classes, merged and checked planar; the
    classes as Fraction tuples.  Classes of any size lift alike: a closed
    sector's preimages of one class are joined pairwise, so they merge
    into one set."""
    candidates = []
    for cls in as_fractions(classes):
        lifts = [(a + m) / d for a in cls for m in range(d)]
        for x, y in combinations(lifts, 2):
            if _common_sector((x, y), sec, grid):
                candidates.append({x, y})
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
    sec = sectors(portrait)
    # one finer grid holds the preimages (u/grid + m)/d and the sector boundary
    grid = lcm(d * classes.grid, portrait.grid)
    k = grid // (d * classes.grid)
    scale = grid // portrait.grid
    sec = Sectors(tuple(b * scale for b in sec.boundary), sec.sector_of_arc)
    candidates = [{u * d * k for u in c} for c in classes.classes]  # lower depths, retained
    for cls in classes.classes:
        # closed sector s holds x iff s is x's left or right label
        lifts: dict[int, set[int]] = {}
        for u in cls:
            hits: dict[int, set[int]] = {}
            for m in range(d):
                x = (u + m * classes.grid) * k
                labels = sec.closed_labels(x)
                for label in {labels[0], labels[-1]}:
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


def admitted(start: AngleClasses, portrait: CriticalPortrait, d: int, bound: int, last: float) -> list[AngleClasses]:
    """``start`` and its relifts (`pullback_by_relift`), one per depth, as
    deep as the work limit's rule admits under ``bound``, and not past depth
    ``last``: the step from classes of count angles runs when d * count <=
    bound.  The classes are disjoint, so count is their total size."""
    chain = [start]
    while chain[-1].depth < last and d * sum(map(len, chain[-1].classes)) <= bound:
        chain.append(pullback_by_relift(chain[-1], portrait, d))
    return chain


class WorkLimit:
    """What the work limit ``bound`` admits on a mapfile, read off its rule
    (`admitted`), with no depth taken from the code under test.

    ``chains`` holds, per side in the order `run_pipeline` pulls back (white,
    then black), the depth-1 classes and their relifts at every depth the
    rule admits; ``deepest`` is the deepest depth that both sides reach, and
    ``tightest`` the largest d * count that a run to it lifts, so a bound of
    exactly ``tightest`` admits the same depths with its last step at the
    limit.
    """

    def __init__(self, spec: MapSpec, bound: int):
        result = run_pipeline(spec, depth=1)
        self.d, self.bound = spec.degree, bound
        self.chains = [
            admitted(getattr(result, f"depth1_{color}"), getattr(result, color), self.d, bound, math.inf)
            for color in (WHITE, BLACK)
        ]
        self.deepest = min(chain[-1].depth for chain in self.chains)
        self.tightest = max(self.d * sum(map(len, chain[self.deepest - 2].classes)) for chain in self.chains)

    def refusal(self, depth: int, chain: list[AngleClasses] | None = None) -> str:
        """The message that refuses a run to ``depth``: it names the last
        classes of ``chain``, by default of the first side whose chain stops
        short of ``depth``."""
        if chain is None:
            chain = next(chain for chain in self.chains if chain[-1].depth < depth)
        last = chain[-1]
        count = sum(map(len, last.classes))
        return (
            f"depth {depth} is beyond the work limit: lifting the {count} angles of depth {last.depth} "
            f"makes {self.d * count} preimages, over the limit of {self.bound}"
        )


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
    sec = sectors(portrait)
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


def vertex_census(spec: MapSpec, depth: int) -> list[int]:
    """The visit counts of the vertices of the depth-n pullback curve, sorted;
    read from the mapfile alone, with no circle parameters.

    The vertices of gamma_n are f^-n(posts).  The map sends a level-n vertex
    w to a level-(n-1) vertex, and w has deg(w) * visits(f(w)) visits.  The
    posts are forward-invariant, so each post is a vertex at every level.  A
    vertex over a post p has as preimages the level-1 vertices over p
    (`vertices1`), with their local degrees; any other vertex has d
    preimages of local degree 1, because every critical value is a post.
    Level 0 starts from each post's visits in word0.
    """
    levels = validate(spec).levels
    visits0, visits1 = levels[0].visits, levels[1].visits
    over: dict[str, list[tuple[str, int]]] = {p: [] for p in spec.post}
    for w, p in spec.vertices1.items():
        over[p].append((w, local_degree(spec, w, visits0, visits1)))
    posts = {p: len(visits0[p]) for p in spec.post}
    others: list[int] = []  # the counts of the vertices that are not posts
    for _ in range(depth):
        others = [c for c in others for _ in range(spec.degree)]
        image, posts = posts, {}
        for p, c in image.items():
            for w, deg in over[p]:
                if w in image:
                    posts[w] = deg * c
                else:
                    others.append(deg * c)
    return sorted([*posts.values(), *others])


def euler_count(spec: MapSpec, depth: int) -> int:
    """The sum of visits(v) - 1 over the vertices v of the depth-n pullback
    curve, by Euler's formula, from three numbers of the mapfile.

    gamma0 is a connected graph on the sphere with |post| vertices and k
    edges, so it has F0 = 2 - |post| + k faces.  No face holds a post, so
    each has d disjoint lifts, and gamma_n has k*d^n edges and F0*d^n faces
    (n-tiles; Bonk-Meyer 2017).  Its vertex count is then 2 - F0*d^n +
    k*d^n, and its k*d^n visits leave F0*d^n - 2.
    """
    return (2 - len(spec.post) + spec.k) * spec.degree**depth - 2


def itinerary_equal_to_horizon(
    u: Fraction, v: Fraction, sec: Sectors, grid: int, d: int, horizon: int
) -> bool:
    """Literal finite comparison of left symbol strings."""
    return itinerary(u, sec, grid, d, horizon) == itinerary(v, sec, grid, d, horizon)


def certify_by_horizon(portrait: CriticalPortrait, d: int) -> dict:
    """`portraits.certify` in Fractions, with every orbit walked to a fixed
    horizon of 2 * grid steps instead of to its first repeat.

    The horizon is generous: an angle x/grid has fewer than grid distinct
    iterates, and two angles whose left symbols agree on 2 * grid steps agree
    forever, since their pair orbit repeats within its preperiod (below grid)
    plus its period (the lcm of two periods on one grid, at most grid).
    """
    grid = portrait.grid
    horizon = 2 * grid
    sets = [[Fraction(a, grid) for a in s.angles] for s in portrait.sets]
    participants = sorted({t for s in sets for t in s})

    def iterates(t: Fraction) -> list[Fraction]:
        """q^1(t), ..., q^horizon(t)."""
        out = []
        for _ in range(horizon):
            t = d * t % 1
            out.append(t)
        return out

    cert: dict[str, dict] = {}
    structural = all(len(s) >= 2 and len({d * t % 1 for t in s}) == 1 for s in sets)
    cert["preargument"] = {
        "passed": structural,
        "detail": "every set maps to a single angle"
        if structural
        else "some set is not a preargument set",
    }
    count = sum(len(s) - 1 for s in sets)
    cert["c1"] = {"passed": count == d - 1, "detail": f"sum(|A|-1) = {count}, degree - 1 = {d - 1}"}
    for name in ("c2", "c4", "c6"):
        cert[name] = {"passed": True, "vacuous": True, "detail": "no periodic family"}
    periodic = [t for t in participants if t in iterates(t)]
    cert["c5"] = {
        "passed": not periodic,
        "detail": "periodic participants: " + ", ".join(p_q(t) for t in periodic)
        if periodic
        else "no participating angle is periodic",
    }
    try:
        sec = sectors(portrait)
        cert["unlinked"] = {"passed": True, "detail": "hulls pairwise unlinked"}
    except PortraitError as e:
        sec = None
        cert["unlinked"] = {"passed": False, "detail": str(e)}

    c3 = {"passed": True, "detail": "no inter-set orbit landings"}
    for m, target in enumerate(sets):
        sources = [t for l, source in enumerate(sets) if l != m for t in source]
        landings = sorted({u for t in sources for u in iterates(t) if u in target})
        preferred = portrait.sets[m].preferred
        if len(landings) > 1:
            detail = f"set {m} entered at several elements: " + ", ".join(map(p_q, landings))
            c3 = {"passed": False, "detail": detail}
            break
        if landings and preferred is not None and landings[0] != Fraction(preferred, grid):
            c3 = {"passed": False, "detail": f"set {m} entered away from its preferred element"}
            break
        if landings:
            c3["detail"] = "inter-set landings are single preferred elements"
    cert["c3"] = c3

    if sec is None:
        cert["c7"] = {"passed": False, "detail": "sectors unavailable"}
    else:
        same: dict[tuple[Fraction, Fraction], bool] = {}  # each pair's itineraries compared once

        def shares(t: Fraction, u: Fraction) -> bool:
            if (t, u) not in same:
                same[t, u] = itinerary_equal_to_horizon(t, u, sec, grid, d, horizon)
            return same[t, u]

        clash = next(
            (
                f"q^{i}({p_q(a)}) = {p_q(t)} and {p_q(u)} share a left symbol sequence"
                for a in participants
                for i, t in enumerate([a, *iterates(a)])
                for u in participants
                if t != u and shares(t, u)
            ),
            None,
        )
        cert["c7"] = {
            "passed": clash is None,
            "detail": clash or "distinct angles have distinct left sequences",
        }

    checked = ("preargument", "unlinked", "c1", "c2", "c3", "c4", "c5", "c6", "c7")
    cert["valid"] = all(cert[name]["passed"] for name in checked)
    return cert


def mark_color_by_iteration(
    crits: list[tuple[str, tuple[int, ...]]], d: int, grid: int
) -> list[tuple[str, PreargumentSet]]:
    """The marking procedure of `portraits._mark_color` in Fractions, each
    orbit walked step by step for grid steps: an angle x/grid has at most
    grid distinct iterates, so every one is met."""
    params = {v: {Fraction(x, grid) for x in p} for v, p in crits}
    remaining = [v for v, _ in crits]
    marked: list[tuple[str, PreargumentSet]] = []
    noted: set[Fraction] = set()

    def walk(t: Fraction):
        """q^1(t), q^2(t), ..., q^grid(t)."""
        for _ in range(grid):
            t = d * t % 1
            yield t

    def reaches(start: set[Fraction], target: set[Fraction]):
        """The least angle of start with an iterate in target, or None."""
        return next((a for a in sorted(start) if any(t in target for t in walk(a))), None)

    def mark(vertex: str, alpha: Fraction):
        pre = {t for t in params[vertex] if d * t % 1 == d * alpha % 1}
        ints = {int(t * grid) for t in pre}
        marked.append((vertex, PreargumentSet.of(ints, preferred=int(alpha * grid))))
        noted.update(pre | {alpha})
        remaining.remove(vertex)

    while remaining:
        start = next(
            (
                v
                for v in remaining
                if all(reaches(params[w], params[v]) is None for w in remaining if w != v)
            ),
            None,
        )
        if start is None:
            raise PortraitError("marking procedure stuck: cyclic critical orbits")
        alpha = min(params[start])
        mark(start, alpha)
        progress = True
        while progress and remaining:
            progress = False
            for t in walk(alpha):
                hit = next((v for v in remaining if t in params[v]), None)
                if hit is not None:
                    alpha = t
                    mark(hit, t)
                    progress = True
                    break
            if progress:
                continue
            for v in list(remaining):
                found = reaches(params[v], noted)
                if found is not None:
                    alpha = found
                    mark(v, alpha)
                    progress = True
                    break
    return marked


def nullspace_by_fractions(m: list[list[int]]) -> list[list[Fraction]]:
    """Basis of the right nullspace of an integer matrix, back-substituted
    in Fractions with each free coordinate set to 1."""
    a, pivots = _integer_row_echelon(m)
    n = len(m[0])
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            s = sum((Fraction(a[r][c]) * v[c] for c in range(pc + 1, n)), Fraction(0))
            v[pc] = -s / a[r][pc]
        basis.append(v)
    return basis


def primitive_integers(v: list[Fraction]) -> list[int]:
    """The primitive integer vector on the ray of v, with v's signs."""
    denom = 1
    for x in v:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return [x // g for x in ints] if g else ints


def certify_perron_by_fractions(
    matrix: TransitionMatrix, d: int
) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
    """The Perron certificate through the Fraction nullspace: the primitive
    positive eigenvector and the lengths it normalizes to, or the same
    SpectralError as `spectral.certify_perron`."""
    n = matrix.size
    m = [[matrix.entries[i][j] - (d if i == j else 0) for j in range(n)] for i in range(n)]
    basis = nullspace_by_fractions(m)
    if len(basis) == 0:
        raise SpectralError(f"d is not an eigenvalue: nullspace of (A - {d}I) is trivial")
    if len(basis) > 1:
        raise SpectralError(f"Perron certification failed: nullspace dimension {len(basis)} > 1")
    v = primitive_integers(basis[0])
    if all(x < 0 for x in v):
        v = [-x for x in v]
    if not all(x > 0 for x in v):
        raise SpectralError("Perron certification failed: no strictly positive eigenvector")
    for i in range(n):
        if sum(matrix.entries[i][j] * v[j] for j in range(n)) != d * v[i]:
            raise SpectralError("Perron certification failed: A v != d v")
    total = sum(v)
    return tuple(v), tuple(Fraction(x, total) for x in v)


class FractionParameters(NamedTuple):
    t: tuple[Fraction, ...]
    image: tuple[int, ...]
    lengths: tuple[Fraction, ...]
    branch: int


def solve_parameters_by_fractions(
    lengths: Sequence[Fraction], image: Sequence[int], d: int, base: int = 0, branch: int = 0
) -> FractionParameters:
    """`parameterize.solve_parameters` in Fractions: t[base] = (L + branch)/(d - 1)
    for the arc L from base to its image, the rest by adding lengths."""
    k = len(lengths)
    if len(image) != k:
        raise ParameterizationError(f"expected {k} marker images, got {len(image)}")
    if not 0 <= branch < d - 1:
        raise ParameterizationError(f"branch must satisfy 0 <= branch < d-1 = {d - 1}")
    if not 0 <= base < k:
        raise ParameterizationError(f"base marker {base} out of range")
    total = sum(lengths, Fraction(0))
    if total != 1:
        raise ParameterizationError(f"lengths must sum to 1, got {p_q(total)}")

    steps = (image[base] - base) % k
    big_l = sum((lengths[(base + i) % k] for i in range(steps)), Fraction(0))
    t = [Fraction(0)] * k
    t[base] = Fraction(big_l + branch, d - 1) % 1
    for step in range(1, k):
        i = (base + step) % k
        prev = (base + step - 1) % k
        t[i] = (t[prev] + lengths[prev]) % 1
    for i in range(k):
        got, want = d * t[i] % 1, t[image[i]]
        if got != want:
            raise ParameterizationError(
                f"parameterization inconsistent: q_d(t[{i}]) = {p_q(got)} "
                f"but t[image[{i}]] = {p_q(want)}"
            )
    return FractionParameters(tuple(t), tuple(image), tuple(lengths), branch)


def pullback_parameters_by_fractions(
    params: FractionParameters, spec: MapSpec
) -> PullbackParameters:
    """`parameterize.pullback_parameters` in Fractions: s[j] advances from
    t[0] by length/degree, and the grid is the least common denominator."""
    k, d, n1 = spec.k, spec.degree, spec.n1
    m0 = spec.markers[0]
    cum = [Fraction(0)] * (n1 + 1)
    for j in range(n1):
        cum[j + 1] = cum[j] + params.lengths[j % k]
    s = [(params.t[0] + (cum[j] - cum[m0]) / d) % 1 for j in range(n1)]
    for i, m in enumerate(spec.markers):
        if s[m] != params.t[i]:
            raise ParameterizationError(
                f"parameterization inconsistent: matched visit {m} carries "
                f"{p_q(s[m])}, marker {i} has {p_q(params.t[i])}"
            )
    grid = lcm(*(x.denominator for x in s))
    return PullbackParameters(grid=grid, s=tuple(x.numerator * (grid // x.denominator) for x in s))


def _fmt(x: float) -> str:
    s = f"{x:.6f}"
    return "0.000000" if s == "-0.000000" else s


def svg_text(x: int, grid: int) -> tuple[str, str, str]:
    """One entry of `SvgScene.text` spelled alone: the coordinates of x/grid
    as text, and its label line."""
    theta = 2 * math.pi * (x / grid)
    cx, cy = math.cos(theta), math.sin(theta)
    return (
        _fmt(cx),
        _fmt(cy),
        f'  <text x="{_fmt(1.10 * cx)}" y="{_fmt(1.10 * cy)}" font-size="0.07" text-anchor="middle" '
        f'dominant-baseline="middle" fill="#222222">{frac(x, grid)}</text>',
    )
