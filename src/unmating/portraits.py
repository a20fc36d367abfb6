"""Critical portrait extraction and certification.

The marking procedure walks each color's critical vertices in forward-orbit
order: a first vertex is marked with the preimage set of one of its
parameters (restricted to parameters actually at the vertex), and later
vertices are marked by iterating the parameter until it lands on them.
Certification checks the preperiodic-case portrait conditions; the periodic
families are empty here, so the conditions touching them hold vacuously.
Every orbit question reads `circle.orbit`: one list per participant gives
periodicity (c5) and landings (c3), and one partition refinement over the
participants' iterates tells which share a left symbol sequence (c7).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable

from .circle import crossing_keys, frac, orbit, q_apply
from .errors import PortraitError
from .mapspec import BLACK, WHITE, CriticalVertex, MapSpec, Record, set_field
from .parameterize import PullbackParameters


class PreargumentSet(Record):
    """A finite set of angles, each x standing for x/grid on its portrait's
    grid, meant to map to a single angle under the d-fold map.

    Structural validity is recorded by `certify`, not enforced, so that
    certification can report on deliberately broken portraits.
    """

    __slots__ = ("angles", "preferred")

    def __init__(self, angles: tuple[int, ...], preferred: int | None = None):
        set_field(self, "angles", angles)  # sorted
        set_field(self, "preferred", preferred)

    @classmethod
    def of(cls, angles: Iterable[int], preferred: int | None = None):
        return cls(angles=tuple(sorted(set(angles))), preferred=preferred)


class CriticalPortrait:
    __slots__ = ("color", "grid", "sets", "certificate")

    def __init__(
        self,
        color: str,
        grid: int,
        sets: list[PreargumentSet],
        certificate: dict | None = None,
    ):
        self.color = color
        self.grid = grid  # every angle x of the sets stands for x/grid
        self.sets = sets
        self.certificate = certificate

    def participants(self) -> list[int]:
        out: set[int] = set()
        for s in self.sets:
            out.update(s.angles)
        return sorted(out)


# ---------------------------------------------------------------------------
# marking procedure

def _reaches(params: Iterable[int], target: set[int], d: int, grid: int) -> int | None:
    """The least parameter with an iterate q_d^i, i >= 1, in target."""
    for a in sorted(params):
        if not target.isdisjoint(orbit(q_apply(a, d, grid), d, grid)):
            return a
    return None


def _mark_color(
    crits: list[tuple[str, tuple[int, ...]]], d: int, grid: int
) -> list[tuple[str, PreargumentSet]]:
    """Run the marking procedure for one color.

    crits pairs each critical vertex with the curve parameters landing on it,
    in deterministic traversal order.
    """
    params = {v: set(p) for v, p in crits}
    remaining = [v for v, _ in crits]
    marked: list[tuple[str, PreargumentSet]] = []
    noted: set[int] = set()

    def mark(vertex: str, alpha: int):
        # the parameters at the vertex that share alpha's image
        image = q_apply(alpha, d, grid)
        pre = {x for x in params[vertex] if q_apply(x, d, grid) == image}
        marked.append((vertex, PreargumentSet.of(pre, preferred=alpha)))
        noted.update(pre)
        noted.add(alpha)
        remaining.remove(vertex)

    while remaining:
        # a start vertex: one no other remaining critical of this color maps onto
        start = None
        for v in remaining:
            others = [w for w in remaining if w != v]
            if all(_reaches(params[w], params[v], d, grid) is None for w in others):
                start = v
                break
        if start is None:
            raise PortraitError("marking procedure stuck: cyclic critical orbits")

        alpha = min(params[start])
        mark(start, alpha)

        progress = True
        while progress and remaining:
            progress = False
            # follow the forward orbit of the marked parameter
            for cur in orbit(q_apply(alpha, d, grid), d, grid):
                hit = next((v for v in remaining if cur in params[v]), None)
                if hit is not None:
                    alpha = cur
                    mark(hit, cur)
                    progress = True
                    break
            if progress:
                continue
            # otherwise take a vertex whose parameter falls into the noted orbit
            for v in list(remaining):
                found = _reaches(params[v], noted, d, grid)
                if found is not None:
                    alpha = found
                    mark(v, alpha)
                    progress = True
                    break
    return marked


def extract_portraits(
    spec: MapSpec,
    pullback: PullbackParameters,
    criticals: list[CriticalVertex],
) -> tuple[CriticalPortrait, CriticalPortrait]:
    """White and black critical portraits from the marked pullback parameters,
    on the pullback grid."""
    portraits = {}
    for color in (WHITE, BLACK):
        crits = [
            (cv.vertex, tuple(sorted(pullback.s[j] for j in cv.visits)))
            for cv in criticals
            if color in cv.colors
        ]
        marked = _mark_color(crits, spec.degree, pullback.grid)
        portraits[color] = CriticalPortrait(
            color=color,
            grid=pullback.grid,
            sets=[ps for _, ps in marked],
        )
    return portraits[WHITE], portraits[BLACK]


# ---------------------------------------------------------------------------
# sectors and itineraries

class Sectors(Record):
    """The partition of the circle cut out by the portrait's hulls.

    Angles are integers on the portrait's grid.  Arc i runs from boundary[i]
    to the next boundary angle; each sector is a union of arcs, and labels
    follow the cyclic order of the least boundary angle in each sector.
    """

    __slots__ = ("boundary", "sector_of_arc")

    def __init__(self, boundary: tuple[int, ...], sector_of_arc: tuple[int, ...]):
        set_field(self, "boundary", boundary)
        set_field(self, "sector_of_arc", sector_of_arc)

    def scaled(self, k: int) -> Sectors:
        """The same partition on the grid k times finer."""
        return Sectors(tuple(b * k for b in self.boundary), self.sector_of_arc)

    def closed_labels(self, t: int) -> tuple[int, ...]:
        """The sectors whose closure holds t, found with one bisection: the
        sector of the arc ending at t, then, when t is a boundary angle
        between two sectors, the sector of the arc starting at t.  The first
        is t's left label, the last its right label."""
        b = self.boundary
        i = bisect_left(b, t)
        left = self.sector_of_arc[i - 1]  # index -1 is the arc through 0
        if i < len(b) and b[i] == t and self.sector_of_arc[i] != left:
            return (left, self.sector_of_arc[i])
        return (left,)


def sectors(portrait: CriticalPortrait, d: int) -> Sectors:
    """Cut the circle along the portrait hulls and group the arcs into sectors.

    Two arcs share a sector when they lie in the same gap of every hull; the
    arc starting at boundary angle lo lies in gap (bisect_right(h, lo) - 1)
    mod |h| of hull h, the gap after h's last angle at or before lo.

    Precondition: the portrait's sets are preargument sets, which `certify`
    checks ("preargument"); `run_pipeline` pulls back only through portraits
    whose certificate passed.  Then every sector has length a multiple of
    1/d, and with c1 there are d sectors of length 1/d each (Goldberg 1992;
    Poirier 2009), so the lengths are not checked here.  Proof: the
    boundary of a sector alternates between its arcs and hull edges.  Each
    hull edge joins two angles of one preargument set, whose images agree,
    so the jump across it is a multiple of 1/d.  Going once around the
    sector, the arcs and the jumps add up to one turn, so the arcs add up
    to a multiple of 1/d.
    """
    hulls = [s.angles for s in portrait.sets if s.angles]
    boundary = sorted({a for h in hulls for a in h})
    if len(boundary) < 2:
        raise PortraitError("portrait has fewer than two marked angles; no sectors")
    if crossing_keys(hulls)[0]:
        raise PortraitError("portrait not unlinked")

    gaps = [tuple((bisect_right(h, lo) - 1) % len(h) for h in hulls) for lo in boundary]
    order: dict[tuple, int] = {}
    for gap in gaps:
        if gap not in order:
            order[gap] = len(order)
    return Sectors(boundary=tuple(boundary), sector_of_arc=tuple(order[gap] for gap in gaps))


def _left_sequence_classes(xs: set[int], sec: Sectors, d: int, grid: int) -> dict[int, int]:
    """A class for each angle of xs, a set closed under q_d: two angles share
    a class exactly when their infinite left symbol sequences agree.

    Moore's partition refinement (1956): split by the left label, then by
    the class of the image, until no class splits.
    """
    cls = {x: sec.closed_labels(x)[0] for x in xs}
    count = len(set(cls.values()))
    while True:
        ids: dict[tuple[int, int], int] = {}
        cls = {x: ids.setdefault((c, cls[q_apply(x, d, grid)]), len(ids)) for x, c in cls.items()}
        if len(ids) == count:
            return cls
        count = len(ids)


# ---------------------------------------------------------------------------
# certification

def certify(portrait: CriticalPortrait, d: int) -> dict:
    """Evaluate the portrait conditions in the preperiodic specialization.

    The periodic families are empty by construction, so c2, c4 and c6 are
    vacuous; the certificate records them as such.  Structural findings
    (preargument sets, unlinkedness) are reported alongside: "unlinked"
    fails only on linked hulls or on fewer than two marked angles, the two
    refusals of `sectors`.  Sector lengths that are not multiples of 1/d
    take a set that is not a preargument set, which "preargument" reports.
    """
    grid = portrait.grid
    cert: dict[str, dict] = {}
    participants = portrait.participants()
    orbits = {a: orbit(a, d, grid) for a in participants}
    # the iterates q^i(a), i >= 1: the orbit past a, closed by its last image
    later = {a: {*o[1:], q_apply(o[-1], d, grid)} for a, o in orbits.items()}

    structural = all(
        len(s.angles) >= 2 and len({q_apply(a, d, grid) for a in s.angles}) == 1
        for s in portrait.sets
    )
    cert["preargument"] = {
        "passed": structural,
        "detail": "every set maps to a single angle"
        if structural
        else "some set is not a preargument set",
    }

    count = sum(len(s.angles) - 1 for s in portrait.sets)
    cert["c1"] = {
        "passed": count == d - 1,
        "detail": f"sum(|A|-1) = {count}, degree - 1 = {d - 1}",
    }

    for name in ("c2", "c4", "c6"):
        cert[name] = {"passed": True, "vacuous": True, "detail": "no periodic family"}

    periodic = [a for a in participants if a in later[a]]
    cert["c5"] = {
        "passed": not periodic,
        "detail": "no participating angle is periodic"
        if not periodic
        else "periodic participants: " + ", ".join(frac(a, grid) for a in periodic),
    }

    sec = None
    unlinked = True
    try:
        sec = sectors(portrait, d)
    except PortraitError as e:
        unlinked = False
        cert["unlinked"] = {"passed": False, "detail": str(e)}
    if unlinked:
        cert["unlinked"] = {"passed": True, "detail": "hulls pairwise unlinked"}

    # hierarchic: inbound orbit hits on a set all land on one element
    c3_ok, c3_detail = True, "no inter-set orbit landings"
    reached = [set().union(*(later[a] for a in s.angles)) for s in portrait.sets]
    for m, target in enumerate(portrait.sets):
        entered = set().union(*(r for l, r in enumerate(reached) if l != m))
        landings = entered.intersection(target.angles)
        if len(landings) > 1:
            c3_ok = False
            c3_detail = f"set {m} entered at several elements: " + ", ".join(
                frac(x, grid) for x in sorted(landings)
            )
            break
        if landings and target.preferred is not None and landings != {target.preferred}:
            c3_ok = False
            c3_detail = f"set {m} entered away from its preferred element"
            break
        if landings:
            c3_detail = "inter-set landings are single preferred elements"
    cert["c3"] = {"passed": c3_ok, "detail": c3_detail}

    if sec is None:
        cert["c7"] = {"passed": False, "detail": "sectors unavailable"}
    else:
        cls = _left_sequence_classes({x for o in orbits.values() for x in o}, sec, d, grid)
        clash = next(
            (
                f"q^{i}({frac(a, grid)}) = {frac(x, grid)} and "
                f"{frac(t, grid)} share a left symbol sequence"
                for a in participants
                for i, x in enumerate(orbits[a])
                for t in participants
                if x != t and cls[x] == cls[t]
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


def certify_portrait(portrait: CriticalPortrait, d: int) -> CriticalPortrait:
    portrait.certificate = certify(portrait, d)
    return portrait
