"""Critical portrait extraction and certification.

The marking procedure walks each color's critical vertices in forward-orbit
order: a first vertex is marked with the preimage set of one of its
parameters (restricted to parameters actually at the vertex), and later
vertices are marked by iterating the parameter until it lands on them.
Certification checks the preperiodic-case portrait conditions; the periodic
families are empty here, so the conditions touching them hold vacuously.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .circle import frac, orbit_signature, q_apply, sets_linked
from .errors import PortraitError
from .mapspec import BLACK, WHITE, CriticalVertex, MapSpec
from .parameterize import PullbackParameters


@dataclass(frozen=True)
class PreargumentSet:
    """A finite set of angles, each x standing for x/grid on its portrait's
    grid, meant to map to a single angle under the d-fold map.

    Structural validity is recorded by `certify`, not enforced, so that
    certification can report on deliberately broken portraits.
    """

    angles: tuple[int, ...]  # sorted
    preferred: Optional[int] = None

    @classmethod
    def of(cls, angles: Iterable[int], preferred: Optional[int] = None):
        return cls(angles=tuple(sorted(set(angles))), preferred=preferred)


@dataclass
class CriticalPortrait:
    color: str
    degree: int
    grid: int  # every angle x of the sets stands for x/grid
    sets: list[PreargumentSet]
    certificate: Optional[dict] = None

    def participants(self) -> list[int]:
        out: set[int] = set()
        for s in self.sets:
            out.update(s.angles)
        return sorted(out)


# ---------------------------------------------------------------------------
# marking procedure

def _reaches(
    params: Sequence[int], target: set[int], d: int, grid: int
) -> Optional[tuple[int, int]]:
    """First (start angle, iterate count >= 1) whose orbit under q_d hits target."""
    for a in params:
        sig = orbit_signature(a, d, grid)
        cur = a
        for i in range(1, sig.preperiod + sig.period + 1):
            cur = q_apply(cur, d, grid)
            if cur in target:
                return (a, i)
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
            if not any(_reaches(sorted(params[w]), params[v], d, grid) for w in others):
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
            sig = orbit_signature(alpha, d, grid)
            cur = alpha
            for _ in range(sig.preperiod + sig.period):
                cur = q_apply(cur, d, grid)
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
                found = _reaches(sorted(params[v]), noted, d, grid)
                if found is not None:
                    alpha = found[0]
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
            degree=spec.degree,
            grid=pullback.grid,
            sets=[ps for _, ps in marked],
        )
    return portraits[WHITE], portraits[BLACK]


# ---------------------------------------------------------------------------
# sectors and itineraries

@dataclass
class Sectors:
    """The partition of the circle cut out by the portrait's hulls.

    Angles and lengths are integers on the portrait's grid.  Arc i runs from
    boundary[i] to the next boundary angle; each sector is a union of arcs,
    and labels follow the cyclic order of the least boundary angle in each
    sector.
    """

    boundary: tuple[int, ...]
    sector_of_arc: tuple[int, ...]
    lengths: tuple[int, ...]  # total length per sector

    @property
    def count(self) -> int:
        return len(self.lengths)

    def label_of(self, t: int, side: str = "left") -> int:
        """Sector of the arc holding t.  A boundary angle lies on the arc
        ending at it from the left and on the arc starting at it from the
        right."""
        b = self.boundary
        i = bisect_left(b, t)
        if side != "left" and i < len(b) and b[i] == t:
            return self.sector_of_arc[i]
        return self.sector_of_arc[i - 1]  # index -1 is the arc through 0


def sectors(portrait: CriticalPortrait, d: int) -> Sectors:
    """Cut the circle along the portrait hulls and group the arcs into sectors.

    Two arcs share a sector when they lie in the same gap of every hull; the
    arc starting at boundary angle lo lies in gap (bisect_right(h, lo) - 1)
    mod |h| of hull h, the gap after h's last angle at or before lo.
    """
    grid = portrait.grid
    hulls = [s.angles for s in portrait.sets if s.angles]
    boundary = sorted({a for h in hulls for a in h})
    if len(boundary) < 2:
        raise PortraitError("portrait has fewer than two marked angles; no sectors")
    for i in range(len(hulls)):
        for j in range(i + 1, len(hulls)):
            if sets_linked(hulls[i], hulls[j]):
                raise PortraitError("portrait not unlinked")

    signatures = [tuple((bisect_right(h, lo) - 1) % len(h) for h in hulls) for lo in boundary]
    order: dict[tuple, int] = {}
    for sig in signatures:
        if sig not in order:
            order[sig] = len(order)
    sector_of_arc = tuple(order[sig] for sig in signatures)

    n = len(boundary)
    lengths = [0] * len(order)
    for i, s in enumerate(sector_of_arc):
        lengths[s] += (boundary[(i + 1) % n] - boundary[i]) % grid
    for s, total in enumerate(lengths):
        if total * d % grid:
            raise PortraitError(
                f"sector {s} has length {frac(total, grid)}, not a multiple of 1/{d}"
            )

    return Sectors(boundary=tuple(boundary), sector_of_arc=sector_of_arc, lengths=tuple(lengths))


def _same_left_sequence(u: int, v: int, sec: Sectors, d: int, grid: int) -> bool:
    """Whether u and v have identical infinite left symbol sequences.

    The pair orbit of rational angles is finite, so equality is decidable:
    iterate both until a symbol differs or the pair repeats.
    """
    seen = set()
    cur = (u, v)
    while cur not in seen:
        seen.add(cur)
        a, b = cur
        if sec.label_of(a, "left") != sec.label_of(b, "left"):
            return False
        cur = (q_apply(a, d, grid), q_apply(b, d, grid))
    return True


# ---------------------------------------------------------------------------
# certification

def certify(portrait: CriticalPortrait, d: int) -> dict:
    """Evaluate the portrait conditions in the preperiodic specialization.

    The periodic families are empty by construction, so c2, c4 and c6 are
    vacuous; the certificate records them as such.  Structural findings
    (preargument sets, unlinkedness) are reported alongside.
    """
    grid = portrait.grid
    cert: dict[str, dict] = {}
    participants = portrait.participants()
    signatures = {a: orbit_signature(a, d, grid) for a in participants}

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

    periodic = [a for a in participants if signatures[a].is_periodic]
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

    horizon = max((sig.preperiod + sig.period for sig in signatures.values()), default=-1) + 1

    # hierarchic: inbound orbit hits on a set all land on one element
    c3_ok, c3_detail = True, "no inter-set orbit landings"
    for m, target in enumerate(portrait.sets):
        tset = set(target.angles)
        landings = set()
        for l, source in enumerate(portrait.sets):
            if l == m:
                continue
            for a in source.angles:
                cur = a
                for _ in range(horizon):
                    cur = q_apply(cur, d, grid)
                    if cur in tset:
                        landings.add(cur)
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
        c7_ok, c7_detail = True, "distinct angles have distinct left sequences"
        for a in participants:
            cur = a
            for i in range(horizon + 1):
                for t in participants:
                    if cur != t and _same_left_sequence(cur, t, sec, d, grid):
                        c7_ok = False
                        c7_detail = (
                            f"q^{i}({frac(a, grid)}) = {frac(cur, grid)} and "
                            f"{frac(t, grid)} share a left symbol sequence"
                        )
                        break
                if not c7_ok:
                    break
                cur = q_apply(cur, d, grid)
            if not c7_ok:
                break
        cert["c7"] = {"passed": c7_ok, "detail": c7_detail}

    checked = ("preargument", "unlinked", "c1", "c2", "c3", "c4", "c5", "c6", "c7")
    cert["valid"] = all(cert[name]["passed"] for name in checked)
    return cert


def certify_portrait(portrait: CriticalPortrait, d: int) -> CriticalPortrait:
    portrait.certificate = certify(portrait, d)
    return portrait
