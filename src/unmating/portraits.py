"""Critical portrait extraction and certification.

The marking procedure walks each color's critical vertices in forward-orbit
order: a first vertex is marked with the preimage set of one of its
parameters (restricted to parameters actually at the vertex), and later
vertices are marked by iterating the parameter until it lands on them.
Certification checks the preperiodic-case portrait conditions; the periodic
families are empty here, so the conditions touching them hold vacuously.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .circle import Angle, orbit_signature, q_apply, q_preimages, sets_linked
from .errors import PortraitError
from .mapspec import BLACK, WHITE, CriticalVertex, MapSpec
from .parameterize import PullbackParameters


@dataclass(frozen=True)
class PreargumentSet:
    """A finite angle set meant to map to a single angle under the d-fold map.

    Structural validity is recorded, not enforced, so that certification can
    report on deliberately broken portraits.
    """

    angles: tuple[Angle, ...]
    degree: int
    preferred: Optional[Angle] = None

    @classmethod
    def of(cls, angles: Iterable[Angle], degree: int, preferred: Optional[Angle] = None):
        return cls(angles=tuple(sorted(set(angles))), degree=degree, preferred=preferred)

    @property
    def images(self) -> tuple[Angle, ...]:
        return tuple(sorted({q_apply(a, self.degree) for a in self.angles}))

    @property
    def is_preargument(self) -> bool:
        return len(self.angles) >= 2 and len(self.images) == 1

    @property
    def image(self) -> Optional[Angle]:
        imgs = self.images
        return imgs[0] if len(imgs) == 1 else None

    def __str__(self) -> str:
        return "{" + ", ".join(str(a) for a in self.angles) + "}"


@dataclass
class CriticalPortrait:
    color: str
    degree: int
    sets: list[PreargumentSet]
    certificate: Optional[dict] = None

    def participants(self) -> list[Angle]:
        out: set[Angle] = set()
        for s in self.sets:
            out.update(s.angles)
        return sorted(out)


# ---------------------------------------------------------------------------
# marking procedure

def _reaches(params: Sequence[Angle], target: set[Angle], d: int) -> Optional[tuple[Angle, int]]:
    """First (start angle, iterate count >= 1) whose orbit under q_d hits target."""
    for a in params:
        sig = orbit_signature(a, d)
        cur = a
        for i in range(1, sig.preperiod + sig.period + 1):
            cur = q_apply(cur, d)
            if cur in target:
                return (a, i)
    return None


def _mark_color(
    crits: list[tuple[str, tuple[Angle, ...]]], d: int
) -> list[tuple[str, PreargumentSet]]:
    """Run the marking procedure for one color.

    crits pairs each critical vertex with the curve parameters landing on it,
    in deterministic traversal order.
    """
    params = {v: set(p) for v, p in crits}
    remaining = [v for v, _ in crits]
    marked: list[tuple[str, PreargumentSet]] = []
    noted: set[Angle] = set()

    def mark(vertex: str, alpha: Angle):
        pre = set(q_preimages(q_apply(alpha, d), d)) & params[vertex]
        marked.append((vertex, PreargumentSet.of(pre, d, preferred=alpha)))
        noted.update(pre)
        noted.add(alpha)
        remaining.remove(vertex)

    while remaining:
        # a start vertex: one no other remaining critical of this color maps onto
        start = None
        for v in remaining:
            others = [w for w in remaining if w != v]
            if not any(_reaches(sorted(params[w]), params[v], d) for w in others):
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
            sig = orbit_signature(alpha, d)
            cur = alpha
            for _ in range(sig.preperiod + sig.period):
                cur = q_apply(cur, d)
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
                found = _reaches(sorted(params[v]), noted, d)
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
    """White and black critical portraits from the marked pullback parameters."""
    portraits = {}
    for color in (WHITE, BLACK):
        crits = [
            (cv.vertex, tuple(sorted(pullback.s[j] for j in cv.visits)))
            for cv in criticals
            if color in cv.colors
        ]
        marked = _mark_color(crits, spec.degree)
        portraits[color] = CriticalPortrait(
            color=color, degree=spec.degree, sets=[ps for _, ps in marked]
        )
    return portraits[WHITE], portraits[BLACK]


# ---------------------------------------------------------------------------
# sectors and itineraries

@dataclass
class Sectors:
    """The partition of the circle cut out by the portrait's hulls.

    Each sector is a union of boundary arcs; labels follow the cyclic order
    of the least boundary angle in each sector.
    """

    boundary: tuple[Angle, ...]
    arcs: tuple[tuple[Angle, Angle], ...]
    sector_of_arc: tuple[int, ...]
    lengths: tuple[Fraction, ...]          # total length per sector

    @property
    def count(self) -> int:
        return len(self.lengths)

    def arcs_of(self, label: int) -> list[tuple[Angle, Angle]]:
        return [arc for arc, s in zip(self.arcs, self.sector_of_arc) if s == label]

    def label_of(self, t: Angle, side: str = "left") -> int:
        """Sector of the arc holding t.  A boundary angle lies on the arc
        ending at it from the left and on the arc starting at it from the
        right."""
        b = self.boundary
        i = bisect_left(b, t)
        if side != "left" and i < len(b) and b[i] == t:
            return self.sector_of_arc[i]
        return self.sector_of_arc[i - 1]  # index -1 is the arc through 0


def _gap_index(sorted_angles: Sequence[Angle], x: Fraction) -> int:
    """Index of the gap (theta_g, theta_{g+1}) of the cyclically sorted angles
    containing the point x (given strictly inside some gap)."""
    n = len(sorted_angles)
    for g in range(n):
        lo = sorted_angles[g].value
        hi = sorted_angles[(g + 1) % n].value
        span = (hi - lo) % 1
        if span == 0:
            span = 1
        off = (x - lo) % 1
        if 0 < off < span:
            return g
    raise ValueError("point lies on a hull vertex")


def sectors(portrait: CriticalPortrait, d: int) -> Sectors:
    """Cut the circle along the portrait hulls and group the arcs into sectors."""
    hulls = [s.angles for s in portrait.sets if len(s.angles) >= 1]
    boundary = sorted({a for h in hulls for a in h})
    if len(boundary) < 2:
        raise PortraitError("portrait has fewer than two marked angles; no sectors")
    for i in range(len(hulls)):
        for j in range(i + 1, len(hulls)):
            if sets_linked(hulls[i], hulls[j]):
                raise PortraitError("portrait not unlinked")

    n = len(boundary)
    arcs = [(boundary[i], boundary[(i + 1) % n]) for i in range(n)]
    signatures = []
    for lo, hi in arcs:
        span = (hi.value - lo.value) % 1
        if span == 0:
            span = Fraction(1)
        mid = (lo.value + span / 2) % 1
        signatures.append(tuple(_gap_index(h, mid) for h in hulls))

    order: dict[tuple, int] = {}
    for sig in signatures:
        if sig not in order:
            order[sig] = len(order)
    sector_of_arc = tuple(order[sig] for sig in signatures)

    lengths = [Fraction(0)] * len(order)
    for (lo, hi), s in zip(arcs, sector_of_arc):
        span = (hi.value - lo.value) % 1
        lengths[s] += span if span else Fraction(1)
    for s, total in enumerate(lengths):
        if (total * d).denominator != 1:
            raise PortraitError(
                f"sector {s} has length {total}, not a multiple of 1/{d}"
            )

    return Sectors(
        boundary=tuple(boundary),
        arcs=tuple(arcs),
        sector_of_arc=sector_of_arc,
        lengths=tuple(lengths),
    )


@dataclass(frozen=True)
class Itinerary:
    symbols: tuple[int, ...]
    side: str


def itinerary(t: Angle, sec: Sectors, d: int, depth: int, side: str = "left") -> Itinerary:
    """Sector symbols of t, q(t), ..., q^(depth-1)(t), one-sided at boundaries."""
    out = []
    cur = t
    for _ in range(depth):
        out.append(sec.label_of(cur, side))
        cur = q_apply(cur, d)
    return Itinerary(symbols=tuple(out), side=side)


def _same_left_sequence(u: Angle, v: Angle, sec: Sectors, d: int) -> bool:
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
        cur = (q_apply(a, d), q_apply(b, d))
    return True


# ---------------------------------------------------------------------------
# certification

def _horizon(angles: Iterable[Angle], d: int) -> int:
    h = 0
    for a in angles:
        sig = orbit_signature(a, d)
        h = max(h, sig.preperiod + sig.period)
    return h + 1


def certify(portrait: CriticalPortrait, d: int) -> dict:
    """Evaluate the portrait conditions in the preperiodic specialization.

    The periodic families are empty by construction, so c2, c4 and c6 are
    vacuous; the certificate records them as such.  Structural findings
    (preargument sets, unlinkedness) are reported alongside.
    """
    cert: dict[str, dict] = {}
    participants = portrait.participants()

    structural = all(s.is_preargument for s in portrait.sets)
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

    periodic = [a for a in participants if orbit_signature(a, d).is_periodic]
    cert["c5"] = {
        "passed": not periodic,
        "detail": "no participating angle is periodic"
        if not periodic
        else "periodic participants: " + ", ".join(map(str, periodic)),
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

    horizon = _horizon(participants, d) if participants else 0

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
                    cur = q_apply(cur, d)
                    if cur in tset:
                        landings.add(cur)
        if len(landings) > 1:
            c3_ok = False
            c3_detail = f"set {m} entered at several elements: " + ", ".join(
                map(str, sorted(landings))
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
                    if cur != t and _same_left_sequence(cur, t, sec, d):
                        c7_ok = False
                        c7_detail = (
                            f"q^{i}({a}) = {cur} and {t} share a left symbol sequence"
                        )
                        break
                if not c7_ok:
                    break
                cur = q_apply(cur, d)
            if not c7_ok:
                break
        cert["c7"] = {"passed": c7_ok, "detail": c7_detail}

    checked = ("preargument", "unlinked", "c1", "c2", "c3", "c4", "c5", "c6", "c7")
    cert["valid"] = all(cert[name]["passed"] for name in checked)
    return cert


def certify_portrait(portrait: CriticalPortrait, d: int) -> CriticalPortrait:
    portrait.certificate = certify(portrait, d)
    return portrait
