"""Combinatorial model of an oriented invariant curve and its pullback.

A mapfile describes the curve gamma0 through the postcritical set, the
pullback curve gamma1 labeled by image edges, rotation systems for both
1-complexes, and the marker matching between them.  Conventions:

* word0[i] is the i-th oriented edge of gamma0; its ``to`` field names the
  postcritical visit at the edge's end.  Marker i is the visit at the START
  of word0[i], i.e. the point named by word0[i-1].to.
* word1 is indexed the same way; position j of word1 carries the 0-edge its
  1-edge maps onto.  The curve being fully invariant means the image labels
  read word0's edge sequence repeated degree times, with no offset.
* markers[i] is the word1 position of the visit that the deformation tracks
  from gamma0 marker i; the list is strictly increasing and markers[i] mod k
  identifies the marker of the image point.
* Postcritical points are also 1-vertices; they appear in vertices1 under
  their post name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .errors import MapfileError, ValidationFailure

IN = "in"
OUT = "out"


@dataclass(frozen=True)
class Word0Entry:
    edge: str
    to: str


@dataclass(frozen=True)
class Word1Entry:
    image_edge: str
    to: str


Dart = tuple[int, str]  # (word position, "in"|"out"); "out" is based at the edge start


@dataclass(frozen=True)
class MapSpec:
    degree: int
    post: tuple[str, ...]
    edges0: tuple[str, ...]
    word0: tuple[Word0Entry, ...]
    vertices1: dict[str, str]  # id -> image post name
    vertex_order: tuple[str, ...]
    word1: tuple[Word1Entry, ...]
    rotation0: dict[str, tuple[Dart, ...]]
    rotation1: dict[str, tuple[Dart, ...]]
    markers: tuple[int, ...]
    white_anchor: tuple[int, str]

    @property
    def k(self) -> int:
        return len(self.word0)

    @property
    def n1(self) -> int:
        return len(self.word1)

    def marker_post(self, i: int) -> str:
        """Post name of gamma0 marker i (start of edge i = end of edge i-1)."""
        return self.word0[(i - 1) % self.k].to

    def visit_vertex(self, j: int) -> str:
        """1-vertex id at gamma1 visit j (start of word1 position j)."""
        return self.word1[(j - 1) % self.n1].to

    def visits_at(self, vertex: str) -> list[int]:
        return [j for j in range(self.n1) if self.visit_vertex(j) == vertex]

    def word0_visits_of(self, post: str) -> list[int]:
        return [i for i in range(self.k) if self.marker_post(i) == post]


@dataclass(frozen=True)
class Finding:
    check: str
    detail: str


@dataclass
class ValidationReport:
    findings: list[Finding] = field(default_factory=list)
    levels: dict[int, LevelMap] = field(default_factory=dict)  # each level once it is colored

    @property
    def passed(self) -> bool:
        return not self.findings

    def add(self, check: str, detail: str):
        self.findings.append(Finding(check, detail))

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "findings": [{"check": f.check, "detail": f.detail} for f in self.findings],
        }


# ---------------------------------------------------------------------------
# parsing

_KIND = {int: "an integer", str: "a string", list: "an array", dict: "an object"}


def _typed(value, kind: type, key: str):
    """`value` if its type is exactly `kind` (so a bool is not an integer),
    else a MapfileError naming `key`; nothing is coerced."""
    if type(value) is not kind:
        raise MapfileError(f"malformed mapfile: {key} {value!r} is not {_KIND[kind]}")
    return value


def _array(value, key: str, kind: type, item: str) -> list:
    """`value` if it is an array whose items all have type `kind`; `item` names them."""
    if not set(map(type, _typed(value, list, key))) <= {kind}:
        _typed(next(x for x in value if type(x) is not kind), kind, item)  # raises
    return value


def _rows(raw: dict, key: str, fields: tuple[str, ...]) -> list[tuple[str, ...]]:
    """The string fields of each object in the array raw[key]."""
    items = _array(raw[key], key, dict, f"{key} entry")
    columns = [_array([x[f] for x in items], key, str, f"{key} id") for f in fields]
    return list(zip(*columns))


def _pairs(items: list, key: str) -> list[tuple[int, str]]:
    """Items that are [integer, string] arrays: rotation darts or the white anchor."""
    for p in items:
        if type(p) is not list or len(p) != 2 or type(p[0]) is not int or type(p[1]) is not str:
            raise MapfileError(f"malformed mapfile: {key} {p!r} is not an [integer, string] pair")
    return [(pos, label) for pos, label in items]


def _rotation(raw: dict, key: str) -> dict[str, list[Dart]]:
    rotation = _typed(raw[key], dict, key)
    _array(list(rotation), key, str, f"{key} id")
    return {v: _pairs(_typed(darts, list, key), f"{key} dart") for v, darts in rotation.items()}


def parse(data: bytes | str | dict) -> MapSpec:
    """Build a MapSpec from mapfile JSON; structural checks only."""
    if isinstance(data, (bytes, str)):
        try:
            raw = json.loads(data)
        except (ValueError, RecursionError) as e:  # bad syntax or encoding; nesting too deep
            raise MapfileError(f"malformed JSON: {e}") from None
    else:
        raw = data

    try:
        _typed(raw, dict, "mapfile")
        degree = _typed(raw["degree"], int, "degree")
        post = _array(raw["post"], "post", str, "post id")
        edges0 = _array(raw["edges0"], "edges0", str, "edges0 id")
        word0 = [Word0Entry(*row) for row in _rows(raw, "word0", ("edge", "to"))]
        vertices1_items = _rows(raw, "vertices1", ("id", "image"))
        word1 = [Word1Entry(*row) for row in _rows(raw, "word1", ("image_edge", "to"))]
        rotation0 = _rotation(raw, "rotation0")
        rotation1 = _rotation(raw, "rotation1")
        markers = _array(raw["markers"], "markers", int, "markers item")
        (anchor,) = _pairs([raw["white_anchor"]], "white_anchor")
    except KeyError as e:
        raise MapfileError(f"malformed mapfile: missing key {e}") from None

    if degree < 2:
        raise MapfileError(f"degree must be >= 2, got {degree}")
    for name, items in (("post", post), ("edges0", edges0)):
        if len(set(items)) != len(items):
            raise MapfileError(f"duplicate ids in {name}")
    ids = [v for v, _ in vertices1_items]
    if len(set(ids)) != len(ids):
        raise MapfileError("duplicate ids in vertices1")
    vertices1 = dict(vertices1_items)

    k = len(word0)
    if k == 0:
        raise MapfileError("word0 is empty")
    if len(word1) != degree * k:
        raise MapfileError(
            f"word length mismatch: |word1| = {len(word1)}, expected degree*k = {degree * k}"
        )
    if sorted(w.edge for w in word0) != sorted(edges0):
        raise MapfileError("word0 must traverse each 0-edge exactly once")
    if set(w.to for w in word0) != set(post):
        raise MapfileError("word0 must visit every postcritical point")

    post_set, edge_set = set(post), set(edges0)
    for w in word0:
        if w.to not in post_set:
            raise MapfileError(f"word0 references unknown post point {w.to!r}")
    for w in word1:
        if w.image_edge not in edge_set:
            raise MapfileError(f"word1 references unknown 0-edge {w.image_edge!r}")
        if w.to not in vertices1:
            raise MapfileError(f"word1 references unknown 1-vertex {w.to!r}")
    for v, img in vertices1.items():
        if img not in post_set:
            raise MapfileError(f"1-vertex {v!r} has unknown image {img!r}")
    for p in post:
        if p not in vertices1:
            raise MapfileError(f"post point {p!r} missing from vertices1 (post is forward-invariant)")

    if len(markers) != k:
        raise MapfileError(f"expected {k} markers, got {len(markers)}")
    for m in markers:
        if not 0 <= m < len(word1):
            raise MapfileError(f"marker {m} out of range")
    if sorted(set(markers)) != markers:
        raise MapfileError("markers must be strictly increasing")

    if not 0 <= anchor[0] < k or anchor[1] not in ("left", "right"):
        raise MapfileError(f"bad white_anchor {anchor}")

    spec = MapSpec(
        degree=degree,
        post=tuple(post),
        edges0=tuple(edges0),
        word0=tuple(word0),
        vertices1=vertices1,
        vertex_order=tuple(ids),
        word1=tuple(word1),
        rotation0={k_: tuple(v) for k_, v in rotation0.items()},
        rotation1={k_: tuple(v) for k_, v in rotation1.items()},
        markers=tuple(markers),
        white_anchor=anchor,
    )

    # marker/image contradiction: each marked visit must sit at the marker's post point
    for i, m in enumerate(markers):
        v = spec.visit_vertex(m)
        p = spec.marker_post(i)
        if v != p:
            raise MapfileError(
                f"marker {i} points at 1-vertex {v!r} but gamma0 marks post point {p!r}"
            )
    return spec


def parse_file(path) -> MapSpec:
    with open(path, "rb") as fh:
        return parse(fh.read())


# ---------------------------------------------------------------------------
# the combinatorial map at one level: darts, faces, coloring

WHITE = "white"
BLACK = "black"


@dataclass
class LevelMap:
    """Rotation-system view of the curve complex at one level."""

    level: int
    n_edges: int
    rotations: dict[str, tuple[Dart, ...]]
    faces: list[tuple[Dart, ...]]          # orbits of the face permutation
    face_of: dict[Dart, int]
    colors: Optional[list[str]]            # per face, once coloring succeeds

    def left_face(self, pos: int) -> int:
        return self.face_of[(pos, OUT)]

    def right_face(self, pos: int) -> int:
        return self.face_of[(pos, IN)]

    def corner_face(self, vertex: str, slot: int) -> int:
        """Face of the corner that follows rotation slot `slot` at `vertex`."""
        rot = self.rotations[vertex]
        nxt = rot[(slot + 1) % len(rot)]
        return self.face_of[_alpha(nxt)]


def _alpha(d: Dart) -> Dart:
    pos, end = d
    return (pos, OUT if end == IN else IN)


def _edge_ends(spec: MapSpec, level: int) -> list[tuple[str, str]]:
    """(start vertex, end vertex) of each edge of the level-0 or level-1 curve."""
    if level == 0:
        return [(spec.marker_post(i), w.to) for i, w in enumerate(spec.word0)]
    return [(spec.visit_vertex(j), w.to) for j, w in enumerate(spec.word1)]


def _rotations(spec: MapSpec, level: int) -> dict[str, tuple[Dart, ...]]:
    return spec.rotation0 if level == 0 else spec.rotation1


def _build_level(spec: MapSpec, level: int) -> LevelMap:
    n = spec.k if level == 0 else spec.n1
    rotations = _rotations(spec, level)

    # sigma: next dart counterclockwise around its vertex; only its inverse is used
    sigma_inv: dict[Dart, Dart] = {}
    for rot in rotations.values():
        for idx, dart in enumerate(rot):
            nxt = rot[(idx + 1) % len(rot)]
            sigma_inv[nxt] = dart

    # face permutation phi = sigma^{-1} o alpha; orbits are the tiles
    darts = [(pos, end) for pos in range(n) for end in (OUT, IN)]
    face_of: dict[Dart, int] = {}
    faces: list[tuple[Dart, ...]] = []
    for start in darts:
        if start in face_of:
            continue
        orbit = []
        cur = start
        while cur not in face_of:
            face_of[cur] = len(faces)
            orbit.append(cur)
            cur = sigma_inv[_alpha(cur)]
        faces.append(tuple(orbit))

    return LevelMap(
        level=level,
        n_edges=n,
        rotations=rotations,
        faces=faces,
        face_of=face_of,
        colors=None,
    )


def _check_rotations(spec: MapSpec, level: int, report: ValidationReport) -> bool:
    """Every edge-end incidence listed exactly once at its vertex."""
    rotations = _rotations(spec, level)
    edges = _edge_ends(spec, level)
    used = set(spec.vertices1) if level else {v for pair in edges for v in pair}

    ok = True
    expected: dict[str, set[Dart]] = {v: set() for v in used}
    for pos, (start, end) in enumerate(edges):
        expected[start].add((pos, OUT))
        expected[end].add((pos, IN))
    for v, ends in expected.items():
        got = rotations.get(v)
        if got is None:
            report.add("rotation system incomplete", f"level {level}: no rotation for vertex {v!r}")
            ok = False
            continue
        if len(got) != len(set(got)) or set(got) != ends:
            report.add(
                "rotation system incomplete",
                f"level {level}: rotation at {v!r} does not list its edge-ends exactly once",
            )
            ok = False
    for v in rotations:
        if v not in expected:
            report.add("rotation system incomplete", f"level {level}: rotation for unused vertex {v!r}")
            ok = False
    return ok


@dataclass
class Passage:
    """One visit of the curve through a vertex: its in-end paired with its out-end."""

    visit: int
    in_dart: Dart
    out_dart: Dart


def _passages_at(spec: MapSpec, vertex: str, level: int) -> list[Passage]:
    ends = _edge_ends(spec, level)
    n = len(ends)
    return [
        Passage(j, ((j - 1) % n, IN), (j, OUT))
        for j, (start, _) in enumerate(ends)
        if start == vertex
    ]


def _chord_spans(slots: tuple[Dart, ...], passages: list[Passage]) -> list[tuple[int, int]]:
    """(lower, upper) rotation slot index of each passage's two ends."""
    index = {d: i for i, d in enumerate(slots)}
    return [tuple(sorted((index[p.in_dart], index[p.out_dart]))) for p in passages]


def _chords_cross(spans: list[tuple[int, int]]) -> bool:
    """Whether two passage chords cross."""
    for i, (a, b) in enumerate(spans):
        for c, d in spans[i + 1:]:
            if (a < c < b) != (a < d < b):
                return True
    return False


@dataclass
class Region:
    corners: tuple[int, ...]     # rotation slot indices; corner s follows slot s
    color: str
    passages: tuple[int, ...]    # indices into the diagram's passage list


@dataclass
class ChordDiagram:
    vertex: str
    level: int
    slots: tuple[Dart, ...]
    passages: list[Passage]
    regions: list[Region]


def chord_diagram(spec: MapSpec, vertex: str, lm: LevelMap) -> ChordDiagram:
    """Disk model of the curve near a vertex of the validated, colored level
    map lm: boundary slots, passage chords, complementary regions with their
    tile colors."""
    slots = lm.rotations[vertex]
    passages = _passages_at(spec, vertex, lm.level)
    spans = _chord_spans(slots, passages)
    n = len(slots)

    # corner s (the gap after slot s) gets a side signature per chord
    def signature(corner: int) -> tuple[bool, ...]:
        return tuple(a <= corner < b for a, b in spans)

    groups: dict[tuple[bool, ...], list[int]] = {}
    for c in range(n):
        groups.setdefault(signature(c), []).append(c)

    regions = []
    for sig in sorted(groups, key=lambda s: groups[s][0]):
        corners = groups[sig]
        colors = {lm.colors[lm.corner_face(vertex, c)] for c in corners}
        if len(colors) > 1:
            raise ValueError(f"inconsistent corner colors at {vertex!r}: {colors}")
        # a chord borders the region holding a corner adjacent to one of its slots
        border = []
        for pi, (a, b) in enumerate(spans):
            adjacent = {a, (a - 1) % n, b, (b - 1) % n}
            if adjacent & set(corners):
                border.append(pi)
        regions.append(
            Region(
                corners=tuple(corners),
                color=colors.pop(),
                passages=tuple(border),
            )
        )
    return ChordDiagram(vertex=vertex, level=lm.level, slots=slots, passages=passages, regions=regions)


# ---------------------------------------------------------------------------
# coloring

def _two_color(lm: LevelMap, anchor_face: int, anchor_color: str) -> list[str]:
    """Checkerboard coloring from anchor_face's color; raises on odd cycles."""
    colors: dict[int, str] = {anchor_face: anchor_color}
    queue = [anchor_face]
    while queue:
        f = queue.pop()
        for pos in range(lm.n_edges):
            lf, rf = lm.left_face(pos), lm.right_face(pos)
            if f not in (lf, rf):
                continue
            other = rf if f == lf else lf
            want = BLACK if colors[f] == WHITE else WHITE
            if other in colors:
                if colors[other] != want:
                    raise ValueError("not checkerboard-colorable")
            else:
                colors[other] = want
                queue.append(other)
    # one closed walk covers every edge, so the map is connected and each face was reached
    return [colors[f] for f in range(len(lm.faces))]


def _color_level(spec: MapSpec, lm: LevelMap, lm0: Optional[LevelMap]) -> None:
    """Color lm from the white anchor; level 1 inherits it through the colored
    level-0 map lm0.  Raises ValueError when no coloring exists."""
    if lm.level == 0:
        pos, side = spec.white_anchor
        anchor = lm.left_face(pos) if side == "left" else lm.right_face(pos)
        lm.colors = _two_color(lm, anchor, WHITE)
        return
    if lm0 is None:
        raise ValueError("level 0 has no coloring to inherit")
    # the left side of 1-edge j covers the left side of 0-edge j mod k,
    # so position 0 pins the level-1 coloring
    lm.colors = _two_color(lm, lm.left_face(0), lm0.colors[lm0.left_face(0)])


# ---------------------------------------------------------------------------
# critical vertices

@dataclass
class CriticalVertex:
    vertex: str
    local_degree: int
    visits: tuple[int, ...]
    # (color, passage visits) of each chord-diagram region that two or more passages border
    connections: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def colors(self) -> tuple[str, ...]:
        return tuple(sorted({color for color, _ in self.connections}))


def local_degree(spec: MapSpec, vertex: str) -> int:
    visits = spec.visits_at(vertex)
    image = spec.vertices1[vertex]
    below = spec.word0_visits_of(image)
    if not below or len(visits) % len(below) != 0:
        raise ValueError(
            f"local degree not integral at {vertex!r}: {len(visits)} visits over {len(below)}"
        )
    return len(visits) // len(below)


def critical_vertices(spec: MapSpec, lm1: LevelMap) -> list[CriticalVertex]:
    """All 1-vertices of local degree >= 2, with the connections of their
    chord diagrams on the colored level-1 map lm1."""
    out = []
    for v in spec.vertex_order:
        deg = local_degree(spec, v)
        if deg < 2:
            continue
        diagram = chord_diagram(spec, v, lm1)
        connections = tuple(
            (r.color, tuple(diagram.passages[p].visit for p in r.passages))
            for r in diagram.regions
            if len(r.passages) >= 2
        )
        out.append(
            CriticalVertex(
                vertex=v,
                local_degree=deg,
                visits=tuple(spec.visits_at(v)),
                connections=connections,
            )
        )
    return out


# ---------------------------------------------------------------------------
# validation

def validate(spec: MapSpec) -> ValidationReport:
    """Semantic validation; returns an itemized pass/fail report."""
    report = ValidationReport()
    k, d = spec.k, spec.degree

    if spec.n1 != d * k:
        report.add("word length mismatch", f"|word1| = {spec.n1}, expected {d * k}")
        return report

    if list(spec.markers) != sorted(set(spec.markers)):
        report.add("markers not strictly increasing", f"markers = {list(spec.markers)}")

    # fully invariant condition: image labels read word0 repeated d times
    bad = [
        j for j in range(spec.n1)
        if spec.word1[j].image_edge != spec.word0[j % k].edge
    ]
    if bad:
        report.add(
            "fully invariant condition violated",
            f"word1 image labels disagree with word0 at positions {bad[:6]}"
            + ("..." if len(bad) > 6 else ""),
        )

    counts: dict[str, int] = {e: 0 for e in spec.edges0}
    for w in spec.word1:
        counts[w.image_edge] += 1
    off = {e: c for e, c in counts.items() if c != d}
    if off:
        report.add("edge multiplicity violated", f"0-edges not covered exactly d times: {off}")

    # vertex-level invariance: the end vertex of 1-edge j maps to the end of 0-edge j mod k
    for j in range(spec.n1):
        v = spec.word1[j].to
        want = spec.word0[j % k].to
        if spec.vertices1[v] != want:
            report.add(
                "vertex image inconsistency",
                f"1-vertex {v!r} at word1 position {j} has image {spec.vertices1[v]!r}, expected {want!r}",
            )
            break

    # local degrees and Riemann-Hurwitz
    rh_total = 0
    try:
        for v in spec.vertex_order:
            rh_total += local_degree(spec, v) - 1
        if rh_total != 2 * d - 2:
            report.add(
                "Riemann-Hurwitz violated",
                f"sum of (local degree - 1) = {rh_total}, expected {2 * d - 2}",
            )
    except ValueError as e:
        report.add("local degree not integral", str(e))

    for level in (0, 1):
        if not _check_rotations(spec, level, report):
            continue
        lm = _build_level(spec, level)
        n_vertices = len(lm.rotations)
        if n_vertices - lm.n_edges + len(lm.faces) != 2:
            report.add(
                "Euler formula violated",
                f"level {level}: V-E+F = {n_vertices}-{lm.n_edges}+{len(lm.faces)}",
            )
        for v, rot in lm.rotations.items():
            if _chords_cross(_chord_spans(rot, _passages_at(spec, v, level))):
                report.add("curve not oriented", f"crossing chords at vertex {v!r} (level {level})")
        try:
            _color_level(spec, lm, report.levels.get(0))
        except ValueError:
            report.add("not checkerboard-colorable", f"level {level} tiles admit no 2-coloring")
        else:
            report.levels[level] = lm

    return report


def validate_or_raise(spec: MapSpec) -> ValidationReport:
    report = validate(spec)
    if not report.passed:
        raise ValidationFailure(report)
    return report


def faces(spec: MapSpec, level: int) -> LevelMap:
    """The checkerboard-colored tile complex of the level-0 or level-1 curve,
    as validation built it; raises ValidationFailure on an invalid spec."""
    return validate_or_raise(spec).levels[level]
