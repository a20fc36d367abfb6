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
from collections.abc import Iterable

from .circle import crossing_pairs
from .errors import MapfileError, ValidationFailure

IN = "in"
OUT = "out"


set_field = object.__setattr__  # how a record's own __init__ fills its slots


class Record:
    """The base of the read-only records.

    A record names its fields in ``__slots__`` and fills each one in its own
    ``__init__`` through `set_field`; after that, assignment and deletion
    raise AttributeError.  Equality (with a record of the same type only),
    hash and repr go over the slots in field order.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__name__}({fields})"


class Word0Entry(Record):
    __slots__ = ("edge", "to")

    def __init__(self, edge: str, to: str):
        set_field(self, "edge", edge)
        set_field(self, "to", to)


class Word1Entry(Record):
    __slots__ = ("image_edge", "to")

    def __init__(self, image_edge: str, to: str):
        set_field(self, "image_edge", image_edge)
        set_field(self, "to", to)


Dart = tuple[int, str]  # (word position, "in"|"out"); "out" is based at the edge start


class MapSpec(Record):
    """A parsed mapfile; `parse`, its only producer, guarantees what later
    stages rely on: degree >= 2, k = len(word0) >= 1, len(word1) = degree*k;
    no id repeated in post, the mapfile's edges0 or vertices1; word0
    traverses each 0-edge once, so its edges are the 0-edges, and visits
    exactly the post points; word1 names only known 0-edges
    and 1-vertices, each 1-vertex maps to a post point and each post point
    is a 1-vertex; the k markers are strictly increasing word1 positions,
    markers[i] visiting the post point of gamma0 marker i; white_anchor is
    (position < k, "left" or "right")."""

    __slots__ = (
        "degree", "post", "word0", "vertices1", "word1", "rotation0", "rotation1", "markers",
        "white_anchor",
    )

    def __init__(
        self,
        degree: int,
        post: tuple[str, ...],
        word0: tuple[Word0Entry, ...],
        vertices1: dict[str, str],  # id -> image post name, in mapfile order
        word1: tuple[Word1Entry, ...],
        rotation0: dict[str, tuple[Dart, ...]],
        rotation1: dict[str, tuple[Dart, ...]],
        markers: tuple[int, ...],
        white_anchor: tuple[int, str],
    ):
        set_field(self, "degree", degree)
        set_field(self, "post", post)
        set_field(self, "word0", word0)
        set_field(self, "vertices1", vertices1)
        set_field(self, "word1", word1)
        set_field(self, "rotation0", rotation0)
        set_field(self, "rotation1", rotation1)
        set_field(self, "markers", markers)
        set_field(self, "white_anchor", white_anchor)

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


class Finding(Record):
    __slots__ = ("check", "detail")

    def __init__(self, check: str, detail: str):
        set_field(self, "check", check)
        set_field(self, "detail", detail)


class ValidationReport:
    __slots__ = ("findings", "levels")

    def __init__(self):
        self.findings: list[Finding] = []
        self.levels: dict[int, LevelMap] = {}  # each level once it is colored

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


def _first_fault(seen: list, expected: list, verb: str, noun: str) -> str:
    """Where ``seen`` (word0's edges or points, in order) fails to be
    ``expected`` once each: the first expected item missing from it, else
    its first item that is not expected, else its first repeat."""
    for x in expected:
        if x not in seen:
            return f"{x!r} is not {verb}"
    for x in seen:
        if x not in expected:
            return f"{x!r} is not {noun}"
    return f"{_first_repeat(seen)!r} is {verb} more than once"


def _first_repeat(items: list):
    """The first item of `items` that equals an earlier one, or None."""
    seen = set()
    for x in items:
        if x in seen:
            return x
        seen.add(x)
    return None


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
            raise MapfileError(f"duplicate ids in {name}: {_first_repeat(items)!r}")
    vertices1 = dict(vertices1_items)
    if len(vertices1) != len(vertices1_items):
        raise MapfileError(f"duplicate ids in vertices1: {_first_repeat([v for v, _ in vertices1_items])!r}")

    k = len(word0)
    if k == 0:
        raise MapfileError("word0 is empty")
    if len(word1) != degree * k:
        raise MapfileError(
            f"word length mismatch: |word1| = {len(word1)}, expected degree*k = {degree * k}"
        )
    edges = [w.edge for w in word0]
    if sorted(edges) != sorted(edges0):
        place = _first_fault(edges, edges0, "traversed", "a 0-edge")
        raise MapfileError(f"word0 must traverse each 0-edge exactly once: {place}")
    visited = [w.to for w in word0]
    if set(visited) != set(post):
        place = _first_fault(visited, post, "visited", "a postcritical point")
        raise MapfileError(f"word0 must visit every postcritical point: {place}")

    post_set, edge_set = set(post), set(edges0)
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
    for i in range(1, k):
        if markers[i] <= markers[i - 1]:
            raise MapfileError(
                f"markers must be strictly increasing, but markers[{i}] = {markers[i]} follows {markers[i - 1]}"
            )

    if not 0 <= anchor[0] < k or anchor[1] not in ("left", "right"):
        raise MapfileError(f"bad white_anchor {anchor}")

    spec = MapSpec(
        degree=degree,
        post=tuple(post),
        word0=tuple(word0),
        vertices1=vertices1,
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
# the combinatorial map at one level: visits, darts, faces, chords, coloring

WHITE = "white"
BLACK = "black"

Visits = dict[str, tuple[int, ...]]  # vertex -> its visits in word order


def _visit_index(names: Iterable[str], word) -> Visits:
    """The visits at each vertex of the curve that `word` (word0 or word1)
    traces.  Visit j is the start of word position j: it enters by dart
    (j-1, in) and leaves by dart (j, out)."""
    visits: dict[str, list[int]] = {v: [] for v in names}
    for j in range(len(word)):
        visits[word[j - 1].to].append(j)
    return {v: tuple(js) for v, js in visits.items()}


class LevelMap:
    """Rotation-system view of the curve complex at one level.

    Once level 1 is colored and every check has passed, `validate` reads
    the chord diagram of each of its vertices with two or more visits
    once, and keeps the diagram's connections: the (color, visits) regions
    that two or more visits border.  These are the identifications the
    curve makes where it meets itself.  Level 0, and the level 1 of a spec
    that fails validation, have none (``connections`` stays None).
    """

    __slots__ = ("level", "n_edges", "rotations", "visits", "chords", "faces", "face_of", "colors", "connections")

    def __init__(
        self,
        level: int,
        n_edges: int,
        rotations: dict[str, tuple[Dart, ...]],
        visits: Visits,
        chords: dict[str, list[tuple[int, int]]],
        faces: list[tuple[Dart, ...]],
        face_of: dict[Dart, int],
        colors: list[str] | None,
    ):
        self.level = level
        self.n_edges = n_edges
        self.rotations = rotations
        self.visits = visits
        self.chords = chords  # per visit: (lower, upper) rotation slots of its two ends
        self.faces = faces  # orbits of the face permutation
        self.face_of = face_of
        self.colors = colors  # per face, once coloring succeeds
        self.connections = None  # vertex -> its connections, level 1 only

    def left_face(self, pos: int) -> int:
        return self.face_of[(pos, OUT)]

    def right_face(self, pos: int) -> int:
        return self.face_of[(pos, IN)]


def _alpha(d: Dart) -> Dart:
    pos, end = d
    return (pos, OUT if end == IN else IN)


def _check_rotations(level: int, rotations: dict[str, tuple[Dart, ...]], visits: Visits,
                     report: ValidationReport) -> bool:
    """Every edge-end incidence listed exactly once at its vertex."""
    n = sum(map(len, visits.values()))
    ok = True
    for v, js in visits.items():
        got = rotations.get(v)
        if got is None:
            report.add("rotation system incomplete", f"level {level}: no rotation for vertex {v!r}")
            ok = False
            continue
        ends = {((j - 1) % n, IN) for j in js} | {(j, OUT) for j in js}
        if len(got) != len(set(got)) or set(got) != ends:
            report.add(
                "rotation system incomplete",
                f"level {level}: rotation at {v!r} does not list its edge-ends exactly once",
            )
            ok = False
    for v in rotations:
        if v not in visits:
            report.add("rotation system incomplete", f"level {level}: rotation for unused vertex {v!r}")
            ok = False
    return ok


def _build_level(level: int, rotations: dict[str, tuple[Dart, ...]], visits: Visits) -> LevelMap:
    n = sum(map(len, visits.values()))

    # sigma: next dart counterclockwise around its vertex; only its inverse is used
    sigma_inv: dict[Dart, Dart] = {}
    chords = {}
    for v, rot in rotations.items():
        sigma_inv.update(zip(rot, rot[-1:] + rot[:-1]))
        slot = {d: i for i, d in enumerate(rot)}
        chords[v] = [tuple(sorted((slot[(j - 1) % n, IN], slot[j, OUT]))) for j in visits[v]]

    # face permutation phi = sigma^{-1} o alpha; orbits are the tiles
    face_of: dict[Dart, int] = {}
    faces: list[tuple[Dart, ...]] = []
    for start in [(pos, end) for pos in range(n) for end in (OUT, IN)]:
        if start in face_of:
            continue
        orbit = []
        cur = start
        while cur not in face_of:
            face_of[cur] = len(faces)
            orbit.append(cur)
            cur = sigma_inv[_alpha(cur)]
        faces.append(tuple(orbit))

    return LevelMap(level, n, rotations, visits, chords, faces, face_of, colors=None)


def chord_diagram(lm: LevelMap, vertex: str) -> list[tuple[str, tuple[int, ...]]]:
    """Disk model of the curve near a vertex of the validated, colored level
    map lm: the visit chords cut the disk into regions, listed by their first
    corner as (tile color, visits whose chords border the region)."""
    rot, spans = lm.rotations[vertex], lm.chords[vertex]
    n = len(rot)

    # corner s (the gap after slot s) gets a side signature per chord
    groups: dict[tuple[bool, ...], list[int]] = {}
    for c in range(n):
        groups.setdefault(tuple(a <= c < b for a, b in spans), []).append(c)

    regions = []
    for corners in groups.values():
        # the corners of a region lie on one side of every chord, so they share a color
        color = lm.colors[lm.face_of[_alpha(rot[(corners[0] + 1) % n])]]
        # chord (a, b) borders the region inside it at corner a and the one
        # outside it at corner b (chords do not cross on a validated map)
        border = tuple(
            j for j, (a, b) in zip(lm.visits[vertex], spans) if a in corners or b in corners
        )
        regions.append((color, border))
    return regions


# ---------------------------------------------------------------------------
# coloring

def _two_color(lm: LevelMap, anchor_face: int, anchor_color: str) -> list[str]:
    """Checkerboard coloring from anchor_face's color; raises on odd cycles."""
    colors: dict[int, str] = {anchor_face: anchor_color}
    queue = [anchor_face]
    while queue:
        f = queue.pop()
        want = BLACK if colors[f] == WHITE else WHITE
        # each dart of f runs along an edge; the face across it is its alpha's
        for dart in lm.faces[f]:
            other = lm.face_of[_alpha(dart)]
            if other in colors:
                if colors[other] != want:
                    raise ValueError(f"level {lm.level} tiles admit no 2-coloring")
            else:
                colors[other] = want
                queue.append(other)
    # one closed walk covers every edge, so the map is connected and each face was reached
    return [colors[f] for f in range(len(lm.faces))]


def _color_level(spec: MapSpec, lm: LevelMap, lm0: LevelMap | None) -> None:
    """Color lm from the white anchor; level 1 inherits it through the colored
    level-0 map lm0.  Raises ValueError, with the finding's detail, when no
    coloring exists or level 0 has none to pass on."""
    if lm.level == 0:
        pos, side = spec.white_anchor
        anchor = lm.left_face(pos) if side == "left" else lm.right_face(pos)
        lm.colors = _two_color(lm, anchor, WHITE)
        return
    if lm0 is None:
        raise ValueError("level 1 is uncolored because level 0 has no coloring")
    # the left side of 1-edge j covers the left side of 0-edge j mod k,
    # so position 0 pins the level-1 coloring
    lm.colors = _two_color(lm, lm.left_face(0), lm0.colors[lm0.left_face(0)])


# ---------------------------------------------------------------------------
# critical vertices

class CriticalVertex:
    """A 1-vertex of local degree >= 2, its visits, and the sorted colors of
    its connections, which the level-1 map keeps (`LevelMap.connections`)."""

    __slots__ = ("vertex", "local_degree", "visits", "colors")

    def __init__(self, vertex: str, local_degree: int, visits: tuple[int, ...], colors: tuple[str, ...]):
        self.vertex = vertex
        self.local_degree = local_degree
        self.visits = visits
        self.colors = colors


def local_degree(spec: MapSpec, vertex: str, visits0: Visits, visits1: Visits) -> int:
    """Visits at 1-vertex `vertex` per visit at its image post, from the
    level-0 and level-1 visit indices."""
    up, below = len(visits1[vertex]), len(visits0[spec.vertices1[vertex]])
    if not below or up % below != 0:
        raise ValueError(f"local degree not integral at {vertex!r}: {up} visits over {below}")
    return up // below


def critical_vertices(spec: MapSpec, lm0: LevelMap, lm1: LevelMap) -> list[CriticalVertex]:
    """All 1-vertices of local degree >= 2 (read off the visit indices of
    lm0 and lm1), with the colors of their connections on the validated,
    colored level-1 map lm1; no chord diagram is built here."""
    out = []
    for v, visits in lm1.visits.items():
        deg = local_degree(spec, v, lm0.visits, lm1.visits)
        if deg >= 2:
            out.append(CriticalVertex(v, deg, visits, tuple(sorted({c for c, _ in lm1.connections[v]}))))
    return out


# ---------------------------------------------------------------------------
# validation

def validate(spec: MapSpec) -> ValidationReport:
    """Semantic validation; returns an itemized pass/fail report.  Edge
    multiplicity follows from full invariance: word0 traverses each 0-edge
    once (`parse`), so labels reading it d times cover each 0-edge d times."""
    report = ValidationReport()
    k, d = spec.k, spec.degree

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

    # local degrees and Riemann-Hurwitz, from each level's visit index
    index = (_visit_index(spec.post, spec.word0), _visit_index(spec.vertices1, spec.word1))
    rh_total = 0
    try:
        for v in spec.vertices1:
            rh_total += local_degree(spec, v, *index) - 1
        if rh_total != 2 * d - 2:
            report.add(
                "Riemann-Hurwitz violated",
                f"sum of (local degree - 1) = {rh_total}, expected {2 * d - 2}",
            )
    except ValueError as e:
        report.add("local degree not integral", str(e))

    for level, (rotations, visits) in enumerate(zip((spec.rotation0, spec.rotation1), index)):
        if not _check_rotations(level, rotations, visits, report):
            continue
        lm = _build_level(level, rotations, visits)
        if len(visits) - lm.n_edges + len(lm.faces) != 2:
            report.add(
                "Euler formula violated",
                f"level {level}: V-E+F = {len(visits)}-{lm.n_edges}+{len(lm.faces)}",
            )
        for v, spans in lm.chords.items():
            # visit chords share no rotation slot, so sorted they are disjoint
            # 2-sets in least-angle order, as the walk takes them
            if crossing_pairs(sorted(spans))[0]:
                report.add("curve not oriented", f"crossing chords at vertex {v!r} (level {level})")
        try:
            _color_level(spec, lm, report.levels.get(0))
        except ValueError as e:
            report.add("not checkerboard-colorable", str(e))
        else:
            report.levels[level] = lm
            if level and report.passed:  # each vertex's connections, from its one chord diagram
                lm.connections = {
                    v: tuple(r for r in chord_diagram(lm, v) if len(r[1]) >= 2)
                    for v, js in visits.items() if len(js) >= 2
                }

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
