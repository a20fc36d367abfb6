"""Finite-depth lamination approximations by leaf pullback.

Depth 1 reads the equivalence classes off the connections that validation
keeps on the level-1 map, from one chord diagram per vertex of the pullback
curve with two or more visits.  The pipeline passes only the critical
vertices' connections; the identifications at the curve's other
self-intersections are not read yet (ROADMAP direction 1).  Deeper relations
are generated by lifting classes through the sectors of the certified
portrait, keeping everything from lower depths (the relation is a join over
levels).  `pullback_to_depth` runs a chain of steps on one grid and carries
one state through it: the map from each angle to its class, the classes new
at the last depth, which are all a step lifts, the outputs no planarity walk
has checked yet, and a lift table.  So a step looks up and adds only its new
angles, and reads their preimages, grouped by the closed sectors that hold
them, from the table: one row per segment of the grid that no sector
boundary's preimage cuts, filled on first use.  Within one color every
output is checked planar, with one walk per nested run of outputs.  `join`
merges the two colors by union-find over class indices.

`pullback_to_depth` and `join` state what their caller guarantees and do
not check it: a chain lifts the classes of its portrait's color, and a
join takes two chains run to one depth from one pullback grid.
`pipeline.run_pipeline` builds both chains so.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Sequence
from math import lcm
from operator import eq

from .circle import crossing_pairs, frac
from .errors import LaminationError
from .mapspec import BLACK, WHITE, Record, set_field
from .parameterize import PullbackParameters
from .portraits import CriticalPortrait, Sectors, sectors

JOIN = "join"

AngleSet = tuple[int, ...]  # sorted; x stands for the angle x/grid


def _canon(sets: Iterable[Iterable]) -> tuple[tuple, ...]:
    uniq = {tuple(sorted(set(s))) for s in sets}
    return tuple(sorted(uniq, key=lambda s: (s[0], len(s), s)))


class AngleClasses(Record):
    """Classes of angles x/grid, each a sorted tuple of the integers x.

    Every depth-n angle of a degree-d pullback lies on the grid
    1/(D*d^(n-1)), D the grid of the pullback parameters; `pullback_to_depth`
    returns its classes on that grid.
    """

    __slots__ = ("depth", "color", "grid", "classes")

    def __init__(self, depth: int, color: str, grid: int, classes: tuple[AngleSet, ...]):
        set_field(self, "depth", depth)
        set_field(self, "color", color)
        set_field(self, "grid", grid)
        set_field(self, "classes", classes)

    def text(self, table: dict) -> list[list[str]]:
        """One list of "p/q" strings per class.

        ``table`` maps each class tuple to its list and is filled on first
        use; it holds the classes of one grid.  The texts of one run, given
        one table, spell each distinct class once: the JSON sections and
        the Moore report read the same list.
        """
        grid = self.grid
        for c in self.classes:
            if c not in table:
                table[c] = [frac(x, grid) for x in c]
        return list(map(table.__getitem__, self.classes))


def check_planar(classes: Sequence[AngleSet]) -> tuple[AngleSet, AngleSet] | None:
    """The first pair of classes whose hulls cross, in the pair order of
    `circle.crossing_pairs`, or None.  The classes must be disjoint and in
    least-angle order, as every lamination's are."""
    first, second = crossing_pairs(classes)
    if not first:
        return None
    return (classes[first[0]], classes[second[0]])


# ---------------------------------------------------------------------------
# depth 1: connection classes

def depth1(
    pullback: PullbackParameters, connections: Iterable[tuple[str, tuple[int, ...]]]
) -> tuple[AngleClasses, AngleClasses]:
    """White and black depth-1 classes from chord-diagram connections.

    Each connection is a (color, visits) pair of the level-1 map
    (`mapspec.LevelMap.connections`), and its class is the pullback
    parameters of its visits.  The caller chooses the vertices:
    `pipeline.run_pipeline` passes the critical vertices' connections, which
    generate the portraits, and not yet those at the curve's other
    self-intersections (ROADMAP direction 1).
    """
    out: dict[str, list[set[int]]] = {WHITE: [], BLACK: []}
    for color, visits in connections:
        out[color].append({pullback.s[j] for j in visits})
    return (
        AngleClasses(1, WHITE, pullback.grid, _canon(out[WHITE])),
        AngleClasses(1, BLACK, pullback.grid, _canon(out[BLACK])),
    )


# ---------------------------------------------------------------------------
# pullback of classes through portrait sectors

def _merge(sets: Sequence[AngleSet], owner: dict) -> list[AngleSet]:
    """The connected components of ``sets``, two sets being connected when
    they share an angle: each a sorted tuple of its angles, in the order of
    their first sets.

    ``owner`` maps every angle to the index of the last set holding it, so
    linking each set to the owners of its angles connects every set that
    holds an angle to that angle's last holder.  Union-find runs over the
    set indices (Tarjan 1975) and always hangs the higher root under the
    lower, so every set's parent has an index at most its own, and one pass
    in index order points every set at its root and gathers the components.
    """
    parent = list(range(len(sets)))
    for i, s in enumerate(sets):
        for j in map(owner.__getitem__, s):
            while parent[i] != i:  # path halving
                parent[i] = i = parent[parent[i]]
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]
            if i < j:
                parent[j] = i
            elif j < i:
                parent[i] = i = j
    components: dict[int, set] = {}  # a root: the angles of its sets
    for i, p in enumerate(parent):
        parent[i] = root = parent[p]
        if root == i:
            components[i] = set(sets[i])
        else:
            components[root].update(sets[i])
    return [tuple(sorted(members)) for members in components.values()]


def merge(sets: Iterable[Iterable]) -> list[AngleSet]:
    """Connected components of non-empty angle sets, two sets being connected
    when they share an angle: each a sorted tuple of its angles, in the order
    of their first member sets (`_merge`).  Sets that share no angle are each
    their own component, in input order.
    """
    sets = [tuple(s) for s in sets]
    return _merge(sets, {x: i for i, s in enumerate(sets) for x in s})


class _Chain:
    """What one pullback chain carries from step to step.

    ``owner`` maps every angle of the last output to its class; the classes
    are disjoint, so ``len(owner)`` is the output's angle count, the work
    limit's count.  ``frontier`` holds the classes new at the last depth,
    ``pending`` the outputs of the current nested run that no planarity walk
    has checked yet, and ``depth`` is the chain's last depth.

    ``bounds`` and ``rows`` are the lift table of the chain's grid.  The
    preimages of the angle d*y are y + m*step, 0 <= m < d, step = grid/d,
    and their closed-sector labels change only where one of them meets a
    sector boundary b, which happens exactly when y = b mod step.  So
    ``bounds`` cuts [0, step) at b mod step and b mod step + 1 for every
    boundary angle b: each such y is a one-integer segment of its own, and
    on every other segment each preimage stays inside one arc.  The angles
    y of segment i = bisect_right(bounds, y) share ``rows[i]``: the offsets
    m*step of their preimages, grouped by label, as (label, offsets) pairs
    in the order the labels first appear.  A row is None until a step first
    lifts an angle of its segment, so a chain labels d preimages per segment
    it meets, not per angle it lifts.
    """

    __slots__ = ("depth", "owner", "frontier", "pending", "bounds", "rows")

    def __init__(
        self, classes: AngleClasses, frontier: list[AngleSet], depth: int, pending: list[AngleClasses], bounds: list[int]
    ):
        self.depth = depth
        self.owner = {x: c for c in classes.classes for x in c}
        self.frontier = frontier
        self.pending = pending
        self.bounds = bounds
        self.rows: list = [None] * (len(bounds) + 1)


def pullback_step(
    classes: AngleClasses, new: Iterable[AngleSet], sec: Sectors, d: int, chain: _Chain
) -> AngleClasses:
    """One inductive step: depth-(n+1) classes from depth-n classes, on the
    grid of ``classes``, which `pullback_to_depth` picks.

    ``new`` holds the classes new at depth n and ``sec`` the portrait's
    sectors, both on that grid.  Every angle x of ``new`` is a multiple of d,
    so its preimages (x + m*grid)/d are the integers x//d + m*(grid//d).
    The step reads them, grouped by the closed sectors that hold them, from
    the row of x//d in the chain's lift table (`_Chain`); the first angle of
    a segment fills its row, with d `Sectors.closed_labels` lookups.

    New classes are the sector-consistent lifts: preimages of a class that
    lie in a common closed sector, plus preimage sets of single angles of
    classes when a closed sector holds more than one preimage.  Lifts that
    meet (only possible through sector boundary angles) merge, with each
    other and with the lower-depth classes they touch.  Lower-depth classes
    are retained, and the output must stay planar.

    Lifting only the new classes is exact (semi-naive evaluation; Bancilhon
    and Ramakrishnan 1986): a class that was already a class at depth n-1
    has the same lifts as then, so each of its lifts already lies in one
    retained class and adding it again merges nothing.

    ``chain`` is the state of the `pullback_to_depth` call that runs the
    step, and the step updates it.  The step looks up only its lifts'
    angles in ``chain.owner``: when the lifts share no angle with each other
    or with a retained class, they are the new classes as they are;
    otherwise `merge` merges them with the retained classes they
    touch.  It then adds only the new classes to the map and makes them the
    next frontier.

    Planarity is walked once per nested run of outputs.  A step that merges
    no retained class keeps every class of its input and only adds classes,
    so its output contains its input, and a run of such steps gives outputs
    out_1 <= out_2 <= ... <= out_k as sets of classes: a pair of classes
    that links in out_j links in out_k, so out_k is planar only if every
    output of the run is.  The step that ends a run walks it: the chain's
    last step, the last step the work limit admits, or a step that merges a
    retained class, which walks the run ending at its input before its own
    output starts the next.  A walk checks the run's last output and, only
    when that one fails, each output in order, so the raise names the first
    depth that crosses and the first crossing pair there, as a walk of every
    output would.
    """
    grid = classes.grid
    bounds, rows = chain.bounds, chain.rows
    candidates = []
    for cls in new:
        # distinct angles have distinct preimages, so no list below holds an
        # angle twice
        lifts: dict[int, list[int]] = {}
        for u in cls:
            y = u // d
            i = bisect_right(bounds, y)
            row = rows[i]
            if row is None:  # the first angle of this segment: label its preimages
                groups: dict[int, list[int]] = {}
                for offset in range(0, grid, grid // d):
                    for label in sec.closed_labels(y + offset):
                        groups.setdefault(label, []).append(offset)
                rows[i] = row = list(groups.items())
            for label, offsets in row:
                if len(offsets) == 1:
                    lifts.setdefault(label, []).append(y + offsets[0])
                else:  # a preimage set of a single angle, when a sector holds several
                    xs = [y + offset for offset in offsets]
                    lifts.setdefault(label, []).extend(xs)
                    candidates.append(xs)
        candidates.extend(xs for xs in lifts.values() if len(xs) >= 2)

    # lower depths are retained; the classes are disjoint, so only those
    # whose angles the lifts meet can merge
    owner, color = chain.owner, classes.color
    added = [tuple(sorted(xs)) for xs in candidates]
    fresh = {x: c for c in added for x in c}
    gone: set[AngleSet] = set()  # the retained classes that merge into bigger ones
    if len(fresh) < sum(map(len, added)) or not owner.keys().isdisjoint(fresh):
        touched = {owner[x] for x in fresh.keys() & owner.keys()}
        merged = merge([*added, *touched])
        added = [c for c in merged if c not in touched]
        gone = touched.difference(merged)
        fresh = {x: c for c in added for x in c}
    owner.update(fresh)
    chain.frontier = added
    runs = []  # the nested runs this step ends, in order
    retained = classes.classes
    if gone:
        runs.append(chain.pending)
        chain.pending = []
        retained = [c for c in retained if c not in gone]
    out = AngleClasses(depth=classes.depth + 1, color=color, grid=grid, classes=tuple(sorted([*retained, *added])))
    chain.pending.append(out)
    if out.depth == chain.depth or d * len(owner) > MAX_PREIMAGES:
        runs.append(chain.pending)

    for run in runs:
        if run and check_planar(run[-1].classes) is not None:
            for lam in run:
                crossing = check_planar(lam.classes)
                if crossing is not None:
                    a, b = (", ".join(frac(x, lam.grid) for x in c) for c in crossing)
                    raise LaminationError(f"pullback produced crossing: {{{a}}} links {{{b}}}")
    return out


# Bound on the size of the next depth.  A step from depth n keeps the count
# angles of depth n and adds only preimages of them, at most d * count, and a
# step whose d * count is over the bound is refused.  Both fixtures double
# their angles per depth: depth n+1 holds d * count + 2 = 2^(n+2) - 2 angles,
# so depth 12 (8,190 angles, from d * count = 8,188) is the deepest run
# accepted.  README (`--depth`, under "Command line") gives what a depth-12
# `unmate` process costs, as measured by tests/clitime.py, and why depth 13
# would cost too much.  The bound's bit length, 14, caps the steps run on one
# grid: a chain whose angles at least double per step meets the bound within
# 14 steps, so an admitted run refines its grid once.
MAX_PREIMAGES = 10_000


def pullback_to_depth(
    start: AngleClasses, portrait: CriticalPortrait, d: int, depth: int
) -> AngleClasses:
    """Pull back to `depth` through the portrait, one `pullback_step` per depth.

    The chain alone decides the grid, the sectors and the frontier.  It cuts
    the circle along the portrait once.  It takes the steps in chunks of at
    most MAX_PREIMAGES.bit_length(): a chunk of s steps from the grid g runs
    on the grid lcm(d^s*g, d^(s-1)*P), P the portrait's grid, where every
    angle a step lifts is a multiple of d; it is the grid that refining at
    each step would reach.  The frontier is the classes new at the last
    depth: at first every class, then the output classes of the step before
    that are not among its input classes.

    One `_Chain` carries the angle map, the frontier, the unwalked outputs
    and the lift table from step to step; a new grid rescales the map and
    the frontier and cuts a new, empty table, and the unwalked outputs
    stay, since a rescaled class links exactly where it linked before.  The
    map's size is the angle count: a step from a depth whose angles have
    more than MAX_PREIMAGES preimages is refused, so every run does bounded
    work.

    Precondition: ``start`` holds the depth-1 classes of the portrait's
    color, and the portrait's sets are preargument sets, which `certify`
    checks; `sectors` relies on it.  `run_pipeline` passes each color's
    depth-1 classes with its certified portrait.
    """
    cur, chain = start, _Chain(start, list(start.classes), depth, [], [])
    base, left = None, 0  # left: the steps still to run on this grid
    while cur.depth < depth:
        count = len(chain.owner)
        if d * count > MAX_PREIMAGES:
            raise LaminationError(
                f"depth {depth} is beyond the work limit: lifting the {count} angles "
                f"of depth {cur.depth} makes {d * count} preimages, over the limit "
                f"of {MAX_PREIMAGES}"
            )
        if not left:
            if base is None:
                base = sectors(portrait)  # on the portrait's grid
            left = min(depth - cur.depth, MAX_PREIMAGES.bit_length())
            grid = lcm(d**left * cur.grid, d ** (left - 1) * portrait.grid)
            sec = base.scaled(grid // portrait.grid)
            k = grid // cur.grid
            cur = AngleClasses(cur.depth, cur.color, grid, tuple(tuple(x * k for x in c) for c in cur.classes))
            step = grid // d
            bounds = sorted({c for b in sec.boundary for c in (b % step, b % step + 1)})
            chain = _Chain(cur, [tuple(x * k for x in c) for c in chain.frontier], depth, chain.pending, bounds)
        cur, left = pullback_step(cur, chain.frontier, sec, d, chain), left - 1
    return cur


# ---------------------------------------------------------------------------
# join and the Moore condition

def join(white: AngleClasses, black: AngleClasses) -> AngleClasses:
    """Smallest common refinement: merge classes through shared angles.

    One map sends each angle to the last class holding it.  When it has as
    many angles as the classes hold, no angle lies in two classes and each
    class is its own joined class; otherwise `_merge` runs union-find over
    the class indices, which also fuses two classes of one side that share
    an angle.

    Precondition: both laminations have one depth and one grid, as two
    `pullback_to_depth` chains to one depth from the depth-1 classes of one
    pullback grid have: each chain picks its grids from its depth and the
    pullback grid alone (the portraits share that grid).
    """
    classes = white.classes + black.classes
    owner = {x: i for i, c in enumerate(classes) for x in c}  # the last class holding x
    if len(owner) < sum(map(len, classes)):  # an angle in two classes
        classes = _merge(classes, owner)
    # the classes are disjoint, so sorting orders them by their least angles
    return AngleClasses(depth=white.depth, color=JOIN, grid=white.grid, classes=tuple(sorted(classes)))


class Crossings(Record, Sequence):
    """The informational list of a Moore report as index columns: the
    columns of `circle.crossing_pairs`, whole.

    Entry k is ``{"a": text[a[k]], "b": text[b[k]], "sides": list(SIDES),
    "note": NOTE}`` (keys ``KEYS``): ``a`` and ``b`` hold class indices and
    ``text`` one list per class.  Every linked pair of a pipeline join has
    both sides (`moore_check`), so every entry shares the sides and the
    note.  It reads as, and equals, the sequence of those dicts, each with a
    sides list of its own.
    """

    __slots__ = ("a", "b", "text")
    KEYS = ("a", "b", "sides", "note")  # an entry's keys, in order; `cli._dumps` writes them too
    SIDES = (BLACK, WHITE)
    NOTE = "two-sided crossing (informational)"

    def __init__(self, a: list[int], b: list[int], text: list):
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "text", text)

    def __len__(self) -> int:
        return len(self.a)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return Crossings(self.a[k], self.b[k], self.text)
        return dict(zip(self.KEYS, (self.text[self.a[k]], self.text[self.b[k]], list(self.SIDES), self.NOTE)))

    def __eq__(self, other):
        return isinstance(other, Sequence) and len(self) == len(other) and all(map(eq, self, other))


def moore_check(joined: AngleClasses, table: dict) -> dict:
    """The Moore report of a pipeline join: no violations, and every linked
    pair of classes as an informational crossing across the two sides.

    The sides of a joined class are the colors of the classes `join` fused
    into it.  A violation of the finite Moore criterion would be two linked
    joined classes with one side each, the same one.  A join of the
    pipeline's two laminations has none:

    * a lamination's classes are pairwise disjoint, so a joined class with
      one side is exactly one class of that side, and two such classes that
      cross would be two crossing classes of one lamination;
    * at depth 1 the classes are the portrait's sets (`run_pipeline` checks
      it), and the certificate `run_pipeline` requires is valid only when
      "unlinked" passes: `portraits.sectors` refuses a shared angle and a
      crossing pair of hulls;
    * from depth 2 on, every step output's classes are disjoint, and the
      step that ends a chain walks the chain's last output and raises
      "pullback produced crossing" on a crossing pair (`pullback_step`).

    So every linked pair has both sides, and the report is the crossing
    walk's columns, whole, as a `Crossings` over the classes' `text`, read
    through ``table``, the run's text table.  The classes must come from
    `join` of two such laminations; no side is read.
    """
    text = joined.text(table)  # one list per class, shared by its entries
    return {"passed": True, "violations": [], "informational": Crossings(*crossing_pairs(joined.classes), text)}
