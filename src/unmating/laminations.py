"""Finite-depth lamination approximations by leaf pullback.

Depth 1 reads the equivalence classes off the chord diagrams at the critical
vertices of the pullback curve; the identifications at the curve's other
self-intersections are not read yet (ROADMAP direction 1).  Deeper relations
are generated by lifting classes through the sectors of the certified
portrait, keeping everything from lower depths (the relation is a join over
levels).  `pullback_to_depth` runs a chain of steps on one grid and passes
each step only the classes that are new at its depth.  Within one color
every output is checked planar.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import compress, repeat
from math import lcm
from operator import eq, floordiv, mod, not_

from .circle import crossing_keys, frac
from .errors import LaminationError
from .mapspec import BLACK, WHITE, CriticalVertex, Record, set_field
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

    __slots__ = ("depth", "color", "grid", "classes", "sides")

    def __init__(
        self,
        depth: int,
        color: str,
        grid: int,
        classes: tuple[AngleSet, ...],
        sides: tuple[tuple[str, ...], ...] | None = None,  # per class, join only
    ):
        set_field(self, "depth", depth)
        set_field(self, "color", color)
        set_field(self, "grid", grid)
        set_field(self, "classes", classes)
        set_field(self, "sides", sides)

    def text(self, table: dict | None = None) -> list[list[str]]:
        """One list of "p/q" strings per class.

        ``table`` maps each class tuple to its list and is filled on first
        use; it holds the classes of one grid.  The texts of one run, given
        one table, spell each distinct class once and share the list, so a
        class that occurs on several sides is one object wherever it is
        written.  Without a table the lists are new.
        """
        grid = self.grid
        known = {} if table is None else table
        out = []
        for c in self.classes:
            words = known.get(c)
            if words is None:
                words = known[c] = [frac(x, grid) for x in c]
            out.append(words)
        return out


def check_planar(classes: Iterable[AngleSet]) -> tuple[AngleSet, AngleSet] | None:
    """The first pair of classes whose hulls share an angle or cross, in the
    order of the keys of `circle.crossing_keys`, or None."""
    cl = list(classes)
    keys, n = crossing_keys(cl)
    if not keys:
        return None
    i, j = divmod(keys[0], n)
    return (cl[i], cl[j])


# ---------------------------------------------------------------------------
# depth 1: connection classes at critical vertices

def depth1(
    pullback: PullbackParameters, criticals: list[CriticalVertex]
) -> tuple[AngleClasses, AngleClasses]:
    """White and black depth-1 classes from connections at critical vertices.

    Only the critical vertices, where the map folds, are read: their
    connections generate the portraits.  The connections at the curve's other
    self-intersections are identifications too, and are not read yet (ROADMAP
    direction 1).
    """
    out: dict[str, list[set[int]]] = {WHITE: [], BLACK: []}
    for cv in criticals:
        for color, visits in cv.connections:
            out[color].append({pullback.s[j] for j in visits})
    return (
        AngleClasses(1, WHITE, pullback.grid, _canon(out[WHITE])),
        AngleClasses(1, BLACK, pullback.grid, _canon(out[BLACK])),
    )


# ---------------------------------------------------------------------------
# pullback of classes through portrait sectors

def merge_tagged(tagged: Iterable[tuple[Iterable, str]]) -> list[tuple[AngleSet, tuple[str, ...]]]:
    """Connected components of non-empty angle sets, two sets being connected
    when they share an angle: each a sorted tuple of its angles, with the
    sorted tuple of the tags of its member sets.

    When no angle occurs twice in the input, each set is its own component,
    in input order, and nothing is merged.  Otherwise union-find over the
    angles (Tarjan 1975) finds the components; their order is then
    unspecified.
    """
    tagged = [(tuple(angles), tag) for angles, tag in tagged]
    count = 0
    seen: set = set()
    for angles, _ in tagged:
        count += len(angles)
        seen.update(angles)
    if len(seen) == count:
        return [(tuple(sorted(angles)), (tag,)) for angles, tag in tagged]
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for angles, _ in tagged:
        for a in angles:
            parent.setdefault(a, a)
        root = find(angles[0])
        for a in angles[1:]:
            parent[find(a)] = root
    components: dict = {}
    for angles, tag in tagged:
        members, tags = components.setdefault(find(angles[0]), (set(), set()))
        members.update(angles)
        tags.add(tag)
    return [(tuple(sorted(members)), tuple(sorted(tags))) for members, tags in components.values()]


def pullback_step(
    classes: AngleClasses, new: Iterable[AngleSet], sec: Sectors, d: int
) -> AngleClasses:
    """One inductive step: depth-(n+1) classes from depth-n classes, on the
    grid of ``classes``, which `pullback_to_depth` picks.

    ``new`` holds the classes new at depth n and ``sec`` the portrait's
    sectors, both on that grid.  Every angle x of ``new`` is a multiple of d,
    so its preimages (x + m*grid)/d are the integers x//d + m*(grid//d).

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
    """
    grid = classes.grid
    step = grid // d
    candidates = []
    for cls in new:
        # distinct angles have distinct preimages, so no list below holds an
        # angle twice
        lifts: dict[int, list[int]] = {}
        for u in cls:
            hits: dict[int, list[int]] = {}
            for x in range(u // d, grid, step):
                for label in sec.closed_labels(x):
                    hits.setdefault(label, []).append(x)
            for label, xs in hits.items():
                lifts.setdefault(label, []).extend(xs)
                # preimage sets of single angles, when a sector holds several
                if len(xs) >= 2:
                    candidates.append(xs)
        candidates.extend(xs for xs in lifts.values() if len(xs) >= 2)

    # lower depths are retained; the classes are disjoint (depth 1, a join and
    # a step all make disjoint classes), so only those the lifts touch merge
    retained, color = classes.classes, classes.color
    owner = {x: i for i, c in enumerate(retained) for x in c}
    touched = {owner[x] for xs in candidates for x in xs if x in owner}
    merged = merge_tagged([(c, color) for c in candidates] + [(retained[i], color) for i in touched])
    out = tuple(sorted([c for i, c in enumerate(retained) if i not in touched] + [c for c, _ in merged]))

    crossing = check_planar(out)
    if crossing is not None:
        a, b = (", ".join(frac(x, grid) for x in c) for c in crossing)
        raise LaminationError(f"pullback produced crossing: {{{a}}} links {{{b}}}")
    return AngleClasses(depth=classes.depth + 1, color=color, grid=grid, classes=out)


# Bound on the size of the next depth.  A step from depth n keeps the count
# angles of depth n and adds only preimages of them, at most d * count, and a
# step whose d * count is over the bound is refused.  Both fixtures double
# their angles per depth: depth n+1 holds d * count + 2 = 2^(n+2) - 2 angles,
# so depth 12 (8,190 angles, from d * count = 8,188) is the deepest run
# accepted.  Its CLI `unmate` run takes 1.2 s and 523 MiB on the Jordan
# fixture (223 MB of stdout; Python 3.11, 2-vCPU Xeon), and each depth costs
# 3.1-4 times the one before, so depth 13 would pass 1.5 GiB.  Its bit
# length, 14, caps the steps run on one grid: a chain whose angles at least
# double per step meets the bound within 14 steps, so an admitted run refines
# its grid once.
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

    A step from a depth whose angles have more than MAX_PREIMAGES preimages
    is refused, so every run does bounded work.

    Precondition: the portrait's sets are preargument sets, which `certify`
    checks; `sectors` relies on it.
    """
    if start.color != portrait.color:
        raise LaminationError(f"cannot lift {start.color} classes through a {portrait.color} portrait")
    cur, old = start, set()  # old: the classes one depth lower, on the grid of cur
    base, left = None, 0  # left: the steps still to run on this grid
    while cur.depth < depth:
        count = sum(map(len, cur.classes))
        if d * count > MAX_PREIMAGES:
            raise LaminationError(
                f"depth {depth} is beyond the work limit: lifting the {count} angles "
                f"of depth {cur.depth} makes {d * count} preimages, over the limit "
                f"of {MAX_PREIMAGES}"
            )
        if not left:
            if base is None:
                base = sectors(portrait, d)  # on the portrait's grid
            left = min(depth - cur.depth, MAX_PREIMAGES.bit_length())
            grid = lcm(d**left * cur.grid, d ** (left - 1) * portrait.grid)
            sec = base.scaled(grid // portrait.grid)
            k = grid // cur.grid
            cur = AngleClasses(cur.depth, cur.color, grid, tuple(tuple(x * k for x in c) for c in cur.classes))
            old = {tuple(x * k for x in c) for c in old}
        new = [c for c in cur.classes if c not in old]
        old = set(cur.classes)
        cur, left = pullback_step(cur, new, sec, d), left - 1
    return cur


# ---------------------------------------------------------------------------
# join and the Moore condition

def join(white: AngleClasses, black: AngleClasses) -> AngleClasses:
    """Smallest common refinement: merge classes across colors through shared
    angles; each joined class records the sides it came from."""
    if (white.depth, white.grid) != (black.depth, black.grid):
        raise LaminationError(
            "join needs equal depths and grids, got depth "
            f"{white.depth} on 1/{white.grid} and depth {black.depth} on 1/{black.grid}"
        )
    # the components are disjoint, so sorting orders them by their least angles
    order = sorted(
        merge_tagged([(c, WHITE) for c in white.classes] + [(c, BLACK) for c in black.classes])
    )
    return AngleClasses(
        depth=white.depth,
        color=JOIN,
        grid=white.grid,
        classes=tuple(c for c, _ in order),
        sides=tuple(s for _, s in order),
    )


class Crossings(Record, Sequence):
    """One list of Moore entries as index columns.

    Entry k is ``{"a": text[a[k]], "b": text[b[k]], "sides": sides[k]}``,
    plus ``"note": note`` unless it is None (keys ``KEYS``): ``a`` and ``b``
    hold class indices, ``text`` one list per class and ``sides`` a shared
    list per entry.  It reads as, and equals, the sequence of those dicts.
    """

    __slots__ = ("a", "b", "text", "sides", "note")
    KEYS = ("a", "b", "sides", "note")  # an entry's keys, in order; `cli._dumps` writes them too

    def __init__(self, a: list[int], b: list[int], text: list, sides: list, note: str | None):
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "text", text)
        set_field(self, "sides", sides)
        set_field(self, "note", note)

    def __len__(self) -> int:
        return len(self.a)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return Crossings(self.a[k], self.b[k], self.text, self.sides[k], self.note)
        values = (self.text[self.a[k]], self.text[self.b[k]], self.sides[k], self.note)
        return dict(zip(self.KEYS, values if self.note is not None else values[:3]))

    def __eq__(self, other):
        return isinstance(other, Sequence) and len(self) == len(other) and all(map(eq, self, other))


def moore_check(joined: AngleClasses, table: dict | None = None) -> dict:
    """Flag linked class hulls: same-side links are violations of the finite
    Moore criterion, links across the two sides are expected and reported as
    informational.  The classes must come from `join`, which records their
    sides.

    Both lists are `Crossings` over the classes' `text` (read through
    ``table``, the run's text table, if given).  A class's kind is its sides
    tuple; each pair of kinds (at most 9) gets one sides list, shared by
    value, and two classes lie on one side only when that list has one side.
    """
    kinds = sorted(set(joined.sides))
    m = len(kinds)
    kind = list(map(kinds.index, joined.sides))
    lists: dict[tuple[str, ...], list[str]] = {}
    union = []  # union[p*m + q]: the sides list of a class of kind p linked with one of kind q
    for p in kinds:
        for q in kinds:
            value = tuple(sorted({*p, *q}))
            union.append(lists.setdefault(value, list(value)))
    same = [len(sides) == 1 for sides in union]
    text = joined.text(table)  # one list per class, shared by its entries
    keys, n = crossing_keys(joined.classes)
    first, second = list(map(floordiv, keys, repeat(n))), list(map(mod, keys, repeat(n)))
    codes = [kind[i] * m + kind[j] for i, j in zip(first, second)]
    bad = list(map(same.__getitem__, codes))

    def crossings(keep: list[bool], note: str | None) -> Crossings:
        a, b = list(compress(first, keep)), list(compress(second, keep))
        return Crossings(a, b, text, list(map(union.__getitem__, compress(codes, keep))), note)

    violations = crossings(bad, None)
    return {
        "passed": not violations,
        "violations": violations,
        "informational": crossings(list(map(not_, bad)), "two-sided crossing (informational)"),
    }
