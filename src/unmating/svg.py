"""Static SVG rendering of lamination classes on the unit disk.

Chords are straight segments between circle points (cos 2*pi*t, sin 2*pi*t);
coordinates are the only place floating point appears, fixed to six decimals
so identical scenes render byte-identically.  A coordinate that rounds to
-0.000000 is written 0.000000.

A label is FONT_SIZE tall at radius LABEL_RADIUS, about 0.0101 turn, so
labels closer than that overlap and none can be read.  A scene labels only
the chord ends on its label grid (`label_grid`): the finest D*d^j, j >= 0,
whose spacing is at least a label's height, with D the depth-1 grid and d
the degree.  That keeps every depth-1 angle, and at depth 9 labels 28
angles of 2,044 on the Meyer fixture (grid 1/96) and 62 of 1,534 on the
symmetric Jordan fixture (grid 1/64).  The JSON report still carries every
angle's ``p/q``.

A scene formats its angles in one batch when it is built: one ``%`` spells
the coordinates of every chord end, another those of every label, and one
f-string comprehension the label lines, each label's ``p/q`` spelled by
`circle.frac`.  The class sets of a scene share one grid: `cli._scene`
draws one side, or the two sides of one run, whose chains run to one depth
from one pullback grid (`laminations.join` states why their grids agree).
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import itemgetter

from .circle import frac
from .laminations import BLACK, JOIN, WHITE, AngleClasses

FONT_SIZE = 0.07
LABEL_RADIUS = 1.10

_STYLES = {
    WHITE: 'stroke="#b03030" stroke-width="0.010"',
    BLACK: 'stroke="#3050b0" stroke-width="0.010" stroke-dasharray="0.04,0.02"',
    JOIN: 'stroke="#444444" stroke-width="0.010"',
}


def label_grid(grid: int, degree: int) -> int:
    """The finest grid D*d^j, j >= 0, whose spacing 1/(D*d^j) turn is at
    least a label's height FONT_SIZE / (2*pi*LABEL_RADIUS); D is the
    depth-1 grid ``grid`` and d the degree."""
    while grid * degree * FONT_SIZE <= 2 * math.pi * LABEL_RADIUS:
        grid *= degree
    return grid


def class_chords(class_sets: list[AngleClasses]) -> list[tuple[int, int, str]]:
    """The chords (a, b, side), a < b, sorted, of each class: consecutive
    angles, and the closing chord of a polygon.

    The classes of one AngleClasses are disjoint and every chord carries
    its side, so no chord is made twice and one sort orders them all.
    """
    chords = []
    for classes in class_sets:
        side = classes.color
        for xs in classes.classes:
            if len(xs) == 2:
                chords.append((*xs, side))
            else:
                chords.extend(zip(xs, xs[1:], repeat(side)))
                if len(xs) >= 3:
                    chords.append((xs[0], xs[-1], side))
    chords.sort()
    return chords


class SvgScene:
    """Chords and their labelled ends, the angles given as integers x
    meaning x/grid.

    ``labels`` maps each labelled chord end, in angle order, to its label
    line.  ``coords`` maps every chord end to its x and y coordinates, to
    six decimals and never -0.000000; the scenes `side` makes share it, so
    each angle is formatted once however many files draw it.
    """

    __slots__ = ("grid", "chords", "labels", "coords")

    def __init__(self, grid: int, chords: list[tuple[int, int, str]], labels: dict, coords: dict):
        self.grid = grid
        self.chords = chords  # (a, b, side), a < b, sorted
        self.labels = labels
        self.coords = coords

    @classmethod
    def from_classes(cls, class_sets: list[AngleClasses], label_grid: int) -> "SvgScene":
        """The chords of the classes (`class_chords`), with a label at each
        end x/grid that lies on the label grid, x * label_grid = 0 mod grid.
        The class sets share one grid (module docstring)."""
        grid = class_sets[0].grid
        chords = class_chords(class_sets)
        ends = _ends(chords)
        # x * label_grid = 0 mod grid exactly when x is a multiple of grid / gcd(grid, label_grid)
        labelled = sorted(ends.intersection(range(0, grid, grid // math.gcd(grid, label_grid))))
        coords, labels = angle_text(grid, list(ends), labelled)
        return cls(grid, chords, labels, coords)

    def side(self, color: str) -> "SvgScene":
        """The chords of one side and the labels at their ends, sharing this
        scene's coordinates."""
        chords = [chord for chord in self.chords if chord[2] == color]
        ends = _ends(chords)
        labels = {x: line for x, line in self.labels.items() if x in ends}
        return SvgScene(self.grid, chords, labels, self.coords)


def _ends(chords: list[tuple[int, int, str]]) -> set[int]:
    return set(map(itemgetter(0), chords)).union(map(itemgetter(1), chords))


def _spell(values: list[float]) -> list[str]:
    """Each value as ``%.6f``, -0.000000 written 0.000000: one ``%`` spells
    them all quoted, which measured faster than an f-string per float, so
    one replace matches whole values only."""
    quoted = ('"%.6f"' * len(values) % tuple(values)).replace('"-0.000000"', '"0.000000"')
    return quoted[1:-1].split('""')


def _cos_sin(grid: int, xs: list[int]) -> tuple[list[float], list[float]]:
    theta = [2 * math.pi * (x / grid) for x in xs]  # int / int is correctly rounded: x/grid turns
    return list(map(math.cos, theta)), list(map(math.sin, theta))


def angle_text(
    grid: int, xs: list[int], labelled: list[int]
) -> tuple[dict[int, tuple[str, str]], dict[int, str]]:
    """The `SvgScene` coordinates of each angle x/grid of ``xs``, and the
    label line of each angle of ``labelled``, reading ``frac(x, grid)``."""
    n, m = len(xs), len(labelled)
    cos, sin = _cos_sin(grid, xs)
    spelled = _spell(cos + sin)
    cos, sin = _cos_sin(grid, labelled)
    at = _spell([LABEL_RADIUS * c for c in cos] + [LABEL_RADIUS * s for s in sin])
    labels = {
        x: f'  <text x="{lx}" y="{ly}" font-size="{FONT_SIZE}" text-anchor="middle" '
        f'dominant-baseline="middle" fill="#222222">{frac(x, grid)}</text>'
        for x, lx, ly in zip(labelled, at[:m], at[m:])
    }
    return dict(zip(xs, zip(spelled[:n], spelled[n:]))), labels


def render_svg(scene: SvgScene) -> str:
    """Serialize the scene; output is stable across runs."""
    coords = scene.coords
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.25 -1.25 2.5 2.5">',
        '  <circle cx="0" cy="0" r="1" fill="none" stroke="#999999" stroke-width="0.006"/>',
    ]
    style, join = _STYLES.get, _STYLES[JOIN]
    for a, b, side in scene.chords:
        x1, y1 = coords[a]
        x2, y2 = coords[b]
        lines.append(f'  <line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {style(side, join)}/>')
    lines.extend(scene.labels.values())
    lines.append("</svg>\n")
    return "\n".join(lines)


def write_svg(scene: SvgScene, path) -> int:
    data = render_svg(scene).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)
