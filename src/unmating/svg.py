"""Static SVG rendering of lamination classes on the unit disk.

Chords are straight segments between circle points (cos 2*pi*t, sin 2*pi*t);
coordinates are the only place floating point appears, fixed to six decimals
so identical scenes render byte-identically.  A scene formats its angles in
one batch when it is built: one ``%`` spells all their coordinates, quoted,
and one f-string comprehension all their label lines.  Each label's ``p/q``
comes from the class text of its classes (`AngleClasses.text`).  A
coordinate that rounds to -0.000000 is written 0.000000.
"""

from __future__ import annotations

import math
from itertools import chain, repeat

from .errors import LaminationError
from .laminations import BLACK, JOIN, WHITE, AngleClasses

_STYLES = {
    WHITE: 'stroke="#b03030" stroke-width="0.010"',
    BLACK: 'stroke="#3050b0" stroke-width="0.010" stroke-dasharray="0.04,0.02"',
    JOIN: 'stroke="#444444" stroke-width="0.010"',
}


class SvgScene:
    """Chords and their labelled endpoints, the angles given as integers x
    meaning x/grid.

    ``text`` maps an angle to the text that draws it: its x and y
    coordinates, to six decimals and never -0.000000, and its label line.
    It holds every label; the scenes `side` makes share it, so each angle
    is formatted once however many files draw it.
    """

    __slots__ = ("grid", "chords", "labels", "text")

    def __init__(self, grid: int, chords: list[tuple[int, int, str]], labels: list[int], text: dict):
        self.grid = grid
        self.chords = chords  # (a, b, side), a < b, sorted
        self.labels = labels  # every chord end, sorted
        self.text = text

    @classmethod
    def from_classes(cls, class_sets: list[AngleClasses], words: dict[tuple[int, ...], list[str]]) -> "SvgScene":
        """The chords of each class: consecutive angles, and the closing chord
        of a polygon.  The class sets must share one grid; ``words`` is the
        run's table for `AngleClasses.text`, so a run spells each class once
        for its report and its drawings.

        The classes of one AngleClasses are disjoint and every chord carries
        its side, so no chord is made twice and one sort orders them all.
        """
        grid = class_sets[0].grid
        if any(classes.grid != grid for classes in class_sets):
            raise LaminationError(
                "a scene needs one grid, got "
                + " and ".join(f"1/{classes.grid}" for classes in class_sets)
            )
        chords = []
        names = {}
        for classes in class_sets:
            side = classes.color
            for xs in classes.classes:
                if len(xs) == 2:
                    chords.append((*xs, side))
                else:
                    chords.extend(zip(xs, xs[1:], repeat(side)))
                    if len(xs) >= 3:
                        chords.append((xs[0], xs[-1], side))
            names.update(zip(chain.from_iterable(classes.classes), chain.from_iterable(classes.text(words))))
        chords.sort()
        labels = _ends(chords)
        return cls(grid, chords, labels, angle_text(grid, labels, names))

    def side(self, color: str) -> "SvgScene":
        """The chords of one side and their ends, sharing this scene's text."""
        chords = [chord for chord in self.chords if chord[2] == color]
        return SvgScene(self.grid, chords, _ends(chords), self.text)


def _ends(chords: list[tuple[int, int, str]]) -> list[int]:
    return sorted({x for a, b, _ in chords for x in (a, b)})


def angle_text(grid: int, xs: list[int], names: dict[int, str]) -> dict[int, tuple[str, str, str]]:
    """The `SvgScene.text` entry of each angle x/grid of ``xs``, its label
    reading ``names[x]``: one ``%`` spells every coordinate, which measured
    faster than an f-string per float, and one comprehension every label
    line."""
    n = len(xs)
    theta = [2 * math.pi * (x / grid) for x in xs]  # int / int is correctly rounded: x/grid turns
    cos, sin = list(map(math.cos, theta)), list(map(math.sin, theta))
    values = cos + sin + [1.10 * c for c in cos] + [1.10 * s for s in sin]
    quoted = ('"%.6f"' * (4 * n) % tuple(values)).replace('"-0.000000"', '"0.000000"')  # whole values only
    spelled = quoted[1:-1].split('""')  # x, y, label x, label y: n each
    label_lines = [
        f'  <text x="{x}" y="{y}" font-size="0.07" text-anchor="middle" '
        f'dominant-baseline="middle" fill="#222222">{name}</text>'
        for x, y, name in zip(spelled[2 * n : 3 * n], spelled[3 * n :], map(names.__getitem__, xs))
    ]
    return dict(zip(xs, zip(spelled[:n], spelled[n : 2 * n], label_lines)))


def render_svg(scene: SvgScene) -> str:
    """Serialize the scene; output is stable across runs."""
    text = scene.text
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.25 -1.25 2.5 2.5">',
        '  <circle cx="0" cy="0" r="1" fill="none" stroke="#999999" stroke-width="0.006"/>',
    ]
    style, join = _STYLES.get, _STYLES[JOIN]
    for a, b, side in scene.chords:
        x1, y1, _ = text[a]
        x2, y2, _ = text[b]
        lines.append(f'  <line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {style(side, join)}/>')
    lines.extend([text[x][2] for x in scene.labels])
    lines.append("</svg>\n")
    return "\n".join(lines)


def write_svg(scene: SvgScene, path) -> int:
    data = render_svg(scene).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)
