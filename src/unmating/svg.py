"""Static SVG rendering of lamination classes on the unit disk.

Chords are straight segments between circle points (cos 2*pi*t, sin 2*pi*t);
coordinates are the only place floating point appears, fixed to six decimals
so identical scenes render byte-identically.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Optional

from .circle import frac
from .errors import LaminationError
from .laminations import BLACK, WHITE, AngleClasses

_STYLES = {
    WHITE: 'stroke="#b03030" stroke-width="0.010"',
    BLACK: 'stroke="#3050b0" stroke-width="0.010" stroke-dasharray="0.04,0.02"',
    "join": 'stroke="#444444" stroke-width="0.010"',
}


class SvgScene:
    """Chords and their labelled endpoints, the angles given as integers x
    meaning x/grid.

    ``text`` maps an angle to the text that draws it (``_text``), filled in
    as the scene is rendered.  Scenes of one run on one grid may share it,
    so that each angle is formatted once however many files draw it.
    """

    __slots__ = ("grid", "chords", "labels", "text")

    def __init__(
        self,
        grid: int,
        chords: Optional[list[tuple[int, int, str]]] = None,
        labels: Optional[list[int]] = None,
        text: Optional[dict[int, tuple[str, str, str]]] = None,
    ):
        self.grid = grid
        self.chords = [] if chords is None else chords  # (a, b, side), a < b
        self.labels = [] if labels is None else labels  # every chord end, sorted
        self.text = {} if text is None else text

    @classmethod
    def from_classes(
        cls, class_sets: list[AngleClasses], text: Optional[dict[int, tuple[str, str, str]]] = None
    ) -> "SvgScene":
        """The chords of each class: consecutive angles, and the closing chord
        of a polygon.  The class sets must share one grid; ``text`` is the
        shared table of the run's scenes.

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
        for classes in class_sets:
            side = classes.color
            for xs in classes.classes:
                chords.extend(zip(xs, xs[1:], repeat(side)))
                if len(xs) >= 3:
                    chords.append((xs[0], xs[-1], side))
        chords.sort()
        labels = sorted({x for a, b, _ in chords for x in (a, b)})
        return cls(grid=grid, chords=chords, labels=labels, text=text)


def _point(x: int, grid: int) -> tuple[float, float]:
    theta = 2 * math.pi * (x / grid)  # int / int is correctly rounded: x/grid turns, rounded once
    return (math.cos(theta), math.sin(theta))


def _fmt(x: float) -> str:
    s = f"{x:.6f}"
    return "0.000000" if s == "-0.000000" else s


def _text(x: int, grid: int) -> tuple[str, str, str]:
    """The coordinates of x/grid as text, and its label line."""
    cx, cy = _point(x, grid)
    return (
        _fmt(cx),
        _fmt(cy),
        f'  <text x="{_fmt(1.10 * cx)}" y="{_fmt(1.10 * cy)}" font-size="0.07" text-anchor="middle" '
        f'dominant-baseline="middle" fill="#222222">{frac(x, grid)}</text>',
    )


def render_svg(scene: SvgScene) -> bytes:
    """Serialize the scene; output bytes are stable across runs."""
    text = scene.text
    for x in scene.labels:
        if x not in text:
            text[x] = _text(x, scene.grid)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.25 -1.25 2.5 2.5">',
        '  <circle cx="0" cy="0" r="1" fill="none" stroke="#999999" stroke-width="0.006"/>',
    ]
    for a, b, side in scene.chords:
        x1, y1, _ = text[a]
        x2, y2, _ = text[b]
        style = _STYLES.get(side, _STYLES["join"])
        lines.append(f'  <line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {style}/>')
    lines.extend(text[t][2] for t in scene.labels)
    lines.append("</svg>\n")
    return "\n".join(lines).encode("utf-8")


def write_svg(scene: SvgScene, path) -> int:
    data = render_svg(scene)
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)
