"""Static SVG rendering of lamination classes on the unit disk.

Chords are straight segments between circle points (cos 2*pi*t, sin 2*pi*t);
coordinates are the only place floating point appears, fixed to six decimals
so identical scenes render byte-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .circle import frac
from .laminations import BLACK, WHITE, AngleClasses

_STYLES = {
    WHITE: 'stroke="#b03030" stroke-width="0.010"',
    BLACK: 'stroke="#3050b0" stroke-width="0.010" stroke-dasharray="0.04,0.02"',
    "join": 'stroke="#444444" stroke-width="0.010"',
}


@dataclass
class SvgScene:
    """Chords and labelled endpoints, the angles given as integers x meaning x/grid."""

    grid: int
    chords: list[tuple[int, int, str]] = field(default_factory=list)  # (a, b, side), a < b
    labels: list[int] = field(default_factory=list)

    @classmethod
    def from_classes(cls, class_sets: list[AngleClasses]) -> "SvgScene":
        """The chords of each class: consecutive angles, and the closing chord
        of a polygon."""
        grid = math.lcm(*(classes.grid for classes in class_sets))
        chords = set()
        for classes in class_sets:
            side, k = classes.color, grid // classes.grid
            for c in classes.classes:
                xs = [x * k for x in c]
                chords.update((a, b, side) for a, b in zip(xs, xs[1:]))
                if len(xs) >= 3:
                    chords.add((xs[0], xs[-1], side))
        chords = sorted(chords)
        labels = sorted({x for a, b, _ in chords for x in (a, b)})
        return cls(grid=grid, chords=chords, labels=labels)


def _point(x: int, grid: int) -> tuple[float, float]:
    theta = 2 * math.pi * (x / grid)  # x / grid rounds once, as float(Fraction(x, grid)) does
    return (math.cos(theta), math.sin(theta))


def _fmt(x: float) -> str:
    s = f"{x:.6f}"
    return "0.000000" if s == "-0.000000" else s


def render_svg(scene: SvgScene) -> bytes:
    """Serialize the scene; output bytes are stable across runs."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.25 -1.25 2.5 2.5">',
        '  <circle cx="0" cy="0" r="1" fill="none" stroke="#999999" stroke-width="0.006"/>',
    ]
    for a, b, side in scene.chords:
        (x1, y1), (x2, y2) = _point(a, scene.grid), _point(b, scene.grid)
        style = _STYLES.get(side, _STYLES["join"])
        lines.append(
            f'  <line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" {style}/>'
        )
    for t in scene.labels:
        x, y = _point(t, scene.grid)
        lx, ly = 1.10 * x, 1.10 * y
        lines.append(
            f'  <text x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="0.07" text-anchor="middle" '
            f'dominant-baseline="middle" fill="#222222">{frac(t, scene.grid)}</text>'
        )
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_svg(scene: SvgScene, path) -> int:
    data = render_svg(scene)
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)
