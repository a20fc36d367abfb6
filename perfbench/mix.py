"""Seeded generation of the mapfiles each operation runs on.

Every generated input is a base fixture with fresh ids, so that no two
operations read the same bytes; on top of that a variant may flip the white
anchor, reverse the ``word1`` image labels, or make Meyer's ``rotation1``
cross at ``p0``.  Each input carries the answer the program must give,
derived from the base fixture and the variant, never from an earlier run.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import Iterator, Optional

from fixtures import PORTRAITS

PLAIN, FLIP, REVERSE, CROSS = "plain", "flip", "reverse", "cross"

# one block of the shallow-mix stream: 60% plain, 20% flipped anchor,
# 10% reversed image labels, 10% crossing rotation (Meyer only)
SHALLOW_BLOCK = (
    [(PLAIN, "meyer")] * 6 + [(PLAIN, "jordan")] * 6
    + [(FLIP, "meyer")] * 2 + [(FLIP, "jordan")] * 2
    + [(REVERSE, "meyer"), (REVERSE, "jordan")]
    + [(CROSS, "meyer")] * 2
)
SHALLOW_DEPTHS = (1, 2, 3)

FINDING = {REVERSE: "fully invariant condition violated", CROSS: "curve not oriented"}


@dataclass(frozen=True)
class Expected:
    exit_code: int
    base: str
    white: Optional[list] = None   # portrait sets, as printed
    black: Optional[list] = None
    finding: Optional[str] = None


@dataclass(frozen=True)
class Input:
    raw: dict
    depth: int
    expected: Expected


def rename_ids(raw: dict, rng: random.Random) -> dict:
    """Copy of ``raw`` with every vertex and edge id replaced by a fresh one."""
    vertices = [v["id"] for v in raw["vertices1"]]
    fresh = rng.sample(range(10**6), len(vertices) + len(raw["edges0"]))
    vname = {v: f"v{n}" for v, n in zip(vertices, fresh)}
    ename = {e: f"e{n}" for e, n in zip(raw["edges0"], fresh[len(vertices):])}
    return {
        "degree": raw["degree"],
        "post": [vname[p] for p in raw["post"]],
        "edges0": [ename[e] for e in raw["edges0"]],
        "word0": [{"edge": ename[w["edge"]], "to": vname[w["to"]]} for w in raw["word0"]],
        "vertices1": [{"id": vname[v["id"]], "image": vname[v["image"]]} for v in raw["vertices1"]],
        "word1": [{"image_edge": ename[w["image_edge"]], "to": vname[w["to"]]} for w in raw["word1"]],
        "rotation0": {vname[k]: copy.deepcopy(v) for k, v in raw["rotation0"].items()},
        "rotation1": {vname[k]: copy.deepcopy(v) for k, v in raw["rotation1"].items()},
        "markers": list(raw["markers"]),
        "white_anchor": list(raw["white_anchor"]),
    }


def variant(bases: dict, kind: str, base: str, rng: random.Random) -> tuple[dict, Expected]:
    raw = copy.deepcopy(bases[base])
    white, black = PORTRAITS[base]
    if kind == FLIP:
        pos, side = raw["white_anchor"]
        raw["white_anchor"] = [pos, "right" if side == "left" else "left"]
        white, black = black, white
    elif kind == REVERSE:
        labels = [w["image_edge"] for w in raw["word1"]][::-1]
        for w, label in zip(raw["word1"], labels):
            w["image_edge"] = label
    elif kind == CROSS:
        if base != "meyer":
            raise ValueError("the crossing rotation is defined on the Meyer fixture")
        raw["rotation1"]["p0"] = [[3, "in"], [7, "in"], [4, "out"], [8, "out"]]
    if kind in FINDING:
        expected = Expected(exit_code=3, base=base, finding=FINDING[kind])
    else:
        expected = Expected(exit_code=0, base=base, white=white, black=black)
    return rename_ids(raw, rng), expected


def deep_stream(bases: dict, base: str, depth: int, seed: int) -> Iterator[Input]:
    """The same base fixture over and over, with fresh ids each time."""
    rng = random.Random(f"{base}:{seed}")
    while True:
        raw, expected = variant(bases, PLAIN, base, rng)
        yield Input(raw, depth, expected)


def shallow_stream(bases: dict, seed: int) -> Iterator[Input]:
    """Blocks of 60 operations: the 20-entry mix three times over, and each
    depth 20 times, both shuffled by the seed."""
    rng = random.Random(f"shallow:{seed}")
    while True:
        kinds = list(SHALLOW_BLOCK) * 3
        depths = [d for d in SHALLOW_DEPTHS for _ in range(len(kinds) // len(SHALLOW_DEPTHS))]
        rng.shuffle(kinds)
        rng.shuffle(depths)
        for (kind, base), depth in zip(kinds, depths):
            raw, expected = variant(bases, kind, base, rng)
            yield Input(raw, depth, expected)
