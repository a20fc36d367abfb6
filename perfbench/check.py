"""Output checker, run outside the timed region.

It checks each operation's exit code and stdout against the answer the input
generator derived (``mix.Expected``) and against properties every correct
depth-n result has; it never compares with bytes the program printed before.
A successful ``unmate`` at depth n must show

* the expected white and black portraits;
* 2**n - 1 classes on each side;
* for each class, an image under q_d that is one angle or lies in one class
  of the same side;
* no two classes of one side sharing an angle or crossing;
* an empty list of Moore violations and, at depth 9, the pinned number of
  cross-side crossings.

A rejected input must exit 3 and name the expected finding.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from fixtures import MOORE_CROSSINGS_DEPTH9
from mix import Expected


def angle(text: str) -> Fraction:
    p, q = text.split("/")
    return Fraction(int(p), int(q))


def crossing_pair(classes: list[list[Fraction]]) -> Optional[tuple[int, int]]:
    """Indices of two classes that share an angle or cross, or None.

    One sweep around the circle: a family of disjoint sets is non-crossing
    exactly when, reading the angles in order, every class is closed before
    any class opened inside it is revisited.
    """
    owner: dict[Fraction, int] = {}
    for i, c in enumerate(classes):
        for a in c:
            if a in owner:
                return owner[a], i
            owner[a] = i
    remaining = [len(c) for c in classes]
    stack: list[int] = []
    for a in sorted(owner):
        i = owner[a]
        if remaining[i] == len(classes[i]):
            stack.append(i)
        elif stack[-1] != i:
            return stack[-1], i
        remaining[i] -= 1
        if remaining[i] == 0:
            stack.pop()
    return None


def check_side(classes: list[list[Fraction]], depth: int, degree: int, side: str) -> list[str]:
    problems = []
    if len(classes) != 2**depth - 1:
        problems.append(f"{side}: {len(classes)} classes at depth {depth}, expected {2**depth - 1}")
    owner = {a: i for i, c in enumerate(classes) for a in c}
    for c in classes:
        images = {degree * a % 1 for a in c}
        if len(images) == 1:
            continue
        homes = {owner.get(x) for x in images}
        if len(homes) != 1 or None in homes:
            problems.append(f"{side}: image of class {[str(a) for a in c]} is not one angle or inside one class")
            break
    pair = crossing_pair(classes)
    if pair is not None:
        i, j = pair
        problems.append(
            f"{side}: classes {[str(a) for a in classes[i]]} and {[str(a) for a in classes[j]]} "
            "share an angle or cross"
        )
    return problems


def check_unmate(code: int, stdout: str, depth: int, degree: int, expected: Expected) -> list[str]:
    """Every way the output departs from the expected answer; empty when correct."""
    if code != expected.exit_code:
        return [f"exit code {code}, expected {expected.exit_code}"]
    try:
        data = json.loads(stdout)
    except json.JSONDecodeError as e:
        return [f"stdout is not JSON: {e}"]
    if expected.finding is not None:
        checks = [f["check"] for f in data.get("findings", [])]
        if expected.finding not in checks:
            return [f"findings {checks} do not name {expected.finding!r}"]
        return []

    problems = []
    if data["white"]["sets"] != expected.white or data["black"]["sets"] != expected.black:
        problems.append(
            f"portraits {data['white']['sets']} / {data['black']['sets']}, "
            f"expected {expected.white} / {expected.black}"
        )
    lam = data["laminations"]
    for side in ("white", "black"):
        classes = [[angle(a) for a in c] for c in lam[side]["classes"]]
        problems += check_side(classes, depth, degree, side)
    moore = lam["moore"]
    if moore["violations"]:
        problems.append(f"{len(moore['violations'])} Moore violations")
    if depth == 9:
        want = MOORE_CROSSINGS_DEPTH9[expected.base]
        if len(moore["informational"]) != want:
            problems.append(f"{len(moore['informational'])} cross-side crossings, expected {want}")
    return problems
