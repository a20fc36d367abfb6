"""The two degree-2 base mapfiles the benchmark runs on, built in code.

``meyer()`` is the non-Jordan worked example (four postcritical points, six
edges); ``jordan()`` is the symmetric Jordan pseudo-equator (three
postcritical points, one free critical point ``o``).  ``load_checked()``
runs the program once on each and asserts the facts every reader of the
paper can check by hand: the Meyer transition matrix and Perron eigenvector
and both fixtures' critical portraits.  It runs outside any timed region.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

MEYER_MATRIX = [
    [0, 1, 0, 0, 0, 0],
    [0, 0, 1, 1, 0, 0],
    [0, 0, 0, 0, 1, 0],
    [1, 1, 0, 0, 0, 1],
    [0, 0, 1, 1, 0, 0],
    [1, 0, 0, 0, 1, 1],
]
MEYER_EIGENVECTOR = ["1/1", "2/1", "1/1", "3/1", "2/1", "3/1"]

# white and black critical portraits, as the CLI prints them
PORTRAITS = {
    "meyer": ([["5/24", "17/24"]], [["1/24", "13/24"]]),
    "jordan": ([["1/4", "3/4"]], [["1/8", "5/8"]]),
}

# cross-side crossings the Moore check reports at depth 9
MOORE_CROSSINGS_DEPTH9 = {"meyer": 5455, "jordan": 15468}


def meyer() -> dict:
    word0_to = ["p3", "p0", "p1", "p0", "p3", "p2"]
    word1_to = ["p2", "p3", "c1", "p0", "p1", "c2", "p1", "p0", "c1", "p3", "p2", "c2"]
    return {
        "degree": 2,
        "post": ["p1", "p2", "p3", "p0"],
        "edges0": [f"E{i}" for i in range(1, 7)],
        "word0": [{"edge": f"E{i + 1}", "to": t} for i, t in enumerate(word0_to)],
        "vertices1": [
            {"id": v, "image": img}
            for v, img in [("p1", "p3"), ("p2", "p3"), ("p3", "p0"),
                           ("p0", "p0"), ("c1", "p1"), ("c2", "p2")]
        ],
        "word1": [{"image_edge": f"E{j % 6 + 1}", "to": t} for j, t in enumerate(word1_to)],
        "rotation0": {
            "p1": [[2, "in"], [3, "out"]],
            "p2": [[0, "out"], [5, "in"]],
            "p3": [[0, "in"], [1, "out"], [4, "in"], [5, "out"]],
            "p0": [[1, "in"], [2, "out"], [3, "in"], [4, "out"]],
        },
        "rotation1": {
            "p3": [[1, "in"], [2, "out"], [9, "in"], [10, "out"]],
            "p0": [[3, "in"], [4, "out"], [7, "in"], [8, "out"]],
            "c1": [[2, "in"], [3, "out"], [8, "in"], [9, "out"]],
            "c2": [[0, "out"], [11, "in"], [6, "out"], [5, "in"]],
            "p2": [[0, "in"], [1, "out"], [10, "in"], [11, "out"]],
            "p1": [[4, "in"], [5, "out"], [6, "in"], [7, "out"]],
        },
        "markers": [1, 2, 4, 5, 8, 10],
        "white_anchor": [0, "left"],
    }


def jordan() -> dict:
    word0_to = ["b", "c", "a"]
    word1_to = ["o", "b", "c", "o", "b", "a"]
    return {
        "degree": 2,
        "post": ["a", "b", "c"],
        "edges0": ["E1", "E2", "E3"],
        "word0": [{"edge": f"E{i + 1}", "to": t} for i, t in enumerate(word0_to)],
        "vertices1": [
            {"id": v, "image": img}
            for v, img in [("a", "a"), ("b", "c"), ("c", "a"), ("o", "b")]
        ],
        "word1": [{"image_edge": f"E{j % 3 + 1}", "to": t} for j, t in enumerate(word1_to)],
        "rotation0": {
            "a": [[2, "in"], [0, "out"]],
            "b": [[0, "in"], [1, "out"]],
            "c": [[1, "in"], [2, "out"]],
        },
        "rotation1": {
            "o": [[0, "in"], [4, "out"], [3, "in"], [1, "out"]],
            "b": [[1, "in"], [2, "out"], [4, "in"], [5, "out"]],
            "c": [[2, "in"], [3, "out"]],
            "a": [[5, "in"], [0, "out"]],
        },
        "markers": [0, 2, 3],
        "white_anchor": [0, "left"],
    }


BASES = {"meyer": meyer, "jordan": jordan}


def _cli_json(cli, argv) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise AssertionError(f"fixture check: {argv[0]} exited {code}")
    return json.loads(out.getvalue())


def load_checked(cli, workdir: Path) -> dict:
    """Write both base fixtures under ``workdir``, assert the pinned facts
    through the program's CLI, and return the raw dicts by name."""
    bases = {name: build() for name, build in BASES.items()}
    for name, raw in bases.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(raw))
        data = _cli_json(cli, ["unmate", str(path), "--depth", "1"])
        white, black = PORTRAITS[name]
        if (data["white"]["sets"], data["black"]["sets"]) != (white, black):
            raise AssertionError(
                f"{name} fixture portraits {data['white']['sets']} / "
                f"{data['black']['sets']}, expected {white} / {black}"
            )
        if name == "meyer":
            m = data["matrix"]
            if m["matrix"] != MEYER_MATRIX or m["eigenvector"] != MEYER_EIGENVECTOR:
                raise AssertionError(
                    f"meyer fixture matrix {m['matrix']} eigenvector {m['eigenvector']}"
                )
    return bases
