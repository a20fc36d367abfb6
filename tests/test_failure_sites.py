"""Every failure site of the pipeline, each with an input that reaches it.

A site is a ``raise`` of an `UnmatingError` subclass, or a ``report.add(``
finding, in ``src/unmating``.  `find_sites` lists them from the source with
`ast` and keys each by module, enclosing function and message head: the
message's literal text with every interpolated field written ``…``; a
finding's head is its check name, `` / `` and the head of its detail.
``ROWS`` gives each site one trigger and the outcome it must end in.  The
tests fail when a site has no row, and when a row's trigger ends at another
site: for a raise, the innermost ``src`` frame of the traceback; for a
finding, the site whose check name and detail head match.  A new check
comes with its row.  Each row names its place, the first offending item as
the message must contain it (for a finding, its detail), or says in
``exempt`` why the message names no item.  Every error class is raised by
a site with a row, so none is left that no input reaches.

Triggers, in order of preference:

* a mapfile (most often the Meyer fixture after one edit) run through
  ``unmate``, both in ``cli.main`` for the exit code and its one stderr
  line, and in the subcommand's function for the traceback;
* a hand-built call of the narrowest public function, where no mapfile is
  known to reach the site;
* a run with one upstream stage monkeypatched, where only a broken stage or
  broken arithmetic can reach the site.
"""

from __future__ import annotations

import ast
import json
import re
import traceback
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Union

import pytest

import unmating
from unmating import cli, errors, laminations, parse_file, spectral
from unmating.errors import (
    LaminationError,
    PortraitError,
    SpectralError,
    UnmatingError,
    ValidationFailure,
)
from unmating.laminations import AngleClasses, pullback_to_depth
from unmating.mapspec import CriticalVertex
from unmating.parameterize import PullbackParameters
from unmating.portraits import CriticalPortrait, PreargumentSet, extract_portraits, sectors
from unmating.spectral import TransitionMatrix, certify_perron

from .conftest import MEYER, REVERSED, failing_certificate, meyer_raw, toy_raw
from .oracles import WorkLimit

SRC = Path(unmating.__file__).resolve().parent
ERRORS = {
    name for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, UnmatingError)
}
FIELD = "…"


class Site(NamedTuple):
    module: str
    lines: range  # the lines of the statement
    finding: bool
    pattern: re.Pattern  # matches its messages; a finding's is "check / detail"
    error: Optional[str]  # the error class a raise names; None for a finding


def _parts(node: ast.expr) -> list[Optional[str]]:
    """The literal text of a message expression, None for each interpolated field."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):
        return [v.value if isinstance(v, ast.Constant) else None for v in node.values]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _parts(node.left) + _parts(node.right)
    return [None]


def _message(node: ast.AST) -> Optional[list[Optional[str]]]:
    """The message parts of a failure site, or None if ``node`` is not one."""
    if isinstance(node, ast.Raise) and node.exc is not None:
        call = node.exc
        cls = call.func if isinstance(call, ast.Call) else call
        if isinstance(cls, ast.Name) and cls.id in ERRORS:
            return _parts(call.args[0]) if isinstance(call, ast.Call) and call.args else []
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "report"
    ):
        check, detail = node.args
        return _parts(check) + [" / "] + _parts(detail)
    return None


def find_sites() -> dict[str, Site]:
    """Every failure site in the package, by "module.function: head"."""
    sites: dict[str, Site] = {}

    def visit(node: ast.AST, module: str, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            parts = _message(child)
            if parts is not None:
                head = "".join(FIELD if p is None else p for p in parts)
                key = f"{module}.{function}: {head}"
                assert key not in sites, f"two failure sites share the key {key!r}"
                pattern = re.compile("".join(".*" if p is None else re.escape(p) for p in parts), re.S)
                error = None
                if isinstance(child, ast.Raise):
                    error = (child.exc.func if isinstance(child.exc, ast.Call) else child.exc).id
                sites[key] = Site(
                    module, range(child.lineno, child.end_lineno + 1), isinstance(child, ast.Call), pattern, error
                )
            visit(child, module, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "<module>")
    return sites


SITES = find_sites()


# ---------------------------------------------------------------------------
# triggers

def write(tmp: Path, text: str) -> str:
    path = tmp / "map.json"
    path.write_text(text)
    return str(path)


def unmate(edit: Optional[Callable[[dict], object]] = None, *options: str,
           raw: Callable[[], dict] = meyer_raw) -> Callable[[Path], list[str]]:
    """A mapfile trigger: ``unmate`` with ``options`` on ``raw()`` (the Meyer
    fixture) after ``edit``."""
    def argv(tmp: Path) -> list[str]:
        data = raw()
        if edit is not None:
            edit(data)
        return ["unmate", write(tmp, json.dumps(data)), *options]
    return argv


def setting(*path_and_value):
    """An edit that sets raw[path...] = value."""
    *path, key, value = path_and_value

    def edit(raw: dict) -> None:
        for step in path:
            raw = raw[step]
        raw[key] = value
    return edit


def rename_vertex(old: str, new: str):
    """An edit that renames a 1-vertex in vertices1 and word1."""
    def edit(raw: dict) -> None:
        for entry in raw["vertices1"] + raw["word1"]:
            for field in ("id", "to"):
                if entry.get(field) == old:
                    entry[field] = new
    return edit


def swap_image_edges(i: int, j: int):
    """An edit that swaps the image labels of word1 positions i and j."""
    def edit(raw: dict) -> None:
        w = raw["word1"]
        w[i]["image_edge"], w[j]["image_edge"] = w[j]["image_edge"], w[i]["image_edge"]
    return edit


def rename_image(vertex: str, image: str):
    """An edit that sends a 1-vertex to another post point."""
    def edit(raw: dict) -> None:
        for entry in raw["vertices1"]:
            if entry["id"] == vertex:
                entry["image"] = image
    return edit


def tm(rows) -> TransitionMatrix:
    return TransitionMatrix(tuple(map(tuple, rows)))


def lifting_into_a_crossing():
    # the diameter {1/4, 3/4} lifts into {1/8, 3/8}, which crosses it
    start = AngleClasses(1, "white", 4, ((1, 3),))
    pullback_to_depth(start, CriticalPortrait("white", 4, [PreargumentSet.of([0, 2])]), 2, 2)


def marking_two_criticals_on_one_cycle():
    # 1/3 and 2/3 reach each other, so neither vertex can start the marking
    criticals = [CriticalVertex(v, 2, (j,), ("white",)) for j, v in enumerate(("v1", "v2"))]
    extract_portraits(parse_file(MEYER), PullbackParameters(3, (1, 2)), criticals)


def patch_swapped_depth1(monkeypatch):
    """depth1 hands the black classes to the white side and back."""
    depth1 = laminations.depth1
    monkeypatch.setattr(laminations, "depth1", lambda *args: depth1(*args)[::-1])


# the tightest work limit that admits the deepest depth the rule admits on
# the Meyer fixture: the last step it admits runs at exactly the limit
TIGHTEST = WorkLimit(parse_file(MEYER), WorkLimit(parse_file(MEYER), laminations.MAX_PREIMAGES).tightest)


def patch_tightest_limit(monkeypatch):
    monkeypatch.setattr(laminations, "MAX_PREIMAGES", TIGHTEST.bound)


def patch_wrong_nullspace(monkeypatch):
    """The nullspace routine returns (1, 2) whatever the matrix."""
    monkeypatch.setattr(spectral, "_rational_nullspace", lambda m: [[1, 2]])


# ---------------------------------------------------------------------------
# one row per site

class Row(NamedTuple):
    trigger: Callable  # a mapfile trigger, given a directory, or a call
    outcome: Union[int, type]  # the exit code of a mapfile trigger, or a call's exception type
    message: Union[str, list[tuple[str, str]]]  # "{tmp}" is the directory; findings as (check, detail)
    patch: Optional[Callable] = None  # given monkeypatch, before the trigger runs
    place: Optional[str] = None  # the first offending item, as the message (a finding's detail) must name it
    exempt: Optional[str] = None  # why the message names no item, for a row with no place


ROWS: dict[str, Row] = {
    # the command line
    "cli._load: cannot read …: …": Row(
        lambda tmp: ["unmate", str(tmp / "missing.json")], 2,
        "cannot read {tmp}/missing.json: [Errno 2] No such file or directory: '{tmp}/missing.json'",
        place="missing.json"),
    "cli._write_svg: cannot write …: …": Row(
        lambda tmp: ["unmate", str(MEYER), "--svg", str(tmp / "missing" / "out.svg")], 2,
        "cannot write {tmp}/missing/out.svg: [Errno 2] No such file or directory: '{tmp}/missing/out.svg'",
        place="missing/out.svg"),
    "cli._check_branch: --branch … out of range for degree … (need 0 <= branch < …)": Row(
        unmate(None, "--branch", "1"), 2,
        "--branch 1 out of range for degree 2 (need 0 <= branch < 1)", place="--branch 1"),

    # parse
    "mapspec._typed: malformed mapfile: … … is not …": Row(
        unmate(setting("degree", 2.7)), 2, "malformed mapfile: degree 2.7 is not an integer", place="degree 2.7"),
    "mapspec._pairs: malformed mapfile: … … is not an [integer, string] pair": Row(
        unmate(setting("white_anchor", [0.5, "left"])), 2,
        "malformed mapfile: white_anchor [0.5, 'left'] is not an [integer, string] pair",
        place="white_anchor [0.5, 'left']"),
    "mapspec.parse: malformed JSON: …": Row(
        lambda tmp: ["unmate", write(tmp, "")], 2, "malformed JSON: Expecting value: line 1 column 1 (char 0)",
        place="line 1 column 1"),
    "mapspec.parse: malformed mapfile: missing key …": Row(
        unmate(lambda raw: raw.pop("markers")), 2, "malformed mapfile: missing key 'markers'", place="'markers'"),
    "mapspec.parse: degree must be >= 2, got …": Row(
        unmate(setting("degree", 1)), 2, "degree must be >= 2, got 1", place="got 1"),
    "mapspec.parse: duplicate ids in …: …": Row(
        unmate(lambda raw: raw["post"].append("p1")), 2, "duplicate ids in post: 'p1'", place="'p1'"),
    "mapspec.parse: duplicate ids in vertices1: …": Row(
        unmate(lambda raw: raw["vertices1"].append({"id": "c1", "image": "p1"})), 2,
        "duplicate ids in vertices1: 'c1'", place="'c1'"),
    "mapspec.parse: word0 is empty": Row(
        unmate(setting("word0", [])), 2, "word0 is empty", exempt="an empty word0 has no item to name"),
    "mapspec.parse: word length mismatch: |word1| = …, expected degree*k = …": Row(
        unmate(lambda raw: raw["word1"].pop()), 2, "word length mismatch: |word1| = 11, expected degree*k = 12",
        place="|word1| = 11"),
    "mapspec.parse: word0 must traverse each 0-edge exactly once: …": Row(
        unmate(setting("word0", 0, "edge", "E2")), 2,
        "word0 must traverse each 0-edge exactly once: 'E1' is not traversed", place="'E1'"),
    "mapspec.parse: word0 must visit every postcritical point: …": Row(
        unmate(setting("word0", 2, "to", "zz")), 2, "word0 must visit every postcritical point: 'p1' is not visited",
        place="'p1'"),
    "mapspec.parse: word1 references unknown 0-edge …": Row(
        unmate(setting("word1", 0, "image_edge", "E9")), 2, "word1 references unknown 0-edge 'E9'", place="'E9'"),
    "mapspec.parse: word1 references unknown 1-vertex …": Row(
        unmate(setting("word1", 0, "to", "zz")), 2, "word1 references unknown 1-vertex 'zz'", place="'zz'"),
    "mapspec.parse: 1-vertex … has unknown image …": Row(
        unmate(setting("vertices1", 4, "image", "zz")), 2, "1-vertex 'c1' has unknown image 'zz'", place="'c1'"),
    "mapspec.parse: post point … missing from vertices1 (post is forward-invariant)": Row(
        unmate(rename_vertex("p1", "q1")), 2,
        "post point 'p1' missing from vertices1 (post is forward-invariant)", place="'p1'"),
    "mapspec.parse: expected … markers, got …": Row(
        unmate(setting("markers", [1, 2, 4, 5, 8])), 2, "expected 6 markers, got 5",
        exempt="a list of the wrong length has no marker at fault; the message gives both lengths"),
    "mapspec.parse: marker … out of range": Row(
        unmate(setting("markers", [1, 2, 4, 5, 8, 12])), 2, "marker 12 out of range", place="marker 12"),
    "mapspec.parse: markers must be strictly increasing, but markers[…] = … follows …": Row(
        unmate(setting("markers", [2, 1, 4, 5, 8, 10])), 2,
        "markers must be strictly increasing, but markers[1] = 1 follows 2", place="markers[1] = 1"),
    "mapspec.parse: bad white_anchor …": Row(
        unmate(setting("white_anchor", [6, "left"])), 2, "bad white_anchor (6, 'left')", place="(6, 'left')"),
    "mapspec.parse: marker … points at 1-vertex … but gamma0 marks post point …": Row(
        unmate(setting("markers", [1, 2, 4, 5, 8, 11])), 2,
        "marker 5 points at 1-vertex 'p2' but gamma0 marks post point 'p3'", place="marker 5"),

    # validation: a finding's place is in its detail
    "mapspec.validate_or_raise: …": Row(
        lambda tmp: ["unmate", str(REVERSED)], 3, "fully invariant condition violated",
        exempt="the message lists the findings' check names; each finding's detail, in the report on stdout, "
        "names its place"),
    "mapspec.validate: fully invariant condition violated / word1 image labels disagree with word0 at positions ……":
        Row(unmate(swap_image_edges(0, 1)), 3, [
            ("fully invariant condition violated", "word1 image labels disagree with word0 at positions [0, 1]"),
        ], place="positions [0, 1]"),
    "mapspec.validate: vertex image inconsistency / 1-vertex … at word1 position … has image …, expected …": Row(
        unmate(rename_image("p3", "p1")), 3, [
            ("vertex image inconsistency", "1-vertex 'p3' at word1 position 1 has image 'p1', expected 'p0'"),
            ("Riemann-Hurwitz violated", "sum of (local degree - 1) = 3, expected 2"),
        ], place="'p3' at word1 position 1"),
    "mapspec.validate: Riemann-Hurwitz violated / sum of (local degree - 1) = …, expected …": Row(
        unmate(raw=toy_raw), 3, [("Riemann-Hurwitz violated", "sum of (local degree - 1) = 1, expected 2")],
        exempt="the sum runs over every 1-vertex, and no one vertex is at fault"),
    "mapspec.validate: local degree not integral / …": Row(
        unmate(setting("word1", 10, "to", "p3")), 3, [
            ("vertex image inconsistency", "1-vertex 'p3' at word1 position 10 has image 'p0', expected 'p3'"),
            ("local degree not integral", "local degree not integral at 'p2': 1 visits over 2"),
            ("rotation system incomplete", "level 1: rotation at 'p2' does not list its edge-ends exactly once"),
            ("rotation system incomplete", "level 1: rotation at 'p3' does not list its edge-ends exactly once"),
        ], place="at 'p2'"),
    "mapspec._check_rotations: rotation system incomplete / level …: no rotation for vertex …": Row(
        unmate(lambda raw: raw["rotation1"].pop("c2")), 3, [
            ("rotation system incomplete", "level 1: no rotation for vertex 'c2'"),
        ], place="'c2'"),
    "mapspec._check_rotations: rotation system incomplete / level …: rotation at … does not list its edge-ends exactly once":
        Row(unmate(lambda raw: raw["rotation1"]["p1"].append([4, "in"])), 3, [
            ("rotation system incomplete", "level 1: rotation at 'p1' does not list its edge-ends exactly once"),
        ], place="'p1'"),
    "mapspec._check_rotations: rotation system incomplete / level …: rotation for unused vertex …": Row(
        unmate(setting("rotation1", "zz", [])), 3, [
            ("rotation system incomplete", "level 1: rotation for unused vertex 'zz'"),
        ], place="'zz'"),
    "mapspec.validate: Euler formula violated / level …: V-E+F = …-…+…": Row(
        unmate(setting("rotation1", "p3", [[1, "in"], [2, "out"], [10, "out"], [9, "in"]])), 3, [
            ("Euler formula violated", "level 1: V-E+F = 6-12+6"),
            ("not checkerboard-colorable", "level 1 tiles admit no 2-coloring"),
        ], exempt="the counts are of the whole level, which the detail names; no one vertex, edge or face "
        "is at fault"),
    "mapspec.validate: curve not oriented / crossing chords at vertex … (level …)": Row(
        unmate(setting("rotation1", "p0", [[3, "in"], [7, "in"], [4, "out"], [8, "out"]])), 3, [
            ("Euler formula violated", "level 1: V-E+F = 6-12+6"),
            ("curve not oriented", "crossing chords at vertex 'p0' (level 1)"),
            ("not checkerboard-colorable", "level 1 tiles admit no 2-coloring"),
        ], place="'p0'"),
    "mapspec.validate: not checkerboard-colorable / …": Row(
        unmate(lambda raw: raw["rotation0"].pop("p1")), 3, [
            ("rotation system incomplete", "level 0: no rotation for vertex 'p1'"),
            ("not checkerboard-colorable", "level 1 is uncolored because level 0 has no coloring"),
        ], exempt="a 2-coloring is of the whole level, which the detail names; no one tile is at fault"),

    # the Perron certificate: no mapfile is known to reach these
    "spectral.certify_perron: d is not an eigenvalue: nullspace of (A - …I) is trivial": Row(
        lambda: certify_perron(tm([[1]]), 2), SpectralError,
        "d is not an eigenvalue: nullspace of (A - 2I) is trivial",
        exempt="the nullspace is of the whole matrix; no one entry is at fault"),
    "spectral.certify_perron: Perron certification failed: nullspace dimension … > 1": Row(
        lambda: certify_perron(tm([[2, 0], [0, 2]]), 2), SpectralError,
        "Perron certification failed: nullspace dimension 2 > 1",
        exempt="the nullspace is of the whole matrix; no one entry is at fault"),
    "spectral.certify_perron: Perron certification failed: no strictly positive eigenvector: "
    "v[…] = …, the entry of the 0-edge at word0 position …": Row(
        lambda: certify_perron(tm([[2, 1], [0, 1]]), 2), SpectralError,
        "Perron certification failed: no strictly positive eigenvector: v[1] = 0, "
        "the entry of the 0-edge at word0 position 1", place="word0 position 1"),
    "spectral.certify_perron: Perron certification failed: A v != d v": Row(
        lambda: certify_perron(tm([[1, 1], [1, 1]]), 2), SpectralError,
        "Perron certification failed: A v != d v", patch_wrong_nullspace,
        exempt="only a broken nullspace routine reaches it, and no input item is at fault"),

    # portraits
    "pipeline.run_pipeline: … portrait certificate failed: …": Row(
        unmate(), 6, "white portrait certificate failed: c5 (periodic participants: 1/3)", failing_certificate,
        place="c5 (periodic participants: 1/3)"),
    "portraits._mark_color: marking procedure stuck: cyclic critical orbits through …": Row(
        marking_two_criticals_on_one_cycle, PortraitError,
        "marking procedure stuck: cyclic critical orbits through v1, v2", place="v1, v2"),
    "portraits.sectors: portrait has fewer than two marked angles; no sectors": Row(
        lambda: sectors(CriticalPortrait("white", 2, [PreargumentSet.of([0])])), PortraitError,
        "portrait has fewer than two marked angles; no sectors",
        exempt="a count of the whole portrait's angles; no one angle is at fault"),
    "portraits.sectors: portrait not unlinked: … is in two sets": Row(
        lambda: sectors(CriticalPortrait("white", 8, [PreargumentSet.of([1, 3, 7]), PreargumentSet.of([1, 5])])),
        PortraitError, "portrait not unlinked: 1/8 is in two sets", place="1/8"),
    "portraits.sectors: portrait not unlinked: {…} links {…}": Row(
        lambda: sectors(CriticalPortrait("white", 4, [PreargumentSet.of([0, 2]), PreargumentSet.of([1, 3])])),
        PortraitError, "portrait not unlinked: {0/1, 1/2} links {1/4, 3/4}", place="{0/1, 1/2} links {1/4, 3/4}"),

    # laminations
    "pipeline.run_pipeline: depth-1 … classes disagree with the … portrait: {…} is only in the …": Row(
        unmate(), 7,
        "depth-1 white classes disagree with the white portrait: {1/24, 13/24} is only in the depth-1 classes",
        patch_swapped_depth1, place="{1/24, 13/24}"),
    "laminations.pullback_step: pullback produced crossing: {…} links {…}": Row(
        lifting_into_a_crossing, LaminationError, "pullback produced crossing: {1/8, 3/8} links {1/4, 3/4}",
        place="{1/8, 3/8} links {1/4, 3/4}"),
    "laminations.pullback_to_depth: depth … is beyond the work limit: lifting the … angles of depth … makes … "
    "preimages, over the limit of …": Row(
        unmate(None, "--depth", str(TIGHTEST.deepest + 1)), 7, TIGHTEST.refusal(TIGHTEST.deepest + 1),
        patch_tightest_limit, place=f"depth {TIGHTEST.deepest + 1} is beyond"),
}


# ---------------------------------------------------------------------------
# the tests

def _ends(exc: UnmatingError) -> str:
    """The key of the raise site at the innermost src frame of the traceback."""
    frame = [f for f in traceback.extract_tb(exc.__traceback__) if Path(f.filename).resolve().parent == SRC][-1]
    module = Path(frame.filename).stem
    (key,) = [
        key for key, site in SITES.items()
        if not site.finding and site.module == module and frame.lineno in site.lines
    ]
    return key


def _finding_site(check: str, detail: str) -> str:
    (key,) = [key for key, site in SITES.items() if site.finding and site.pattern.fullmatch(f"{check} / {detail}")]
    return key


def test_every_site_has_one_row():
    assert sorted(set(SITES) - set(ROWS)) == [], "failure sites without a trigger"
    assert sorted(set(ROWS) - set(SITES)) == [], "rows for no failure site"


def test_every_row_names_its_place_or_why_not():
    """A row gives the place its message names, or the reason it names none."""
    assert [key for key, row in ROWS.items() if (row.place is None) == (row.exempt is None)] == []


def test_every_error_class_is_raised_where_a_row_reaches():
    """Each `UnmatingError` subclass is raised by a site that has a row;
    the base class is raised nowhere."""
    raised = {SITES[key].error for key in ROWS} - {None}
    assert raised == ERRORS - {"UnmatingError"}


def _run_cli(argv: list[str], capsys) -> tuple[UnmatingError, int, str, str]:
    """The error that the subcommand raises, then cli.main's exit code, stdout and stderr."""
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(UnmatingError) as info:
        args.fn(args)
    capsys.readouterr()
    code = cli.main(argv)
    out = capsys.readouterr()
    return info.value, code, out.out, out.err


@pytest.mark.parametrize("key", list(ROWS), ids=[key.replace(FIELD, "_") for key in ROWS])
def test_trigger_ends_at_its_site(key, tmp_path, capsys, monkeypatch):
    row = ROWS[key]
    if row.patch is not None:
        row.patch(monkeypatch)
    if isinstance(row.outcome, int):
        exc, code, out, err = _run_cli(row.trigger(tmp_path), capsys)
        assert code == row.outcome == exc.exit_code
        if isinstance(exc, ValidationFailure):
            assert json.loads(out) == exc.report.to_json()
            detail = "validation failed"
        else:
            assert out == ""
            detail = str(exc)
        stage = f" (stage: {exc.stage})" if exc.stage else ""
        assert err == f"error: {detail}{stage}\n"
    else:
        with pytest.raises(UnmatingError) as info:
            row.trigger()
        exc = info.value
        assert type(exc) is row.outcome

    if SITES[key].finding:
        findings = [(f.check, f.detail) for f in exc.report.findings]
        assert findings == row.message
        text, *_ = [detail for check, detail in findings if _finding_site(check, detail) == key]
    else:
        text = str(exc)
        assert text == row.message.replace("{tmp}", str(tmp_path))
        assert _ends(exc) == key
    if row.place is not None:
        assert row.place in text
