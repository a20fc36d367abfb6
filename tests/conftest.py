from __future__ import annotations

import json
from pathlib import Path

import pytest

from unmating import critical_vertices, faces, parse, parse_file, portraits
from unmating.pipeline import run_pipeline

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

MEYER = EXAMPLES / "meyer_example.json"
JORDAN = EXAMPLES / "symmetric_jordan.json"
REVERSED = EXAMPLES / "reversed.json"

VALID_FIXTURES = [MEYER, JORDAN]


@pytest.fixture(scope="session")
def meyer_spec():
    return parse_file(MEYER)


@pytest.fixture(scope="session")
def jordan_spec():
    return parse_file(JORDAN)


@pytest.fixture(scope="session")
def reversed_spec():
    return parse_file(REVERSED)


@pytest.fixture(scope="session")
def meyer_result(meyer_spec):
    return run_pipeline(meyer_spec, depth=3)


@pytest.fixture(scope="session")
def jordan_result(jordan_spec):
    return run_pipeline(jordan_spec, depth=3)


def meyer_raw() -> dict:
    return json.loads(MEYER.read_text())


def spec_with(mutate) -> "unmating.MapSpec":
    """Parse a mutated copy of the meyer_example fixture."""
    raw = meyer_raw()
    mutate(raw)
    return parse(raw)


def replaced(record, **changes):
    """A record rebuilt from its slots, with the named fields changed."""
    fields = type(record).__slots__
    assert changes.keys() <= set(fields), changes.keys() - set(fields)
    return type(record)(**{name: changes.get(name, getattr(record, name)) for name in fields})


def census_spec(request, case: str):
    """A fixture's spec, or its spec with the white anchor on the other side:
    "meyer", "meyer-flipped", "jordan" or "jordan-flipped"."""
    name, _, flipped = case.partition("-")
    spec = request.getfixturevalue(f"{name}_spec")
    return replaced(spec, white_anchor=(0, "right")) if flipped else spec


def critical_connections(spec) -> list:
    """The connections of the critical vertices, read off the level-1 map:
    what the pipeline passes to `laminations.depth1`."""
    lm1 = faces(spec, 1)
    return [c for cv in critical_vertices(spec, faces(spec, 0), lm1) for c in lm1.connections[cv.vertex]]


def failing_certificate(monkeypatch) -> None:
    """Make portrait certification fail condition c5 on every portrait."""
    certify = portraits.certify

    def failing_c5(portrait, d):
        cert = certify(portrait, d)
        cert["c5"] = {"passed": False, "detail": "periodic participants: 1/3"}
        cert["valid"] = False
        return cert

    monkeypatch.setattr(portraits, "certify", failing_c5)


def toy_raw() -> dict:
    """The k=2 symmetric word of degree 2: it parses, but no degree-2 map
    realizes it (Riemann-Hurwitz), so it does not validate."""
    return {
        "degree": 2,
        "post": ["a", "b"],
        "edges0": ["E1", "E2"],
        "word0": [{"edge": "E1", "to": "b"}, {"edge": "E2", "to": "a"}],
        "vertices1": [
            {"id": "a", "image": "a"},
            {"id": "b", "image": "a"},
            {"id": "c", "image": "b"},
        ],
        "word1": [
            {"image_edge": "E1", "to": "c"},
            {"image_edge": "E2", "to": "b"},
            {"image_edge": "E1", "to": "c"},
            {"image_edge": "E2", "to": "a"},
        ],
        "rotation0": {"a": [[1, "in"], [0, "out"]], "b": [[0, "in"], [1, "out"]]},
        "rotation1": {
            "a": [[3, "in"], [0, "out"]],
            "b": [[1, "in"], [2, "out"]],
            "c": [[0, "in"], [1, "out"], [2, "in"], [3, "out"]],
        },
        "markers": [0, 2],
        "white_anchor": [0, "left"],
    }
