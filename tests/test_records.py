"""The package's records: named tuples and slotted classes keep the value
semantics, immutability and defaults the pipeline relies on."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import unmating
from unmating import laminations
from unmating.laminations import AngleClasses, pullback_to_depth
from unmating.mapspec import Finding, ValidationReport
from unmating.portraits import Sectors, sectors
from unmating.svg import SvgScene

# one instance of each read-only record, from the Meyer pipeline at depth 3
READ_ONLY = {
    "Word0Entry": lambda r: r.spec.word0[0],
    "Word1Entry": lambda r: r.spec.word1[0],
    "MapSpec": lambda r: r.spec,
    "Finding": lambda r: Finding("check", "detail"),
    "MarkerParameters": lambda r: r.params,
    "PullbackParameters": lambda r: r.pullback,
    "PreargumentSet": lambda r: r.white.sets[0],
    "TransitionMatrix": lambda r: r.matrix,
    "LengthVector": lambda r: r.lengths,
    "AngleClasses": lambda r: r.lamination_white,
    "Crossings": lambda r: r.moore["informational"],
}


def named_tuples() -> set[str]:
    """The name of every NamedTuple class that a module of the package defines."""
    names = set()
    for info in pkgutil.iter_modules(unmating.__path__):
        module = importlib.import_module(f"unmating.{info.name}")
        for value in vars(module).values():
            if (
                isinstance(value, type) and issubclass(value, tuple) and hasattr(value, "_fields")
                and value.__module__ == module.__name__
            ):
                names.add(value.__name__)
    return names


def test_read_only_names_every_named_tuple():
    """A new record cannot skip the read-only check below."""
    found = named_tuples()
    assert {"MapSpec", "PreargumentSet", "TransitionMatrix"} <= found
    assert found <= READ_ONLY.keys(), found - READ_ONLY.keys()


@pytest.mark.parametrize("name", READ_ONLY)
def test_read_only_records_refuse_assignment(name, meyer_result):
    record = READ_ONLY[name](meyer_result)
    assert type(record).__name__ == name
    field = next(iter(getattr(record, "_fields", None) or type(record).__slots__))
    value = getattr(record, field)
    for attr in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is value


class TestAngleClasses:
    def test_every_slot_is_compared(self):
        values = [object() for _ in AngleClasses.__slots__]
        key = AngleClasses(*values)._key()
        assert len(key) == len(values)
        assert all(any(v is k for k in key) for v in values)

    def test_other_fields_compare(self, meyer_result):
        lam = meyer_result.lamination_white
        same = AngleClasses(lam.depth, lam.color, lam.grid, lam.classes)
        for other in (
            AngleClasses(lam.depth + 1, lam.color, lam.grid, lam.classes),
            AngleClasses(lam.depth, "black", lam.grid, lam.classes),
            AngleClasses(lam.depth, lam.color, 2 * lam.grid, lam.classes),
            AngleClasses(lam.depth, lam.color, lam.grid, lam.classes[1:]),
            AngleClasses(lam.depth, lam.color, lam.grid, lam.classes, ()),
        ):
            assert other != lam and not other == lam
        assert same == lam and hash(same) == hash(lam)
        assert lam != tuple(lam.classes)

    def test_chain_cuts_the_circle_once(self, meyer_result, monkeypatch):
        calls = []
        cut = laminations.sectors

        def counting(*args):
            calls.append(args)
            return cut(*args)

        monkeypatch.setattr(laminations, "sectors", counting)
        lam = pullback_to_depth(meyer_result.depth1_white, meyer_result.white, 2, 6)
        assert lam.depth == 6
        assert calls == [(meyer_result.white, 2)]


def test_sectors_compare_by_value(meyer_result):
    sec = sectors(meyer_result.white, 2)
    assert sec == Sectors(sec.boundary, sec.sector_of_arc)
    assert sec != Sectors(sec.boundary[::-1], sec.sector_of_arc)
    assert sec != Sectors(sec.boundary, sec.sector_of_arc[::-1])


def test_defaults_are_fresh_per_instance():
    first, second = ValidationReport(), ValidationReport()
    first.add("check", "detail")
    assert second.findings == [] and second.passed
    assert first.levels is not second.levels
    a, b = SvgScene(grid=4), SvgScene(grid=4)
    assert (a.chords, a.labels, a.text) == ([], [], {})
    assert a.chords is not b.chords and a.labels is not b.labels and a.text is not b.text
