"""The package's records: slotted classes keep the value semantics,
immutability and defaults the pipeline relies on."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import unmating
from unmating import laminations
from unmating.laminations import AngleClasses, pullback_to_depth
from unmating.mapspec import Finding, Record, ValidationReport
from unmating.portraits import PreargumentSet, sectors

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
    "Sectors": lambda r: sectors(r.white),
}
# the records without a hash, and why
UNHASHABLE = {
    "MapSpec": "vertices1 and the rotations are dicts",
    "Crossings": "it equals the list of its entries, which has no hash",
}


def records() -> set[str]:
    """The name of every subclass of `Record` that a module of the package defines."""
    names = set()
    for info in pkgutil.iter_modules(unmating.__path__):
        module = importlib.import_module(f"unmating.{info.name}")
        for value in vars(module).values():
            if (
                isinstance(value, type) and issubclass(value, Record) and value is not Record
                and value.__module__ == module.__name__
            ):
                names.add(value.__name__)
    return names


def fields(record) -> dict:
    """The record's fields by name, in slot order."""
    return {name: getattr(record, name) for name in type(record).__slots__}


def test_read_only_names_every_record():
    """A new record cannot skip the checks below."""
    assert records() == READ_ONLY.keys()


@pytest.mark.parametrize("name", READ_ONLY)
def test_read_only_records_refuse_assignment(name, meyer_result):
    record = READ_ONLY[name](meyer_result)
    assert type(record).__name__ == name
    field = type(record).__slots__[0]
    value = getattr(record, field)
    for attr in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is value


@pytest.mark.parametrize("name", READ_ONLY)
def test_keyword_and_positional_construction_agree(name, meyer_result):
    record = READ_ONLY[name](meyer_result)
    values = fields(record)
    by_keyword, by_position = type(record)(**values), type(record)(*values.values())
    for built in (by_keyword, by_position):
        assert all(getattr(built, field) is value for field, value in values.items())
        assert built == record


@pytest.mark.parametrize("name", READ_ONLY)
def test_equality_and_hash_are_by_value(name, meyer_result):
    record = READ_ONLY[name](meyer_result)
    values = fields(record)
    copy = type(record)(**values)
    assert copy is not record and copy == record and not copy != record
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(copy) == hash(record)
    assert record != tuple(values.values())  # records are not tuples
    if name != "Crossings":  # which compares its entries
        for field in values:
            other = type(record)(**{**values, field: object()})
            assert other != record and not other == record, field


def test_repr_names_each_field():
    assert repr(Finding("check", "detail")) == "Finding(check='check', detail='detail')"
    assert repr(PreargumentSet.of([3, 1])) == "PreargumentSet(angles=(1, 3), preferred=None)"


class TestAngleClasses:
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
        assert calls == [(meyer_result.white,)]


def test_defaults_are_fresh_per_instance():
    first, second = ValidationReport(), ValidationReport()
    first.add("check", "detail")
    assert second.findings == [] and second.passed
    assert first.levels is not second.levels
