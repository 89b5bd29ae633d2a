"""The package's result types are `graphs.Record`s: immutable, equal by
class and fields, hashable, and still validating what they validated as
dataclasses."""

from __future__ import annotations

from fractions import Fraction

import pytest

import intervalcubes
from intervalcubes import (
    CliqueOrdering,
    ConstructionTrace,
    CubeRepresentation,
    ExactResult,
    Exceeded,
    GenConfig,
    IntervalModel,
    Labelling,
    NotInterval,
    PaddedGraph,
    ParamReport,
    StarWitness,
    VerificationReport,
)
from intervalcubes.graphs import Record


def _samples() -> list[tuple[Record, Record]]:
    """Two records of each class that differ in one field."""
    ordering = CliqueOrdering(1, (0, 0), (0, 0))
    other = CliqueOrdering(1, (0, 0), (0, 1))
    padded = PaddedGraph(ordering, 1, 0, None)
    lab = Labelling((0, 0), (0,))
    witness = StarWitness(0, (1, 2))
    trace = dict(padded=padded, labelling=lab, scale=(0,), unit=2, coords=((0,), (0,)))
    return [
        (IntervalModel(((Fraction(0), Fraction(1)),)),
         IntervalModel(((Fraction(0), Fraction(2)),))),
        (ordering, other),
        (GenConfig(3, 0), GenConfig(3, 0, "nested-heavy")),
        (lab, Labelling((0, 1), (0,))),
        (witness, StarWitness(0, (1, 3))),
        (ParamReport(2, 2, witness, 1), ParamReport(2, 2, None, 1)),
        (padded, PaddedGraph(other, 1, 0, None)),
        (CubeRepresentation(1, 2, ((0,), (1,)), 1), CubeRepresentation(1, 2, ((0,), (1,)), 2)),
        (ConstructionTrace(**trace), ConstructionTrace(**{**trace, "unit": 4})),
        (VerificationReport(True, (), (), (0,)), VerificationReport(False, ((0, 1),), (), (0,))),
        (ExactResult(1, (), 3, 4), ExactResult(1, (), 3, 5)),
        (Exceeded(2, 3, 4), Exceeded(3, 3, 4)),
        (NotInterval("not-chordal"), NotInterval("no-consecutive-ordering")),
    ]


def test_every_record_class_is_sampled():
    for name in intervalcubes._EXPORTS:
        getattr(intervalcubes, name)  # load every module
    assert {type(a) for a, _ in _samples()} == set(Record.__subclasses__())


@pytest.mark.parametrize("a, b", _samples(), ids=lambda r: type(r).__name__)
def test_equality_and_hash(a, b):
    fields = {name: getattr(a, name) for name in a.__slots__}
    copy = type(a)(**fields)
    assert copy == a and hash(copy) == hash(a) and not copy != a
    assert a != b
    assert a != tuple(fields.values())
    assert repr(a).startswith(f"{type(a).__name__}(")


@pytest.mark.parametrize("a, b", _samples(), ids=lambda r: type(r).__name__)
def test_fields_cannot_change(a, b):
    for name in a.__slots__:
        before = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is before
    with pytest.raises(AttributeError):
        a.extra = 1


@pytest.mark.parametrize("a, b", _samples(), ids=lambda r: type(r).__name__)
def test_fields_are_all_given_once(a, b):
    values = [getattr(a, name) for name in a.__slots__]
    if not isinstance(a, GenConfig):  # its last field has a default
        with pytest.raises(TypeError):
            type(a)(*values[:-1])
    with pytest.raises(TypeError):
        type(a)(*values, values[-1])
    with pytest.raises(TypeError):
        type(a)(*values, **{a.__slots__[0]: values[0]})


def test_interval_model_rejects_lo_above_hi():
    with pytest.raises(ValueError, match="lo > hi"):
        IntervalModel(((Fraction(0), Fraction(1)), (Fraction(2), Fraction(1))))
    with pytest.raises(ValueError, match="lo > hi"):
        IntervalModel(intervals=((Fraction(1), Fraction(0)),))


def test_gen_config_rejects_unknown_distribution():
    with pytest.raises(ValueError, match="unknown distribution"):
        GenConfig(3, 0, "bogus")
    with pytest.raises(ValueError, match="unknown distribution"):
        GenConfig(n=3, seed=0, dist="bogus")
    assert GenConfig(n=3, seed=0) == GenConfig(3, 0, "uniform")
