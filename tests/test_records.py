"""The package's value types are `graphs.Record`s: immutable, equal by
class and fields, hashable, and still validating what they validated as
dataclasses.  Those a command writes are `graphs.Report`s, whose JSON
object is their fields plus the derived properties they name."""

from __future__ import annotations

import json
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
    Graph,
    IntervalModel,
    Labelling,
    ParamReport,
    SearchReport,
    StarWitness,
    VerificationReport,
    tightness_search,
)
from intervalcubes.graphs import Record, Report
from intervalcubes.search import BoundViolation, Counterexample, HistogramRow


def _samples() -> list[tuple[Record, Record]]:
    """Two records of each class that differ in one field."""
    ordering = CliqueOrdering(1, (0, 0), (0, 0))
    other = CliqueOrdering(1, (0, 0), (0, 1))
    lab = Labelling((0, 0), (0,))
    witness = StarWitness(0, (1, 2))
    trace = dict(labelling=lab, power=1, scale=(0,), unit=2)
    return [
        (Graph(3, [(0, 1)]), Graph(3, [(1, 2)])),
        (IntervalModel(((Fraction(0), Fraction(1)),)),
         IntervalModel(((Fraction(0), Fraction(2)),))),
        (ordering, other),
        (GenConfig(3, 0), GenConfig(3, 0, "nested-heavy")),
        (lab, Labelling((0, 1), (0,))),
        (witness, StarWitness(0, (1, 3))),
        (ParamReport(2, 2, witness), ParamReport(2, 2, None)),
        (CubeRepresentation(1, 2, ((0,), (1,)), 1), CubeRepresentation(1, 2, ((0,), (1,)), 2)),
        (ConstructionTrace(**trace), ConstructionTrace(**{**trace, "unit": 4})),
        (VerificationReport((), (), (0,)), VerificationReport(((0, 1),), (), (0,))),
        # P_3: one indifference supergraph, itself, leaves its non-edge missing
        (ExactResult((((0, 2),),), 3, 4), ExactResult((((0, 2),),), 3, 5)),
        (Exceeded(2, 3, 4), Exceeded(3, 3, 4)),
        (HistogramRow(2, 2, 1, 1, 4), HistogramRow(2, 2, 1, 1, 5)),
        (Counterexample(STAR4, 4, 4, 3), Counterexample(STAR4, 4, 4, 4)),
        (BoundViolation(STAR4, 4, 4, 1), BoundViolation(STAR4, 4, 4, 2)),
        (SearchReport((Counterexample(STAR4, 4, 4, 3),), (), (HistogramRow(2, 2, 1, 1, 4),), 0),
         SearchReport((), (), (HistogramRow(2, 2, 1, 1, 4),), 0)),
    ]


# K_{1,4} as edge-list text, the graph of the flagged samples above
STAR4 = "5 4\n0 1\n0 2\n0 3\n0 4\n"


def _copy(record: Record) -> Record:
    """An equal record built afresh; a graph is built from its edge list,
    a model from its intervals."""
    if isinstance(record, Graph):
        return Graph(record.n, record.edges())
    if isinstance(record, IntervalModel):
        return IntervalModel(record.intervals)
    return type(record)(**{name: getattr(record, name) for name in record.__slots__})


def _subclasses(cls) -> set[type]:
    return {sub for direct in cls.__subclasses__() for sub in (direct, *_subclasses(direct))}


def test_every_record_class_is_sampled():
    for name in intervalcubes._EXPORTS:
        getattr(intervalcubes, name)  # load every module
    assert {type(a) for a, _ in _samples()} == _subclasses(Record) - {Report}


@pytest.mark.parametrize("a, b", _samples(), ids=lambda r: type(r).__name__)
def test_equality_and_hash(a, b):
    copy = _copy(a)
    assert copy == a and hash(copy) == hash(a) and not copy != a
    assert a != b
    assert a != tuple(getattr(a, name) for name in a.__slots__)
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


# a graph is built from an edge list and a model from its intervals, not from their fields
@pytest.mark.parametrize(
    "a, b",
    [s for s in _samples() if type(s[0]) not in (Graph, IntervalModel)],
    ids=lambda r: type(r).__name__,
)
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


@pytest.mark.parametrize(
    "cls, name",
    [
        (VerificationReport, "ok"),
        (ParamReport, "lower_bound"),
        (ExactResult, "cubicity"),
        (Labelling, "alpha"),
        (Counterexample, "lower_bound"),
        (SearchReport, "graphs_tried"),
        (SearchReport, "degenerate_skipped"),
    ],
)
def test_derived_fields_are_properties(cls, name):
    assert isinstance(vars(cls)[name], property)
    assert name not in getattr(cls, "__slots__", ())


def test_derived_fields_read_their_sources():
    assert VerificationReport((), (), (0,)).ok
    assert not VerificationReport(((0, 1),), (), (0,)).ok
    assert not VerificationReport((), ((0, 1),), ()).ok
    assert [ParamReport(psi, 1, None).lower_bound for psi in range(6)] == [0, 0, 1, 2, 2, 3]
    assert ExactResult((), 0, 0).cubicity == 0
    assert ExactResult((((0, 2),), ((1, 3),)), 5, 6).cubicity == 2
    assert [Counterexample(STAR4, psi, 4, 3).lower_bound for psi in (2, 3, 4, 5)] == [1, 2, 2, 3]
    report = SearchReport((), (), (), 0)
    assert (report.graphs_tried, report.degenerate_skipped) == (0, 0)
    rows = (HistogramRow(1, 2, 1, 1, 3), HistogramRow(2, 2, 1, 1, 4), HistogramRow(3, 3, 2, 2, 1))
    report = SearchReport((), (BoundViolation(STAR4, 4, 4, 1),), rows, 0)
    assert (report.graphs_tried, report.degenerate_skipped) == (9, 3)


# each written record's derived properties, in the order its JSON object holds them
DERIVED = {
    CliqueOrdering: (),
    Labelling: ("alpha",),
    StarWitness: (),
    ParamReport: ("lower_bound",),
    VerificationReport: ("ok",),
    ExactResult: ("cubicity",),
    Exceeded: ("exceeded",),
    HistogramRow: (),
    Counterexample: ("lower_bound",),
    BoundViolation: (),
    SearchReport: ("graphs_tried", "degenerate_skipped"),
}


def _json_native(value) -> bool:
    if isinstance(value, dict):
        return all(type(k) is str and _json_native(v) for k, v in value.items())
    if isinstance(value, list):
        return all(map(_json_native, value))
    return type(value) in (str, int, float, bool, type(None))


def test_the_written_records_are_the_reports():
    assert {type(a) for a, _ in _samples() if isinstance(a, Report)} == set(DERIVED)
    assert _subclasses(Report) == set(DERIVED)


@pytest.mark.parametrize(
    "a", [a for pair in _samples() for a in pair if isinstance(a, Report)],
    ids=lambda r: type(r).__name__,
)
def test_a_reports_json_is_its_fields_plus_its_derived_names(a):
    obj = a.to_json_obj()
    assert type(a)._derived == DERIVED[type(a)]
    assert list(obj) == [*a.__slots__, *DERIVED[type(a)]]
    assert _json_native(obj)
    # tuples, nested too, become lists, and nested reports their own objects
    for name in obj:
        text = json.dumps(getattr(a, name), default=Report.to_json_obj)
        assert obj[name] == json.loads(text)


def test_exceeded_is_a_class_constant():
    assert Exceeded.exceeded is True and "exceeded" not in Exceeded.__slots__
    assert Exceeded(2, 3, 4).to_json_obj()["exceeded"] is True


@pytest.mark.parametrize("cls", [Graph, GenConfig, CubeRepresentation])
def test_unwritten_records_have_no_json_object(cls):
    assert not hasattr(cls, "to_json_obj")


def test_equal_searches_are_equal_records():
    a = tightness_search(count=40, n_max=6, seed=1)
    b = tightness_search(count=40, n_max=6, seed=1)
    assert a == b and hash(a) == hash(b)
    assert a != tightness_search(count=40, n_max=6, seed=2)
    fields = ("counterexamples", "bound_violations", "histogram")
    assert all(type(getattr(a, name)) is tuple for name in fields)
