"""The value semantics every public record class keeps: construction by
position and keyword with defaults, validation at construction, equality and
hashing by value, the repr, and immutability.

Needs neither numpy nor conftest's fixtures, so it runs on a bare
interpreter with pytest: `python -m pytest --noconftest tests/test_records.py`.
"""

import pytest

from fahp import (
    DEFAULT_SCALE,
    TFN,
    CaspScore,
    ComparisonJudgment,
    ComparisonMatrix,
    DelphiRatings,
    GlobalRanking,
    Hierarchy,
    ItemResponses,
    LinguisticScale,
    Node,
    RankingRow,
    ResultsDocument,
    SolveResult,
    SolverConfig,
    StudyDocument,
    ValidationError,
)
from fahp._record import record
from fahp.reproduce import DeviationRow, ReproduceReport


def _matrix():
    return ComparisonMatrix("g", ("a", "b"), (ComparisonJudgment("a", "b", TFN(1, 2, 3)),))


def _tree():
    return Node("g", "Goal", (Node("a"), Node("b")))


def _ranking():
    return GlobalRanking((RankingRow("a", "g", 1.0, 0.6, 0.6, 1),))


def _result():
    return SolveResult({"a": 0.6, "b": 0.4}, 0.5, False, 3, False, None)


# Each record class with a function that builds its fields, in declared
# order, from fresh objects on every call.
_FIELDS = {
    TFN: lambda: {"l": 1.0, "m": 2.0, "u": 3.0},
    LinguisticScale: lambda: {"entries": (("low", TFN(1, 2, 3)), ("high", TFN(2, 3, 4)))},
    Node: lambda: {"id": "a", "label": "Item A", "children": (Node("b"),)},
    ComparisonJudgment: lambda: {"row": "a", "col": "b", "value": TFN(1, 2, 3)},
    ComparisonMatrix: lambda: {
        "parent": "g",
        "items": ("a", "b"),
        "judgments": (ComparisonJudgment("a", "b", TFN(1, 2, 3)),),
    },
    Hierarchy: lambda: {"root": _tree(), "matrices": {"g": _matrix()}},
    SolverConfig: lambda: {"lambda_cap": 0.5, "weight_floor": 1e-3},
    SolveResult: lambda: {
        "weights": {"a": 0.6, "b": 0.4},
        "lambda_": 0.5,
        "consistent": False,
        "iterations": 3,
        "clamped": False,
        "slack": 0.25,
    },
    RankingRow: lambda: {
        "leaf": "a",
        "category": "g",
        "category_weight": 1.0,
        "local_weight": 0.6,
        "global_weight": 0.6,
        "rank": 1,
    },
    GlobalRanking: lambda: {"rows": _ranking().rows},
    StudyDocument: lambda: {
        "name": "s",
        "hierarchy": Hierarchy(_tree(), {"g": _matrix()}),
        "scale": DEFAULT_SCALE,
        "config": SolverConfig(),
    },
    ResultsDocument: lambda: {
        "study": "s",
        "tool_version": "0.1.0",
        "config": SolverConfig(),
        "generated_at": None,
        "blocks": {"g": _result()},
        "ranking": _ranking(),
    },
    DeviationRow: lambda: {"block": "g", "item": "a", "published": 0.5, "computed": 0.4},
    ReproduceReport: lambda: {
        "blocks": {"g": _result()},
        "local_rows": (DeviationRow("g", "a", 0.5, 0.4),),
        "lambda_rows": (DeviationRow("g", "", 0.5, 0.5),),
        "global_rows": (),
        "identity_rows": (DeviationRow("", "a", 0.5, 0.5),),
        "computed_ranking": _ranking(),
    },
    CaspScore: lambda: {"paper": "p", "criteria": (4,) * 10},
    DelphiRatings: lambda: {"items": ("i",), "experts": ("e", "f"), "ratings": ((3, 4),)},
    ItemResponses: lambda: {"items": ("q1", "q2"), "rows": ((1.0, 2.0), (2.0, 4.0))},
}
_CLASSES = list(_FIELDS)

# The fields a class may leave out, with the value each then takes.
_DEFAULTS = {
    Node: ({"id": "a"}, {"label": "a", "children": ()}),
    Hierarchy: ({"root": Node("g")}, {"matrices": {}}),
    SolverConfig: ({}, {"lambda_cap": 1.0, "weight_floor": 1e-6}),
    SolveResult: (
        {"weights": {"a": 1.0}, "lambda_": 1.0, "consistent": True, "iterations": 0, "clamped": True},
        {"slack": None},
    ),
}

# Fields that __post_init__ refuses, with the error it raises.
_INVALID = {
    TFN: ({"l": 2.0, "m": 1.0, "u": 3.0}, ValidationError),
    LinguisticScale: ({"entries": (("low", TFN(1, 2, 3)), ("low", TFN(2, 3, 4)))}, ValidationError),
    Node: ({"id": ""}, ValidationError),
    ComparisonMatrix: ({"parent": "g", "items": ("a",), "judgments": ()}, ValidationError),
    SolverConfig: ({"lambda_cap": 2.0}, ValueError),
    CaspScore: ({"paper": "p", "criteria": (4,) * 9}, ValidationError),
    DelphiRatings: ({"items": (), "experts": ("e",), "ratings": ()}, ValidationError),
    ItemResponses: ({"items": ("q1",), "rows": ((1.0,), (2.0,))}, ValidationError),
}


# A valid value of the first field unequal to the one in _FIELDS, where
# appending to a string will not do.
_OTHER_FIRST = {
    TFN: 1.5,
    LinguisticScale: (("low", TFN(1, 2, 3)),),
    Hierarchy: Node("z"),
    SolverConfig: 0.25,
    SolveResult: {"a": 0.5, "b": 0.5},
    GlobalRanking: (),
    ReproduceReport: {},
    DelphiRatings: ("j",),
    ItemResponses: ("q1", "q3"),
}


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_fields_by_position_and_keyword(cls):
    fields = _FIELDS[cls]()
    by_position = cls(*fields.values())
    by_keyword = cls(**_FIELDS[cls]())
    assert by_position == by_keyword
    for name, value in fields.items():
        assert getattr(by_position, name) == value


@pytest.mark.parametrize("cls", list(_DEFAULTS), ids=lambda c: c.__name__)
def test_defaults(cls):
    given, defaulted = _DEFAULTS[cls]
    obj = cls(**given)
    for name, value in defaulted.items():
        assert getattr(obj, name) == value


def test_default_matrices_are_read_only():
    first, second = Hierarchy(Node("a")), Hierarchy(Node("b"))
    with pytest.raises(TypeError):
        first.matrices["x"] = _matrix()
    assert dict(second.matrices) == {}


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_missing_unknown_or_extra_arguments_raise_type_error(cls):
    fields = _FIELDS[cls]()
    first = next(iter(fields))
    if cls not in _DEFAULTS or first not in _DEFAULTS[cls][1]:
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in fields.items() if k != first})
    with pytest.raises(TypeError):
        cls(**fields, unknown=1)
    with pytest.raises(TypeError):
        cls(*fields.values(), 1)


@pytest.mark.parametrize("cls", list(_INVALID), ids=lambda c: c.__name__)
def test_validation_runs_at_construction(cls):
    fields, error = _INVALID[cls]
    with pytest.raises(error):
        cls(**fields)


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_equality_and_hash_by_value(cls):
    a, b = cls(**_FIELDS[cls]()), cls(**_FIELDS[cls]())
    assert a is not b and a == b and not a != b
    values = tuple(_FIELDS[cls]().values())
    try:
        expected = hash(values)
    except TypeError:  # a dict field: unhashable, as its field tuple is
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected
    changed = _FIELDS[cls]()
    first = next(iter(changed))
    changed[first] = _OTHER_FIRST.get(cls, f"{changed[first]}x")
    assert cls(**changed) != a


def test_different_classes_never_compare_equal():
    samples = [cls(**_FIELDS[cls]()) for cls in _CLASSES]
    for i, a in enumerate(samples):
        for b in samples[i + 1 :]:
            assert a != b and b != a
    assert DeviationRow("g", "a", 0.5, 0.5) != ("g", "a", 0.5, 0.5)


def test_records_with_equal_fields_of_different_classes_differ():
    @record
    class First:
        x: int

    @record
    class Second:
        x: int

    assert First(1) == First(1) and First(1) != Second(1)


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_repr_names_the_class_and_each_field(cls):
    fields = _FIELDS[cls]()
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    fields = _FIELDS[cls]()
    obj = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) == value
    with pytest.raises(AttributeError):
        obj.unknown = 1
