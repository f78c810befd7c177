"""Study and results document parsing, serialization, and the bundled dataset."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fahp import (
    GlobalRanking,
    RankingRow,
    ResultsDocument,
    SolveResult,
    SolverConfig,
    UnknownTermError,
    ValidationError,
    bundled_study_path,
    load_study,
    parse_study,
    solve_study,
)
from fahp.cli import main
from fahp.documents import (
    block_to_dict,
    parse_results,
    ranking_to_list,
    serialize_results,
)


MINIMAL = {
    "name": "tiny",
    "hierarchy": {
        "id": "goal",
        "children": [{"id": "a"}, {"id": "b"}],
    },
    "matrices": {
        "goal": [{"row": "b", "col": "a", "judgment": [2, 3, 4]}],
    },
}


def _study(**overrides):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(overrides)
    return doc


def test_parse_minimal_study():
    doc = parse_study(json.dumps(MINIMAL))
    assert doc.name == "tiny"
    assert [n.id for n in doc.hierarchy.leaves()] == ["a", "b"]
    j = doc.hierarchy.matrices["goal"].judgments[0]
    assert j.value.as_tuple() == (2, 3, 4)


def test_parse_term_judgment():
    doc = _study(
        matrices={"goal": [{"row": "b", "col": "a", "judgment": {"term": "high"}}]}
    )
    parsed = parse_study(json.dumps(doc))
    j = parsed.hierarchy.matrices["goal"].judgments[0]
    assert j.value.as_tuple() == (4, 5, 6)


def test_parse_custom_scale():
    doc = _study(
        scale={"meh": [1, 2, 3], "wow": [5, 6, 7]},
        matrices={"goal": [{"row": "b", "col": "a", "judgment": {"term": "wow"}}]},
    )
    parsed = parse_study(json.dumps(doc))
    j = parsed.hierarchy.matrices["goal"].judgments[0]
    assert j.value.as_tuple() == (5, 6, 7)


def test_parse_solver_section():
    doc = _study(solver={"lambda_cap": 0.5})
    parsed = parse_study(json.dumps(doc))
    assert parsed.config.lambda_cap == 0.5


def test_unknown_top_level_key_is_named():
    doc = _study(surprise=1)
    with pytest.raises(ValidationError) as exc:
        parse_study(json.dumps(doc))
    assert "surprise" in str(exc.value)


def test_unknown_judgment_key_is_named():
    doc = _study(
        matrices={"goal": [{"row": "b", "col": "a", "judgment": [2, 3, 4], "note": "x"}]}
    )
    with pytest.raises(ValidationError) as exc:
        parse_study(json.dumps(doc))
    assert "note" in str(exc.value)


def test_unknown_term_is_rejected():
    doc = _study(
        matrices={"goal": [{"row": "b", "col": "a", "judgment": {"term": "gigantic"}}]}
    )
    with pytest.raises(UnknownTermError) as exc:
        parse_study(json.dumps(doc))
    assert str(exc.value).startswith(
        "matrix 'goal', judgment 1: unknown linguistic term 'gigantic'; valid terms: "
    )


def test_malformed_json_reports_position():
    with pytest.raises(ValidationError) as exc:
        parse_study("{\n  \"name\": \"x\",,\n}")
    assert "line" in str(exc.value)


def test_bad_judgment_shape():
    doc = _study(matrices={"goal": [{"row": "b", "col": "a", "judgment": [3, 2]}]})
    with pytest.raises(ValidationError):
        parse_study(json.dumps(doc))


@pytest.mark.parametrize(
    "triple",
    [[True, 2, 3], [1, False, 3], ["1", "2", "3"], [1, 2, None], [1, 2, 10**400]],
    ids=["true", "false", "strings", "null", "huge-int"],
)
@pytest.mark.parametrize("where", ["judgment", "scale"])
def test_triple_entries_must_be_numbers(where, triple):
    # JSON booleans and numeric strings are not numbers, as in solver settings
    if where == "judgment":
        doc = _study(matrices={"goal": [{"row": "b", "col": "a", "judgment": triple}]})
        named = "matrix 'goal', judgment 1: "
    else:
        doc = _study(scale={"meh": triple, "wow": [5, 6, 7]})
        named = "scale term 'meh': "
    with pytest.raises(ValidationError) as exc:
        parse_study(json.dumps(doc))
    assert str(exc.value).startswith(named)


def test_invalid_matrix_inside_document():
    doc = _study(matrices={"goal": [{"row": "b", "col": "b", "judgment": [2, 3, 4]}]})
    with pytest.raises(ValidationError):
        parse_study(json.dumps(doc))


def test_load_study_missing_file(tmp_path):
    with pytest.raises(ValidationError):
        load_study(tmp_path / "nope.json")


def test_results_roundtrip_is_fixed_point(tmp_path):
    out = tmp_path / "results.json"
    rc = main(["solve", str(bundled_study_path()), "--no-timestamp", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    doc = parse_results(text)
    assert serialize_results(doc) == text
    assert doc.generated_at is None
    assert sorted(doc.blocks) == ["W1", "W2", "W3", "goal"]
    assert doc.ranking.rows[0].rank == 1


# Names and ids that json escapes (quotes, backslashes, control characters)
# or writes as they are (non-ASCII, astral and line-separator characters).
_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",))
    | st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028\xe9\U0001d11e'),
    max_size=6,
)
_EDGE_FLOATS = [-0.0, 5e-324, 1e308, math.inf, -math.inf]


def _results_documents(nan):
    """ResultsDocuments with every kind of float json writes; NaN if nan."""
    floats = st.floats(allow_nan=nan) | st.sampled_from(
        _EDGE_FLOATS + [math.nan] * nan
    )
    blocks = st.dictionaries(
        _TEXT,
        st.builds(
            SolveResult,
            weights=st.dictionaries(_TEXT, floats, max_size=3),
            lambda_=floats,
            consistent=st.booleans(),
            iterations=st.integers(0, 10**6),
            clamped=st.booleans(),
        ),
        max_size=3,
    )
    rows = st.lists(
        st.builds(
            RankingRow,
            leaf=_TEXT,
            category=_TEXT,
            category_weight=floats,
            local_weight=floats,
            global_weight=floats,
            rank=st.integers(1, 1000),
        ),
        max_size=3,
    )
    return st.builds(
        ResultsDocument,
        study=_TEXT,
        tool_version=_TEXT,
        config=st.builds(
            SolverConfig, st.floats(0.0, 1.0) | st.sampled_from([-0.0, 5e-324])
        ),
        generated_at=st.none() | _TEXT,
        blocks=blocks,
        ranking=st.builds(GlobalRanking, rows.map(tuple)),
    )


def _reference_text(doc):
    """What json.dumps writes for the document: the judge of the writer."""
    ref = {
        "study": doc.study,
        "tool_version": doc.tool_version,
        "config": {"lambda_cap": doc.config.lambda_cap},
    }
    if doc.generated_at is not None:
        ref["generated_at"] = doc.generated_at
    ref["blocks"] = {block: block_to_dict(res) for block, res in doc.blocks.items()}
    ref["ranking"] = ranking_to_list(doc.ranking)
    return json.dumps(ref, indent=2, ensure_ascii=False) + "\n"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_results_documents(nan=True))
def test_serialize_results_writes_what_json_dumps_writes(doc):
    assert serialize_results(doc) == _reference_text(doc)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_results_documents(nan=False))
def test_serialize_results_round_trips_without_nan(doc):
    assert parse_results(serialize_results(doc)) == doc


def _as_list(data, *path):
    """Replace the object at `path` in data with the list of its values."""
    *outer, key = path
    for part in outer:
        data = data[part]
    data[key] = list(data[key].values())


@pytest.mark.parametrize(
    "path", [("config",), ("blocks",), ("blocks", "goal", "weights")]
)
def test_results_with_a_list_for_an_object_are_rejected(path, tmp_path):
    out = tmp_path / "results.json"
    main(["solve", str(bundled_study_path()), "--no-timestamp", "--out", str(out)])
    data = json.loads(out.read_text())
    _as_list(data, *path)
    with pytest.raises(ValidationError, match="malformed results document") as exc:
        parse_results(json.dumps(data))
    assert f"key {path[-1]!r}: must be an object" in str(exc.value)


@pytest.mark.parametrize(
    "path, value, named",
    [
        pytest.param(
            ("ranking", 0), "W32", "ranking row 1: must be an object", id="row-string"
        ),
        pytest.param(
            ("blocks", "goal", "lambda"), None,
            "block 'goal': missing required key 'lambda'", id="lambda-missing",
        ),
        pytest.param(
            ("ranking", 2, "rank"), "third", "ranking row 3: key 'rank'", id="rank-text"
        ),
        # mistyped fields that bool(), int(), float() and str() would take
        pytest.param(
            ("blocks", "goal", "consistent"), "false",
            "block 'goal': key 'consistent'", id="consistent-string",
        ),
        pytest.param(
            ("blocks", "goal", "clamped"), "no",
            "block 'goal': key 'clamped'", id="clamped-string",
        ),
        pytest.param(
            ("blocks", "goal", "clamped"), 0, "block 'goal': key 'clamped'",
            id="clamped-number",
        ),
        pytest.param(
            ("blocks", "goal", "iterations"), 2.7,
            "block 'goal': key 'iterations'", id="iterations-float",
        ),
        pytest.param(
            ("blocks", "goal", "iterations"), True,
            "block 'goal': key 'iterations'", id="iterations-bool",
        ),
        pytest.param(
            ("blocks", "goal", "lambda"), True, "block 'goal': key 'lambda'",
            id="lambda-bool",
        ),
        # the retired weight floor, refused as in a study's solver settings
        pytest.param(
            ("config", "weight_floor"), 1e-6,
            "key 'config': solver settings: unknown keys: weight_floor",
            id="config-weight-floor",
        ),
        pytest.param(
            ("blocks", "goal", "weights", "W1"), "0.5",
            "block 'goal': key 'weights'", id="weight-string",
        ),
        pytest.param(
            ("ranking", 1, "rank"), "2", "ranking row 2: key 'rank'", id="rank-string"
        ),
        pytest.param(
            ("ranking", 0, "global_weight"), "0.5",
            "ranking row 1: key 'global_weight'", id="global-weight-string",
        ),
        pytest.param(
            ("ranking", 0, "leaf"), 7, "ranking row 1: key 'leaf'", id="leaf-number"
        ),
        pytest.param(
            ("config", "lambda_cap"), True, "key 'config'", id="config-bool"
        ),
        pytest.param(("study",), 5, "document: key 'study'", id="study-number"),
        pytest.param(
            ("generated_at",), 5, "document: key 'generated_at'",
            id="generated-at-number",
        ),
    ],
)
def test_malformed_results_name_the_field(path, value, named, tmp_path):
    out = tmp_path / "results.json"
    main(["solve", str(bundled_study_path()), "--no-timestamp", "--out", str(out)])
    data = json.loads(out.read_text())
    *outer, key = path
    target = data
    for part in outer:
        target = target[part]
    if value is None:
        del target[key]
    else:
        target[key] = value
    with pytest.raises(ValidationError) as exc:
        parse_results(json.dumps(data))
    assert str(exc.value).startswith("results: malformed results document: ")
    assert named in str(exc.value)


def test_results_with_a_duplicate_key_are_rejected(tmp_path):
    out = tmp_path / "results.json"
    main(["solve", str(bundled_study_path()), "--no-timestamp", "--out", str(out)])
    text = out.read_text().replace('"lambda": ', '"lambda": 0.5, "lambda": ', 1)
    with pytest.raises(ValidationError, match="results: duplicate key 'lambda' in "):
        parse_results(text)


def test_a_category_with_one_leaf_passes_its_weight_down():
    doc = _study(
        hierarchy={
            "id": "goal",
            "children": [
                {"id": "A", "children": [{"id": "a1"}]},
                {"id": "B", "children": [{"id": "b1"}, {"id": "b2"}]},
            ],
        },
        matrices={
            "goal": [{"row": "B", "col": "A", "judgment": [2, 3, 4]}],
            "B": [{"row": "b2", "col": "b1", "judgment": [1, 2, 3]}],
        },
    )
    results = solve_study(parse_study(json.dumps(doc)))
    assert sorted(results.blocks) == ["B", "goal"]
    rows = {r.leaf: r for r in results.ranking.rows}
    category_a = results.blocks["goal"].weights["A"]
    assert rows["a1"].category == "A"
    assert rows["a1"].local_weight == 1.0
    assert rows["a1"].category_weight == category_a
    assert rows["a1"].global_weight == category_a


def test_results_document_key_order(tmp_path):
    out = tmp_path / "results.json"
    main(["solve", str(bundled_study_path()), "--no-timestamp", "--out", str(out)])
    top = list(json.loads(out.read_text()))
    assert top == ["study", "tool_version", "config", "blocks", "ranking"]


def test_results_timestamp_present_by_default(tmp_path):
    out = tmp_path / "results.json"
    main(["solve", str(bundled_study_path()), "--out", str(out)])
    data = json.loads(out.read_text())
    assert "generated_at" in data
    doc = parse_results(out.read_text())
    assert doc.generated_at is not None
