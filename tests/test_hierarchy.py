"""Hierarchy and comparison-matrix structure and validation."""

import pytest

from fahp import (
    TFN,
    ComparisonJudgment,
    ComparisonMatrix,
    Hierarchy,
    Node,
    ValidationError,
    bundled_study_path,
    load_study,
    validate,
    validate_matrix,
)
from fahp.hierarchy import JUDGMENT_RANGE, MIN_SPREAD


def _m(items, pairs, parent="p"):
    js = tuple(ComparisonJudgment(r, c, TFN(1, 2, 3)) for r, c in pairs)
    return ComparisonMatrix(parent=parent, items=tuple(items), judgments=js)


def test_node_label_defaults_to_id():
    assert Node("W1").label == "W1"
    assert Node("W1", label="Technological").label == "Technological"


def test_validate_matrix_accepts_complete():
    m = _m("abc", [("b", "a"), ("c", "a"), ("c", "b")])
    assert validate_matrix(m) is m


def test_validate_matrix_accepts_connected_sparse():
    # a spanning tree of judgments is enough to tie every item together
    m = _m("abcd", [("b", "a"), ("c", "b"), ("d", "c")])
    assert validate_matrix(m) is m


# A ComparisonMatrix runs validate_matrix when it is built, so a faulty
# block raises at construction and no invalid block can be represented.


def test_validate_matrix_rejects_single_item():
    with pytest.raises(ValidationError, match="needs at least two items"):
        _m("a", [])


def test_validate_matrix_rejects_unknown_item():
    with pytest.raises(ValidationError, match="references an unknown item"):
        _m("ab", [("b", "z")])


def test_validate_matrix_rejects_self_comparison():
    with pytest.raises(ValidationError, match="compares 'a' with itself"):
        _m("ab", [("a", "a")])


def test_validate_matrix_rejects_duplicate_pair():
    # the same unordered pair twice, once per orientation
    js = (
        ComparisonJudgment("b", "a", TFN(1, 2, 3)),
        ComparisonJudgment("a", "b", TFN(2, 3, 4)),
    )
    with pytest.raises(ValidationError, match="duplicated judgment"):
        ComparisonMatrix(parent="p", items=("a", "b"), judgments=js)


def test_validate_matrix_rejects_disconnected():
    with pytest.raises(ValidationError, match="disconnected; no chain .* reaches c, d"):
        _m("abcd", [("b", "a"), ("d", "c")])


def test_validate_matrix_rejects_duplicate_items():
    with pytest.raises(ValidationError, match="duplicate item ids"):
        ComparisonMatrix(parent="p", items=("a", "a"), judgments=())


@pytest.mark.parametrize(
    "value, named",
    [
        (TFN(JUDGMENT_RANGE[0] / 2, 3, 4), "has l = 5e-05, outside"),
        (TFN(1, 2, JUDGMENT_RANGE[1] * 2), "has u = 20000.0, outside"),
    ],
)
def test_matrix_rejects_component_outside_range(value, named):
    with pytest.raises(ValidationError, match=named):
        ComparisonMatrix("p", ("a", "b"), (ComparisonJudgment("b", "a", value),))


def test_matrix_rejects_side_narrower_than_min_spread():
    value = TFN(2 - 2 * MIN_SPREAD * (1 - 1e-6), 2, 3)
    with pytest.raises(ValidationError, match="for a hard bound"):
        ComparisonMatrix("p", ("a", "b"), (ComparisonJudgment("b", "a", value),))


def _two_level():
    root = Node(
        "goal",
        children=(
            Node("A", children=(Node("A1"), Node("A2"))),
            Node("B", children=(Node("B1"), Node("B2"))),
        ),
    )
    matrices = {
        "goal": _m(("A", "B"), [("B", "A")], parent="goal"),
        "A": _m(("A1", "A2"), [("A2", "A1")], parent="A"),
        "B": _m(("B1", "B2"), [("B2", "B1")], parent="B"),
    }
    return Hierarchy(root=root, matrices=matrices)


def test_validate_hierarchy_accepts_two_level():
    h = _two_level()
    assert validate(h) is h


def test_hierarchy_walk_and_leaves():
    h = _two_level()
    ids = [n.id for n in h.walk()]
    assert ids == ["goal", "A", "A1", "A2", "B", "B1", "B2"]
    assert [n.id for n in h.leaves()] == ["A1", "A2", "B1", "B2"]
    assert [n.id for n in h.internal_nodes()] == ["goal", "A", "B"]
    assert h.node("B1").id == "B1"


def test_validate_hierarchy_rejects_duplicate_ids():
    # every block is valid on its own; the ids repeat across blocks, and the
    # same node object may appear twice
    y = Node("y")
    root = Node(
        "goal",
        children=(
            Node("A", children=(Node("x"), y)),
            Node("B", children=(y, Node("x"))),
        ),
    )
    matrices = {
        "goal": _m(("A", "B"), [("B", "A")], parent="goal"),
        "A": _m(("x", "y"), [("y", "x")], parent="A"),
        "B": _m(("y", "x"), [("x", "y")], parent="B"),
    }
    h = Hierarchy(root=root, matrices=matrices)
    with pytest.raises(ValidationError, match="duplicate node ids in hierarchy: x, y$"):
        validate(h)


def test_validate_hierarchy_rejects_missing_matrix():
    h = _two_level()
    h.matrices.pop("B")
    with pytest.raises(ValidationError):
        validate(h)


def test_validate_hierarchy_rejects_item_mismatch():
    h = _two_level()
    h.matrices["A"] = _m(("A1", "B2"), [("B2", "A1")], parent="A")
    with pytest.raises(ValidationError):
        validate(h)


def test_validate_hierarchy_rejects_matrix_on_leaf():
    h = _two_level()
    h.matrices["A1"] = _m(("x", "y"), [("y", "x")], parent="A1")
    with pytest.raises(ValidationError):
        validate(h)


def test_validate_hierarchy_rejects_unknown_parent():
    h = _two_level()
    h.matrices["Z"] = _m(("x", "y"), [("y", "x")], parent="Z")
    with pytest.raises(ValidationError):
        validate(h)


def test_bundled_study_shape():
    h = load_study(bundled_study_path()).hierarchy
    validate(h)
    assert h.root.id == "goal"
    assert [n.id for n in h.root.children] == ["W1", "W2", "W3"]
    leaves = [n.id for n in h.leaves()]
    assert leaves == [
        "W11", "W12", "W13", "W14",
        "W21", "W22", "W23", "W24",
        "W31", "W32",
    ]
    assert sorted(h.matrices) == ["W1", "W2", "W3", "goal"]
    total_judgments = sum(len(m.judgments) for m in h.matrices.values())
    assert total_judgments == 16
    # complete pairwise blocks upstairs, a single-judgment two-item block last
    assert len(h.matrices["goal"].judgments) == 3
    assert len(h.matrices["W1"].judgments) == 6
    assert len(h.matrices["W2"].judgments) == 6
    assert len(h.matrices["W3"].judgments) == 1


def test_bundled_study_labels_are_descriptive():
    h = load_study(bundled_study_path()).hierarchy
    assert h.node("W13").label == "Security and privacy"
    assert h.node("W31").label == "Lack of knowledge and skills"
