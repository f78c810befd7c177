"""Study and results documents: the JSON formats the CLI reads and writes.

A study document holds a named hierarchy, its comparison matrices (numeric
triples or linguistic terms) and an optional replacement scale; the solver
takes no settings, so a study has no solver section. A results document
carries per-block solver output plus the composed global ranking;
serialization is deterministic and round-trips losslessly. solve_study turns
the one into the other, and every command that solves a study goes through
it.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Callable, Mapping

from . import __version__
from ._record import record
from .composition import GlobalRanking, RankingRow, compose_global
from .errors import ValidationError
from .fuzzy import DEFAULT_SCALE, LinguisticScale, TriangularFuzzyNumber, scale_lookup
from .hierarchy import (
    ComparisonJudgment,
    ComparisonMatrix,
    Hierarchy,
    Node,
    _check_tree,
    _nodes_by_id,
)
from .solver import SolveResult, solve_fpp

_STUDY_KEYS = frozenset({"name", "scale", "hierarchy", "matrices"})
_STUDY_REQUIRED = ("name", "hierarchy", "matrices")
_NODE_KEYS = frozenset({"id", "label", "children"})
_JUDGMENT_KEYS = frozenset({"row", "col", "judgment"})
_JUDGMENT_REQUIRED = ("row", "col", "judgment")
_TERM_KEYS = frozenset({"term"})
_RESULTS_KEYS = frozenset(
    {"study", "tool_version", "generated_at", "blocks", "ranking"}
)
_BLOCK_KEYS = frozenset({"weights", "lambda", "consistent", "clamped", "iterations"})
_ROW_KEYS = frozenset(
    {"leaf", "category", "category_weight", "local_weight", "global_weight", "rank"}
)


@record
class StudyDocument:
    """A parsed and validated study, ready to solve."""

    name: str
    hierarchy: Hierarchy
    scale: LinguisticScale


@record
class ResultsDocument:
    """Solver output for one study run."""

    study: str
    tool_version: str
    generated_at: str | None
    blocks: dict[str, SolveResult]
    ranking: GlobalRanking


# The study reader's helpers raise errors that do not say where; the except
# clause of the object being read puts its location in front of the message,
# so no location string is built unless something is wrong.


def _check_keys(
    obj: Mapping[str, Any], allowed: frozenset[str], required: tuple[str, ...] = ()
) -> None:
    """Reject a key of obj outside allowed, then the first of required that
    obj lacks."""
    if not obj.keys() <= allowed:
        unknown = ", ".join(sorted(obj.keys() - allowed))
        raise ValidationError(f"unknown keys: {unknown}")
    for key in required:
        if key not in obj:
            raise ValidationError(f"missing required key {key!r}")


def _parse_node(obj: Any, source: str, path: tuple[str, ...] = ()) -> Node:
    """A node and its subtree; path holds the ids of the node's ancestors."""
    try:
        if not isinstance(obj, dict):
            raise ValidationError("node must be an object")
        _check_keys(obj, _NODE_KEYS, ("id",))
        node_id = obj["id"]
        if not isinstance(node_id, str) or not node_id:
            raise ValidationError("node id must be a non-empty string")
        label = obj.get("label", "")
        if not isinstance(label, str):
            raise ValidationError("node label must be a string")
        children_raw = obj.get("children", [])
        if not isinstance(children_raw, list):
            raise ValidationError("children must be a list")
    except ValidationError as exc:
        where = " > ".join((f"{source} hierarchy", *path))
        exc.args = (f"{where}: {exc}",)
        raise
    path += (node_id,)
    children = tuple([_parse_node(c, source, path) for c in children_raw])
    return Node(id=node_id, label=label, children=children)


def _parse_triple(value: Any) -> TriangularFuzzyNumber:
    if not isinstance(value, list) or len(value) != 3:
        raise ValidationError("needs exactly three numbers [l, m, u]")
    for v in value:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ValidationError(f"could not convert {v!r} to a number")
    l, m, u = value
    try:
        return TriangularFuzzyNumber(float(l), float(m), float(u))
    except OverflowError as exc:
        raise ValidationError(str(exc)) from exc


def _parse_judgment(entry: Any, scale: LinguisticScale) -> ComparisonJudgment:
    if not isinstance(entry, dict):
        raise ValidationError("must be an object")
    if entry.keys() != _JUDGMENT_KEYS:
        # every allowed key is required, so this names what is wrong
        _check_keys(entry, _JUDGMENT_KEYS, _JUDGMENT_REQUIRED)
    row, col, value = entry["row"], entry["col"], entry["judgment"]
    if not isinstance(row, str):
        raise ValidationError("'row' must be an item id string")
    if not isinstance(col, str):
        raise ValidationError("'col' must be an item id string")
    if isinstance(value, list):
        value = _parse_triple(value)
    elif isinstance(value, dict):
        _check_keys(value, _TERM_KEYS, ("term",))
        term = value["term"]
        if not isinstance(term, str):
            raise ValidationError("term must be a string")
        value = scale_lookup(term, scale)
    else:
        raise ValidationError('judgment must be [l, m, u] or {"term": ...}')
    return ComparisonJudgment(row=row, col=col, value=value)


def _parse_matrix(
    parent: str, entries: Any, items: tuple[str, ...], scale: LinguisticScale
) -> ComparisonMatrix:
    if not isinstance(entries, list):
        raise ValidationError(f"matrix {parent!r}: must be a list of judgments")
    judgments = []
    for i, entry in enumerate(entries, start=1):
        try:
            judgments.append(_parse_judgment(entry, scale))
        except ValidationError as exc:
            exc.args = (f"matrix {parent!r}, judgment {i}: {exc}",)
            raise
    return ComparisonMatrix(parent=parent, items=items, judgments=tuple(judgments))


def _parse_scale(obj: Any) -> LinguisticScale:
    if not isinstance(obj, dict) or not obj:
        raise ValidationError("scale must be a non-empty object of term -> [l, m, u]")
    entries = []
    for term, triple in obj.items():
        try:
            entries.append((term, _parse_triple(triple)))
        except ValidationError as exc:
            exc.args = (f"scale term {term!r}: {exc}",)
            raise
    try:
        return LinguisticScale(entries=tuple(entries))
    except ValidationError as exc:
        raise ValidationError(f"scale: {exc}") from exc


def _check_utf8(name: str, nodes: dict[str, Node], source: str) -> None:
    """Reject a study name, node id or label that UTF-8 cannot encode. JSON
    text can spell such a string with an escaped lone surrogate ("\\ud800"),
    and it would fail only once the results or the table were being written."""

    def check(what: str, text: str) -> None:
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise ValidationError(
                f"{source}: {what} {text!r} holds a lone surrogate, which "
                "UTF-8 cannot encode"
            ) from None

    check("name", name)
    for node in nodes.values():
        check("node id", node.id)
        check(f"label of node {node.id!r}", node.label)


def _decode(text: str, source: str) -> dict[str, Any]:
    """The top-level object of a JSON document. A key repeated within one
    object is an error, not silently the last of its values."""

    def unique(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            names = [k for k, _ in pairs]
            key = next(k for i, k in enumerate(names) if k in names[:i])
            raise ValidationError(
                f"{source}: duplicate key {key!r} in the object with keys "
                + ", ".join(map(repr, obj))
            )
        return obj

    try:
        data = json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except RecursionError:
        raise ValidationError(f"{source}: JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{source}: top level must be an object")
    return data


def parse_study(text: str, source: str = "study") -> StudyDocument:
    """Parse and validate a study document from JSON text."""
    data = _decode(text, source)
    try:
        _check_keys(data, _STUDY_KEYS, _STUDY_REQUIRED)
        name = data["name"]
        if not isinstance(name, str) or not name:
            raise ValidationError("name must be a non-empty string")
        matrices_raw = data["matrices"]
        if not isinstance(matrices_raw, dict):
            raise ValidationError("matrices must be an object")
    except ValidationError as exc:
        exc.args = (f"{source}: {exc}",)
        raise
    scale = _parse_scale(data["scale"]) if "scale" in data else DEFAULT_SCALE
    root = _parse_node(data["hierarchy"], source)
    nodes = _nodes_by_id(root)
    # a file's text can hold a lone surrogate only as a \u escape; a str
    # handed to parse_study can hold one as it is, and is then not ASCII
    if "\\u" in text or not text.isascii():
        _check_utf8(name, nodes, source)
    matrices = {}
    for parent, entries in matrices_raw.items():
        node = nodes.get(parent)
        if node is None or node.is_leaf:
            kind = "unknown" if node is None else "leaf"
            raise ValidationError(f"{source}: matrix attached to {kind} node {parent!r}")
        items = tuple([c.id for c in node.children])
        matrices[parent] = _parse_matrix(parent, entries, items, scale)
    _check_tree(nodes, matrices)
    hierarchy = Hierarchy(root=root, matrices=matrices)
    return StudyDocument(name=name, hierarchy=hierarchy, scale=scale)


def load_study(path: str | Path) -> StudyDocument:
    """Read and parse a study document from a file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read study file {p}: {exc}") from exc
    return parse_study(text, source=str(p))


def bundled_study_path() -> Path:
    """Filesystem path of the packaged supply-chain study document."""
    return Path(__file__).parent / "data" / "supply_chain_study.json"


def solve_study(
    study: StudyDocument, generated_at: str | None = None
) -> ResultsDocument:
    """Solve every block in walk order and rank the leaves globally.

    A leaf's category is its immediate parent; the category weight is the
    product of local weights along the path above that parent, so
    global = category_weight * local_weight holds at any depth. An
    only-child (no matrix over it) carries local weight 1.
    """
    h = study.hierarchy
    blocks = {
        node.id: solve_fpp(h.matrices[node.id])
        for node in h.walk()
        if node.id in h.matrices
    }
    category_weights: dict[str, float] = {}
    local_weights: dict[str, dict[str, float]] = {}

    def descend(node: Node, above: float) -> None:
        if node.id in blocks:
            local = blocks[node.id].weights
        else:  # a single child, nothing to compare
            local = {c.id: 1.0 for c in node.children}
        leaves = {c.id: local[c.id] for c in node.children if c.is_leaf}
        if leaves:
            category_weights[node.id] = above
            local_weights[node.id] = leaves
        for child in node.children:
            if not child.is_leaf:
                descend(child, above * local[child.id])

    descend(h.root, 1.0)
    return ResultsDocument(
        study=study.name,
        tool_version=__version__,
        generated_at=generated_at,
        blocks=blocks,
        ranking=compose_global(category_weights, local_weights),
    )


#: json's spelling of the float values that have no JSON literal
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = repr(x)
    return _NONFINITE.get(text, text)


def _enclosed(entries: list[str], brackets: str, indent: str) -> str:
    """A JSON object or array laid out as json.dumps(indent=2) lays it out:
    its entries one per line at indent plus two spaces, or {} or [] when
    there are none."""
    if not entries:
        return brackets
    inner = ",\n  " + indent
    return f"{brackets[0]}\n  {indent}{inner.join(entries)}\n{indent}{brackets[1]}"


def serialize_results(doc: ResultsDocument) -> str:
    """Deterministic JSON for a results document (full float precision).

    The text is exactly json.dumps(..., indent=2, ensure_ascii=False) of the
    document plus a newline: strings through json's own encoder, floats by
    repr with json's NaN and Infinity. It is written here directly, since
    json runs an indented dump in pure Python, at several times the cost.
    """
    string, number = encode_basestring, _float_text
    blocks = []
    for block, res in doc.blocks.items():
        weights = [f"{string(item)}: {number(w)}" for item, w in res.weights.items()]
        blocks.append(
            f"{string(block)}: {{\n"
            f'      "weights": {_enclosed(weights, "{}", "      ")},\n'
            f'      "lambda": {number(res.lambda_)},\n'
            f'      "consistent": {"true" if res.consistent else "false"},\n'
            f'      "clamped": {"true" if res.clamped else "false"},\n'
            f'      "iterations": {res.iterations!r}\n'
            "    }"
        )
    rows = [
        "{\n"
        f'      "leaf": {string(r.leaf)},\n'
        f'      "category": {string(r.category)},\n'
        f'      "category_weight": {number(r.category_weight)},\n'
        f'      "local_weight": {number(r.local_weight)},\n'
        f'      "global_weight": {number(r.global_weight)},\n'
        f'      "rank": {r.rank!r}\n'
        "    }"
        for r in doc.ranking.rows
    ]
    stamp = (
        "" if doc.generated_at is None
        else f'  "generated_at": {string(doc.generated_at)},\n'
    )
    return (
        "{\n"
        f'  "study": {string(doc.study)},\n'
        f'  "tool_version": {string(doc.tool_version)},\n'
        f"{stamp}"
        f'  "blocks": {_enclosed(blocks, "{}", "  ")},\n'
        f'  "ranking": {_enclosed(rows, "[]", "  ")}\n'
        "}\n"
    )


def _field(obj: Any, key: str, convert: Callable[[Any], Any], where: str) -> Any:
    """obj[key], converted; an error names where and the key."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: must be an object")
    if key not in obj:
        raise ValidationError(f"{where}: missing required key {key!r}")
    try:
        return convert(obj[key])
    except (OverflowError, TypeError, ValueError, ValidationError) as exc:
        raise ValidationError(f"{where}: key {key!r}: {exc}") from exc


def _check_fields(obj: Any, allowed: frozenset[str], where: str) -> None:
    """Reject a key of obj outside allowed, naming where; what is not an
    object is left to _field to refuse."""
    if isinstance(obj, dict):
        try:
            _check_keys(obj, allowed)
        except ValidationError as exc:
            exc.args = (f"{where}: {exc}",)
            raise


def _object(value: Any) -> dict[str, Any]:
    if not isinstance(value, dict):
        raise TypeError("must be an object")
    return value


def _kind(name: str, test: Callable[[Any], bool]) -> Callable[[Any], Any]:
    """A converter that passes a JSON value of one kind through unchanged
    and rejects any other, so that "false" is not read as true, 2.7 as 2 or
    "2" as 2."""

    def check(value: Any) -> Any:
        if not test(value):
            raise TypeError(f"{value!r} is not {name}")
        return value

    return check


_boolean = _kind("true or false", lambda v: isinstance(v, bool))
_integer = _kind("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
_string = _kind("a string", lambda v: isinstance(v, str))
_numeric = _kind(
    "a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
)


def _number(value: Any) -> float:
    return float(_numeric(value))


def _floats(value: Any) -> dict[str, float]:
    return {k: _number(v) for k, v in _object(value).items()}


def parse_results(text: str, source: str = "results") -> ResultsDocument:
    """Parse a results document; inverse of serialize_results.

    Every field must have the JSON type serialize_results writes: true or
    false, an integer (not a boolean), a number (not a boolean or a string)
    or a string, and no object may hold a key that serialize_results does
    not write, such as the "config" of documents written when the solver
    took settings. An error names the block or ranking row and the key that
    is wrong.
    """
    data = _decode(text, source)
    where = f"{source}: malformed results document"
    _check_fields(data, _RESULTS_KEYS, where)
    blocks = {}
    for block, raw in _field(data, "blocks", _object, where).items():
        at = f"{where}: block {block!r}"
        _check_fields(raw, _BLOCK_KEYS, at)
        blocks[block] = SolveResult(
            weights=_field(raw, "weights", _floats, at),
            lambda_=_field(raw, "lambda", _number, at),
            consistent=_field(raw, "consistent", _boolean, at),
            iterations=_field(raw, "iterations", _integer, at),
            clamped=_field(raw, "clamped", _boolean, at),
        )
    rows = []
    for i, raw in enumerate(_field(data, "ranking", list, where), start=1):
        at = f"{where}: ranking row {i}"
        _check_fields(raw, _ROW_KEYS, at)
        rows.append(
            RankingRow(
                leaf=_field(raw, "leaf", _string, at),
                category=_field(raw, "category", _string, at),
                category_weight=_field(raw, "category_weight", _number, at),
                local_weight=_field(raw, "local_weight", _number, at),
                global_weight=_field(raw, "global_weight", _number, at),
                rank=_field(raw, "rank", _integer, at),
            )
        )
    return ResultsDocument(
        study=_field(data, "study", _string, where),
        tool_version=_field(data, "tool_version", _string, where),
        generated_at=(
            _field(data, "generated_at", _string, where)
            if "generated_at" in data
            else None
        ),
        blocks=blocks,
        ranking=GlobalRanking(rows=tuple(rows)),
    )
