"""Study and results documents: the JSON formats the CLI reads and writes.

A study document holds a named hierarchy, its comparison matrices (numeric
triples or linguistic terms), an optional replacement scale, and optional
solver settings. A results document echoes the configuration and carries
per-block solver output plus the composed global ranking; serialization is
deterministic and round-trips losslessly. solve_study turns the one into the
other, and every command that solves a study goes through it.
"""

from __future__ import annotations

import json
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
    _nodes_by_id,
    validate,
)
from .solver import SolveResult, SolverConfig, solve_fpp

_STUDY_KEYS = {"name", "scale", "hierarchy", "matrices", "solver"}
_NODE_KEYS = {"id", "label", "children"}
_JUDGMENT_KEYS = {"row", "col", "judgment"}
_CONFIG_KEYS = {"lambda_cap", "weight_floor"}


@record
class StudyDocument:
    """A parsed and validated study, ready to solve."""

    name: str
    hierarchy: Hierarchy
    scale: LinguisticScale
    config: SolverConfig


@record
class ResultsDocument:
    """Solver output for one study run."""

    study: str
    tool_version: str
    config: SolverConfig
    generated_at: str | None
    blocks: dict[str, SolveResult]
    ranking: GlobalRanking


def _require(obj: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in obj:
        raise ValidationError(f"{where}: missing required key {key!r}")
    return obj[key]


def _check_keys(obj: Mapping[str, Any], allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"{where}: unknown keys: {', '.join(sorted(unknown))}")


def _parse_node(obj: Any, where: str) -> Node:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: node must be an object")
    _check_keys(obj, _NODE_KEYS, where)
    node_id = _require(obj, "id", where)
    if not isinstance(node_id, str) or not node_id:
        raise ValidationError(f"{where}: node id must be a non-empty string")
    label = obj.get("label", "")
    if not isinstance(label, str):
        raise ValidationError(f"{where}: node label must be a string")
    children_raw = obj.get("children", [])
    if not isinstance(children_raw, list):
        raise ValidationError(f"{where}: children must be a list")
    children = tuple(
        _parse_node(c, f"{where} > {node_id}") for c in children_raw
    )
    return Node(id=node_id, label=label, children=children)


def _parse_triple(value: Any, where: str) -> TriangularFuzzyNumber:
    if not isinstance(value, list) or len(value) != 3:
        raise ValidationError(f"{where}: needs exactly three numbers [l, m, u]")
    for v in value:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ValidationError(f"{where}: could not convert {v!r} to a number")
    try:
        return TriangularFuzzyNumber(*(float(v) for v in value))
    except (OverflowError, ValidationError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _parse_judgment_value(
    value: Any, scale: LinguisticScale, where: str
) -> TriangularFuzzyNumber:
    if isinstance(value, list):
        return _parse_triple(value, where)
    if isinstance(value, dict):
        _check_keys(value, {"term"}, where)
        term = _require(value, "term", where)
        return scale_lookup(term, scale)
    raise ValidationError(
        f"{where}: judgment must be [l, m, u] or {{\"term\": ...}}"
    )


def _parse_matrix(
    parent: str, entries: Any, node: Node, scale: LinguisticScale
) -> ComparisonMatrix:
    where = f"matrix {parent!r}"
    if not isinstance(entries, list):
        raise ValidationError(f"{where}: must be a list of judgments")
    judgments = []
    for i, entry in enumerate(entries):
        at = f"{where}, judgment {i + 1}"
        if not isinstance(entry, dict):
            raise ValidationError(f"{at}: must be an object")
        _check_keys(entry, _JUDGMENT_KEYS, at)
        row = _require(entry, "row", at)
        col = _require(entry, "col", at)
        for key, value in (("row", row), ("col", col)):
            if not isinstance(value, str):
                raise ValidationError(f"{at}: {key!r} must be an item id string")
        value = _parse_judgment_value(_require(entry, "judgment", at), scale, at)
        judgments.append(ComparisonJudgment(row=row, col=col, value=value))
    items = tuple(c.id for c in node.children)
    return ComparisonMatrix(parent=parent, items=items, judgments=tuple(judgments))


def _parse_scale(obj: Any) -> LinguisticScale:
    if not isinstance(obj, dict) or not obj:
        raise ValidationError("scale must be a non-empty object of term -> [l, m, u]")
    entries = [
        (term, _parse_triple(triple, f"scale term {term!r}"))
        for term, triple in obj.items()
    ]
    try:
        return LinguisticScale(entries=tuple(entries))
    except ValidationError as exc:
        raise ValidationError(f"scale: {exc}") from exc


def _parse_config(obj: Any) -> SolverConfig:
    if not isinstance(obj, dict):
        raise ValidationError("solver settings must be an object")
    _check_keys(obj, _CONFIG_KEYS, "solver settings")
    for key, value in obj.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValidationError(f"solver setting {key!r} must be a number")
    try:
        return SolverConfig(**{key: float(value) for key, value in obj.items()})
    except (OverflowError, ValueError) as exc:
        raise ValidationError(f"solver settings: {exc}") from exc


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
    _check_keys(data, _STUDY_KEYS, source)
    name = _require(data, "name", source)
    if not isinstance(name, str) or not name:
        raise ValidationError(f"{source}: name must be a non-empty string")
    scale = _parse_scale(data["scale"]) if "scale" in data else DEFAULT_SCALE
    config = _parse_config(data["solver"]) if "solver" in data else SolverConfig()
    root = _parse_node(_require(data, "hierarchy", source), f"{source} hierarchy")
    matrices_raw = _require(data, "matrices", source)
    if not isinstance(matrices_raw, dict):
        raise ValidationError(f"{source}: matrices must be an object")
    nodes = _nodes_by_id(root)
    matrices = {}
    for parent, entries in matrices_raw.items():
        node = nodes.get(parent)
        if node is None or node.is_leaf:
            kind = "unknown" if node is None else "leaf"
            raise ValidationError(f"{source}: matrix attached to {kind} node {parent!r}")
        matrices[parent] = _parse_matrix(parent, entries, node, scale)
    hierarchy = validate(Hierarchy(root=root, matrices=matrices))
    return StudyDocument(name=name, hierarchy=hierarchy, scale=scale, config=config)


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
        node.id: solve_fpp(h.matrices[node.id], study.config)
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
        config=study.config,
        generated_at=generated_at,
        blocks=blocks,
        ranking=compose_global(category_weights, local_weights),
    )


def _config_dict(config: SolverConfig) -> dict[str, float]:
    return {"lambda_cap": config.lambda_cap, "weight_floor": config.weight_floor}


def block_to_dict(res: SolveResult) -> dict[str, Any]:
    """One block's solver output, as results and deviation documents store it."""
    return {
        "weights": dict(res.weights),
        "lambda": res.lambda_,
        "consistent": res.consistent,
        "clamped": res.clamped,
        "iterations": res.iterations,
        "slack": res.slack,
    }


def ranking_to_list(ranking: GlobalRanking) -> list[dict[str, Any]]:
    """The ranking rows, as results and deviation documents store them."""
    return [
        {
            "leaf": r.leaf,
            "category": r.category,
            "category_weight": r.category_weight,
            "local_weight": r.local_weight,
            "global_weight": r.global_weight,
            "rank": r.rank,
        }
        for r in ranking.rows
    ]


def results_to_dict(doc: ResultsDocument) -> dict[str, Any]:
    out: dict[str, Any] = {
        "study": doc.study,
        "tool_version": doc.tool_version,
        "config": _config_dict(doc.config),
    }
    if doc.generated_at is not None:
        out["generated_at"] = doc.generated_at
    out["blocks"] = {block: block_to_dict(res) for block, res in doc.blocks.items()}
    out["ranking"] = ranking_to_list(doc.ranking)
    return out


def serialize_results(doc: ResultsDocument) -> str:
    """Deterministic JSON for a results document (full float precision)."""
    return json.dumps(results_to_dict(doc), indent=2, ensure_ascii=False) + "\n"


def _field(obj: Any, key: str, convert: Callable[[Any], Any], where: str) -> Any:
    """obj[key], converted; an error names where and the key."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: must be an object")
    try:
        return convert(_require(obj, key, where))
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: key {key!r}: {exc}") from exc


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
    false, an integer (not a boolean), a number (not a boolean or a string;
    a block's slack may be null) or a string. An error names the block or
    ranking row and the key that is wrong.
    """
    data = _decode(text, source)
    where = f"{source}: malformed results document"
    blocks = {}
    for block, raw in _field(data, "blocks", _object, where).items():
        at = f"{where}: block {block!r}"
        blocks[block] = SolveResult(
            weights=_field(raw, "weights", _floats, at),
            lambda_=_field(raw, "lambda", _number, at),
            consistent=_field(raw, "consistent", _boolean, at),
            iterations=_field(raw, "iterations", _integer, at),
            clamped=_field(raw, "clamped", _boolean, at),
            slack=_field(raw, "slack", lambda v: None if v is None else _number(v), at),
        )
    rows = []
    for i, raw in enumerate(_field(data, "ranking", list, where), start=1):
        at = f"{where}: ranking row {i}"
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
        config=_field(data, "config", lambda v: SolverConfig(**_floats(v)), where),
        generated_at=(
            _field(data, "generated_at", _string, where)
            if "generated_at" in data
            else None
        ),
        blocks=blocks,
        ranking=GlobalRanking(rows=tuple(rows)),
    )
