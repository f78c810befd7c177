"""Decision hierarchy: nodes, pairwise comparison blocks, and validation.

A study is a tree of nodes. Every internal node with two or more children
carries exactly one comparison matrix over those children. Judgments are
stored in the orientation the analyst entered them (row over column); no
reciprocal flipping happens behind the analyst's back. A comparison matrix
is checked when it is built; validate checks the tree around it on demand.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterator, Mapping

from ._record import record
from .errors import ValidationError
from .fuzzy import TriangularFuzzyNumber

#: Every component of a judgment must lie in this range. The bound dates
#: from the max-slack LPs the solver used until the leximin search replaced
#: them: outside it, those LPs mixed coefficients far apart in size, and
#: their round-off made the solver fail on hard-sided judgments at 1e-6 to
#: 1e-5 and on judgments beyond 1e9. The range kept a factor of ten from the
#: first; a scale of verbal judgments spans about 1/9 to 9.
JUDGMENT_RANGE = (1e-4, 1e4)

#: A side's spread, m - l or u - m, is either 0 (a hard bound on the ratio)
#: or at least this fraction of m. Like JUDGMENT_RANGE, the bound was set
#: for the former LP solver, where narrower sides made nearly parallel LP
#: rows whose round-off made it fail. The sweep that set it: contradictory
#: blocks of 3-7 items where six judgments in ten have one side of a given
#: relative spread, run with warnings as errors. With 10,000 blocks per
#: spread, 9 raised at 1e-6 and 2 at 3e-6, none from 1e-5 up (nor in 40,000
#: more at each of 1e-4, 3e-4 and 1e-3). But at 1e-4 a hinted LP once
#: divided by an exact 0 (a warning; that solver then fell back to the
#: slack basis). Hinted solves fell back to that basis about once in 450
#: at 1e-4, once in 1,800 to 2,600 at 3e-4 and once in 12,000 to 35,000 at
#: 1e-3, as at 3e-3 and 1e-2 (once in 13,000 to 67,000). The bound kept a
#: factor of ten from that first failure.
MIN_SPREAD = 1e-3


@record
class Node:
    """A hierarchy node; leaves are the alternatives being ranked."""

    id: str
    label: str = ""
    children: tuple["Node", ...] = ()

    def __post_init__(self):
        if not self.id:
            raise ValidationError("node id must be a non-empty string")
        if not self.label:
            object.__setattr__(self, "label", self.id)

    @property
    def is_leaf(self) -> bool:
        return not self.children


@record
class ComparisonJudgment:
    """One entered pairwise judgment: w_row / w_col is about `value`."""

    row: str
    col: str
    value: TriangularFuzzyNumber


@record
class ComparisonMatrix:
    """The judged pairs among the children of one parent node; valid once built."""

    parent: str
    items: tuple[str, ...]
    judgments: tuple[ComparisonJudgment, ...]

    def __post_init__(self):
        validate_matrix(self)


def validate_matrix(m: ComparisonMatrix) -> ComparisonMatrix:
    """Check one comparison block in isolation and return it; every
    ComparisonMatrix runs it when built. Enforces: at least two items, unique
    item ids, judgments referencing known items with row != col, judgment
    components within JUDGMENT_RANGE, side spreads m - l and u - m that are
    0 or at least MIN_SPREAD times m, at most one judgment per unordered
    pair, and a connected judgment graph (every item is tied to every other
    through some chain of judged pairs).
    """
    where = f"matrix {m.parent!r}"
    if len(m.items) < 2:
        raise ValidationError(f"{where}: needs at least two items")
    # each item's judged partners; it also tells the known items and the
    # pairs already judged
    adjacency: dict[str, set[str]] = {it: set() for it in m.items}
    if len(adjacency) != len(m.items):
        raise ValidationError(f"{where}: duplicate item ids")
    lo, hi = JUDGMENT_RANGE
    for j in m.judgments:
        if j.row not in adjacency or j.col not in adjacency:
            raise ValidationError(
                f"{where}: judgment ({j.row}, {j.col}) references an unknown item"
            )
        if j.row == j.col:
            raise ValidationError(f"{where}: judgment compares {j.row!r} with itself")
        low, mode, high = j.value.l, j.value.m, j.value.u
        if not lo <= low <= high <= hi:  # l <= m <= u holds
            name, value = ("l", low) if low < lo else ("u", high)
            raise ValidationError(
                f"{where}: judgment ({j.row}, {j.col}) has {name} = {value!r}, "
                f"outside [{lo:g}, {hi:g}]"
            )
        narrow = MIN_SPREAD * mode
        if 0.0 < mode - low < narrow or 0.0 < high - mode < narrow:
            name, value = ("l", low) if 0.0 < mode - low < narrow else ("u", high)
            raise ValidationError(
                f"{where}: judgment ({j.row}, {j.col}) has {name} = {value!r}, "
                f"within {MIN_SPREAD:g} * m of m = {mode!r}; use {name} = m "
                "for a hard bound"
            )
        if j.col in adjacency[j.row]:
            raise ValidationError(
                f"{where}: duplicated judgment for pair ({j.row}, {j.col})"
            )
        adjacency[j.row].add(j.col)
        adjacency[j.col].add(j.row)
    # connectivity via traversal from the first item
    stack, reached = [m.items[0]], {m.items[0]}
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in reached:
                reached.add(nxt)
                stack.append(nxt)
    if len(reached) != len(m.items):
        loose = sorted(set(m.items) - reached)
        raise ValidationError(
            f"{where}: judgment graph is disconnected; no chain of judgments "
            f"reaches {', '.join(loose)}"
        )
    return m


@record
class Hierarchy:
    """A decision tree plus its comparison blocks; validate checks the tree."""

    root: Node
    matrices: Mapping[str, ComparisonMatrix] = MappingProxyType({})

    def walk(self) -> Iterator[Node]:
        """Nodes in depth-first pre-order, root first."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaves(self) -> list[Node]:
        return [n for n in self.walk() if n.is_leaf]

    def internal_nodes(self) -> list[Node]:
        return [n for n in self.walk() if not n.is_leaf]

    def node(self, node_id: str) -> Node:
        for n in self.walk():
            if n.id == node_id:
                return n
        raise KeyError(node_id)


def _nodes_by_id(root: Node) -> dict[str, Node]:
    """Every node under root by id, in walk order; a repeated id raises."""
    by_id: dict[str, Node] = {}
    dup = set()
    for n in Hierarchy(root=root).walk():
        if n.id in by_id:
            dup.add(n.id)
        by_id[n.id] = n
    if dup:
        raise ValidationError(f"duplicate node ids in hierarchy: {', '.join(sorted(dup))}")
    return by_id


def validate(h: Hierarchy) -> Hierarchy:
    """Validate the tree around its blocks (each checked when it was built)
    and return it unchanged: globally unique node ids, one matrix for every
    internal node with two or more children, matrix items equal to that
    node's children, and no matrices attached to unknown or leaf nodes.
    """
    _check_tree(_nodes_by_id(h.root), h.matrices)
    return h


def _check_tree(
    by_id: Mapping[str, Node], matrices: Mapping[str, ComparisonMatrix]
) -> None:
    """validate's checks, given the tree's nodes by id from _nodes_by_id."""
    for parent_id, m in matrices.items():
        node = by_id.get(parent_id)
        if node is None:
            raise ValidationError(f"matrix attached to unknown node {parent_id!r}")
        if node.is_leaf:
            raise ValidationError(f"matrix attached to leaf node {parent_id!r}")
        if m.parent != parent_id:
            raise ValidationError(
                f"matrix keyed {parent_id!r} declares parent {m.parent!r}"
            )
        child_ids = {c.id for c in node.children}
        if set(m.items) != child_ids:
            raise ValidationError(
                f"matrix {parent_id!r} must compare exactly the children of "
                f"{parent_id!r}: expected {sorted(child_ids)}, got {sorted(m.items)}"
            )
    for n in by_id.values():
        if len(n.children) >= 2 and n.id not in matrices:
            raise ValidationError(
                f"internal node {n.id!r} has {len(n.children)} children but no "
                "comparison matrix"
            )
