"""The inputs of each workload, made from the run seed.

A pass is the fixed list of operations a run repeats. Its shape (block
sizes, study shapes, command order) never depends on the seed; the seed
only picks which pool entries fill it. So the counts of LP calls, probes
and oracle points per pass are the same for every seed, and only the
judgment values differ.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import gen

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper_cli", "blocks_large", "studies_small")

#: blocks_large: blocks of each size per pass.
LARGE_PER_SIZE = 16

#: studies_small: one study per entry, as (leaves under each category,
#: exactly consistent). The goal block compares the categories.
STUDY_SHAPES = (
    ((2, 3, 4), False),
    ((3, 2, 4, 2), False),
    ((4, 3, 2, 3, 2), False),
    ((2, 2, 3), True),
    ((3, 4, 3), False),
    ((2, 4, 2, 3), False),
    ((4, 2, 3, 2, 4), False),
    ((3, 3, 2, 4), True),
    ((2, 3, 2), False),
    ((4, 4, 3), False),
    ((3, 2, 2, 3, 4), False),
    ((2, 3, 4, 2, 3), True),
)
STUDY_CYCLES = 2

#: paper_cli: leaves under each category of the seeded oracle study.
ORACLE_SHAPE = (2, 3, 4)


def known_faults() -> dict[str, dict[str, str]]:
    """Pool entries the program fails on, by "kind/n", then index -> reason.

    The file is frozen benchmark data (see screen.py): the entries a seed
    draws depend on it."""
    return json.loads((HERE / "known_faults.json").read_text())["excluded"]


def fault_blocks() -> list[dict]:
    """The fault reproducers: one excluded pool entry per kind of fault,
    saved as a study document under reproducers/. They do not depend on the
    seed and run in every pass of blocks_large."""
    out = []
    for path in sorted((HERE / "reproducers").glob("*.json")):
        doc = json.loads(path.read_text())
        out.append(
            {
                "items": [c["id"] for c in doc["hierarchy"]["children"]],
                "judgments": [
                    [j["row"], j["col"], *j["judgment"]] for j in doc["matrices"]["goal"]
                ],
                "latent": None,
                "consistent": False,
                "pool": f"reproducers/{path.name}",
            }
        )
    return out


class Picker:
    """Draws distinct pool entries that the program does not fail on."""

    def __init__(self, seed: int, workload: str) -> None:
        self.rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        self.excluded = known_faults()
        self.used: set[tuple[str, int, int]] = set()

    def __call__(self, kind: str, n: int, prefix: str = "x") -> dict:
        _, count, _ = gen.POOLS[kind]
        skip = self.excluded.get(f"{kind}/{n}", {})
        valid = [
            i
            for i in range(count)
            if str(i) not in skip and (kind, n, i) not in self.used
        ]
        index = int(self.rng.choice(valid))
        self.used.add((kind, n, index))
        return gen.pool_block(kind, n, index, prefix)


def fault_ops(workload: str) -> set[str]:
    """Names of the operations that run a fault reproducer."""
    if workload != "blocks_large":
        return set()
    seeded = LARGE_PER_SIZE * len(gen.POOLS["large"][0])
    return {f"block{seeded + k:02d}" for k in range(len(fault_blocks()))}


def large_blocks(seed: int) -> list[dict]:
    """blocks_large pass: seeded complete blocks of 6..10 items, then the
    fault reproducers."""
    pick = Picker(seed, "blocks_large")
    sizes = gen.POOLS["large"][0]
    blocks = [pick("large", n) for _ in range(LARGE_PER_SIZE) for n in sizes]
    return blocks + fault_blocks()


def _study(name: str, leaves: tuple[int, ...], consistent: bool, pick) -> dict:
    cats = [f"C{i + 1}" for i in range(len(leaves))]

    def block(n: int, names: list[str]) -> dict:
        if consistent and n > 2:
            return gen.relabel(pick("consistent", n), names)
        return gen.relabel(pick("small", n), names)

    blocks = {"goal": block(len(cats), cats)}
    for cat, k in zip(cats, leaves):
        blocks[cat] = block(k, [f"{cat}L{j + 1}" for j in range(k)])
    return {"name": name, "categories": cats, "blocks": blocks}


def small_studies(seed: int) -> list[dict]:
    pick = Picker(seed, "studies_small")
    return [
        _study(f"study {c * len(STUDY_SHAPES) + i + 1}", leaves, consistent, pick)
        for c in range(STUDY_CYCLES)
        for i, (leaves, consistent) in enumerate(STUDY_SHAPES)
    ]


def oracle_study(seed: int) -> dict:
    pick = Picker(seed, "paper_cli")
    cats = [f"C{i + 1}" for i in range(len(ORACLE_SHAPE))]
    blocks = {"goal": gen.relabel(pick("oracle", len(cats)), cats)}
    for cat, k in zip(cats, ORACLE_SHAPE):
        names = [f"{cat}L{j + 1}" for j in range(k)]
        blocks[cat] = gen.relabel(pick("oracle", k), names)
    return {"name": "seeded oracle study", "categories": cats, "blocks": blocks}


def study_document(study: dict) -> str:
    """The study in the program's JSON study format."""

    def node(node_id: str) -> dict:
        block = study["blocks"].get(node_id)
        if block is None:
            return {"id": node_id}
        return {"id": node_id, "children": [node(it) for it in block["items"]]}

    doc = {
        "name": study["name"],
        "hierarchy": node("goal"),
        "matrices": {
            parent: [
                {"row": r, "col": c, "judgment": [l, m, u]}
                for r, c, l, m, u in block["judgments"]
            ]
            for parent, block in study["blocks"].items()
        },
    }
    return json.dumps(doc, indent=1) + "\n"
