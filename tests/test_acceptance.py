"""Acceptance checks, one test per criterion, each printing a pass line.

Each test exercises one published acceptance bar at its stated tolerance
and runtime budget, end to end through the public API or the CLI.
"""

import math
import time

import numpy as np
import pytest

from fahp import (
    TFN,
    ComparisonJudgment,
    ComparisonMatrix,
    DelphiRatings,
    ItemResponses,
    bundled_study_path,
    casp_pass,
    CaspScore,
    compose_global,
    cronbach_alpha,
    delphi_round,
    feasible_at,
    lambda_at,
    membership,
    normalize,
    oracle_solve,
    rank,
    reciprocal,
    run_delphi,
    solve_fpp,
)
from fahp.cli import main
from fahp.documents import parse_results, serialize_results
from fahp.reproduce import (
    PUBLISHED_CATEGORY_WEIGHTS,
    PUBLISHED_GLOBAL_WEIGHTS,
    PUBLISHED_LOCAL_WEIGHTS,
    build_report,
)
from conftest import random_matrix
from test_solver_invariants import _highs_max_slack

EXPECTED_ORDER = ["W32", "W13", "W31", "W11", "W21", "W23", "W14", "W24", "W12", "W22"]


def _pass(num, detail):
    print(f"criterion {num}: PASS ({detail})")


def _mat(items, triples, parent="t"):
    js = tuple(ComparisonJudgment(r, c, TFN(*v)) for r, c, v in triples)
    return ComparisonMatrix(parent=parent, items=tuple(items), judgments=js)


def test_criterion_1_composition_identity():
    t0 = time.monotonic()
    leaf_locals = {
        category: PUBLISHED_LOCAL_WEIGHTS[category]
        for category in PUBLISHED_CATEGORY_WEIGHTS
    }
    ranking = compose_global(PUBLISHED_CATEGORY_WEIGHTS, leaf_locals)
    deltas = [
        abs(row.global_weight - PUBLISHED_GLOBAL_WEIGHTS[row.leaf])
        for row in ranking.rows
    ]
    order = [row.leaf for row in ranking.rows]
    elapsed = time.monotonic() - t0
    assert max(deltas) <= 5e-6
    assert order == EXPECTED_ORDER
    assert elapsed < 1.0
    _pass(1, f"max delta {max(deltas):.2e}, order exact, {elapsed:.3f}s")


def test_criterion_2_analytic_two_item_block():
    t0 = time.monotonic()
    res = solve_fpp(_mat("ab", [("b", "a", (2.5, 3.47, 4.25))]))
    elapsed = time.monotonic() - t0
    assert res.clamped and res.lambda_ == pytest.approx(1.0, abs=1e-6)
    assert res.weights["a"] == pytest.approx(0.22371, abs=1e-4)
    assert res.weights["b"] == pytest.approx(0.77629, abs=1e-4)
    assert res.weights["b"] / res.weights["a"] == pytest.approx(3.47, abs=1e-3)
    assert elapsed < 1.0
    _pass(2, f"lambda {res.lambda_:.6f} clamped, w ({res.weights['a']:.5f}, {res.weights['b']:.5f})")


def test_criterion_3_exact_consistency_recovery():
    m = _mat(
        "abc",
        [("b", "a", (1.5, 2, 2.5)), ("c", "a", (3, 4, 5)), ("c", "b", (1.6, 2, 2.4))],
    )
    res = solve_fpp(m)
    assert res.lambda_ == pytest.approx(1.0, abs=1e-6)
    assert res.weights["a"] == pytest.approx(1 / 7, abs=1e-4)
    assert res.weights["b"] == pytest.approx(2 / 7, abs=1e-4)
    assert res.weights["c"] == pytest.approx(4 / 7, abs=1e-4)
    _pass(3, f"lambda {res.lambda_:.6f}, w recovers (1/7, 2/7, 4/7)")


def test_criterion_4_oracle_equivalence():
    t0 = time.monotonic()
    gen = np.random.default_rng(20260822)
    worst_dl = worst_dw = 0.0
    checked = 0
    for n, count, step in ((2, 50, 0.005), (3, 50, 0.005), (4, 20, 0.01)):
        for _ in range(count):
            m = random_matrix(gen, n)
            f = solve_fpp(m)
            o = oracle_solve(m, step)
            dl = abs(f.lambda_ - o.lambda_)
            dw = max(abs(f.weights[i] - o.weights[i]) for i in m.items)
            assert dl <= 0.03, f"lambda delta {dl:.4f} at n={n}"
            assert dw <= 0.03, f"weight delta {dw:.4f} at n={n}"
            worst_dl = max(worst_dl, dl)
            worst_dw = max(worst_dw, dw)
            checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 120
    assert elapsed < 180.0
    _pass(4, f"120 instances, worst dl {worst_dl:.4f}, dw {worst_dw:.4f}, {elapsed:.1f}s")


def test_criterion_5_inconsistency_sign():
    m = _mat("abc", [("b", "a", (2, 3, 4)), ("c", "b", (2, 3, 4)), ("a", "c", (2, 3, 4))])
    f = solve_fpp(m)
    o = oracle_solve(m, 0.005)
    assert f.lambda_ < 0 and not f.consistent
    assert o.lambda_ < 0
    _pass(5, f"solver lambda {f.lambda_:.4f}, oracle {o.lambda_:.4f}, both negative")


def test_criterion_6_deviation_report():
    report = build_report()
    assert sorted(report.blocks) == ["W1", "W2", "W3", "goal"]
    for name, res in report.blocks.items():
        assert sum(res.weights.values()) == pytest.approx(1.0, abs=1e-9), name
    assert len(report.global_rows) == 10
    assert len(report.lambda_rows) == 4
    for row in report.global_rows + report.lambda_rows:
        assert row.delta == pytest.approx(abs(row.published - row.computed))
    assert main(["reproduce-paper"]) == 0
    _pass(6, "4 blocks solved, weight sums exact, 10 + 4 deviation rows emitted")


def test_criterion_7_invariant_suite(capsys):
    t0 = time.monotonic()
    gen = np.random.default_rng(20260822)

    # permutation equivariance
    for _ in range(10):
        n = int(gen.integers(2, 5))
        m = random_matrix(gen, n)
        perm = gen.permutation(n)
        relabel = {m.items[i]: m.items[perm[i]] for i in range(n)}
        pm = ComparisonMatrix(
            parent=m.parent,
            items=m.items,
            judgments=tuple(
                ComparisonJudgment(relabel[j.row], relabel[j.col], j.value)
                for j in m.judgments
            ),
        )
        a, b = solve_fpp(m), solve_fpp(pm)
        assert abs(a.lambda_ - b.lambda_) <= 1e-9
        for item in m.items:
            assert abs(b.weights[relabel[item]] - a.weights[item]) <= 1e-6

    # monotone feasibility in lambda, judged by HiGHS: feasible_at answers
    # from the solver's own search, so it would be monotone by construction
    for _ in range(5):
        m = random_matrix(gen, int(gen.integers(2, 4)))
        best = solve_fpp(m).lambda_
        # the drawn levels mostly lie below lambda*, so judge either side of
        # it too
        near = [lam for lam in (best - 1e-3, best + 1e-3) if lam <= 1.0]
        samples = sorted([float(v) for v in gen.uniform(-2.0, 1.0, size=10)] + near)
        flags = [_highs_max_slack(m, lam) >= 0.0 for lam in samples]
        # once infeasible, never feasible again at a higher lambda
        assert flags == sorted(flags, reverse=True)
        for lam, flag in zip(samples, flags):
            if abs(lam - best) > 1e-6:
                assert flag == (feasible_at(m, lam) is not None), (lam, best)

    # membership boundary values
    for _ in range(20):
        l = float(gen.uniform(0.2, 2.0))
        mm = l + float(gen.uniform(0.05, 2.0))
        u = mm + float(gen.uniform(0.05, 2.0))
        j = TFN(l, mm, u)
        assert membership(j, l) == pytest.approx(0.0, abs=1e-12)
        assert membership(j, mm) == pytest.approx(1.0, abs=1e-12)
        assert membership(j, u) == pytest.approx(0.0, abs=1e-12)
        back = reciprocal(reciprocal(j))
        assert max(abs(x - y) for x, y in zip(back.as_tuple(), j.as_tuple())) <= 1e-12

    # delphi threshold monotonicity
    for _ in range(10):
        rows = gen.integers(0, 5, size=(6, 5))
        r = DelphiRatings(
            items=tuple(f"i{k}" for k in range(6)),
            experts=tuple(f"e{k}" for k in range(5)),
            ratings=tuple(tuple(int(v) for v in row) for row in rows),
        )
        t1, t2 = sorted(gen.uniform(0.2, 1.0, size=2))
        acc1, _ = delphi_round(r, threshold=float(t1))
        acc2, _ = delphi_round(r, threshold=float(t2))
        assert acc2 <= acc1

    # normalize idempotence and rank scale invariance
    for _ in range(10):
        vals = {f"k{i}": float(v) for i, v in enumerate(gen.uniform(0.1, 5.0, size=6))}
        n1 = normalize(vals)
        n2 = normalize(n1)
        assert max(abs(n1[k] - n2[k]) for k in n1) <= 1e-12
        scaled = {k: v * 7.3 for k, v in vals.items()}
        assert rank(vals) == rank(scaled)

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _pass(7, f"equivariance, monotone feasibility, boundaries, involution, "
             f"delphi monotonicity, idempotence, rank invariance, {elapsed:.1f}s")


def test_criterion_8_survey_arithmetic(rng, delphi_rounds):
    boundary = DelphiRatings(
        items=("i0",), experts=("e1", "e2", "e3", "e4"), ratings=((4, 3, 3, 1),)
    )
    accepted, _ = delphi_round(boundary, threshold=0.75)
    assert accepted == frozenset({"i0"})

    assert casp_pass(CaspScore(paper="all-fours", criteria=(4,) * 10)) is False

    identical = ItemResponses(
        items=("q1", "q2", "q3"),
        rows=((3.0, 3.0, 3.0), (5.0, 5.0, 5.0), (2.0, 2.0, 2.0), (4.0, 4.0, 4.0)),
    )
    assert cronbach_alpha(identical) == pytest.approx(1.0, abs=1e-12)

    rows = rng.integers(1, 6, size=(5, 10)).astype(float)
    responses = ItemResponses(
        items=tuple(f"q{k}" for k in range(10)),
        rows=tuple(tuple(float(v) for v in row) for row in rows),
    )
    got = cronbach_alpha(responses)
    def var(xs):
        mean = sum(xs) / len(xs)
        return sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
    item_vars = [var([rows[i][j] for i in range(5)]) for j in range(10)]
    totals = [sum(rows[i]) for i in range(5)]
    expected = (10 / 9) * (1.0 - sum(item_vars) / var(totals))
    assert got == pytest.approx(expected, abs=1e-12)

    round1, round2, first, second = delphi_rounds
    overall = run_delphi([round1, round2])
    assert len(first) == 7 and len(second) == 3
    assert overall == first | second and len(overall) == 10

    _pass(8, f"boundary delphi accepted, strict CASP bar holds, alpha checks, "
             f"two rounds accept {len(overall)}")


def test_criterion_9_cli_golden(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    study = str(bundled_study_path())
    assert main(["solve", study, "--no-timestamp", "--out", str(a)]) == 0
    assert main(["solve", study, "--no-timestamp", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    doc = parse_results(text)
    assert serialize_results(doc) == text
    _pass(9, "byte-identical reruns, results document round-trips to a fixed point")
