"""Command-line interface: subcommands, exit codes, and output files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fahp
from fahp import bundled_study_path
from fahp.cli import main
from fahp.hierarchy import JUDGMENT_RANGE

FIXTURES = Path(__file__).parent / "fixtures"


def _write_delphi_csv(path, ratings):
    lines = ["item,expert,rating"]
    for item, row in zip(ratings.items, ratings.ratings):
        for expert, grade in zip(ratings.experts, row):
            lines.append(f"{item},{expert},{grade}")
    path.write_text("\n".join(lines) + "\n")


def _tiny_study(tmp_path, matrices=None, name="tiny"):
    doc = {
        "name": name,
        "hierarchy": {"id": "goal", "children": [{"id": "a"}, {"id": "b"}]},
        "matrices": matrices
        or {"goal": [{"row": "b", "col": "a", "judgment": [2, 3, 4]}]},
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps(doc))
    return path


def test_solve_bundled_study(capsys):
    rc = main(["solve", str(bundled_study_path())])
    out = capsys.readouterr().out
    assert rc == 0
    assert "goal" in out
    assert "W32" in out


def test_solve_writes_results_document(tmp_path):
    out = tmp_path / "res.json"
    rc = main(["solve", str(bundled_study_path()), "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert set(data["blocks"]) == {"goal", "W1", "W2", "W3"}
    leaves = [row["leaf"] for row in data["ranking"]]
    assert len(leaves) == 10


def test_solve_no_timestamp_is_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["solve", str(bundled_study_path()), "--no-timestamp", "--out", str(a)]) == 0
    assert main(["solve", str(bundled_study_path()), "--no-timestamp", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_missing_file_exits_2(tmp_path, capsys):
    rc = main(["solve", str(tmp_path / "ghost.json")])
    assert rc == 2
    assert capsys.readouterr().err != ""


def test_solve_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad)]) == 2


def test_solve_unknown_key_exits_2(tmp_path):
    path = tmp_path / "study.json"
    path.write_text(json.dumps({"name": "x", "hierarchy": {"id": "g"}, "wat": 1}))
    assert main(["solve", str(path)]) == 2


@pytest.mark.parametrize(
    "judgment, solver, named",
    [
        ({"row": "b", "col": "a", "judgment": [1, 2, float("inf")]}, None, "judgment 1"),
        ({"row": ["b"], "col": "a", "judgment": [2, 3, 4]}, None, "'row'"),
        ({"row": "b", "col": 7, "judgment": [2, 3, 4]}, None, "'col'"),
        (None, {"lambda_cap": float("inf")}, "lambda_cap"),
        (None, {"weight_floor": float("nan")}, "weight_floor"),
        (None, {"lambda_lo": -10}, "lambda_lo"),
        (None, {"bisection_tol": 1e-6}, "bisection_tol"),
        (None, {"lambda_cap": 1e15}, "lambda_cap"),
        # components outside JUDGMENT_RANGE; these exited 1 on round-off
        ({"row": "b", "col": "a", "judgment": [1e9, 1e10, 1e11]}, None, "(b, a) has u"),
        ({"row": "b", "col": "a", "judgment": [1e10, 1e10, 1e10]}, None, "(b, a) has u"),
        ({"row": "b", "col": "a", "judgment": [1e-12, 1e-11, 1e-10]}, None, "(b, a) has l"),
        ({"row": "b", "col": "a", "judgment": [5e-5, 3, 4]}, None, "(b, a) has l"),
    ],
)
def test_solve_bad_field_exits_2_naming_it(tmp_path, capsys, judgment, solver, named):
    matrices = {"goal": [judgment]} if judgment else None
    path = _tiny_study(tmp_path, matrices=matrices)
    if solver:
        doc = json.loads(path.read_text())
        doc["solver"] = solver
        path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 2
    assert named in capsys.readouterr().err


def test_no_judgment_in_range_exits_1(tmp_path, capsys):
    # The goal's first judgment of the bundled study, replaced by crisp,
    # hard-sided, narrow and wide judgments at magnitudes across
    # JUDGMENT_RANGE, in both orientations. Below it, judgments at 1e-6 to
    # 1e-5 exited 1 on round-off (in W1 as well as in the goal).
    lo, hi = JUDGMENT_RANGE
    doc = json.loads(bundled_study_path().read_text())
    path = tmp_path / "study.json"
    shapes = [(1, 1, 1), (1, 1, 1.5), (1 / 1.5, 1, 1), (1, 1.01, 1.02), (0.5, 1, 2)]
    solved = 0
    for k in np.arange(np.log10(lo), np.log10(hi) + 0.01, 0.5):
        for shape in shapes:
            value = [10.0**k * f for f in shape]
            for judgment in (value, [1 / v for v in reversed(value)]):
                if not lo <= min(judgment) <= max(judgment) <= hi:
                    continue
                doc["matrices"]["goal"][0]["judgment"] = judgment
                path.write_text(json.dumps(doc))
                assert main(["solve", str(path)]) in (0, 3), judgment
                capsys.readouterr()
                solved += 1
    assert solved >= 120


def test_solve_has_no_tolerance_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(_tiny_study(tmp_path)), "--tol", "1e-6"])
    assert exc.value.code == 2


def test_solve_conflicting_crisp_judgments_exit_3(tmp_path, capsys):
    path = _tiny_study(
        tmp_path,
        matrices={
            "goal": [
                {"row": "b", "col": "a", "judgment": [2, 2, 2]},
                {"row": "c", "col": "b", "judgment": [2, 2, 2]},
                {"row": "a", "col": "c", "judgment": [2, 2, 2]},
            ]
        },
    )
    doc = json.loads(path.read_text())
    doc["hierarchy"]["children"].append({"id": "c"})
    path.write_text(json.dumps(doc))
    rc = main(["solve", str(path)])
    assert rc == 3
    assert "b" in capsys.readouterr().err


def test_oracle_small_study_within_tolerance(tmp_path, capsys):
    path = _tiny_study(tmp_path)
    rc = main(["oracle", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[ok]" in out


def test_oracle_flags_breach_on_bundled_study(capsys):
    # the strongly inconsistent blocks sit beyond what a step-0.01 grid can
    # certify, so the comparison honestly reports a tolerance breach
    rc = main(["oracle", str(bundled_study_path())])
    out = capsys.readouterr().out
    assert rc == 4
    assert "BREACH" in out


def test_oracle_rejects_large_blocks(tmp_path, capsys):
    doc = {
        "name": "big",
        "hierarchy": {
            "id": "goal",
            "children": [{"id": c} for c in "abcde"],
        },
        "matrices": {
            "goal": [
                {"row": "b", "col": "a", "judgment": [1, 2, 3]},
                {"row": "c", "col": "b", "judgment": [1, 2, 3]},
                {"row": "d", "col": "c", "judgment": [1, 2, 3]},
                {"row": "e", "col": "d", "judgment": [1, 2, 3]},
            ]
        },
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    rc = main(["oracle", str(path)])
    assert rc == 2
    assert capsys.readouterr().err != ""


def test_oracle_checks_block_sizes_before_solving(capsys):
    # the goal block's crisp judgments contradict each other, and solving it
    # would exit 3; the five-item block below it is refused first
    path = FIXTURES / "oracle_oversized_after_infeasible.json"
    rc = main(["oracle", str(path)])
    assert rc == 2
    assert "block 'A' has 5 items" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["solve", str(bundled_study_path()), "--no-timestamp"], "solve.txt"),
        (["reproduce-paper"], "reproduce.txt"),
    ],
)
def test_bundled_study_text_matches_golden(argv, golden, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (FIXTURES / "golden" / golden).read_bytes()


def test_reproduce_paper_blocks_equal_solve_blocks(tmp_path):
    solved, reproduced = tmp_path / "solve.json", tmp_path / "reproduce.json"
    assert main(["solve", str(bundled_study_path()), "--out", str(solved)]) == 0
    assert main(["reproduce-paper", "--out", str(reproduced)]) == 0
    want = json.loads(solved.read_text())["blocks"]
    got = json.loads(reproduced.read_text())["blocks"]
    assert list(got) == list(want)
    for block, res in want.items():
        assert got[block]["lambda"] == res["lambda"], block
        assert got[block]["weights"] == res["weights"], block


def test_cli_import_leaves_reproduce_unloaded():
    src = Path(fahp.__file__).resolve().parents[1]
    code = "import fahp.cli, sys; print('fahp.reproduce' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    assert proc.stdout.strip() == "False"


def test_reproduce_paper_runs(capsys):
    rc = main(["reproduce-paper"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "published" in out
    assert "identity check" in out
    assert "ok" in out


def test_reproduce_paper_writes_json(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["reproduce-paper", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert len(data["global_rows"]) == 10
    assert len(data["lambda_rows"]) == 4
    assert data["identity"]["ok"] is True
    assert data["identity"]["max_delta"] <= data["identity"]["tolerance"]


def test_delphi_single_round(tmp_path, capsys, delphi_rounds):
    round1, _, first, _ = delphi_rounds
    csv = tmp_path / "r1.csv"
    _write_delphi_csv(csv, round1)
    rc = main(["delphi", str(csv)])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"{len(first)} accepted" in out


def test_delphi_two_rounds(tmp_path, capsys, delphi_rounds):
    round1, round2, first, second = delphi_rounds
    c1 = tmp_path / "r1.csv"
    c2 = tmp_path / "r2.csv"
    _write_delphi_csv(c1, round1)
    _write_delphi_csv(c2, round2)
    rc = main(["delphi", str(c1), str(c2), "--rounds", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"accepted overall ({len(first | second)})" in out


def test_delphi_rounds_flag_mismatch(tmp_path, capsys, delphi_rounds):
    round1, _, _, _ = delphi_rounds
    csv = tmp_path / "r1.csv"
    _write_delphi_csv(csv, round1)
    rc = main(["delphi", str(csv), "--rounds", "2"])
    assert rc == 2


def test_delphi_bad_header_exits_2(tmp_path, capsys):
    csv = tmp_path / "r.csv"
    csv.write_text("item,rater,grade\na,e1,4\n")
    rc = main(["delphi", str(csv)])
    assert rc == 2
    assert "header" in capsys.readouterr().err


def test_delphi_duplicate_cell_exits_2(tmp_path, capsys):
    csv = tmp_path / "r.csv"
    csv.write_text("item,expert,rating\na,e1,4\na,e1,3\n")
    rc = main(["delphi", str(csv)])
    assert rc == 2


def test_delphi_missing_cell_exits_2(tmp_path):
    csv = tmp_path / "r.csv"
    csv.write_text("item,expert,rating\na,e1,4\na,e2,3\nb,e1,2\n")
    rc = main(["delphi", str(csv)])
    assert rc == 2


def test_alpha_happy_path(tmp_path, capsys):
    csv = tmp_path / "resp.csv"
    csv.write_text("q0,q1,q2\n1,2,3\n2,4,6\n3,6,9\n4,8,12\n")
    rc = main(["alpha", str(csv)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "alpha = 0.916667" in out


def test_alpha_zero_total_variance_exits_3(tmp_path, capsys):
    csv = tmp_path / "resp.csv"
    csv.write_text("q0,q1\n3,3\n2,4\n4,2\n")
    rc = main(["alpha", str(csv)])
    assert rc == 3
    assert capsys.readouterr().err != ""


def test_alpha_ragged_rows_exit_2(tmp_path):
    csv = tmp_path / "resp.csv"
    csv.write_text("q0,q1,q2\n1,2,3\n4,5\n")
    assert main(["alpha", str(csv)]) == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
