"""Command-line interface: subcommands, exit codes, and output files."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fahp
from fahp import bundled_study_path
from fahp.cli import main
from fahp.hierarchy import JUDGMENT_RANGE, MIN_SPREAD

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
        # retired: rejected as an unknown key
        (None, {"weight_floor": 1e-6}, "weight_floor"),
        (None, {"lambda_lo": -10}, "lambda_lo"),
        (None, {"bisection_tol": 1e-6}, "bisection_tol"),
        (None, {"lambda_cap": 1e15}, "lambda_cap"),
        # components outside JUDGMENT_RANGE; these exited 1 on round-off
        ({"row": "b", "col": "a", "judgment": [1e9, 1e10, 1e11]}, None, "(b, a) has u"),
        ({"row": "b", "col": "a", "judgment": [1e10, 1e10, 1e10]}, None, "(b, a) has u"),
        ({"row": "b", "col": "a", "judgment": [1e-12, 1e-11, 1e-10]}, None, "(b, a) has l"),
        ({"row": "b", "col": "a", "judgment": [5e-5, 3, 4]}, None, "(b, a) has l"),
        # negative caps clamped blocks at a negative lambda, or exited 1 on round-off
        (None, {"lambda_cap": -0.5}, "lambda_cap"),
        (None, {"lambda_cap": -1e300}, "lambda_cap"),
        # nonzero side spreads below MIN_SPREAD * m (see the next test)
        ({"row": "b", "col": "a", "judgment": [2, 2.000000002, 3]}, None,
         "(b, a) has l = 2.0, within"),
        ({"row": "b", "col": "a", "judgment": [2, 3, 3.0001]}, None,
         "(b, a) has u = 3.0001, within"),
        ({"row": "a", "col": "b", "judgment": [0.5, 0.500000001, 1]}, None,
         "use l = m for a hard bound"),
        ({"row": "b", "col": "a", "judgment": [2, 3, 3.002]}, None,
         "(b, a) has u = 3.002, within 0.001 * m"),
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


def test_narrow_spread_study_exits_2(tmp_path, capsys):
    # Sides this narrow exited 1: "internal error: simplex round-off: the
    # solution violates its constraints".
    doc = {
        "name": "narrow",
        "hierarchy": {"id": "goal", "children": [{"id": x} for x in "abc"]},
        "matrices": {"goal": [
            {"row": "a", "col": "b", "judgment": [2, 2.000000002, 3]},
            {"row": "b", "col": "c", "judgment": [2, 2.000000002, 3]},
            {"row": "a", "col": "c", "judgment": [0.5, 0.500000001, 1]},
        ]},
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 2
    assert "judgment (a, b) has l = 2.0" in capsys.readouterr().err


_DROP = object()


def _mutated(doc, keys, value):
    """doc with the value at the end of keys replaced (or dropped, or added)."""
    if not keys:
        return value
    target = doc
    for key in keys[:-1]:
        target = target[key]
    if value is _DROP:
        del target[keys[-1]]
    else:
        target[keys[-1]] = value
    return doc


_CHILD = ("hierarchy", "children", 0)
_JUDGMENT = ("matrices", "goal", 0, "judgment")


@pytest.mark.parametrize(
    "keys, value, named",
    [
        pytest.param((), [1], "top level must be an object", id="top-level"),
        pytest.param(("name",), _DROP, "'name'", id="name-missing"),
        pytest.param(("name",), "", "name must be a non-empty", id="name-empty"),
        pytest.param(("hierarchy",), _DROP, "'hierarchy'", id="hierarchy-missing"),
        pytest.param(_CHILD, "a", "node must be an object", id="node-not-object"),
        pytest.param(_CHILD + ("id",), _DROP, "'id'", id="node-id-missing"),
        pytest.param(_CHILD + ("id",), 5, "node id", id="node-id-number"),
        pytest.param(_CHILD + ("label",), 3, "node label", id="node-label"),
        pytest.param(_CHILD + ("colour",), "red", "colour", id="node-unknown-key"),
        pytest.param(
            ("hierarchy", "children"), {"a": {}}, "children must be a list",
            id="children-not-list",
        ),
        pytest.param(("matrices",), _DROP, "'matrices'", id="matrices-missing"),
        pytest.param(("matrices",), [], "matrices must be an object", id="matrices"),
        pytest.param(("matrices", "zzz"), [], "'zzz'", id="matrix-unknown-node"),
        pytest.param(
            ("matrices", "a"), [{"row": "b", "col": "a", "judgment": [2, 3, 4]}],
            "matrix attached to leaf node 'a'", id="matrix-leaf-node",
        ),
        # node ids are checked before any block is built from them
        pytest.param(
            ("hierarchy", "children", 1, "id"), "a",
            "duplicate node ids in hierarchy: a", id="child-id-repeated",
        ),
        pytest.param(
            ("matrices", "goal"), {}, "matrix 'goal': must be a list",
            id="matrix-not-list",
        ),
        pytest.param(
            ("matrices", "goal", 0), "b>a", "judgment 1: must be an object",
            id="judgment-not-object",
        ),
        pytest.param(_JUDGMENT, _DROP, "'judgment'", id="judgment-missing"),
        pytest.param(_JUDGMENT, [2, 3], "[l, m, u]", id="judgment-length"),
        pytest.param(
            _JUDGMENT, ["two", 3, 4], "judgment 1: could not convert",
            id="judgment-not-number",
        ),
        pytest.param(
            _JUDGMENT, [True, 2, 3], "judgment 1: could not convert True",
            id="judgment-bool",
        ),
        pytest.param(
            _JUDGMENT, ["1", "2", "3"], "judgment 1: could not convert '1'",
            id="judgment-numeric-strings",
        ),
        pytest.param(_JUDGMENT, "high", "judgment must be", id="judgment-string"),
        pytest.param(
            _JUDGMENT, {"term": "high", "note": 1}, "note", id="term-unknown-key"
        ),
        pytest.param(_JUDGMENT, {}, "'term'", id="term-missing"),
        pytest.param(
            _JUDGMENT, {"term": "hgih"},
            "matrix 'goal', judgment 1: unknown linguistic term 'hgih'; valid terms: ",
            id="term-unknown",
        ),
        pytest.param(
            _JUDGMENT, {"term": 5}, "matrix 'goal', judgment 1: term must be a string",
            id="term-number",
        ),
        pytest.param(
            _JUDGMENT, {"term": ["high"]},
            "matrix 'goal', judgment 1: term must be a string", id="term-list",
        ),
        pytest.param(("scale",), [], "scale must be", id="scale-not-object"),
        pytest.param(
            ("scale",), {"meh": [1, 2]}, "scale term 'meh'", id="scale-term-length"
        ),
        pytest.param(
            ("scale",), {"meh": ["one", 2, 3]}, "scale term 'meh'",
            id="scale-term-not-number",
        ),
        pytest.param(
            ("scale",), {"meh": [1, 2, False]}, "scale term 'meh'",
            id="scale-term-bool",
        ),
        pytest.param(
            ("scale",), {"meh": [2, 3, 4], "wow": [1, 2, 3]},
            "scale: linguistic scale modes", id="scale-modes",
        ),
        pytest.param(
            ("solver",), [], "solver settings must be an object", id="solver"
        ),
        pytest.param(
            ("solver",), {"lambda_cap": "1"}, "solver setting 'lambda_cap'",
            id="solver-not-number",
        ),
        pytest.param(
            ("solver",), {"lambda_cap": 10**400}, "solver settings: ",
            id="solver-too-large",
        ),
    ],
)
def test_malformed_study_exits_2_naming_the_key(tmp_path, capsys, keys, value, named):
    path = _tiny_study(tmp_path)
    path.write_text(json.dumps(_mutated(json.loads(path.read_text()), keys, value)))
    assert main(["solve", str(path)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "keys, named",
    [
        pytest.param(("name",), "name 's\\ud800' holds a lone surrogate", id="name"),
        pytest.param(
            _CHILD + ("id",), "node id 's\\ud800' holds a lone surrogate", id="node-id"
        ),
        pytest.param(
            _CHILD + ("label",),
            "label of node 'a' 's\\ud800' holds a lone surrogate", id="label",
        ),
    ],
)
def test_lone_surrogate_exits_2_before_writing(tmp_path, capsys, keys, named):
    # json reads "s\ud800" as a string that UTF-8 cannot encode; the results
    # file was left empty, or (for a label) written before the table failed
    path = _tiny_study(tmp_path)
    doc = _mutated(json.loads(path.read_text()), keys, "s\ud800")
    if keys[-1] == "id":
        doc["matrices"]["goal"][0]["col"] = "s\ud800"
    path.write_text(json.dumps(doc))
    assert "\\ud800" in path.read_text()
    out = tmp_path / "results.json"
    assert main(["solve", str(path), "--out", str(out)]) == 2
    assert f"error: {path}: {named}" in capsys.readouterr().err
    assert not out.exists()


_GOAL = '[{"row": "b", "col": "a", "judgment": [2, 3, 4]}]'
_CHILDREN = '"hierarchy": {"id": "goal", "children": [{"id": "a"}, {"id": "b"}]}'


@pytest.mark.parametrize(
    "text, named",
    [
        pytest.param(
            '{"name": "x", "name": "y", ' + _CHILDREN + ', "matrices": {"goal": '
            + _GOAL + "}}",
            "duplicate key 'name' in the object with keys 'name', 'hierarchy'",
            id="name",
        ),
        pytest.param(
            '{"name": "x", ' + _CHILDREN + ', "matrices": {"goal": ' + _GOAL
            + ', "goal": [{"row": "a", "col": "b", "judgment": [1, 2, 3]}]}}',
            "duplicate key 'goal' in the object with keys 'goal'",
            id="goal",
        ),
        pytest.param(
            '{"name": "x", ' + _CHILDREN + ', "matrices": {"goal": [{"row": "b", '
            '"col": "a", "judgment": [2, 3, 4], "judgment": [1, 2, 3]}]}}',
            "duplicate key 'judgment' in the object with keys 'row', 'col', "
            "'judgment'",
            id="judgment",
        ),
    ],
)
def test_duplicate_key_exits_2_naming_it(tmp_path, capsys, text, named):
    # json keeps the last of a repeated key; a study must not lose the others
    path = tmp_path / "study.json"
    path.write_text(text)
    assert main(["solve", str(path)]) == 2
    assert f"{path}: {named}" in capsys.readouterr().err


def _long_field_csv(path):
    path.write_text("item,expert,rating\n" + "x" * 200_000 + ",e1,4\n")


def _deep_json(path):
    path.write_text("[" * 100_000)


def _latin1(path):
    path.write_bytes(b"item,expert,rating\n\xff,e1,4\n")


@pytest.mark.parametrize(
    "command, write",
    [
        ("delphi", _long_field_csv),
        ("alpha", _long_field_csv),
        ("solve", _deep_json),
        ("solve", _latin1),
        ("delphi", _latin1),
        ("alpha", _latin1),
    ],
)
def test_unreadable_file_exits_2_naming_it(tmp_path, capsys, command, write):
    path = tmp_path / "input.file"
    write(path)
    assert main([command, str(path)]) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, target",
    [
        (["solve", str(bundled_study_path())], "missing/results.json"),
        (["solve", str(bundled_study_path())], "."),
        (["reproduce-paper"], "missing/report.json"),
        (["reproduce-paper"], "."),
    ],
)
def test_unwritable_out_exits_2_naming_it(tmp_path, capsys, argv, target):
    # a missing directory, or a directory where the file should be
    path = tmp_path / target
    assert main([*argv, "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and str(path) in err


CLI_ENTRY = "import sys; from fahp.cli import main; sys.exit(main())"


def _in_process(argv, capsys):
    """main(argv) in this process: (exit code, stdout, stderr)."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors and --version
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_repeated_main_calls_match_separate_processes(monkeypatch, capsys):
    # The parser is built once per process. A usage error, --version and a
    # solve, called one after another in one process and then again, must
    # each give what the same command gives in a process of its own.
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    monkeypatch.setenv("PYTHONIOENCODING", "utf-8")
    src = Path(fahp.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    commands = [
        ["solve"],
        ["--version"],
        ["solve", str(bundled_study_path()), "--no-timestamp"],
    ]
    separate = []
    for argv in commands:
        proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv],
                              capture_output=True, env=env)
        separate.append((proc.returncode, proc.stdout.decode(), proc.stderr.decode()))
    assert [code for code, _, _ in separate] == [2, 0, 0]
    for _ in range(2):
        for argv, expected in zip(commands, separate):
            assert _in_process(argv, capsys) == expected, argv


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


_BUNDLED_RUNS = [
    (["solve", str(bundled_study_path()), "--no-timestamp"], "solve.txt"),
    (["reproduce-paper"], "reproduce.txt"),
    (["oracle", str(bundled_study_path())], "oracle.txt"),
]
_BUNDLED_IDS = ["solve", "reproduce-paper", "oracle"]
# exit 4: two bundled blocks breach the oracle's lambda tolerance
_EXIT = {"oracle.txt": 4}


@pytest.mark.parametrize("argv, golden", _BUNDLED_RUNS)
def test_bundled_study_text_matches_golden(argv, golden, capsys):
    assert main(argv) == _EXIT.get(golden, 0)
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (FIXTURES / "golden" / golden).read_bytes()


def test_bundled_results_document_matches_golden(tmp_path):
    out = tmp_path / "results.json"
    argv = ["solve", str(bundled_study_path()), "--no-timestamp", "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (FIXTURES / "golden" / "solve_results.json").read_bytes()


@pytest.mark.parametrize("argv, golden", _BUNDLED_RUNS)
def test_bundled_study_checks_each_block_once(argv, golden, monkeypatch):
    # the block checks run when a ComparisonMatrix is built and nowhere else
    checked = []
    original = fahp.hierarchy.validate_matrix

    def counting(m):
        checked.append(m.parent)
        return original(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("fahp") and getattr(module, "validate_matrix", None) is original:
            monkeypatch.setattr(module, "validate_matrix", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == _EXIT.get(golden, 0)
    assert sorted(checked) == ["W1", "W2", "W3", "goal"]


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


# Runs a command as the installed `fahp` script does, then reports which of
# the modules that no bundled run needs were loaded by the time it exits,
# and checks that every public name of the package still resolves.
_LOADED_AT_EXIT = (
    "import sys; from fahp.cli import main; code = main(sys.argv[1:]); "
    "print(sorted(set(sys.modules) & {unneeded!r}), file=sys.stderr); "
    "import fahp; [getattr(fahp, name) for name in fahp.__all__]; "
    "print(fahp.cronbach_alpha.__module__, file=sys.stderr); sys.exit(code)"
)
# numpy, because the solver, grid oracle, documents and report are plain
# Python (numpy is imported only by feasible_at and weight_vector);
# dataclasses and inspect, because the package's records are its own
# (fahp._record); importlib.resources, because the bundled study is found
# next to the package's files; fahp.survey, because only delphi and alpha
# use it.
_UNNEEDED = {"numpy", "dataclasses", "inspect", "importlib.resources", "fahp.survey"}


@pytest.mark.parametrize("argv, golden", _BUNDLED_RUNS, ids=_BUNDLED_IDS)
def test_bundled_runs_load_only_what_they_use(argv, golden):
    # -S keeps site hooks (a .pth file can import importlib.resources) out
    # of the child, so what it reports is what fahp itself loaded
    src = Path(fahp.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _LOADED_AT_EXIT.format(unneeded=_UNNEEDED), *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == _EXIT.get(golden, 0), proc.stderr
    assert proc.stderr.strip().splitlines()[-2:] == ["[]", "fahp.survey"]


# Runs a command as the installed `fahp` script does, with numpy made
# unimportable.
_WITHOUT_NUMPY = (
    "import sys; sys.modules['numpy'] = None; from fahp.cli import main; "
    "sys.exit(main(sys.argv[1:]))"
)


@pytest.mark.parametrize("argv, golden", _BUNDLED_RUNS, ids=_BUNDLED_IDS)
def test_bundled_study_runs_without_numpy(argv, golden):
    src = Path(fahp.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONIOENCODING": "utf-8"},
    )
    assert proc.returncode == _EXIT.get(golden, 0), proc.stderr
    assert proc.stdout == (FIXTURES / "golden" / golden).read_bytes()


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


_BUNDLED = json.loads(bundled_study_path().read_text())


@st.composite
def _judgments(draw, mode):
    """A judgment in place of one of mode `mode`: mostly within a decade of
    it, sometimes anywhere across JUDGMENT_RANGE and a decade beyond it on
    each end, with each side hard, at or below MIN_SPREAD * m, or wide; or
    a crisp one."""
    lo, hi = JUDGMENT_RANGE
    if draw(st.integers(0, 3)) == 0:
        m = 10.0 ** draw(st.floats(np.log10(lo) - 1.0, np.log10(hi) + 1.0))
    else:
        m = mode * 10.0 ** draw(st.floats(-1.0, 1.0))
    if draw(st.integers(0, 4)) == 0:
        return [m, m, m]
    spread = st.sampled_from([0.0, 0.0, MIN_SPREAD, 0.5 * MIN_SPREAD]) | st.floats(0.01, 0.9)
    return [m - draw(spread) * m, m, m + draw(spread) * m]


@st.composite
def _mutated_studies(draw):
    """The bundled study with judgments replaced, solver settings added and
    keys removed, and the names that an error about each mutation may give:
    its matrix or its key."""
    doc, names = copy.deepcopy(_BUNDLED), []
    block = draw(st.sampled_from(sorted(doc["matrices"])))
    for _ in range(draw(st.integers(0, 4))):
        entry = draw(st.sampled_from(doc["matrices"][block]))
        entry["judgment"] = draw(_judgments(entry["judgment"][1]))
        names.append(f"matrix {block!r}")
    if draw(st.booleans()):
        doc["solver"] = {}
        if draw(st.booleans()):
            doc["solver"]["lambda_cap"] = draw(st.floats(0.0, 1.0))
        names.append("lambda_cap")
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        where = draw(st.sampled_from(["study", "matrices", "judgment"]))
        if where == "study":
            target = doc
        elif where == "matrices" and isinstance(doc.get("matrices"), dict):
            target = doc["matrices"]
        elif where == "judgment" and doc.get("matrices"):
            block = draw(st.sampled_from(sorted(doc["matrices"])))
            target = draw(st.sampled_from(doc["matrices"][block]))
        else:
            continue
        if target:
            key = draw(st.sampled_from(sorted(target)))
            del target[key]
            names.append(repr(key))
    return doc, names


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(_mutated_studies())
def test_mutated_studies_never_exit_1(case):
    # Any study the bundled one can be mutated into by out-of-range, narrow
    # or crisp judgments, solver settings in range or removed keys solves
    # (0), is refused as invalid input naming the matrix or the key (2), or
    # is refused as infeasible (3). Exit 1 is an internal error.
    doc, names = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "study.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["solve", str(path), "--no-timestamp"])
    assert rc in (0, 2, 3), err.getvalue()
    if rc == 2:
        assert any(name in err.getvalue() for name in names), (err.getvalue(), names)
