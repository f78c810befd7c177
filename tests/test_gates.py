"""tests/gates.py --compare, on small outcome sets in place of the population."""

import collections
import copy
import json

import gates

OUTCOMES = {
    "sweep 11 0 a": {"lambda": 0.5, "weights": {"i0": 0.25, "i1": 0.75}},
    "sweep 11 0 b": {"lambda": 0.5, "weights": {"i0": 0.25, "i1": 0.75}},
    "contradictory 101 0": {"infeasible": [["i1", "i0"]]},
}
TOTALS = {"searches": 3, "stages": 2}
MOST = {"searches": [2, "sweep 11 0 a"], "stages": [1, "sweep 11 0 a"]}


def _compare(monkeypatch, tmp_path, capsys, theirs, totals=TOTALS):
    """gates.main's exit code and last lines with --compare against a run
    that has `theirs` as outcomes and `totals` as totals."""
    run = OUTCOMES, collections.Counter(TOTALS), MOST
    monkeypatch.setattr(gates, "run", lambda: copy.deepcopy(run))
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"totals": totals, "most": MOST, "outcomes": theirs}))
    code = gates.main(["--compare", str(other)])
    return code, capsys.readouterr().out.splitlines()[-2:]


def test_compare_passes_only_when_nothing_differs(monkeypatch, tmp_path, capsys):
    code, lines = _compare(monkeypatch, tmp_path, capsys, OUTCOMES)
    assert code == 0
    assert "0 outcomes differ" in lines[0]
    assert lines[1].startswith("searches +0, stages +0")


def test_compare_fails_on_any_difference(monkeypatch, tmp_path, capsys):
    key = "sweep 11 0 a"
    changes = {
        "lambda": lambda out: out[key].update({"lambda": 0.5 + 2**-53}),
        "weight": lambda out: out[key]["weights"].update({"i1": 0.75 + 2**-53}),
        "kind": lambda out: out.update({key: {"infeasible": [["i1", "i0"]]}}),
        "pairs": lambda out: out.update({"contradictory 101 0": {"infeasible": []}}),
        "missing": lambda out: out.pop(key),
    }
    for name, change in changes.items():
        theirs = copy.deepcopy(OUTCOMES)
        change(theirs)
        code, lines = _compare(monkeypatch, tmp_path, capsys, theirs)
        assert code == 1, name
        assert "1 outcomes differ" in lines[0], name
    for total in ("searches", "stages"):
        code, _ = _compare(monkeypatch, tmp_path, capsys, OUTCOMES, {**TOTALS, total: 4})
        assert code == 1, total


def test_expect_bounds_searches_and_pins_stages(monkeypatch, tmp_path, capsys):
    # Fewer searches than the committed total pass, as a faster search may
    # need fewer; the leximin stages must match it exactly either way.
    run = OUTCOMES, collections.Counter(TOTALS), MOST
    monkeypatch.setattr(gates, "run", lambda: copy.deepcopy(run))
    expected = {"solves": 3, "infeasible": 0, **TOTALS}
    for change, code in (({}, 0), ({"searches": 4}, 0), ({"searches": 2}, 1),
                         ({"stages": 3}, 1), ({"stages": 1}, 1)):
        path = tmp_path / "totals.json"
        path.write_text(json.dumps({**expected, **change}))
        assert gates.main(["--expect", str(path)]) == code, change
        capsys.readouterr()
