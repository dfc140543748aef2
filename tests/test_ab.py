import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def _result(wall, correct=True, failed=0):
    return {"correct": correct, "attempted": 3, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "peak_rss_mb": {"value": 30.0, "unit": "MB"},
                        "setup_s": {"value": 0.2, "unit": "s"}}}


def test_schedule_alternates_which_side_goes_first():
    assert ab.schedule(4) == [("parent", "change"), ("change", "parent"),
                              ("parent", "change"), ("change", "parent")]


def test_summary_gives_quartiles_and_lower_count_without_ties():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 3.5, 3.0, 4.0]  # lower in pairs 0, 3 and 4; pair 1 ties
    assert ab.summary("wall_s", parent, change) == (
        "  wall_s: parent 3 [2-4]  change 3 [2-3.5]  change lower in 3/5")


def test_last_json_reads_the_final_object_line():
    out = 'workload x\n{"correct": false}\n  not json\n{"correct": true}\n[1]\n'
    assert ab.last_json(out) == {"correct": True}
    assert ab.last_json("no result\n") is None


@pytest.mark.parametrize("result, ok", [
    (_result(1.0), True), (_result(1.0, correct=False), False),
    (_result(1.0, failed=1), False), (None, False)])
def test_run_ok(result, ok):
    assert ab.run_ok(result) is ok


def test_main_runs_each_pair_in_schedule_order(monkeypatch, capsys, tmp_path):
    calls = []

    def fake(tree, workload, seed):
        calls.append((tree, seed))
        return _result(2.0 if tree == "old" else 1.0 if seed < 9 else 3.0)
    monkeypatch.setattr(ab, "run_once", fake)
    assert ab.main(["old", "new", "--workload", "w", "--pairs", "3", "--seed", "7"]) == 0
    assert calls == [("old", 7), ("new", 7), ("new", 8), ("old", 8), ("old", 9), ("new", 9)]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "w: 3 pairs, seeds 7-9, every run correct with failed 0"
    assert lines[1] == "  wall_s: parent 2 [2-2]  change 1 [1-2]  change lower in 2/3"
    assert len(lines) == 4


def test_main_exits_one_on_a_failed_run(monkeypatch, capsys):
    monkeypatch.setattr(ab, "run_once", lambda tree, workload, seed:
                        _result(1.0, failed=int(tree == "new" and seed == 1)))
    assert ab.main(["old", "new", "--workload", "w", "--pairs", "2"]) == 1
    assert capsys.readouterr().out == "w: 2 pairs, seeds 0-1, FAILED runs: change seed 1\n"


def test_trees_holding_bytecode_refused(monkeypatch, tmp_path):
    (tmp_path / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    monkeypatch.setattr(ab, "run_once", pytest.fail)
    assert ab.main([str(tmp_path.parent), str(tmp_path), "--pairs", "2"]) == 2
