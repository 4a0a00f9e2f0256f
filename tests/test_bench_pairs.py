"""The verdict of tools/bench_pairs.py on made-up paired runs.

A claim is met only with at least ten pairs, the change better in nine of
every ten, no larger share of failed commands and a median gap above the
parent's q3 - q1; every metric's median must stay within its bound, and a
failed verdict makes the tool exit 1. tools/ is no package, so the module is
loaded from its file.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

BOUNDS = {"setup_s": 0.25, "wall_s": 0.25, "cpu_s": 0.25, "proc_p50_s": 0.25,
          "peak_rss_mb": 0.05}


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(tree, seed, wall, failed=0, workload="outcome-tables"):
    metrics = {"setup_s": 0.2, "wall_s": wall, "cpu_s": wall, "proc_p50_s": 0.17,
               "peak_rss_mb": 90.0}
    return {"tree": tree, "workload": workload, "seed": seed, "correct": True,
            "attempted": 100, "failed": failed, "metrics": metrics}


def pairs(parent_walls, change_walls, change_failed=0):
    runs = []
    for seed, (parent, change) in enumerate(zip(parent_walls, change_walls)):
        runs += [run("parent", seed, parent), run("change", seed, change, change_failed)]
    return runs


CLAIM = {"workload": "outcome-tables", "metric": "wall_s"}
PARENT_TEN = [4.70, 4.72, 4.74, 4.76, 4.78, 4.71, 4.73, 4.75, 4.77, 4.79]


def judge(bench, runs, claim=CLAIM):
    summary = bench.summarize(runs, BOUNDS, claim)
    lines, good = bench.verdict(summary, claim)
    return summary["outcome-tables"], lines, good


def test_three_better_pairs_are_not_a_met_claim(bench):
    entry, lines, good = judge(bench, pairs([4.7, 4.8, 4.9], [4.0, 4.1, 4.2]))
    assert entry["wall_s"]["change_better_pairs"] == 3 and entry["wall_s"]["within_bound"]
    assert entry["claim"]["met"] is False and not good
    assert "outcome-tables wall_s: NOT MET" in lines[-2]
    assert lines[-1] == "verdict: FAIL"


def test_nine_of_ten_better_pairs_with_a_clear_gap_meet_the_claim(bench):
    change = [wall - 0.3 for wall in PARENT_TEN[:9]] + [PARENT_TEN[9] + 0.1]
    entry, lines, good = judge(bench, pairs(PARENT_TEN, change))
    assert entry["wall_s"]["change_better_pairs"] == 9
    assert entry["claim"]["better_pairs_needed"] == 9 and entry["claim"]["met"] is True
    assert good and lines[-1] == "verdict: pass"


def test_eight_of_ten_better_pairs_are_not_a_met_claim(bench):
    change = [wall - 0.3 for wall in PARENT_TEN[:8]] + [wall + 0.1 for wall in PARENT_TEN[8:]]
    entry, _, good = judge(bench, pairs(PARENT_TEN, change))
    assert entry["wall_s"]["change_better_pairs"] == 8
    assert entry["claim"]["met"] is False and not good


def test_a_gap_inside_the_parent_spread_is_not_a_met_claim(bench):
    entry, _, good = judge(bench, pairs(PARENT_TEN, [wall - 0.01 for wall in PARENT_TEN]))
    assert entry["wall_s"]["change_better_pairs"] == 10
    assert entry["claim"]["median_gap"] < entry["claim"]["parent_iqr"]
    assert entry["claim"]["met"] is False and not good


def test_more_failed_commands_fail_the_claim_and_the_verdict(bench):
    runs = pairs(PARENT_TEN, [wall - 0.3 for wall in PARENT_TEN], change_failed=1)
    entry, lines, good = judge(bench, runs)
    assert entry["failed_share"] == {"parent": 0.0, "change": 0.01}
    assert entry["no_larger_failed_share"] is False
    assert entry["claim"]["met"] is False and not good
    assert "outcome-tables failed share: 0 -> 0.01: LARGER" in lines
    _, _, good = judge(bench, runs, claim=None)
    assert not good


def test_a_rise_beyond_the_bound_fails_without_a_claim(bench):
    entry, lines, good = judge(bench, pairs([4.7, 4.8, 4.9], [6.0, 6.1, 6.2]), claim=None)
    assert entry["wall_s"]["within_bound"] is False and entry["setup_s"]["within_bound"]
    assert "claim" not in entry and "no claim" in lines and not good


def test_no_claim_within_every_bound_passes(bench):
    _, lines, good = judge(bench, pairs([4.7, 4.8, 4.9], [4.8, 4.9, 5.0]), claim=None)
    assert good and lines[-2:] == ["no claim", "verdict: pass"]


@pytest.mark.parametrize("change_walls, status", [([4.0, 4.1, 4.2], 1), ([4.7, 4.8, 4.9], 0)])
def test_the_tool_exits_1_when_its_verdict_fails(bench, monkeypatch, tmp_path, capsys,
                                                 change_walls, status):
    """Three pairs: a claim fails however large the gain, and the run exits
    1; without a claim the same tool exits 0."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    (parent / "BENCHMARK.json").write_text(json.dumps(benchmark), encoding="utf-8")
    walls = {"parent": [4.7, 4.8, 4.9], "change": change_walls}
    monkeypatch.setattr(bench, "checked_identity", lambda tree, name: ("commit", "tree"))
    monkeypatch.setattr(bench, "traced_check", lambda *args: None)
    monkeypatch.setattr(bench, "run_once", lambda name, tree, workload, seed, seconds: {
        key: value for key, value in run(name, seed, walls[name][seed - 1]).items()
        if key != "tree"})
    argv = [str(parent), str(change), "--workload", "outcome-tables", "--seeds", "1", "2", "3",
            "--out", str(tmp_path / "BENCH.json")]
    if status:
        argv += ["--claim", "wall_s"]
    assert bench.main(argv) == status
    written = json.loads((tmp_path / "BENCH.json").read_text(encoding="utf-8"))
    assert written["summary"]["outcome-tables"]["pairs"] == 3
    assert capsys.readouterr().out.splitlines()[-1] == (
        "verdict: FAIL" if status else "verdict: pass")
