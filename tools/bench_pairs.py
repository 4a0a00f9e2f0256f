"""Paired benchmark runs of two source trees, collected in one JSON file.

Usage: python tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W
           --seeds S [S ...] [--out BENCH.json] [--claim METRIC]

For each seed it runs the tree's own, unchanged ``perfbench/run.py --workload
W --seed S --seconds RUN_SECONDS --trace 0`` once in each tree, one run at a
time, with the same seed on both sides of the pair; the parent goes first in
the first pair and the two trees alternate after that. RUN_SECONDS is
``run_seconds`` from the parent tree's ``BENCHMARK.json``, so both trees run
at the benchmark's own length. Both run with PYTHONDONTWRITEBYTECODE=1, so
neither tree gets bytecode and every child compiles its sources, as in a
fresh checkout. Each run's full result is read from the tree's
``.perfbench_runs/result-*.json``.

Before the pairs, each tree also runs ``perfbench/run.py --trace 1`` once on
W, at the first seed and the same length. The traced run imports ghzport and
patches it in process, so it can fail where ``--trace 0`` does not. The tool
exits non-zero, naming the tree, when any run exits non-zero or a traced run
reports a failed command.

Both trees must be git checkouts whose ``src`` has no uncommitted change, so
that ``parent_commit`` (the commit the parent's runs recorded) and
``change_src_tree`` (the git tree hash of the change's ``src``, which matches
the commit that lands even when the change was measured on a local commit)
name the code that ran.

OUT (default BENCH.json) keeps every run: an existing file is extended, so one
file can collect several workloads, but only with runs of the same two trees
and with seeds it does not hold yet for that workload. Its ``summary`` is
recomputed over all of its runs: per workload, the seeds, the number of pairs
and, for each gated end-to-end metric, each side's quartiles and median and
in how many pairs the change was better (lower), ties counting for neither
side. ``--claim`` names the metric, on this workload, that the change claims
to improve. OUT is rewritten after every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

#: The gated end-to-end metrics, lower is better for each.
METRICS = ("setup_s", "wall_s", "cpu_s", "proc_p50_s", "peak_rss_mb")


def perfbench(name: str, tree: Path, workload: str, seed: int, seconds, trace: int) -> dict:
    """The last stdout line of the tree's own perfbench/run.py, parsed; exits
    naming the tree if the run exits non-zero."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{name} tree {tree}: --trace {trace} on {workload} seed {seed} "
                         f"exited {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def traced_check(name: str, tree: Path, workload: str, seed: int, seconds) -> None:
    result = perfbench(name, tree, workload, seed, seconds, 1)
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{name} tree {tree}: --trace 1 on {workload} seed {seed} reports "
                         f"{result['failed']} failed of {result['attempted']} commands")
    print(f"{workload} seed {seed} {name}: --trace 1 correct", file=sys.stderr)


def run_once(name: str, tree: Path, workload: str, seed: int, seconds) -> dict:
    perfbench(name, tree, workload, seed, seconds, 0)
    path = tree / ".perfbench_runs" / f"result-{workload}-seed{seed}-trace0.json"
    result = json.loads(path.read_text(encoding="utf-8"))
    return {key: result[key] for key in
            ("workload", "seed", "seconds", "trace", "correct", "attempted", "failed",
             "environment")} | {"metrics": result["medians"]}


def quartiles(values):
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs: list) -> dict:
    summary = {}
    for workload in sorted({run["workload"] for run in runs}):
        sides = {tree: {run["seed"]: run["metrics"] for run in runs
                        if run["workload"] == workload and run["tree"] == tree}
                 for tree in ("parent", "change")}
        seeds = sorted(set(sides["parent"]) & set(sides["change"]))
        if not seeds:
            continue
        entry = {"seeds": seeds, "pairs": len(seeds)}
        for metric in METRICS:
            parent = [sides["parent"][seed][metric] for seed in seeds]
            change = [sides["change"][seed][metric] for seed in seeds]
            entry[metric] = {
                "parent_q1_median_q3": quartiles(parent),
                "change_q1_median_q3": quartiles(change),
                "change_better_pairs": sum(c < p for p, c in zip(parent, change)),
            }
        summary[workload] = entry
    return summary


def git(tree: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True,
                          check=True).stdout.strip()


def checked_identity(tree: Path, name: str) -> tuple:
    """(HEAD commit, git tree hash of ``src``) of a checkout whose ``src`` is clean."""
    if git(tree, "status", "--porcelain", "--", "src"):
        raise SystemExit(f"{name} tree {tree}: src has uncommitted changes; commit them first")
    return git(tree, "rev-parse", "HEAD"), git(tree, "rev-parse", "HEAD:src")


def save(out: Path, runs: list, claim, parent_commit, change_src_tree) -> None:
    document = {
        "description": "tools/bench_pairs.py: perfbench/run.py --trace 0 in both trees, "
                       "same seed within a pair, alternating which tree runs first; "
                       "scaled seconds; each run's metrics are its medians",
        "parent_commit": parent_commit,
        "change_src_tree": change_src_tree,
        "claim": claim,
        "summary": summarize(runs),
        "runs": runs,
    }
    out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    parser.add_argument("--claim", choices=METRICS)
    args = parser.parse_args(argv)

    previous = {}
    if args.out.exists():
        previous = json.loads(args.out.read_text(encoding="utf-8"))
    runs = previous.get("runs", [])
    claim = {"workload": args.workload, "metric": args.claim} if args.claim else None
    claim = claim or previous.get("claim")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    parent_commit = checked_identity(trees["parent"], "parent")[0]
    change_src_tree = checked_identity(trees["change"], "change")[1]
    if runs and (previous["parent_commit"], previous["change_src_tree"]) != (
            parent_commit, change_src_tree):
        raise SystemExit(f"{args.out} holds runs of other trees (parent commit "
                         f"{previous['parent_commit']}, change src {previous['change_src_tree']})")
    seen = [run["seed"] for run in runs if run["workload"] == args.workload and
            run["tree"] == "parent"] + args.seeds
    repeated = sorted({seed for seed in seen if seen.count(seed) > 1})
    if repeated:
        raise SystemExit(f"each seed may run once per workload; {args.workload} repeats "
                         f"{repeated}")
    benchmark = json.loads((trees["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"]
    for tree in ("parent", "change"):
        traced_check(tree, trees[tree], args.workload, args.seeds[0], seconds)
    for number, seed in enumerate(args.seeds):
        order = ("parent", "change") if number % 2 == 0 else ("change", "parent")
        for tree in order:
            run = {"tree": tree, **run_once(tree, trees[tree], args.workload, seed, seconds)}
            runs.append(run)
            print(f"{args.workload} seed {seed} {tree}: wall_s {run['metrics']['wall_s']:.3f} "
                  f"correct {run['correct']}", file=sys.stderr)
            save(args.out, runs, claim, parent_commit, change_src_tree)
    return 0


if __name__ == "__main__":
    sys.exit(main())
