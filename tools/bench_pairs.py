"""Paired benchmark runs of two source trees, collected in one JSON file.

Usage: python tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W
           --seeds S [S ...] [--out BENCH.json] [--claim METRIC]

For each seed it runs the tree's own, unchanged ``perfbench/run.py --workload
W --seed S --seconds RUN_SECONDS --trace 0`` once in each tree, one run at a
time, with the same seed on both sides of the pair; the parent goes first in
the first pair and the two trees alternate after that. RUN_SECONDS is
``run_seconds`` from the parent tree's ``BENCHMARK.json``, so both trees run
at the benchmark's own length. Every run has PYTHONDONTWRITEBYTECODE=1, so
it writes no bytecode, and the tool refuses a tree that holds a
``__pycache__`` directory under ``src`` or ``perfbench``, naming each one (a
test or program run without that variable leaves them behind). So every
child compiles the tree's own sources, as in a fresh checkout, and reads the
standard library's and installed packages' bytecode as any process does.
Each run's full result is read from the tree's ``.perfbench_runs/result-*.json``.

Before the pairs, each tree also runs ``perfbench/run.py --trace 1`` once on
W, at the first seed and the same length. The traced run imports ghzport and
patches it in process, so it can fail where ``--trace 0`` does not. The tool
exits non-zero, naming the tree, when any run exits non-zero or a traced run
reports a failed command. A run whose last stdout line is not a JSON result
(``output_malformed``: something else printed after it, or it never came)
also ends the tool with a non-zero exit, naming the tree, workload, seed and
``--trace`` value and quoting the line.

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

The summary also holds the verdict. For each workload and metric it records
the change median against the parent median, as a fraction of the parent
median, and whether that is within the metric's ``bound`` in the parent
tree's ``BENCHMARK.json``. Per workload it records each side's share of
failed commands (failed over attempted, summed over the pairs), and the
change must not fail a larger share. On the claimed workload it records
whether the claim is met: at least ten pairs, the change better in at least
nine of every ten, no larger failed share, and a parent median above the
change median by more than the parent's q3 - q1. The verdict is printed
after the last run, and the tool exits 1 when it fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

#: The gated end-to-end metrics, lower is better for each.
METRICS = ("setup_s", "wall_s", "cpu_s", "proc_p50_s", "peak_rss_mb")

#: A claim needs at least this many pairs, and the change better in nine of
#: every ten of them.
MIN_CLAIM_PAIRS = 10


def perfbench(name: str, tree: Path, workload: str, seed: int, seconds, trace: int) -> dict:
    """The last stdout line of the tree's own perfbench/run.py, parsed; exits
    naming the tree if the run exits non-zero or that line is not a JSON
    object."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{name} tree {tree}: --trace {trace} on {workload} seed {seed} "
                         f"exited {done.returncode}\n{done.stderr[-2000:]}")
    last = (done.stdout.splitlines() or [""])[-1]
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        raise SystemExit(f"{name} tree {tree}: --trace {trace} on {workload} seed {seed}: "
                         f"output_malformed, the last stdout line is not a JSON result: "
                         f"{last!r}")
    return result


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


def summarize(runs: list, bounds: dict, claim) -> dict:
    """Per workload: seeds, pairs, each side's failed share and, per metric,
    both sides' quartiles, the change's better pairs and the verdict against
    ``bounds`` (metric -> largest allowed rise of the median, a fraction of
    the parent's); on the workload ``claim`` names, also the claim's
    verdict."""
    summary = {}
    for workload in sorted({run["workload"] for run in runs}):
        sides = {tree: {run["seed"]: run for run in runs
                        if run["workload"] == workload and run["tree"] == tree}
                 for tree in ("parent", "change")}
        seeds = sorted(set(sides["parent"]) & set(sides["change"]))
        if not seeds:
            continue
        share = {tree: sum(sides[tree][seed]["failed"] for seed in seeds)
                 / max(1, sum(sides[tree][seed]["attempted"] for seed in seeds))
                 for tree in ("parent", "change")}
        entry = {"seeds": seeds, "pairs": len(seeds), "failed_share": share,
                 "no_larger_failed_share": share["change"] <= share["parent"]}
        for metric in METRICS:
            parent = [sides["parent"][seed]["metrics"][metric] for seed in seeds]
            change = [sides["change"][seed]["metrics"][metric] for seed in seeds]
            parent_q, change_q = quartiles(parent), quartiles(change)
            rise = change_q[1] / parent_q[1] - 1
            entry[metric] = {
                "parent_q1_median_q3": parent_q,
                "change_q1_median_q3": change_q,
                "change_better_pairs": sum(c < p for p, c in zip(parent, change)),
                "median_rise": rise,
                "bound": bounds[metric],
                "within_bound": rise <= bounds[metric],
            }
        if claim and claim["workload"] == workload:
            claimed = entry[claim["metric"]]
            q1, parent_median, q3 = claimed["parent_q1_median_q3"]
            gap = parent_median - claimed["change_q1_median_q3"][1]
            needed = math.ceil(0.9 * len(seeds))
            entry["claim"] = {
                "metric": claim["metric"],
                "pairs_needed": MIN_CLAIM_PAIRS,
                "better_pairs_needed": needed,
                "median_gap": gap,
                "parent_iqr": q3 - q1,
                "met": (len(seeds) >= MIN_CLAIM_PAIRS and claimed["change_better_pairs"] >= needed
                        and gap > q3 - q1 and entry["no_larger_failed_share"]),
            }
        summary[workload] = entry
    return summary


def verdict(summary: dict, claim) -> tuple:
    """(lines of text, True when every metric is within its bound, no
    workload fails a larger share of commands and a claim, if any, is met)
    for a summary from ``summarize``."""
    lines, good = [], True
    for workload, entry in summary.items():
        share = entry["failed_share"]
        good &= entry["no_larger_failed_share"]
        lines.append(f"{workload} failed share: {share['parent']:.3g} -> {share['change']:.3g}"
                     + ("" if entry["no_larger_failed_share"] else ": LARGER"))
        for metric in METRICS:
            row = entry[metric]
            good &= row["within_bound"]
            lines.append(
                f"{workload} {metric}: {row['parent_q1_median_q3'][1]:.4g} -> "
                f"{row['change_q1_median_q3'][1]:.4g} ({row['median_rise']:+.1%}, bound "
                f"+{row['bound']:.0%}): {'within' if row['within_bound'] else 'BEYOND'} "
                f"its bound; change better in {row['change_better_pairs']}/{entry['pairs']}")
    if claim is None:
        lines.append("no claim")
    elif "claim" not in summary.get(claim["workload"], {}):
        good = False
        lines.append(f"claim {claim['workload']} {claim['metric']}: NOT MET, no pairs")
    else:
        entry = summary[claim["workload"]]
        result = entry["claim"]
        good &= result["met"]
        lines.append(
            f"claim {claim['workload']} {claim['metric']}: "
            f"{'met' if result['met'] else 'NOT MET'}, change better in "
            f"{entry[claim['metric']]['change_better_pairs']}/{entry['pairs']} pairs "
            f"({result['better_pairs_needed']} needed, of at least {result['pairs_needed']} "
            f"pairs), median gap "
            f"{result['median_gap']:.3g} against the parent's q3 - q1 of "
            f"{result['parent_iqr']:.3g}")
    lines.append("verdict: " + ("pass" if good else "FAIL"))
    return lines, good


def git(tree: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True,
                          check=True).stdout.strip()


def checked_identity(tree: Path, name: str) -> tuple:
    """(HEAD commit, git tree hash of ``src``) of a checkout whose ``src`` is
    clean and holds, as ``perfbench`` does, no ``__pycache__``: a run would
    read that bytecode instead of compiling. Exits naming each one."""
    caches = sorted(str(cache) for top in ("src", "perfbench")
                    for cache in (tree / top).rglob("__pycache__"))
    if caches:
        raise SystemExit(f"{name} tree {tree}: remove the bytecode a run would read: "
                         + ", ".join(caches))
    if git(tree, "status", "--porcelain", "--", "src"):
        raise SystemExit(f"{name} tree {tree}: src has uncommitted changes; commit them first")
    return git(tree, "rev-parse", "HEAD"), git(tree, "rev-parse", "HEAD:src")


def save(out: Path, runs: list, bounds: dict, claim, parent_commit, change_src_tree) -> None:
    document = {
        "description": "tools/bench_pairs.py: perfbench/run.py --trace 0 in both trees, "
                       "same seed within a pair, alternating which tree runs first; "
                       "scaled seconds; each run's metrics are its medians",
        "parent_commit": parent_commit,
        "change_src_tree": change_src_tree,
        "claim": claim,
        "summary": summarize(runs, bounds, claim),
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
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    for tree in ("parent", "change"):
        traced_check(tree, trees[tree], args.workload, args.seeds[0], seconds)
    for number, seed in enumerate(args.seeds):
        order = ("parent", "change") if number % 2 == 0 else ("change", "parent")
        for tree in order:
            run = {"tree": tree, **run_once(tree, trees[tree], args.workload, seed, seconds)}
            runs.append(run)
            print(f"{args.workload} seed {seed} {tree}: wall_s {run['metrics']['wall_s']:.3f} "
                  f"correct {run['correct']}", file=sys.stderr)
            save(args.out, runs, bounds, claim, parent_commit, change_src_tree)
    lines, good = verdict(summarize(runs, bounds, claim), claim)
    print("\n".join(lines))
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
