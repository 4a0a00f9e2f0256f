"""Compare ghzport's command-line output between two source trees.

Usage: python tools/compare_outputs.py PARENT_TREE CHANGE_TREE

Builds one command set:
  - every command of the benchmark's three workloads and its probes at seeds
    3 and 4, in both formats;
  - ``paradox --N`` 3 to 65, with and without ``--skip-enumeration``, in both
    formats;
  - the four bundled scenarios under correlate, probability, sample and
    lhv-search, in both formats;
  - examples and multiport cases, errors included;
  - table shapes the workloads never reach, in both formats: sample and
    probability on 2^20 outcomes (``sample --shots 200000``), sample,
    probability and correlate on one station with 1000 and with 20000 ports
    (``sample --shots 20000``), probability and correlate on one station
    with 1009 and with 4096 ports, and ``sample --shots 1`` on 10^7
    outcomes;
  - lhv-search on catalogs it writes itself, in both formats: at M = 8, 9,
    16 and 30, one consistent and one inconsistent constraint set each
    (Mermin rows, GHZ swaps with the all-reference target, and a CHSH square
    whose inconsistency shows mod 2 only), and two shapes at the model guard:
    three one-setting stations at M = 464 and four two-setting stations at
    M = 10.
Commands that occur twice run once.

Then it starts one child per tree, with that tree's ``src`` first on
PYTHONPATH and the tree as working directory, which runs every command
through ``ghzport.cli.main`` in process. It lists every command whose stdout,
exit code or stderr differs, with wall-clock figures masked, and exits 1 if
any does. For a records-format command whose stdout differs, it runs that
command once more in each tree as ``python -m ghzport``, streams the two
outputs record by record, and names each record field that differs
(``record.field``) with the largest absolute change of its numbers.

The workload commands come from CHANGE_TREE's ``perfbench/workloads.py``;
neither tree is written to (no bytecode either). Scenario files the
workloads generate go to a temporary directory that both children read.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (3, 4)
BUNDLED = ("mach-zehnder-n1-m2", "bell-epr-n2-m3", "ghz-n4-m3", "ghz-n5-m4")
EXTRA = (
    ("examples",),
    ("examples", "--name", "ghz-n4-m3"),
    ("examples", "--name", "nope"),
    ("multiport", "--ports", "1"),
    ("multiport", "--ports", "65"),
)
#: (name, particles, ports, commands): scenario files with float phases
#: written by ``_table_scenario``, and what runs on each.
TABLES = (
    ("twenty-pairs", 20, 2, (("sample", "--shots", "200000", "--seed", "8"),
                             ("probability",))),
    ("one-station-m1000", 1, 1000, (("sample", "--shots", "20000", "--seed", "9"),
                                    ("probability",), ("correlate",))),
    ("one-station-m1009", 1, 1009, (("correlate",), ("probability",))),
    ("one-station-m4096", 1, 4096, (("correlate",), ("probability",))),
    ("one-station-m20000", 1, 20000, (("correlate",), ("probability",),
                                      ("sample", "--shots", "20000", "--seed", "11"))),
    ("seven-decaports", 7, 10, (("sample", "--shots", "1", "--seed", "10"),)),
)
MERMIN = ((1, 2, 2), (2, 1, 2), (2, 2, 1), (1, 1, 1))
SWAPS = tuple(tuple(2 if l == k else 1 for l in range(4)) for k in range(4))
#: (name, ports, settings per station, [(1-based pattern, class)]): catalogs
#: written by ``_catalog_scenario``, each run through lhv-search.
CATALOGS = (
    ("lhv-m8-consistent", 8, (2, 2, 2), list(zip(MERMIN, (1, 1, 1, 1)))),
    ("lhv-m8-inconsistent", 8, (2, 2, 2), list(zip(MERMIN, (0, 0, 0, 1)))),
    ("lhv-m9-consistent", 9, (2,) * 4, [(p, 0) for p in SWAPS] + [((2,) * 4, 3)]),
    ("lhv-m9-inconsistent", 9, (2,) * 4, [(p, 0) for p in SWAPS] + [((2,) * 4, 1)]),
    ("lhv-m16-consistent", 16, (2, 2, 2), [(p[:3], 1) for p in SWAPS[:3]] + [((2,) * 3, 1)]),
    ("lhv-m16-inconsistent", 16, (2, 2, 2), [(p[:3], 1) for p in SWAPS[:3]] + [((2,) * 3, 0)]),
    ("lhv-m30-consistent", 30, (2, 2, 1),
     [((1, 1, 1), 1), ((1, 2, 1), 2), ((2, 1, 1), 3), ((2, 2, 1), 4)]),
    ("lhv-m30-inconsistent", 30, (2, 2, 1),
     [((1, 1, 1), 1), ((1, 2, 1), 2), ((2, 1, 1), 3), ((2, 2, 1), 19)]),
    ("lhv-guard-m464", 464, (1, 1, 1), [((1, 1, 1), 5)]),
    ("lhv-guard-m10", 10, (2,) * 4,
     [(p + (1,), c) for p, c in zip(MERMIN, (0, 0, 0, 2))] + [(SWAPS[3], 2)]),
)
WALL_CLOCK = re.compile(r"wall clock: [0-9.]+ s")


def _both_formats(argv):
    base = list(argv)
    if "--format" in base:
        at = base.index("--format")
        del base[at:at + 2]
    return [base + ["--format", fmt] for fmt in ("text", "records")]


def _load_workloads(tree: Path):
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location(
        "compare_workloads", tree / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _table_scenario(path: Path, particles: int, ports: int) -> str:
    phases = [[round(0.37 * (m + 1) * (l + 2) % 6.28, 6) for m in range(ports)]
              for l in range(particles)]
    path.write_text(json.dumps({"schema": "ghzport-scenario/1", "particles": particles,
                                "ports": ports, "phases": phases}), encoding="utf-8")
    return str(path)


def _catalog_scenario(path: Path, ports: int, counts, require) -> str:
    settings = [[["0/1"] * ports] * count for count in counts]
    path.write_text(json.dumps({
        "schema": "ghzport-scenario/1", "particles": len(counts), "ports": ports,
        "phases": [station[0] for station in settings],
        "constraints": {"settings": settings, "require": [
            {"pattern": list(pattern), "class": klass} for pattern, klass in require]},
    }), encoding="utf-8")
    return str(path)


def command_set(tree: Path, inputs: Path) -> list:
    """Every argv to compare; relative scenario paths resolve in each tree."""
    workloads = _load_workloads(tree)
    commands = []
    cwd = os.getcwd()
    os.chdir(tree)  # workloads.py reads the bundled scenarios relative to the tree
    try:
        for seed in SEEDS:
            for workload in workloads.WORKLOADS:
                directory = inputs / f"{workload}-{seed}"
                directory.mkdir()
                batch = workloads.build(workload, seed, directory) + workloads.probes(directory)
                for command in batch:
                    commands.extend(_both_formats(command.argv))
    finally:
        os.chdir(cwd)
    for n in range(3, 66):
        for skip in ((), ("--skip-enumeration",)):
            commands.extend(_both_formats(("paradox", "--N", str(n), *skip)))
    for name in BUNDLED:
        path = f"src/ghzport/scenarios/{name}.json"
        for kind in ("correlate", "probability", "sample", "lhv-search"):
            commands.extend(_both_formats((kind, path)))
    for name, particles, ports, runs in TABLES:
        path = _table_scenario(inputs / f"{name}.json", particles, ports)
        for kind, *extra in runs:
            commands.extend(_both_formats((kind, path, *extra)))
    for name, ports, counts, require in CATALOGS:
        path = _catalog_scenario(inputs / f"{name}.json", ports, counts, require)
        commands.extend(_both_formats(("lhv-search", path)))
    commands.extend(list(argv) for argv in EXTRA)
    unique = {tuple(argv): argv for argv in commands}  # seeds share paradox commands
    return list(unique.values())


def run_child(commands_path: str, results_path: str) -> None:
    """Run each command through ghzport.cli.main; write code, stdout digest
    and masked stderr per command."""
    from ghzport.cli import main

    results = []
    for argv in json.loads(Path(commands_path).read_text(encoding="utf-8")):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        stdout = out.getvalue().encode("utf-8")
        results.append({"code": code, "stdout": hashlib.sha256(stdout).hexdigest(),
                        "stdout_bytes": len(stdout),
                        "stderr": WALL_CLOCK.sub("wall clock: <masked> s", err.getvalue())})
    Path(results_path).write_text(json.dumps(results), encoding="utf-8")


def _child_env(tree: Path) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tree / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def _split(value):
    """(value with every number replaced by 0, its numbers in order) for a
    JSON value; bools are not numbers."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return 0, [value]
    if isinstance(value, dict):
        parts = {key: _split(item) for key, item in value.items()}
        return ({key: shape for key, (shape, _) in parts.items()},
                [n for _, numbers in parts.values() for n in numbers])
    if isinstance(value, list):
        parts = [_split(item) for item in value]
        return [shape for shape, _ in parts], [n for _, numbers in parts for n in numbers]
    return value, []


def _changed_fields(old_lines, new_lines) -> dict:
    """``record.field`` -> largest absolute change of its numbers (None when
    more than numbers changed), over two streams of JSON lines read in step.
    A missing or retyped record is reported under ``<records>``."""
    changes = {}
    for old_line, new_line in itertools.zip_longest(old_lines, new_lines):
        if old_line == new_line:
            continue
        old = json.loads(old_line) if old_line is not None else {}
        new = json.loads(new_line) if new_line is not None else {}
        if old.get("record") != new.get("record"):
            changes["<records>"] = None
            continue
        for key in sorted(old.keys() | new.keys()):
            if old.get(key) == new.get(key):
                continue
            name = f"{old['record']}.{key}"
            (shape, before), (new_shape, after) = _split(old.get(key)), _split(new.get(key))
            if shape != new_shape or changes.get(name, 0) is None:
                changes[name] = None
            else:
                changes[name] = max(changes.get(name, 0),
                                    *(abs(a - b) for a, b in zip(before, after)))
    return changes


def _field_report(argv, trees: dict, scratch: Path) -> dict:
    """Run one records command in both trees and compare its records."""
    outputs = {}
    for label, tree in trees.items():
        outputs[label] = scratch / f"{label}-stdout.jsonl"
        with open(outputs[label], "wb") as sink:
            subprocess.run([sys.executable, "-B", "-m", "ghzport", *argv], cwd=tree,
                           env=_child_env(tree), stdout=sink, stderr=subprocess.DEVNULL)
    with open(outputs["parent"], encoding="utf-8") as old, \
            open(outputs["change"], encoding="utf-8") as new:
        return _changed_fields(old, new)


def compare(parent: Path, change: Path) -> int:
    trees = {"parent": parent, "change": change}
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as scratch:
        scratch = Path(scratch)
        inputs = scratch / "inputs"
        inputs.mkdir()
        commands = command_set(change, inputs)
        commands_path = scratch / "commands.json"
        commands_path.write_text(json.dumps(commands), encoding="utf-8")
        children = {}
        for label, tree in trees.items():
            results_path = scratch / f"{label}.json"
            process = subprocess.Popen(
                [sys.executable, "-B", str(Path(__file__).resolve()), "--child",
                 str(commands_path), str(results_path)], cwd=tree, env=_child_env(tree))
            children[label] = (process, results_path)
        results = {}
        for label, (process, results_path) in children.items():
            if process.wait() != 0:
                print(f"compare_outputs: the {label} child exited {process.returncode}",
                      file=sys.stderr)
                return 2
            results[label] = json.loads(results_path.read_text(encoding="utf-8"))
        differing = 0
        for argv, old, new in zip(commands, results["parent"], results["change"]):
            fields = [key for key in ("code", "stdout", "stderr") if old[key] != new[key]]
            if not fields:
                continue
            differing += 1
            print(f"DIFFERS ({', '.join(fields)}): ghzport {' '.join(argv)}")
            if "code" in fields:
                print(f"  exit code {old['code']} -> {new['code']}")
            if "stdout" in fields:
                print(f"  stdout {old['stdout_bytes']} -> {new['stdout_bytes']} bytes")
                if argv[-2:] == ["--format", "records"]:
                    for name, delta in sorted(_field_report(argv, trees, scratch).items()):
                        size = "non-numeric" if delta is None else f"largest change {delta:.3g}"
                        print(f"  field {name}: {size}")
            if "stderr" in fields:
                print(f"  stderr {old['stderr']!r}\n      -> {new['stderr']!r}")
    print(f"{len(commands)} commands compared, {differing} differ")
    return 1 if differing else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        run_child(*argv[1:])
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return compare(*(Path(tree).resolve() for tree in argv))


if __name__ == "__main__":
    sys.exit(main())
