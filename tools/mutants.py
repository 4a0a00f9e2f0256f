"""Apply one-line mutants to copies of the working tree and report which the
tests kill.

Usage: python tools/mutants.py [NAME ...]

Each entry of ``MUTANTS`` names a file of the tree, an exact piece of its
text, the replacement, and the check that should kill it: a pytest node id.
For each entry (or each one named), alone, the tool copies the tree to a
temporary directory, applies the replacement and runs the check there with
pytest. If the check passes, it also runs tier-1 with ``-x``, to see whether
another test kills the mutant. Each entry is reported as:

  - killed: its check fails;
  - killed elsewhere: its check passes but another tier-1 test fails;
  - survived: tier-1 passes;
  - stale: its old text no longer occurs exactly once in the file. A stale
    entry is rewritten for the new code, not dropped.

The tool exits 1 when a mutant survived or is stale. Every child runs with
PYTHONDONTWRITEBYTECODE=1 and the copy's ``src`` on PYTHONPATH; the working
tree is never written to. This is not a tier-1 test: a change to a module
that an entry covers runs it and states the report.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    check: str


READER = "tests/test_cli.py::TestPlainReader::test_reader_agrees_with_argparse"
MUTANTS = (
    Mutant("reader accepts a repeated option", "src/ghzport/cli.py",
           "option = unseen.pop(token, None)  # each option at most once",
           "option = unseen.get(token)  # each option at most once", READER),
    Mutant("reader accepts a value starting with -", "src/ghzport/cli.py",
           'if (text.startswith("-") or value < option.get("bound", value)',
           'if (value < option.get("bound", value)', READER),
    Mutant("reader skips the --shots/--seed bound", "src/ghzport/cli.py",
           'if (text.startswith("-") or value < option.get("bound", value)',
           'if (text.startswith("-")', READER),
    Mutant("distribution total guard loosened to 1.0", "src/ghzport/quantum.py",
           "if abs(total - 1.0) >= PROBABILITY_TOLERANCE:", "if abs(total - 1.0) >= 1.0:",
           "tests/test_quantum.py::TestFullDistribution::"
           "test_total_off_one_by_the_tolerance_is_an_integrity_error"),
    Mutant("route gap guard loosened to 1.0", "src/ghzport/quantum.py",
           "if gap >= PROBABILITY_TOLERANCE:", "if gap >= 1.0:",
           "tests/test_quantum.py::TestJointProbability::test_route_disagreement_raises"),
    Mutant("closed-form exponent guard doubled past 64 bits", "src/ghzport/closed.py",
           "if denominator // common > _INT64_MAX:", "if denominator // common > 2 * _INT64_MAX:",
           "tests/test_cli.py::TestCorrelate::"
           "test_exponent_overflow_names_the_exponent_not_an_angle"),
)
IGNORED = shutil.ignore_patterns(".git", ".hypothesis", ".perfbench_runs", ".benchmarks",
                                 ".pytest_cache", "__pycache__")


def _pytest(tree: Path, *args) -> bool:
    """True when ``python -m pytest -q -x *args`` passes in the tree."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tree / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *args], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return done.returncode == 0


def verdict(mutant: Mutant, workdir: Path) -> str:
    """Run one mutant in a fresh copy of the tree under ``workdir``."""
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return "stale"
    tree = workdir / "tree"
    shutil.rmtree(tree, ignore_errors=True)
    shutil.copytree(ROOT, tree, ignore=IGNORED)
    (tree / mutant.file).write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    if not _pytest(tree, mutant.check):
        return "killed"
    return "survived" if _pytest(tree) else "killed elsewhere"


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"mutants: no entry named {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failing = 0
    with tempfile.TemporaryDirectory(prefix="ghzport-mutants-") as workdir:
        for mutant in chosen:
            result = verdict(mutant, Path(workdir))
            failing += result in ("survived", "stale")
            print(f"{result}: {mutant.name} ({mutant.file})", flush=True)
    print(f"{len(chosen)} mutants, {failing} survived or stale")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
