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
  - equivalent: the entry gives a reason why no test can kill it, and its
    check passes; tier-1 is not run. If the check fails instead, the entry
    is reported as killed and the reason is wrong;
  - stale: its old text no longer occurs exactly once in the file. A stale
    entry is rewritten for the new code, not dropped.

The tool exits 1 when a mutant survived or is stale, or an equivalent one
was killed. Every child runs with PYTHONDONTWRITEBYTECODE=1 and the copy's
``src`` on PYTHONPATH; the working tree is never written to. This is not a
tier-1 test: a change to a module that an entry covers runs it and states
the report.
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
    equivalent: str = ""  # why no test can kill it, for an equivalent mutant


READER = "tests/test_cli.py::TestPlainReader::test_reader_agrees_with_argparse"
CLOSED = "tests/test_quantum.py::TestClosedFormOracle::"
ELIMINATION = "tests/test_lhv.py::TestCountSatisfying::test_elimination_matches_oracle"
FORCED = "tests/test_lhv.py::TestForcedValue::"
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
    Mutant("exact closed-form exponents negated", "src/ghzport/closed.py",
           "numerators = [(s - t) % denominator", "numerators = [(t - s) % denominator",
           CLOSED + "test_exact_track_matches_oracle"),
    Mutant("float closed-form exponents rolled the other way", "src/ghzport/closed.py",
           "deltas = phi - np.roll(phi, -1, axis=1)", "deltas = phi - np.roll(phi, 1, axis=1)",
           CLOSED + "test_exponents_match_oracle_and_a_float_entry_turns_to_floats"),
    Mutant("route B class sums transformed forward", "src/ghzport/quantum.py",
           "(2.0 * ports) * np.fft.ifft(pairs).real", "(2.0 * ports) * np.fft.fft(pairs).real",
           "tests/test_quantum.py::TestJointProbability::"
           "test_cosine_route_matches_oracle_per_class"),
    Mutant("sampler's last digit ignores the low half", "src/ghzport/quantum.py",
           "(s - high[rows] - low[cols]) % ports", "(s - high[rows]) % ports",
           "tests/test_quantum.py::TestClassFirstSampling::test_last_digit_obeys_the_class"),
    Mutant("brute-force correlation conjugated", "src/ghzport/quantum.py",
           "values = unit_roots(cfg.ports) * distribution",
           "values = unit_roots(cfg.ports).conj() * distribution",
           "tests/test_quantum.py::TestCorrelation::test_closed_matches_brute_and_oracle"),
    Mutant("float perfect-class tolerance loosened to 1e-3", "src/ghzport/closed.py",
           "if np.max(np.abs(phases - root)) <= UNIT_TOLERANCE:",
           "if np.max(np.abs(phases - root)) <= 1e-3:",
           CLOSED + "test_float_track_tolerance"),
    Mutant("radian wrap reflects instead of adding a turn", "src/ghzport/angles.py",
           "wrapped += TAU", "wrapped = -wrapped",
           "tests/test_angles.py::TestPhaseAngle::test_radians_wrap_into_one_turn"),
    Mutant("radian seam left at 2*pi", "src/ghzport/angles.py",
           "if wrapped >= TAU or wrapped == 0.0:", "if wrapped == 0.0:",
           "tests/test_angles.py::TestPhaseAngle::test_seam_noise_wraps_to_zero"),
    Mutant("echelon drops the saturation row", "src/ghzport/lhv.py",
           "if step > 1:", "if step > q:", ELIMINATION),
    Mutant("witness CRT drops the earlier prime powers", "src/ghzport/lhv.py",
           "((rest // row[-1] - value) * pow(step, -1, modulus) % modulus)",
           "(rest // row[-1] % modulus)", ELIMINATION),
    Mutant('"p/q" grammar lets a space precede the slash', "src/ghzport/angles.py",
           "numerator[-1:].isdecimal() and denominator[:1].isdecimal()",
           "denominator[:1].isdecimal()",
           "tests/test_angles.py::TestFractionGrammar::test_spellings"),
    Mutant("forced value keeps column sums unreduced", "src/ghzport/lhv.py",
           "(sum(column) % catalog.ports for column", "(sum(column) for column",
           FORCED + "test_paradox_swaps_force_all_reference"),
    Mutant("forced value accepts a station with a second live cell", "src/ghzport/lhv.py",
           "if sum(station) != 1:", "if 1 not in station:",
           FORCED + "test_matches_multiplied_constraints"),
    Mutant("forced value drops the last station's last cell", "src/ghzport/lhv.py",
           "first[1:] + [len(sums)]", "first[1:] + [len(sums) - 1]",
           FORCED + "test_general_family_forces_n_minus_2"),
    Mutant("exact class rounds up", "src/ghzport/closed.py",
           "Residue(numerators[0] * ports // denominator, ports)",
           "Residue(-(-numerators[0] * ports // denominator), ports)",
           CLOSED + "test_exact_track_matches_oracle",
           "agreeing exponents are each k/M of a turn, so numerators[0]*M is a multiple "
           "of D and floor and ceiling agree"),
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
    if mutant.equivalent:
        return "equivalent"
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
            failing += result in ("survived", "stale") or (
                result == "killed" and bool(mutant.equivalent))
            reason = f": {mutant.equivalent}" if mutant.equivalent else ""
            print(f"{result}: {mutant.name} ({mutant.file}){reason}", flush=True)
    print(f"{len(chosen)} mutants, {failing} survived, stale or wrongly equivalent")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
