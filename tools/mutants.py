"""Apply one-line mutants to copies of the working tree and report which the
tests kill.

Usage: python tools/mutants.py [NAME ...]

Each entry of ``MUTANTS`` names a file of the tree, an exact piece of its
text, the replacement, and the check that should kill it: a pytest node id.
First the tool runs each distinct check once on an unmutated copy of the
tree. Then, for each entry (or each one named), alone, it copies the tree to
a temporary directory, applies the replacement and runs the check there with
pytest. If the check passes, it also runs tier-1 with ``-x``, to see whether
another test kills the mutant. Each entry is reported as:

  - killed: its check fails;
  - killed elsewhere: its check passes but another tier-1 test fails;
  - survived: tier-1 passes;
  - equivalent: the entry gives a reason why no test can kill it, and its
    check passes; tier-1 is not run. If the check fails instead, the entry
    is reported as killed and the reason is wrong;
  - stale: its old text no longer occurs exactly once in the file. A stale
    entry is rewritten for the new code, not dropped;
  - broken: its check does not pass on the unmutated tree (pytest's exit
    code is shown: 1 for a failing test, 4 for a node id that is not found,
    5 for one that collects nothing), or its new text equals its old, so a
    failing check would not show that the mutant was caught.

The tool exits 1 when a mutant survived, is stale or broken, or an
equivalent one was killed. Every child runs with PYTHONDONTWRITEBYTECODE=1
and the copy's ``src`` on PYTHONPATH; the working tree is never written to.
This is not a tier-1 test: a change to a module that an entry covers runs it
and states the report.
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
CORRELATION = "tests/test_quantum.py::TestCorrelation::"
PAIR = "tests/test_angles.py::TestFractionGrammar::"
ELIMINATION = "tests/test_lhv.py::TestCountSatisfying::test_elimination_matches_oracle"
FORCED = "tests/test_lhv.py::TestForcedValue::"
VALIDATION = "tests/test_scenario.py::TestValidation::"
BRANCH = "tests/test_scenario.py::TestSchemaBranches::test_each_branch_reports_its_field[{}]"
INTEGERS = "tests/test_angles.py::TestIntegerRule::"
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
    Mutant("_parse_int accepts a bool", "src/ghzport/scenario.py",
           "if isinstance(value, bool) or not isinstance(value, int):",
           "if not isinstance(value, int):", BRANCH.format("particles true")),
    Mutant("_require_keys lets an unknown field through", "src/ghzport/scenario.py",
           'errors.append(f"{where}: unknown field {key!r}")', "pass",
           VALIDATION + "test_unknown_field_rejected"),
    Mutant("_parse_row accepts a short row", "src/ghzport/scenario.py",
           "if len(value) != length:", "if len(value) > length:",
           VALIDATION + "test_shape_error_names_the_row"),
    Mutant("row names count from 0", "src/ghzport/scenario.py",
           'f"{where} {i + 1}"', 'f"{where} {i}"',
           VALIDATION + "test_every_bad_catalog_station_reported"),
    Mutant("a catalog station with a bad row still counts", "src/ghzport/scenario.py",
           "if len(rows) == len(rows_data):", "if rows:",
           VALIDATION + "test_errors_keep_their_order_across_blocks"),
    Mutant("the default catalog is built from the rows that parse", "src/ghzport/scenario.py",
           "if len(phase_rows) == particles:", "if phase_rows:",
           BRANCH.format("a bad row and no settings")),
    Mutant("the bool check on class is dropped", "src/ghzport/scenario.py",
           "if isinstance(klass, bool) or not isinstance(klass, int):",
           "if not isinstance(klass, int):", BRANCH.format("class true")),
    Mutant("the bool check on a setting index is dropped", "src/ghzport/scenario.py",
           "if isinstance(index, bool) or not isinstance(index, int) or index < 1:",
           "if not isinstance(index, int) or index < 1:", BRANCH.format("index true")),
    Mutant("a pattern index one past its station's catalog is accepted",
           "src/ghzport/scenario.py", "if limit is not None and index > limit:",
           "if limit is not None and index > limit + 1:",
           VALIDATION + "test_constraint_pattern_validation"),
    Mutant("echelon takes the first nonzero pivot, not the least valuation",
           "src/ghzport/lhv.py",
           "chosen = min(rows, key=lambda row: gcd(row[-1], q), default=None)",
           "chosen = next((row for row in rows if row[-1] % q), None)",
           "tests/test_lhv.py::TestEchelon::test_pivots_count_the_solutions"),
    Mutant("PhaseAngle drops its gcd check", "src/ghzport/angles.py",
           "if math.gcd(numerator, denominator) != 1:", "if False:",
           PAIR + "test_the_pair_is_checked_and_the_field_named"),
    Mutant("PhaseAngle's radians bound loosened to 1e-3", "src/ghzport/angles.py",
           "(numerator / denominator)) >= 1e-12:", "(numerator / denominator)) >= 1e-3:",
           PAIR + "test_radians_agree_with_the_pair_to_within_1e_12"),
    Mutant("from_ratio's 64-bit guard doubled", "src/ghzport/angles.py",
           "if denominator > _INT64_MAX:  # the wrapped",
           "if denominator > 2 * _INT64_MAX:  # the wrapped", PAIR + "test_spellings"),
    Mutant("CorrelationValue's modulus guard loosened to 1e-6", "src/ghzport/closed.py",
           "if abs(value) > 1.0 + 1e-12:", "if abs(value) > 1.0 + 1e-6:",
           CORRELATION + "test_modulus_past_one_by_more_than_1e_12_is_rejected"),
    Mutant("_check_settings ignores the ports", "src/ghzport/closed.py",
           "if settings.particles != cfg.particles or settings.ports != cfg.ports:",
           "if settings.particles != cfg.particles:",
           CORRELATION + "test_settings_of_another_shape_are_rejected"),
    Mutant("the track test reads only each row's first entry", "src/ghzport/closed.py",
           "denominators = {a.denominator for row, _ in distinct for a in row}",
           "denominators = {a.denominator for row, _ in distinct for a in row[:1]}",
           CLOSED + "test_the_float_track_is_taken_exactly_when_an_entry_is_not_exact"),
    Mutant("ENUMERATION_GUARD multiplied by 10", "src/ghzport/quantum.py",
           "ENUMERATION_GUARD = 10**7", "ENUMERATION_GUARD = 10**8",
           "tests/test_quantum.py::TestFullDistribution::test_enumeration_guard"),
    Mutant("MODEL_GUARD multiplied by 10", "src/ghzport/lhv.py",
           "MODEL_GUARD = 10**8", "MODEL_GUARD = 10**9",
           "tests/test_lhv.py::TestCountSatisfying::test_guard"),
    Mutant("validate_pattern accepts an index one past its station", "src/ghzport/lhv.py",
           "if not _is_index(index, len(self.station_settings[station])):",
           "if not _is_index(index, len(self.station_settings[station]) + 1):",
           "tests/test_lhv.py::TestPatternChecks::test_entry_points_reject"),
    Mutant("probability rows read the low half's class only", "src/ghzport/quantum.py",
           "keys = (high_sums[upper] + low_sums[low]) % ports", "keys = low_sums[low] % ports",
           "tests/test_cli.py::TestRendering::test_probability_rows"),
    Mutant("ExperimentConfig accepts zero particles", "src/ghzport/closed.py",
           '"particles must be an integer >= 1", 1)', '"particles must be an integer >= 1", 0)',
           "tests/test_quantum.py::TestExperimentConfig::test_bounds"),
    Mutant("ExperimentConfig accepts one port", "src/ghzport/closed.py",
           '"ports must be an integer >= 2", 2)', '"ports must be an integer >= 2", 1)',
           "tests/test_quantum.py::TestExperimentConfig::test_bounds"),
    Mutant("PhaseSettings accepts a shorter row", "src/ghzport/closed.py",
           "if len(row) != width:", "if len(row) > width:",
           "tests/test_quantum.py::TestPhaseSettings::test_rows_of_another_width_are_rejected"),
    Mutant("an outcome lookup accepts extra detectors", "src/ghzport/quantum.py",
           "if len(detectors) != cfg.particles:", "if len(detectors) < cfg.particles:",
           "tests/test_quantum.py::TestFullDistribution::test_shape_mismatch_rejected"),
    Mutant("an outcome lookup accepts a detector one past the ports", "src/ghzport/quantum.py",
           "if not _is_index(k, cfg.ports):", "if not _is_index(k, cfg.ports + 1):",
           "tests/test_quantum.py::TestFullDistribution::test_shape_mismatch_rejected"),
    Mutant("a key that is no outcome raises a plain ValueError", "src/ghzport/quantum.py",
           "class _NotAnOutcome(ValueError, KeyError):", "class _NotAnOutcome(ValueError):",
           "tests/test_quantum.py::TestOutcomeViews::test_a_key_that_is_no_outcome_is_absent"),
    Mutant("a key that is no sequence raises TypeError", "src/ghzport/quantum.py",
           "except TypeError:", "except ValueError:",
           "tests/test_quantum.py::TestOutcomeViews::test_a_key_that_is_no_outcome_is_absent"),
    Mutant("marginal takes any station number in range", "src/ghzport/quantum.py",
           "if not _is_index(station, self._cfg.particles):",
           "if not 0 <= station < self._cfg.particles:",
           "tests/test_lhv.py::test_index_checks_accept_the_same_integer_kinds"),
    Mutant("predict_last accepts a detector one past the ports", "src/ghzport/closed.py",
           "if not _is_index(k, modulus):", "if not _is_index(k, modulus + 1):",
           "tests/test_quantum.py::TestPredictLast::test_rejects_bad_observations"),
    Mutant("sample_outcomes accepts zero shots", "src/ghzport/quantum.py",
           '"shots must be a positive integer", 1)', '"shots must be a positive integer", 0)',
           "tests/test_quantum.py::TestSampling::test_zero_shots_rejected"),
    Mutant("sample_outcomes accepts a bool seed", "src/ghzport/quantum.py",
           "if isinstance(seed, bool) or not _is_index(seed, np.inf):",
           "if not _is_index(seed, np.inf):",
           "tests/test_quantum.py::TestSampling::test_seed_must_be_a_non_negative_integer"),
    Mutant("sample_outcomes truncates a float seed", "src/ghzport/quantum.py",
           "if isinstance(seed, bool) or not _is_index(seed, np.inf):",
           "if isinstance(seed, bool) or seed < 0:",
           "tests/test_quantum.py::TestSampling::test_seed_must_be_a_non_negative_integer"),
    Mutant("the integer rule admits a bool", "src/ghzport/angles.py",
           "if not isinstance(value, int) or value.__class__ is bool or not low",
           "if not isinstance(value, int) or not low", INTEGERS + "test_a_bool_is_refused"),
    Mutant("the integer rule ignores its upper bound", "src/ghzport/angles.py",
           "not low <= value <= high:", "not low <= value:",
           INTEGERS + "test_every_bound_is_inclusive"),
    Mutant("PhaseAngle admits a bool denominator", "src/ghzport/angles.py",
           "isinstance(denominator, int) and denominator.__class__ is not bool",
           "isinstance(denominator, int)", INTEGERS + "test_a_bool_is_refused"),
    Mutant("PhaseAngle accepts radians of a full turn", "src/ghzport/angles.py",
           "if not (0.0 <= radians < TAU):", "if not (0.0 <= radians <= TAU):",
           "tests/test_angles.py::TestPhaseAngle::test_radians_outside_one_turn_are_refused"),
    Mutant("from_turns accepts any real", "src/ghzport/angles.py",
           "if not isinstance(turns, numbers.Rational):",
           "if not isinstance(turns, numbers.Real):",
           "tests/test_angles.py::TestPhaseAngle::test_from_turns_refuses_what_is_not_rational"),
    Mutant("PhaseSettings accepts no rows", "src/ghzport/closed.py",
           "if not rows:", "if False:",
           "tests/test_quantum.py::TestPhaseSettings::test_no_rows_are_rejected"),
    Mutant("PhaseSettings accepts an entry that is no PhaseAngle", "src/ghzport/closed.py",
           "if not isinstance(angle, PhaseAngle):", "if False:",
           "tests/test_quantum.py::TestPhaseSettings::"
           "test_an_entry_that_is_no_phase_angle_is_rejected"),
    Mutant("SettingsCatalog accepts no stations", "src/ghzport/lhv.py",
           "if not station_settings:", "if False:",
           "tests/test_lhv.py::test_a_catalog_without_stations_is_rejected"),
    Mutant("SettingsCatalog accepts a station without settings", "src/ghzport/lhv.py",
           "if not settings:", "if False:",
           "tests/test_lhv.py::test_a_catalog_station_without_settings_is_rejected"),
    Mutant("MultiportMatrix checks only its row count", "src/ghzport/multiport.py",
           "if entries.shape != (ports, ports):", "if len(entries) != ports:",
           "tests/test_multiport.py::test_matrix_of_another_shape_is_rejected"),
    Mutant("verify_quantum ignores a class mismatch", "src/ghzport/paradox.py",
           "if correlation.exact_class != experiment.expected:", "if False:",
           "tests/test_paradox.py::TestVerifyQuantum::test_a_wrong_expected_class_is_named"),
    Mutant("verified ignores full_model_count", "src/ghzport/paradox.py",
           "return self.contradiction and self.full_model_count in (None, 0)",
           "return self.contradiction",
           "tests/test_paradox.py::TestVerified::test_hand_built_reports"),
    Mutant("the paradox text takes a missing forced value for one", "src/ghzport/text.py",
           'if record["forced_pattern"] is not None:', "if True:",
           "tests/test_cli.py::TestParadox::test_a_report_with_no_forced_value_says_so"),
    Mutant("SettingsCatalog accepts a shorter setting", "src/ghzport/lhv.py",
           "if len(row) != ports:", "if len(row) > ports:",
           "tests/test_lhv.py::test_catalog_settings_of_another_length_are_rejected"),
    Mutant("exact class rounds up", "src/ghzport/closed.py",
           "Residue(numerators[0] * ports // denominator, ports)",
           "Residue(-(-numerators[0] * ports // denominator), ports)",
           CLOSED + "test_exact_track_matches_oracle",
           "agreeing exponents are each k/M of a turn, so numerators[0]*M is a multiple "
           "of D and floor and ceiling agree"),
)
IGNORED = shutil.ignore_patterns(".git", ".hypothesis", ".perfbench_runs", ".benchmarks",
                                 ".pytest_cache", "__pycache__")


def _pytest(tree: Path, *args) -> int:
    """The exit code of ``python -m pytest -q -x *args`` in the tree."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tree / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *args], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return done.returncode


def verdict(mutant: Mutant, workdir: Path, unmutated: dict) -> str:
    """Run one mutant in a fresh copy of the tree under ``workdir``;
    ``unmutated`` maps each check to its exit code on the unmutated tree."""
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return "stale"
    if mutant.new == mutant.old:
        return "broken (new text equals old)"
    if unmutated[mutant.check]:
        return f"broken (check exits {unmutated[mutant.check]} unmutated)"
    tree = workdir / "tree"
    shutil.rmtree(tree, ignore_errors=True)
    shutil.copytree(ROOT, tree, ignore=IGNORED)
    (tree / mutant.file).write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    if _pytest(tree, mutant.check):
        return "killed"
    if mutant.equivalent:
        return "equivalent"
    return "killed elsewhere" if _pytest(tree) else "survived"


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"mutants: no entry named {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failing = 0
    with tempfile.TemporaryDirectory(prefix="ghzport-mutants-") as workdir:
        tree = Path(workdir) / "unmutated"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        unmutated = {check: _pytest(tree, check) for check in {m.check for m in chosen}}
        for mutant in chosen:
            result = verdict(mutant, Path(workdir), unmutated)
            failing += result.startswith(("survived", "stale", "broken")) or (
                result == "killed" and bool(mutant.equivalent))
            reason = f": {mutant.equivalent}" if mutant.equivalent else ""
            print(f"{result}: {mutant.name} ({mutant.file}){reason}", flush=True)
    print(f"{len(chosen)} mutants, {failing} survived, stale, broken or wrongly equivalent")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
