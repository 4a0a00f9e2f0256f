"""Command-line front end.

Subcommands: multiport, probability, correlate, sample, lhv-search, paradox,
examples. Every subcommand takes ``--format text`` (aligned, human-readable)
or ``--format records`` (line-delimited JSON objects, one record per line).

Output discipline: stdout carries results only and is byte-identical across
reruns with the same inputs and seed; diagnostics (validation notes, wall
clock, errors) go to stderr. Error exits are machine-greppable one-liners of
the form ``ghzport: error [code] message``.

Exit codes: 0 success (for paradox: contradiction verified), 1 input or
integrity error, 2 usage error, 3 enumeration guard exceeded or shots too
many to hold in memory, 4 paradox verdict mismatch.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from importlib import resources

from . import __version__
from .angles import Residue
from .errors import (
    ComputationIntegrityError,
    GhzportError,
    ResourceLimitError,
    ScenarioError,
)
from .lhv import CountResult, DeterministicModel, count_satisfying, ghz_forced_value
from .multiport import bell_multiport
from .paradox import ContradictionReport, run_paradox
from .quantum import (
    correlation_brute,
    correlation_closed,
    full_distribution,
    perfect_correlation_class,
    sample_outcomes,
)
from .scenario import Scenario, angle_to_json, parse_scenario, scenario_to_data

_EXIT_OK = 0
_EXIT_ERROR = 1
_EXIT_GUARD = 3
_EXIT_MISMATCH = 4


def _emit(line: str = "") -> None:
    print(line)


def _emit_record(record: dict) -> None:
    print(json.dumps(record, separators=(", ", ": ")))


def _diagnostic(message: str) -> None:
    print(message, file=sys.stderr)


def _fail(code: str, message: str) -> None:
    _diagnostic(f"ghzport: error [{code}] {message}")


def _complex_pair(value: complex) -> list:
    return [value.real, value.imag]


def _format_complex(value: complex) -> str:
    return f"{value.real:.12g} {value.imag:+.12g}i"


def _class_json(residue):
    if residue is None:
        return None
    return {"k": residue.value, "mod": residue.modulus}


def _run_record(command: str, **extra) -> dict:
    record = {"record": "run", "tool": "ghzport", "version": __version__,
              "command": command}
    record.update(extra)
    return record


def _load_scenario(args) -> Scenario:
    scenario = parse_scenario(args.scenario)
    for note in scenario.notes:
        _diagnostic(f"ghzport: note: {note}")
    return scenario


def _digit_labels(ports: int) -> list:
    """Detector indices leave the tool 1-based."""
    return [str(k + 1) for k in range(ports)]


def _table_lines(distribution, head: str, tails: list):
    """One string per (N-1)-digit prefix: the lines of its M outcomes in lex
    order, each head + 1-based detector labels + the tail of its class."""
    ports = distribution.config.ports
    labels = _digit_labels(ports)
    for prefix, shift in distribution.prefix_classes():
        start = head + "".join([labels[k] + ", " for k in prefix])
        rotated = tails[shift:] + tails[:shift]
        yield "".join([start + label + tail for label, tail in zip(labels, rotated)])


# --- subcommands -----------------------------------------------------------


def _cmd_multiport(args) -> int:
    matrix = bell_multiport(args.ports)
    if args.format == "records":
        _emit_record(_run_record("multiport", ports=args.ports))
        for m, row in enumerate(matrix.entries):
            _emit_record({
                "record": "multiport-row",
                "input_port": m + 1,
                "entries": [_complex_pair(z) for z in row],
            })
        return _EXIT_OK
    _emit(f"Bell multiport, M = {args.ports} ports "
          f"(entry modulus 1/sqrt(M) = {1 / args.ports ** 0.5:.12g})")
    _emit("rows: input port; columns: output port")
    for row in matrix.entries:
        _emit("  " + "  ".join(f"{z.real:+.9f}{z.imag:+.9f}i" for z in row))
    return _EXIT_OK


def _scenario_header_text(scenario: Scenario) -> None:
    cfg = scenario.config
    _emit(f"scenario: N = {cfg.particles} particles, M = {cfg.ports} ports per station")
    _emit("phases (radians; exact fractions of 2*pi in parentheses):")
    for l, row in enumerate(scenario.phases.rows):
        _emit(f"  station {l + 1}: " + "  ".join(a.describe() for a in row))


def _cmd_probability(args) -> int:
    scenario = _load_scenario(args)
    distribution = full_distribution(scenario.config, scenario.phases)
    probs = distribution.class_probabilities().tolist()
    if args.format == "records":
        _emit_record(_run_record("probability", scenario=scenario_to_data(scenario)))
        sys.stdout.writelines(_table_lines(
            distribution, '{"record": "probability", "detectors": [',
            [f'], "p": {p!r}}}\n' for p in probs]))
        _emit_record({"record": "probability-total", "total": distribution.total})
        return _EXIT_OK
    _scenario_header_text(scenario)
    _emit()
    _emit("joint detection probabilities (detector labels are 1-based):")
    sys.stdout.writelines(_table_lines(distribution, "  (", [f")  p = {p:.12g}\n" for p in probs]))
    _emit(f"total = {distribution.total:.12g}")
    return _EXIT_OK


def _cmd_correlate(args) -> int:
    scenario = _load_scenario(args)
    cfg = scenario.config
    closed = correlation_closed(cfg, scenario.phases)
    brute = correlation_brute(cfg, scenario.phases)
    gap = abs(closed.value - brute.value)
    perfect = perfect_correlation_class(cfg, scenario.phases)
    if args.format == "records":
        _emit_record(_run_record("correlate", scenario=scenario_to_data(scenario)))
        _emit_record({
            "record": "correlation",
            "closed": _complex_pair(closed.value),
            "brute": _complex_pair(brute.value),
            "difference": gap,
            "exact_class": _class_json(closed.exact_class),
            "perfect_class": _class_json(perfect),
        })
        return _EXIT_OK
    _scenario_header_text(scenario)
    _emit()
    _emit(f"closed form:  E = {_format_complex(closed.value)}")
    _emit(f"brute force:  E = {_format_complex(brute.value)}   "
          f"({cfg.outcome_count} outcomes)")
    _emit(f"|closed - brute| = {gap:.3e}")
    if closed.exact_class is not None:
        _emit(f"exact class: {closed.exact_class.symbol()}  (rational path)")
    else:
        _emit("exact class: none (inputs are not all exact rationals)")
    if perfect is not None:
        _emit(f"perfect correlation: class {perfect.symbol()}")
    else:
        _emit("perfect correlation: none (|E| < 1)")
    return _EXIT_OK


def _cmd_sample(args) -> int:
    scenario = _load_scenario(args)
    shots = args.shots
    seed = args.seed
    if shots is None and scenario.sampling is not None:
        shots = scenario.sampling.shots
    if seed is None:
        seed = scenario.sampling.seed if scenario.sampling is not None else 0
    if shots is None:
        _fail("invalid", "sample needs --shots or a sampling block in the scenario")
        return _EXIT_ERROR
    result = sample_outcomes(scenario.config, scenario.phases, shots, seed)
    labels = _digit_labels(scenario.config.ports)
    rows = ((", ".join([labels[k] for k in outcome]), count)
            for outcome, count in result.counts.items())
    if args.format == "records":
        _emit_record(_run_record("sample", scenario=scenario_to_data(scenario)))
        _emit_record({
            "record": "sample-meta",
            "generator": result.generator,
            "seed": result.seed,
            "shots": result.shots,
        })
        sys.stdout.writelines(
            f'{{"record": "sample-count", "detectors": [{label}], "count": {count}, '
            f'"frequency": {count / result.shots!r}}}\n' for label, count in rows)
        _emit_record({
            "record": "sample-correlation",
            "estimate": _complex_pair(result.correlation.value),
        })
        return _EXIT_OK
    _scenario_header_text(scenario)
    _emit()
    _emit(f"sampling: {result.shots} shots, seed {result.seed}, "
          f"generator {result.generator}")
    sys.stdout.writelines(
        f"  ({label})  count = {count}  frequency = {count / result.shots:.6f}\n"
        for label, count in rows)
    _emit(f"estimated E = {_format_complex(result.correlation.value)}")
    return _EXIT_OK


def _witness_lines(witness: DeterministicModel) -> list:
    lines = []
    for station, values in enumerate(witness.assignments):
        cells = "  ".join(
            f"I(setting {s + 1}) = {Residue(v, witness.ports).symbol()}"
            for s, v in enumerate(values)
        )
        lines.append(f"  station {station + 1}: {cells}")
    return lines


def _cmd_lhv_search(args) -> int:
    scenario = _load_scenario(args)
    if scenario.catalog is None or not scenario.constraints:
        _fail("invalid", "lhv-search needs a constraints block in the scenario")
        return _EXIT_ERROR
    started = time.perf_counter()
    result: CountResult = count_satisfying(scenario.catalog, scenario.constraints)
    forced = ghz_forced_value(scenario.constraints, scenario.catalog)
    elapsed = time.perf_counter() - started
    _diagnostic(f"ghzport: lhv-search wall clock: {elapsed:.6f} s")
    if args.format == "records":
        _emit_record(_run_record("lhv-search", scenario=scenario_to_data(scenario)))
        _emit_record({
            "record": "lhv-search",
            "model_space": scenario.catalog.model_count,
            "satisfying": result.count,
            "witness": None if result.witness is None else
                [list(v) for v in result.witness.assignments],
            "forced_pattern": None if forced is None else
                [i + 1 for i in forced.pattern],
            "forced_class": _class_json(None if forced is None else forced.residue),
        })
        return _EXIT_OK
    _emit(f"deterministic model space: {scenario.catalog.model_count} models")
    _emit(f"models satisfying all {len(scenario.constraints)} constraints: "
          f"{result.count}")
    if result.witness is not None:
        _emit("witness (lexicographically smallest):")
        for line in _witness_lines(result.witness):
            _emit(line)
    else:
        _emit("witness: none")
    if forced is not None:
        pattern = ", ".join(str(i + 1) for i in forced.pattern)
        _emit(f"forced value: pattern ({pattern}) must give {forced.residue.symbol()}")
    else:
        _emit("forced value: not derivable from these constraints")
    return _EXIT_OK


def _print_paradox_text(report: ContradictionReport) -> None:
    scenario = report.scenario
    _emit(f"GHZ paradox scenario: N = {scenario.particles} particles, "
          f"M = {scenario.ports} ports per station")
    _emit(f"delta = {scenario.delta.describe()}")
    _emit("graded setting   g: " + "  ".join(a.describe() for a in scenario.graded))
    _emit("reference setting r: " + "  ".join(a.describe() for a in scenario.reference))
    _emit()
    _emit("experiment        settings      quantum class")
    letters = {0: "g", 1: "r"}
    for experiment, klass in zip(scenario.experiments, report.quantum_classes):
        settings = " ".join(letters[i] for i in experiment.pattern)
        _emit(f"  {experiment.label:<15} {settings:<13} {klass.symbol()}")
    _emit()
    if report.forced is not None:
        pattern = " ".join(letters[i] for i in report.forced.pattern)
        _emit(f"algebraic stage: multiplying the {scenario.particles} swap "
              f"constraints forces pattern [{pattern}] to {report.forced.residue.symbol()}")
    else:
        _emit("algebraic stage: no value is forced (unexpected)")
    if report.enumeration_note is not None:
        _emit(f"exhaustive stage: {report.enumeration_note}")
    else:
        _emit(f"exhaustive stage: {scenario.catalog.model_count} models; "
              f"{report.swap_model_count} satisfy the swap constraints; "
              f"{report.full_model_count} satisfy all "
              f"{len(scenario.experiments)} constraints")
        if report.witness is not None:
            _emit("witness for the swap constraints alone:")
            for line in _witness_lines(report.witness):
                _emit(line)
    _emit()
    quantum = report.target_class
    if report.contradiction:
        _emit(f"contradiction: quantum predicts {quantum.symbol()} (E = 1) at the "
              f"all-reference pattern; local models force "
              f"{report.forced.residue.symbol()}  -> VERIFIED")
    else:
        _emit("contradiction: NOT PRESENT (forced value matches the quantum class)")


def _cmd_paradox(args) -> int:
    started = time.perf_counter()
    try:
        report = run_paradox(args.N, enumerate_models=not args.skip_enumeration)
    except ComputationIntegrityError as exc:
        _fail("paradox-mismatch", str(exc))
        return _EXIT_MISMATCH
    elapsed = time.perf_counter() - started
    if args.format == "records":
        scenario = report.scenario
        _emit_record(_run_record(
            "paradox",
            particles=scenario.particles,
            ports=scenario.ports,
            delta=angle_to_json(scenario.delta),
            graded=[angle_to_json(a) for a in scenario.graded],
            reference=[angle_to_json(a) for a in scenario.reference],
        ))
        for experiment, klass in zip(scenario.experiments, report.quantum_classes):
            _emit_record({
                "record": "experiment",
                "label": experiment.label,
                "pattern": [i + 1 for i in experiment.pattern],
                "quantum_class": _class_json(klass),
            })
        _emit_record({
            "record": "lhv",
            "forced_pattern": None if report.forced is None else
                [i + 1 for i in report.forced.pattern],
            "forced_class": _class_json(
                None if report.forced is None else report.forced.residue),
            "swap_models": report.swap_model_count,
            "all_models": report.full_model_count,
            "witness": None if report.witness is None else
                [list(v) for v in report.witness.assignments],
            "enumeration": report.enumeration_note or "complete",
        })
        _emit_record({
            "record": "verdict",
            "contradiction": report.contradiction,
            "verified": report.verified,
            "quantum_target_class": _class_json(report.target_class),
        })
    else:
        _print_paradox_text(report)
    _diagnostic(f"ghzport: paradox wall clock: {elapsed:.6f} s")
    if not report.verified:
        _fail("paradox-mismatch",
              f"the N = {args.N} contradiction did not verify as predicted")
        return _EXIT_MISMATCH
    return _EXIT_OK


def _bundled_names() -> list:
    root = resources.files("ghzport").joinpath("scenarios")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def _cmd_examples(args) -> int:
    if args.name is None:
        for name in _bundled_names():
            _emit(name)
        return _EXIT_OK
    resource = resources.files("ghzport").joinpath("scenarios", f"{args.name}.json")
    if not resource.is_file():
        _fail("invalid", f"no bundled scenario named {args.name!r}; "
              f"available: {', '.join(_bundled_names())}")
        return _EXIT_ERROR
    sys.stdout.write(resource.read_text(encoding="utf-8"))
    return _EXIT_OK


# --- dispatch ---------------------------------------------------------------


def _at_least(minimum: int):
    """argparse type for an integer option that must be >= ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzport",
        description="Quantum predictions and local-hidden-variable falsification "
                    "for GHZ experiments on symmetric multiport beam splitters.",
    )
    parser.add_argument("--version", action="version", version=f"ghzport {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_format(sub):
        sub.add_argument("--format", choices=("text", "records"), default="text",
                         help="aligned text or line-delimited JSON records")

    sub = commands.add_parser("multiport", help="print a Bell multiport unitary")
    sub.add_argument("--ports", type=int, required=True, metavar="M")
    add_format(sub)
    sub.set_defaults(handler=_cmd_multiport)

    sub = commands.add_parser("probability",
                              help="full joint-detection probability table")
    sub.add_argument("scenario", help="scenario file (JSON)")
    add_format(sub)
    sub.set_defaults(handler=_cmd_probability)

    sub = commands.add_parser("correlate",
                              help="correlation: closed form, brute force, exact class")
    sub.add_argument("scenario", help="scenario file (JSON)")
    add_format(sub)
    sub.set_defaults(handler=_cmd_correlate)

    sub = commands.add_parser("sample", help="seeded outcome sampling")
    sub.add_argument("scenario", help="scenario file (JSON)")
    sub.add_argument("--shots", type=_at_least(1), default=None)
    sub.add_argument("--seed", type=_at_least(0), default=None)
    add_format(sub)
    sub.set_defaults(handler=_cmd_sample)

    sub = commands.add_parser("lhv-search",
                              help="count deterministic local models meeting the "
                                   "scenario's constraints")
    sub.add_argument("scenario", help="scenario file (JSON) with a constraints block")
    add_format(sub)
    sub.set_defaults(handler=_cmd_lhv_search)

    sub = commands.add_parser("paradox",
                              help="build, verify and report an N = M+1 contradiction")
    sub.add_argument("--N", type=int, required=True, dest="N",
                     help="particle count (>= 4; ports M = N-1)")
    sub.add_argument("--skip-enumeration", action="store_true",
                     help="skip the exhaustive model count")
    add_format(sub)
    sub.set_defaults(handler=_cmd_paradox)

    sub = commands.add_parser("examples", help="list or print bundled scenarios")
    sub.add_argument("--name", default=None, help="print this bundled scenario")
    sub.set_defaults(handler=_cmd_examples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ScenarioError as exc:
        _fail("scenario", f"{len(exc.errors)} validation error(s) in "
              f"{exc.source or 'scenario'}")
        for message in exc.errors:
            _diagnostic(f"  - {message}")
        return _EXIT_ERROR
    except ResourceLimitError as exc:
        _fail("guard", str(exc))
        return _EXIT_GUARD
    except ComputationIntegrityError as exc:
        _fail("integrity", str(exc))
        return _EXIT_ERROR
    except (ValueError, GhzportError) as exc:
        _fail("invalid", str(exc))
        return _EXIT_ERROR


def run() -> None:
    """Console entry point.

    Freezes the collector once the imports are done, so that every later
    full collection, the one at interpreter exit included, skips the
    import-time objects. ``main`` and library use leave the collector as is.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
