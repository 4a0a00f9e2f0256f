"""Command-line front end.

Subcommands: multiport, probability, correlate, sample, lhv-search, paradox,
examples. Every subcommand takes ``--format text`` (aligned, human-readable)
or ``--format records`` (line-delimited JSON objects, one record per line).

Records first: each ``_cmd_*`` handler computes its result, then yields it as
record dicts, which ``main`` hands to one writer. ``--format records`` prints
each as a JSON line; ``--format text`` renders it by record type, reading the
latest earlier record of each type where it needs more (the ``run`` record
carries the scenario). Table rows skip the dicts: a handler yields them as a
callable returning the lines for a format. Nothing is yielded before the
result is computed, so an error leaves stdout empty.

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
import os
import sys
import time
from importlib import resources

import numpy as np

from . import __version__
from .angles import PhaseAngle, Residue
from .errors import (
    ComputationIntegrityError,
    GhzportError,
    ResourceLimitError,
    ScenarioError,
)
from .lhv import count_satisfying, ghz_forced_value
from .multiport import bell_multiport
from .paradox import run_paradox
from .quantum import (
    _BLOCK,
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


def _diagnostic(message: str) -> None:
    print(message, file=sys.stderr)


def _fail(code: str, message: str) -> None:
    _diagnostic(f"ghzport: error [{code}] {message}")


def _complex_pair(value: complex) -> list:
    return [value.real, value.imag]


def _class_json(residue):
    if residue is None:
        return None
    return {"k": residue.value, "mod": residue.modulus}


def _forced_json(forced) -> dict:
    """The forced_pattern and forced_class fields of a forced value or None."""
    if forced is None:
        return {"forced_pattern": None, "forced_class": None}
    return {"forced_pattern": [i + 1 for i in forced.pattern],
            "forced_class": _class_json(forced.residue)}


def _witness_json(witness):
    return None if witness is None else [list(v) for v in witness.assignments]


def _run_record(command: str, **extra) -> dict:
    return {"record": "run", "tool": "ghzport", "version": __version__,
            "command": command, **extra}


def _load_scenario(args) -> Scenario:
    scenario = parse_scenario(args.scenario)
    for note in scenario.notes:
        _diagnostic(f"ghzport: note: {note}")
    return scenario


def _half_labels(values, digits: int, labels, lead: str):
    """Label text and digit sum of each half value: its ``digits`` detector
    labels, digit k read as labels[k], each after ", " but the first after
    ``lead``."""
    text, sums = np.full(len(values), "", dtype=object), np.zeros(len(values), dtype=np.intp)
    for place in range(digits, 0, -1):  # least significant digit first
        values, column = np.divmod(values, len(labels))
        text = (lead if place == 1 else ", ") + labels[column] + text
        sums += column
    return text, sums


def _table_rows(cfg, head: str, tail, index=None, values=None):
    """One string per block of _BLOCK rows: for each ascending lex index
    (every outcome when ``index`` is None), head + 1-based detector labels +
    tail(v), v being the row's entry of ``values`` or else its class.

    An index splits into a high and a low half of its digits. The M label
    strings are formatted once, and every low half value (at most sqrt(M**N))
    is labelled once; high half values and tails only as they occur in a
    block. A row is three gathered strings.
    """
    ports, low_digits = cfg.ports, cfg.particles // 2
    width = ports**low_digits
    labels = np.array([str(k + 1) for k in range(ports)], dtype=object)
    low_text, low_sums = _half_labels(np.arange(width), low_digits, labels, ", ")
    total = cfg.outcome_count if index is None else len(index)
    for start in range(0, total, _BLOCK):
        stop = min(start + _BLOCK, total)
        block = np.arange(start, stop) if index is None else index[start:stop]
        keys, high = np.unique(block // width, return_inverse=True)
        high_text, high_sums = _half_labels(keys, cfg.particles - low_digits, labels, head)
        low = block % width
        if values is None:
            keys = (high_sums[high] + low_sums[low]) % ports
        else:
            keys = values[start:stop]
        keys, pick = np.unique(keys, return_inverse=True)
        parts = np.empty((stop - start, 3), dtype=object)
        parts[:, 0], parts[:, 1] = high_text[high], low_text[low]
        parts[:, 2] = np.array([tail(k) for k in keys.tolist()], dtype=object)[pick]
        yield "".join(parts.ravel().tolist())


# --- subcommands: each yields its records once the result is computed --------


def _cmd_multiport(args):
    matrix = bell_multiport(args.ports)
    yield _run_record("multiport", ports=args.ports)
    for m, row in enumerate(matrix.entries):
        yield {"record": "multiport-row", "input_port": m + 1,
               "entries": [_complex_pair(z) for z in row]}


def _cmd_probability(args):
    scenario = _load_scenario(args)
    distribution = full_distribution(scenario.config, scenario.phases)
    probs = distribution.class_probabilities().tolist()

    def rows(fmt):
        head, tail = (('{"record": "probability", "detectors": [', '], "p": {!r}}}\n')
                      if fmt == "records" else ("  (", ")  p = {:.12g}\n"))
        return _table_rows(scenario.config, head, lambda s: tail.format(probs[s]))

    yield _run_record("probability", scenario=scenario_to_data(scenario))
    yield rows
    yield {"record": "probability-total", "total": distribution.total}


def _cmd_correlate(args):
    scenario = _load_scenario(args)
    closed = correlation_closed(scenario.config, scenario.phases)
    brute = correlation_brute(scenario.config, scenario.phases)
    perfect = perfect_correlation_class(scenario.config, scenario.phases)
    yield _run_record("correlate", scenario=scenario_to_data(scenario))
    yield {
        "record": "correlation",
        "closed": _complex_pair(closed.value),
        "brute": _complex_pair(brute.value),
        "difference": abs(closed.value - brute.value),
        "exact_class": _class_json(closed.exact_class),
        "perfect_class": _class_json(perfect),
    }


def _cmd_sample(args):
    scenario = _load_scenario(args)
    shots = args.shots
    seed = args.seed
    if shots is None and scenario.sampling is not None:
        shots = scenario.sampling.shots
    if seed is None:
        seed = scenario.sampling.seed if scenario.sampling is not None else 0
    if shots is None:
        raise GhzportError("sample needs --shots or a sampling block in the scenario")
    result = sample_outcomes(scenario.config, scenario.phases, shots, seed)

    def rows(fmt):
        head, tail = (('{"record": "sample-count", "detectors": [',
                       '], "count": {}, "frequency": {!r}}}\n') if fmt == "records"
                      else ("  (", ")  count = {}  frequency = {:.6f}\n"))
        return _table_rows(scenario.config, head, lambda c: tail.format(c, c / shots),
                           result.counts.indices, result.counts.frequencies)

    yield _run_record("sample", scenario=scenario_to_data(scenario))
    yield {"record": "sample-meta", "generator": result.generator, "seed": result.seed,
           "shots": result.shots}
    yield rows
    yield {"record": "sample-correlation", "estimate": _complex_pair(result.correlation.value)}


def _cmd_lhv_search(args):
    scenario = _load_scenario(args)
    if scenario.catalog is None:
        raise GhzportError("lhv-search needs a constraints block in the scenario")
    if not scenario.constraints:
        raise GhzportError("lhv-search needs at least one constraint in constraints.require")
    result = count_satisfying(scenario.catalog, scenario.constraints)
    forced = ghz_forced_value(scenario.constraints, scenario.catalog)
    yield _run_record("lhv-search", scenario=scenario_to_data(scenario))
    yield {"record": "lhv-search", "model_space": scenario.catalog.model_count,
           "satisfying": result.count, "witness": _witness_json(result.witness),
           **_forced_json(forced)}


def _cmd_paradox(args):
    report = run_paradox(args.N, enumerate_models=not args.skip_enumeration)
    scenario = report.scenario
    yield _run_record("paradox", particles=scenario.particles, ports=scenario.ports,
                      delta=angle_to_json(scenario.delta),
                      graded=[angle_to_json(a) for a in scenario.graded],
                      reference=[angle_to_json(a) for a in scenario.reference])
    for experiment, klass in zip(scenario.experiments, report.quantum_classes):
        yield {"record": "experiment", "label": experiment.label,
               "pattern": [i + 1 for i in experiment.pattern],
               "quantum_class": _class_json(klass)}
    yield {"record": "lhv", **_forced_json(report.forced),
           "swap_models": report.swap_model_count, "all_models": report.full_model_count,
           "witness": _witness_json(report.witness),
           "enumeration": report.enumeration_note or "complete"}
    yield {"record": "verdict", "contradiction": report.contradiction,
           "verified": report.verified,
           "quantum_target_class": _class_json(report.target_class)}


def _bundled_names() -> list:
    root = resources.files("ghzport").joinpath("scenarios")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def _cmd_examples(args):
    names = _bundled_names()
    if args.name is None:
        yield lambda fmt: [name + "\n" for name in names]
        return
    if args.name not in names:
        raise GhzportError(f"no bundled scenario named {args.name!r}; "
                           f"available: {', '.join(names)}")
    text = resources.files("ghzport").joinpath("scenarios", f"{args.name}.json").read_text(
        encoding="utf-8")
    yield lambda fmt: [text]


# --- text rendering: one renderer per record type -----------------------------

#: 1-based paradox setting index -> its letter (graded, reference).
_LETTERS = {1: "g", 2: "r"}


def _symbol(klass) -> str:
    return Residue(klass["k"], klass["mod"]).symbol()


def _angle_text(entry) -> str:
    return PhaseAngle.parse(entry).describe()


def _complex_text(pair) -> str:
    return f"{pair[0]:.12g} {pair[1]:+.12g}i"


def _witness_lines(witness, ports: int):
    for station, values in enumerate(witness):
        cells = "  ".join(f"I(setting {s + 1}) = {Residue(v, ports).symbol()}"
                          for s, v in enumerate(values))
        yield f"  station {station + 1}: {cells}"


def _text_run(run, seen):
    """The header each command prints before its results; lhv-search has none."""
    command = run["command"]
    if command == "multiport":
        yield (f"Bell multiport, M = {run['ports']} ports "
               f"(entry modulus 1/sqrt(M) = {1 / run['ports'] ** 0.5:.12g})")
        yield "rows: input port; columns: output port"
    elif command == "paradox":
        yield (f"GHZ paradox scenario: N = {run['particles']} particles, "
               f"M = {run['ports']} ports per station")
        yield f"delta = {_angle_text(run['delta'])}"
        yield "graded setting   g: " + "  ".join(map(_angle_text, run["graded"]))
        yield "reference setting r: " + "  ".join(map(_angle_text, run["reference"]))
        yield ""
        yield "experiment        settings      quantum class"
    elif command != "lhv-search":
        scenario = run["scenario"]
        yield (f"scenario: N = {scenario['particles']} particles, "
               f"M = {scenario['ports']} ports per station")
        yield "phases (radians; exact fractions of 2*pi in parentheses):"
        for l, row in enumerate(scenario["phases"]):
            yield f"  station {l + 1}: " + "  ".join(map(_angle_text, row))
        yield ""
        if command == "probability":
            yield "joint detection probabilities (detector labels are 1-based):"


def _text_correlation(record, seen):
    scenario = seen["run"]["scenario"]
    yield f"closed form:  E = {_complex_text(record['closed'])}"
    yield (f"brute force:  E = {_complex_text(record['brute'])}   "
           f"({scenario['ports'] ** scenario['particles']} outcomes)")
    yield f"|closed - brute| = {record['difference']:.3e}"
    exact, perfect = record["exact_class"], record["perfect_class"]
    yield (f"exact class: {_symbol(exact)}  (rational path)" if exact is not None
           else "exact class: none (inputs are not all exact rationals)")
    yield (f"perfect correlation: class {_symbol(perfect)}" if perfect is not None
           else "perfect correlation: none (|E| < 1)")


def _text_lhv_search(record, seen):
    scenario = seen["run"]["scenario"]
    yield f"deterministic model space: {record['model_space']} models"
    yield (f"models satisfying all {len(scenario['constraints']['require'])} constraints: "
           f"{record['satisfying']}")
    if record["witness"] is not None:
        yield "witness (lexicographically smallest):"
        yield from _witness_lines(record["witness"], scenario["ports"])
    else:
        yield "witness: none"
    pattern = record["forced_pattern"]
    yield (f"forced value: pattern ({', '.join(map(str, pattern))}) must give "
           f"{_symbol(record['forced_class'])}" if pattern is not None
           else "forced value: not derivable from these constraints")


def _text_lhv(record, seen):
    run = seen["run"]
    yield ""
    if record["forced_pattern"] is not None:
        pattern = " ".join(_LETTERS[i] for i in record["forced_pattern"])
        yield (f"algebraic stage: multiplying the {run['particles']} swap "
               f"constraints forces pattern [{pattern}] to {_symbol(record['forced_class'])}")
    else:
        yield "algebraic stage: no value is forced (unexpected)"
    if record["enumeration"] != "complete":
        yield f"exhaustive stage: {record['enumeration']}"
        return
    yield (f"exhaustive stage: {run['ports'] ** (2 * run['particles'])} models; "
           f"{record['swap_models']} satisfy the swap constraints; "
           f"{record['all_models']} satisfy all {run['particles'] + 1} constraints")
    if record["witness"] is not None:
        yield "witness for the swap constraints alone:"
        yield from _witness_lines(record["witness"], run["ports"])


def _text_verdict(record, seen):
    yield ""
    yield (f"contradiction: quantum predicts {_symbol(record['quantum_target_class'])} "
           f"(E = 1) at the all-reference pattern; local models force "
           f"{_symbol(seen['lhv']['forced_class'])}  -> "
           f"{'VERIFIED' if record['verified'] else 'UNCONFIRMED'}" if record["contradiction"]
           else "contradiction: NOT PRESENT (forced value matches the quantum class)")


_TEXT = {
    "run": _text_run,
    "multiport-row": lambda record, seen: [
        "  " + "  ".join(f"{re:+.9f}{im:+.9f}i" for re, im in record["entries"])],
    "probability-total": lambda record, seen: [f"total = {record['total']:.12g}"],
    "correlation": _text_correlation,
    "sample-meta": lambda record, seen: [
        f"sampling: {record['shots']} shots, seed {record['seed']}, "
        f"generator {record['generator']}"],
    "sample-correlation": lambda record, seen: [
        f"estimated E = {_complex_text(record['estimate'])}"],
    "lhv-search": _text_lhv_search,
    "experiment": lambda record, seen: [
        f"  {record['label']:<15} {' '.join(_LETTERS[i] for i in record['pattern']):<13} "
        f"{_symbol(record['quantum_class'])}"],
    "lhv": _text_lhv,
    "verdict": _text_verdict,
}


def _write(records, fmt: str) -> dict:
    """Print each record (or callable of table rows) in ``fmt`` and return the
    latest record of each type."""
    seen = {}
    for record in records:
        if callable(record):
            sys.stdout.writelines(record(fmt))
            continue
        seen[record["record"]] = record
        if fmt == "records":
            print(json.dumps(record, separators=(", ", ": ")))
        else:
            for line in _TEXT[record["record"]](record, seen):
                print(line)
    return seen


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
    sub.set_defaults(handler=_cmd_examples, format="text")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        seen = _write(args.handler(args), args.format)
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
        if args.command == "paradox":  # the verdict did not come out as predicted
            _fail("paradox-mismatch", str(exc))
            return _EXIT_MISMATCH
        _fail("integrity", str(exc))
        return _EXIT_ERROR
    except (ValueError, GhzportError) as exc:
        _fail("invalid", str(exc))
        return _EXIT_ERROR
    if args.command in ("lhv-search", "paradox"):
        _diagnostic(f"ghzport: {args.command} wall clock: "
                    f"{time.perf_counter() - started:.6f} s")
    verdict = seen.get("verdict")
    if verdict is not None and not verdict["verified"]:
        _fail("paradox-mismatch", f"the N = {seen['run']['particles']} contradiction "
              f"did not verify as predicted")
        return _EXIT_MISMATCH
    return _EXIT_OK


def run() -> None:
    """Console entry point.

    Freezes the collector once the imports are done, so that every later
    full collection, the one at interpreter exit included, skips the
    import-time objects. ``main`` and library use leave the collector as is.
    A reader closing stdout early (``| head``) ends the run with exit 1 and
    no traceback: stdout then points at devnull (the ``signal`` docs' recipe).
    """
    gc.freeze()
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = _EXIT_ERROR
    sys.exit(code)


if __name__ == "__main__":
    run()
