"""Command-line front end.

Subcommands: multiport, probability, correlate, sample, lhv-search, paradox,
examples. Every subcommand takes ``--format text`` (aligned, human-readable)
or ``--format records`` (line-delimited JSON objects, one record per line).

Records first: each ``_cmd_*`` handler computes its result, then yields it as
record dicts, which ``main`` hands to one writer. ``--format records`` prints
each as a JSON line; ``--format text`` renders it by record type in
``ghzport.text``, reading the latest earlier record of each type where needed
(the ``run`` record carries the scenario). Table rows skip the dicts: a
handler yields them as a callable returning the lines for a format, written
by ``quantum._table_rows``. Nothing is yielded before the result is
computed, so an error leaves stdout empty.

Processes start ``main`` through ``ghzport.__main__.run``. Only
``ghzport.closed`` (the closed form, and numpy with it) loads with this
module; every other layer loads on first use. Each function a handler calls
from ``scenario``, ``paradox``, ``lhv``, ``multiport`` or ``quantum`` is a
module global made by ``_on_first_call``, which imports its module when
first called, and stays a global because ``perfbench/layers.py`` and the
tests patch it (ROADMAP item 2).

Output discipline: stdout carries results only and is byte-identical across
reruns with the same inputs and seed; diagnostics (validation notes, wall
clock, errors) go to stderr. Error exits are machine-greppable one-liners of
the form ``ghzport: error [code] message``.

Exit codes: 0 success (for paradox: contradiction verified), 1 input or
integrity error, 2 usage error, 3 enumeration guard exceeded or out of memory
(shots too many to hold, or a ``MemoryError``), 4 paradox verdict mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from importlib import import_module

from . import __version__
from .angles import angle_to_json
from .closed import correlation_closed, perfect_correlation_class
from .errors import (
    ComputationIntegrityError,
    GhzportError,
    ResourceLimitError,
    ScenarioError,
)

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


def _file_run_record(command: str, scenario) -> dict:
    from .scenario import scenario_to_data
    return _run_record(command, scenario=scenario_to_data(scenario))


def _on_first_call(module: str, name: str):
    """A stand-in for ``ghzport.<module>.<name>`` that looks the function up
    at each call, so that its module is imported by the first call."""
    def forward(*args, **kwargs):
        return getattr(import_module(f"ghzport.{module}"), name)(*args, **kwargs)
    forward.__name__ = forward.__qualname__ = name
    return forward


parse_scenario = _on_first_call("scenario", "parse_scenario")
run_paradox = _on_first_call("paradox", "run_paradox")
count_satisfying = _on_first_call("lhv", "count_satisfying")
ghz_forced_value = _on_first_call("lhv", "ghz_forced_value")
bell_multiport = _on_first_call("multiport", "bell_multiport")
full_distribution = _on_first_call("quantum", "full_distribution")
correlation_brute = _on_first_call("quantum", "correlation_brute")
sample_outcomes = _on_first_call("quantum", "sample_outcomes")


def _load_scenario(args):
    scenario = parse_scenario(args.scenario)
    for note in scenario.notes:
        _diagnostic(f"ghzport: note: {note}")
    return scenario


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
        from .quantum import _table_rows
        head, tail = (('{"record": "probability", "detectors": [', '], "p": {!r}}}\n')
                      if fmt == "records" else ("  (", ")  p = {:.12g}\n"))
        return _table_rows(scenario.config, head, lambda s: tail.format(probs[s]))

    yield _file_run_record("probability", scenario)
    yield rows
    yield {"record": "probability-total", "total": distribution.total}


def _cmd_correlate(args):
    scenario = _load_scenario(args)
    closed = correlation_closed(scenario.config, scenario.phases)
    brute = correlation_brute(scenario.config, scenario.phases)
    perfect = perfect_correlation_class(scenario.config, scenario.phases)
    yield _file_run_record("correlate", scenario)
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
        from .quantum import _table_rows
        head, tail = (('{"record": "sample-count", "detectors": [',
                       '], "count": {}, "frequency": {!r}}}\n') if fmt == "records"
                      else ("  (", ")  count = {}  frequency = {:.6f}\n"))
        return _table_rows(scenario.config, head, lambda c: tail.format(c, c / shots),
                           result.counts.indices, result.counts.frequencies)

    yield _file_run_record("sample", scenario)
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
    yield _file_run_record("lhv-search", scenario)
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


def _cmd_examples(args):
    from importlib import resources  # only this command reads the bundle

    root = resources.files("ghzport").joinpath("scenarios")
    names = sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))
    if args.name is None:
        yield lambda fmt: [name + "\n" for name in names]
        return
    if args.name not in names:
        raise GhzportError(f"no bundled scenario named {args.name!r}; "
                           f"available: {', '.join(names)}")
    text = root.joinpath(f"{args.name}.json").read_text(encoding="utf-8")
    yield lambda fmt: [text]


def _write(records, fmt: str) -> dict:
    """Print each record (or callable of table rows) in ``fmt`` and return the
    latest record of each type."""
    seen = {}
    if fmt == "text":
        from .text import _TEXT
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
    except (ResourceLimitError, MemoryError) as exc:
        _fail("guard", str(exc) or "out of memory")
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

