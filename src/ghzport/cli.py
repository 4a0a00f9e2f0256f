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
computed, so an error leaves stdout empty. ``json`` is imported only when
records are written.

``_COMMANDS`` describes the subcommands once: help, positionals and options.
``main`` reads argv first with ``_plain_args``, which accepts only the plain
spelling (a subcommand, its positionals, and each option spelt in full at
most once with a value not starting with ``-``) and returns the namespace
argparse would. Every other argv goes to ``build_parser``, the table's
argparse rendering: help, ``--version``, usage errors, abbreviations,
``--option=value``, repeated options and negative numbers keep argparse's
bytes and exit codes, and only then do argparse, gettext and locale load.

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

import sys
import time
from importlib import import_module
from types import SimpleNamespace

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
    else:
        import json  # only records format writes JSON
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

_SCENARIO = ("scenario", "scenario file (JSON)")
_FORMAT = {"flag": "--format", "dest": "format", "choices": ("text", "records"),
           "default": "text", "help": "aligned text or line-delimited JSON records"}

#: Each subcommand's help, the defaults it sets (its handler, and a fixed
#: format where it has no ``--format``), its positionals as (name, help) and
#: its options: ``add_argument``'s keywords plus the ``flag`` and, for an
#: integer with a lower bound, the ``bound``. An absent default is None.
#: ``build_parser`` renders the table; ``_plain_args`` reads argv with it.
_COMMANDS = {
    "multiport": ("print a Bell multiport unitary", {"handler": _cmd_multiport}, (), (
        {"flag": "--ports", "dest": "ports", "type": int, "required": True, "metavar": "M"},
        _FORMAT)),
    "probability": ("full joint-detection probability table",
                    {"handler": _cmd_probability}, (_SCENARIO,), (_FORMAT,)),
    "correlate": ("correlation: closed form, brute force, exact class",
                  {"handler": _cmd_correlate}, (_SCENARIO,), (_FORMAT,)),
    "sample": ("seeded outcome sampling", {"handler": _cmd_sample}, (_SCENARIO,), (
        {"flag": "--shots", "dest": "shots", "type": int, "bound": 1},
        {"flag": "--seed", "dest": "seed", "type": int, "bound": 0},
        _FORMAT)),
    "lhv-search": ("count deterministic local models meeting the scenario's constraints",
                   {"handler": _cmd_lhv_search},
                   (("scenario", "scenario file (JSON) with a constraints block"),), (_FORMAT,)),
    "paradox": ("build, verify and report an N = M+1 contradiction",
                {"handler": _cmd_paradox}, (), (
                    {"flag": "--N", "dest": "N", "type": int, "required": True,
                     "help": "particle count (>= 4; ports M = N-1)"},
                    {"flag": "--skip-enumeration", "dest": "skip_enumeration",
                     "action": "store_true", "default": False,
                     "help": "skip the exhaustive model count"},
                    _FORMAT)),
    "examples": ("list or print bundled scenarios",
                 {"handler": _cmd_examples, "format": "text"}, (), (
                     {"flag": "--name", "dest": "name", "help": "print this bundled scenario"},)),
}


def _at_least(minimum: int):
    """argparse type for an integer option that must be >= ``minimum``."""
    import argparse

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def build_parser():
    """``_COMMANDS`` rendered as an ``argparse.ArgumentParser``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="ghzport",
        description="Quantum predictions and local-hidden-variable falsification "
                    "for GHZ experiments on symmetric multiport beam splitters.",
    )
    parser.add_argument("--version", action="version", version=f"ghzport {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (text, defaults, positionals, options) in _COMMANDS.items():
        sub = commands.add_parser(name, help=text)
        for positional, positional_help in positionals:
            sub.add_argument(positional, help=positional_help)
        for option in options:
            keywords = {k: v for k, v in option.items() if k not in ("flag", "bound")}
            if "bound" in option:
                keywords["type"] = _at_least(option["bound"])
            sub.add_argument(option["flag"], **keywords)
        sub.set_defaults(**defaults)
    return parser


def _plain_args(argv):
    """``build_parser().parse_args(argv)``'s namespace, read from ``_COMMANDS``
    when ``argv`` is spelt plainly (see the module docstring); else None.
    It prints nothing."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, defaults, positionals, options = _COMMANDS[argv[0]]
    unseen = {option["flag"]: option for option in options}
    values, given, tokens = {"command": argv[0], **defaults}, [], iter(argv[1:])
    for token in tokens:
        option = unseen.pop(token, None)  # each option at most once
        if option is None:
            if token.startswith("-"):
                return None
            given.append(token)
        elif option.get("action") == "store_true":
            values[option["dest"]] = True
        else:
            text = next(tokens, "-")
            try:
                value = option.get("type", str)(text)
            except ValueError:
                return None
            if (text.startswith("-") or value < option.get("bound", value)
                    or value not in option.get("choices", (value,))):
                return None
            values[option["dest"]] = value
    if len(given) != len(positionals) or any(o.get("required") for o in unseen.values()):
        return None
    values.update((option["dest"], option.get("default")) for option in unseen.values())
    values.update(zip((name for name, _ in positionals), given))
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv)
    if args is None:
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

