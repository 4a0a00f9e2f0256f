"""``--format text``: one renderer per record type, returning its lines."""

from .angles import Residue, _turns_radians

#: 1-based paradox setting index -> its letter (graded, reference).
_LETTERS = {1: "g", 2: "r"}


def _symbol(klass) -> str:
    return Residue(klass["k"], klass["mod"]).symbol()


def _angle_text(entry) -> str:
    """An echoed angle, a reduced "p/q" string of a turn or a float of radians
    in [0, 2*pi), read without parsing it: radians to 12 significant digits,
    then "(p/q of 2*pi)" when exact."""
    if isinstance(entry, str):
        numerator, denominator = map(int, entry.split("/"))
        return f"{_turns_radians(numerator, denominator):.12g} ({entry} of 2*pi)"
    return f"{entry:.12g}"


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
