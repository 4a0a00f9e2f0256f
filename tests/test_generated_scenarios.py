"""Generated scenarios against the benchmark's independent output checks.

perfbench/checks.py recomputes each subcommand's records from the README's
closed forms and shares no code with ghzport; the benchmark only shows it
fixed shapes. Here hypothesis writes small scenario files (N 1-6, M 2-12 with
composite M, M**N <= 4096; exact "p/q", float and mixed phases, shared rows,
optional constraints blocks with a planted model or random classes, optional
sampling blocks), runs ``correlate``, ``probability``, ``sample`` and, with
constraints, ``lhv-search`` through ``cli.main`` in records format, and
requires exit 0 and ``checks.CHECKERS[kind]`` to return None. checks.py is
loaded from its file and not changed.
"""

import importlib.util
import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import ghzport.cli as cli

ROOT = Path(__file__).resolve().parents[1]

#: Most deterministic models a generated catalog spans, so that the checks'
#: dynamic program stays fast.
MODEL_LIMIT = 10**5
#: Every (N, M) a generated scenario takes: N 1-6, M 2-12, M**N <= 4096.
SHAPES = [(n, m) for n in range(1, 7) for m in range(2, 13) if m**n <= 4096]


def load_checks():
    spec = importlib.util.spec_from_file_location(
        "perfbench_checks", ROOT / "perfbench" / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = load_checks()


@st.composite
def phase_entry(draw, kind):
    """An exact "p/q" (unreduced and outside one turn too) or radians."""
    if kind == "exact" or (kind == "mixed" and draw(st.booleans())):
        denominator = draw(st.integers(1, 24))
        return f"{draw(st.integers(-denominator, 2 * denominator))}/{denominator}"
    return draw(st.floats(-2 * math.pi, 4 * math.pi, allow_nan=False))


def phase_row(kind, ports):
    return st.lists(phase_entry(kind), min_size=ports, max_size=ports)


@st.composite
def phases(draw, kind, particles, ports):
    """N rows, some repeating the first. On the exact track the last row may
    be planted so that E is exactly gamma_M^k: it takes r_m = -u_m - m*k/M
    turns, u_m being the sum of the other rows' entries at port m."""
    rows = [draw(phase_row(kind, ports))]
    for _ in range(particles - 1):
        rows.append(list(rows[0]) if draw(st.booleans()) else draw(phase_row(kind, ports)))
    if kind == "exact" and draw(st.booleans()):
        k = draw(st.integers(0, ports - 1))
        sums = [sum(Fraction(row[m]) for row in rows[:-1]) for m in range(ports)]
        last = [(-sums[m] - Fraction(m * k, ports)) % 1 for m in range(ports)]
        rows[-1] = [f"{turns.numerator}/{turns.denominator}" for turns in last]
    return rows


@st.composite
def constraints(draw, kind, ports, rows):
    """Per station 1-3 setting rows (fresh or the station's phases row) over at
    most MODEL_LIMIT models, and 1-3 constraints whose classes either a
    planted model meets or are drawn at random (up to 2M - 1, reduced)."""
    counts = draw(st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows)))
    while ports ** sum(counts) > MODEL_LIMIT:
        counts[counts.index(max(counts))] -= 1
    settings_block = [[list(row) if draw(st.booleans()) else draw(phase_row(kind, ports))
                       for _ in range(count)] for row, count in zip(rows, counts)]
    patterns = draw(st.lists(st.tuples(*(st.integers(1, c) for c in counts)),
                             min_size=1, max_size=3))
    if draw(st.booleans()):  # planted: every constraint holds for one model
        model = [draw(st.lists(st.integers(0, ports - 1), min_size=c, max_size=c))
                 for c in counts]
        classes = [sum(model[l][i - 1] for l, i in enumerate(p)) % ports
                   + ports * draw(st.integers(0, 1)) for p in patterns]
    else:
        classes = draw(st.lists(st.integers(0, 2 * ports - 1),
                                min_size=len(patterns), max_size=len(patterns)))
    return {"settings": settings_block,
            "require": [{"pattern": list(p), "class": c} for p, c in zip(patterns, classes)]}


@st.composite
def scenarios(draw):
    """(scenario document, extra ``sample`` argv)."""
    particles, ports = draw(st.sampled_from(SHAPES))
    kind = draw(st.sampled_from(["exact", "float", "mixed"]))
    rows = draw(phases(kind, particles, ports))
    document = {"schema": "ghzport-scenario/1", "particles": particles, "ports": ports,
                "phases": rows}
    if draw(st.booleans()):
        document["constraints"] = draw(constraints(kind, ports, rows))
    shots = st.integers(1, 3000)
    sample_argv = []
    if draw(st.booleans()):
        document["sampling"] = {"shots": draw(shots)}
        if draw(st.booleans()):
            document["sampling"]["seed"] = draw(st.integers(0, 2**32 - 1))
    if "sampling" not in document or draw(st.booleans()):
        sample_argv += ["--shots", str(draw(shots))]
    if draw(st.booleans()):
        sample_argv += ["--seed", str(draw(st.integers(0, 2**32 - 1)))]
    return document, sample_argv


def run(argv):
    """(exit code, stdout) of ``cli.main(argv)``."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_every_command_passes_the_independent_checks(case):
    document, sample_argv = case
    with tempfile.TemporaryDirectory() as directory:
        path = str(Path(directory) / "scenario.json")
        Path(path).write_text(json.dumps(document), encoding="utf-8")
        commands = [["correlate", path], ["probability", path], ["sample", path, *sample_argv]]
        if "constraints" in document:
            commands.append(["lhv-search", path])
        for command in commands:
            argv = [*command, "--format", "records"]
            code, stdout = run(argv)
            assert code == 0, argv
            reason = checks.CHECKERS[command[0]](document, argv, stdout)
            assert reason is None, (argv, reason)
