"""Per-layer trace of ghzport, recorded from outside the program.

The traced run calls ``ghzport.cli.main`` in process on the workload's
commands. Spans (name, start, end, parent) are opened by wrappers that this
module installs around the public functions ``ghzport.cli`` imports, and
around the same functions where ``ghzport.paradox`` and ``ghzport.quantum``
call them internally, so layer spans nest under a ``cli.main`` span per
command. Spans stay in memory and are written out when the run ends.

Each pass runs the commands once untraced and once traced; the difference of
the two ``main`` totals is ``trace.overhead_s``. The layers are the modules:
``angles`` is a leaf every layer calls, so it is measured inside their times.
"""

from __future__ import annotations

import functools
import io
import re
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path("src").resolve()))
import ghzport.cli as cli  # noqa: E402
from ghzport import multiport, paradox, quantum  # noqa: E402

IMPORT_SAMPLES = 5

#: (name, unit, better, the end-to-end metric and workload it should move).
PER_LAYER = (
    ("import.numpy_s", "s", "lower", "setup_s, proc_p50_s on every workload; most on paradox-ladder"),
    ("import.ghzport_self_s", "s", "lower", "setup_s, proc_p50_s on every workload; most on paradox-ladder"),
    ("scenario.parse_s", "s", "lower", "proc_p50_s (small)"),
    ("scenario.files", "count", "higher", "proc_p50_s (small)"),
    ("multiport.build_s", "s", "lower", "multiport_s on outcome-tables"),
    ("quantum.distribution_s", "s", "lower", "correlate_s, sample_s, peak_rss_mb on outcome-tables; 0 on lhv-catalogs"),
    ("quantum.outcomes", "count", "lower", "correlate_s, sample_s, peak_rss_mb on outcome-tables"),
    ("quantum.table_bytes_computed", "bytes", "lower", "peak_rss_mb on outcome-tables"),
    ("quantum.brute_s", "s", "lower", "correlate_s on outcome-tables"),
    ("quantum.closed_exact_s", "s", "lower", "correlate_s on outcome-tables; paradox_s on paradox-ladder"),
    ("quantum.closed_float_s", "s", "lower", "correlate_s on outcome-tables"),
    ("quantum.perfect_class_s", "s", "lower", "correlate_s on outcome-tables"),
    ("quantum.sample_s", "s", "lower", "sample_s on outcome-tables"),
    ("quantum.shots", "count", "higher", "sample_s on outcome-tables"),
    ("quantum.shots_per_s", "1/s", "higher", "sample_s on outcome-tables"),
    ("quantum.table_walk_s", "s", "lower", "probability_s on outcome-tables"),
    ("lhv.count_s", "s", "lower", "lhv_search_s, wall_s on lhv-catalogs; paradox_s (N=4, 5) on paradox-ladder; 0 on outcome-tables"),
    ("lhv.models", "count", "higher", "lhv_search_s on lhv-catalogs"),
    ("lhv.models_per_s", "1/s", "higher", "lhv_search_s, wall_s on lhv-catalogs"),
    ("lhv.satisfying", "count", "higher", "lhv_search_s on lhv-catalogs"),
    ("lhv.hit_ratio", "ratio", "higher", "lhv_search_s on lhv-catalogs"),
    ("lhv.forced_s", "s", "lower", "lhv_search_s on lhv-catalogs; paradox_s on paradox-ladder"),
    ("paradox.build_s", "s", "lower", "paradox_s on paradox-ladder; 0 on lhv-catalogs"),
    ("paradox.verify_quantum_s", "s", "lower", "paradox_s on paradox-ladder"),
    ("paradox.exact_entries", "count", "lower", "paradox_s on paradox-ladder"),
    ("paradox.run_s", "s", "lower", "paradox_s on paradox-ladder"),
    ("cli.main_s", "s", "lower", "probability_s, sample_s on outcome-tables"),
    ("cli.self_s", "s", "lower", "probability_s, sample_s on outcome-tables"),
    ("cli.stdout_bytes", "bytes", "lower", "probability_s, sample_s on outcome-tables"),
    ("trace.overhead_s", "s", "lower", "none: the cost of tracing itself"),
)


class Tracer:
    """Spans as [name, start, end, parent index] plus counters, in memory."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.tables = []
        self._open = []

    @contextmanager
    def span(self, name):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._open.pop()
            record[2] = time.perf_counter()


def _closed_name(cfg, settings):
    return "quantum.closed_exact" if settings.all_exact else "quantum.closed_float"


def _wrap(tracer, function, name, count=None):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        with tracer.span(name(*args) if callable(name) else name):
            result = function(*args, **kwargs)
        if count is not None:
            count(tracer, result, *args)
        return result
    return traced


def _count_table(tracer, table, cfg, *_):
    outcomes = cfg.outcome_count
    tracer.counters["quantum.outcomes"] += outcomes
    # int32 digit sums, int64 classes and float64 probabilities per outcome
    tracer.counters["quantum.table_bytes_computed"] += outcomes * (4 + 8 + 8)


def _keep_table(tracer, table, *args):
    _count_table(tracer, table, *args)
    tracer.tables.append(table)


def _count_models(tracer, result, catalog, *_):
    tracer.counters["lhv.models"] += catalog.model_count
    tracer.counters["lhv.satisfying"] += result.count


def _count_shots(tracer, result, *_):
    tracer.counters["quantum.shots"] += result.shots


def _count_file(tracer, scenario, *_):
    tracer.counters["scenario.files"] += 1


def _count_entries(tracer, classes, scenario):
    tracer.counters["paradox.exact_entries"] += (
        len(scenario.experiments) * scenario.particles * scenario.ports)


def _build_multiport(ports):
    matrix = multiport.bell_multiport(ports)
    if not multiport.verify_unitarity(matrix):
        raise ValueError(f"bell_multiport({ports}) is not unitary")
    return matrix


def _patches(tracer):
    """(module, attribute, replacement) for every wrapped call site."""
    distribution = _wrap(tracer, quantum.full_distribution, "quantum.distribution", _count_table)
    count = _wrap(tracer, cli.count_satisfying, "lhv.count", _count_models)
    forced = _wrap(tracer, cli.ghz_forced_value, "lhv.forced")
    closed = _wrap(tracer, quantum.correlation_closed, _closed_name)
    return [
        (cli, "parse_scenario", _wrap(tracer, cli.parse_scenario, "scenario.parse", _count_file)),
        (cli, "bell_multiport", _wrap(tracer, _build_multiport, "multiport.build")),
        (cli, "full_distribution", _wrap(tracer, quantum.full_distribution, "quantum.distribution", _keep_table)),
        (quantum, "full_distribution", distribution),
        (cli, "correlation_brute", _wrap(tracer, cli.correlation_brute, "quantum.brute")),
        (cli, "correlation_closed", closed),
        (paradox, "correlation_closed", closed),
        (cli, "perfect_correlation_class", _wrap(tracer, cli.perfect_correlation_class, "quantum.perfect_class")),
        (cli, "sample_outcomes", _wrap(tracer, cli.sample_outcomes, "quantum.sample", _count_shots)),
        (cli, "count_satisfying", count),
        (paradox, "count_satisfying", count),
        (cli, "ghz_forced_value", forced),
        (paradox, "ghz_forced_value", forced),
        (cli, "run_paradox", _wrap(tracer, cli.run_paradox, "paradox.run")),
        (paradox, "build_scenario", _wrap(tracer, paradox.build_scenario, "paradox.build")),
        (paradox, "verify_quantum", _wrap(tracer, paradox.verify_quantum, "paradox.verify_quantum", _count_entries)),
    ]


_ORIGINAL = {(module, name): getattr(module, name) for module, name, _ in _patches(Tracer())}


@contextmanager
def instrumented(tracer):
    for module, name, replacement in _patches(tracer):
        setattr(module, name, replacement)
    try:
        yield
    finally:
        for (module, name), original in _ORIGINAL.items():
            setattr(module, name, original)


def call_main(argv):
    """Run ghzport.cli.main in process; returns (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the harness keeps going; the check reports it
            code = "uncaught exception: " + traceback.format_exc(limit=-1).strip()
    return code, out.getvalue(), time.perf_counter() - started


def import_times():
    """Median import.numpy_s and import.ghzport_self_s from -X importtime."""
    numpy_s, self_s = [], []
    line = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)")
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ghzport.cli"],
                              capture_output=True, text=True, cwd="src")
        rows = [m.groups() for m in map(line.match, done.stderr.splitlines()) if m]
        numpy_s.append(max(int(c) for s, c, _, name in rows if name == "numpy") / 1e6)
        self_s.append(sum(int(s) for s, c, _, name in rows if name.startswith("ghzport")) / 1e6)
    return statistics.median(numpy_s), statistics.median(self_s)


def _self_times(spans):
    """Self time of every span: its duration minus its children's."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _pass_metrics(tracer, untraced_s):
    spans = tracer.spans
    own = _self_times(spans)
    totals = Counter()
    for name, start, end, parent in spans:
        totals[name + "_s"] += end - start
    values = {name: float(totals[name]) for name, unit, *_ in PER_LAYER if unit == "s"}
    values.update({name: float(n) for name, n in tracer.counters.items()})
    values["cli.self_s"] = sum(t for t, s in zip(own, spans) if s[0] == "cli.main")
    values["trace.overhead_s"] = totals["cli.main_s"] - untraced_s
    values["quantum.shots_per_s"] = values.get("quantum.shots", 0) / max(totals["quantum.sample_s"], 1e-12)
    values["lhv.models_per_s"] = values.get("lhv.models", 0) / max(totals["lhv.count_s"], 1e-12)
    values["lhv.hit_ratio"] = values.get("lhv.satisfying", 0) / max(values.get("lhv.models", 0), 1)
    # Every span's self time plus its children's durations is its own duration,
    # so the self times under each cli.main add up to it; this is the residue.
    roots = [i for i, s in enumerate(spans) if s[0] == "cli.main"]
    tree_self = Counter()
    for index, (_, _, _, parent) in enumerate(spans):
        root = index
        while spans[root][3] is not None:
            root = spans[root][3]
        tree_self[root] += own[index]
    gap = max((abs(tree_self[r] - (spans[r][2] - spans[r][1])) for r in roots), default=0.0)
    return values, gap


def _untraced_pass(commands):
    outputs, total = [], 0.0
    for command in commands:
        code, stdout, elapsed = call_main(command.argv)
        outputs.append((code, stdout))
        total += elapsed
    return outputs, total


def _traced_pass(commands):
    tracer, outputs = Tracer(), []
    with instrumented(tracer):
        for command in commands:
            with tracer.span("cli.main"):
                code, stdout, _ = call_main(command.argv)
            outputs.append((code, stdout))
            tracer.counters["cli.stdout_bytes"] += len(stdout.encode("utf-8"))
            for table in tracer.tables if command.kind == "probability" else ():
                with tracer.span("quantum.table_walk"):
                    for outcome in table:
                        table[outcome]
            tracer.tables.clear()
    return outputs, tracer


def traced_run(commands, probes, seconds, check):
    """Pairs of untraced and traced in-process passes until ``seconds`` is
    used, alternating which goes first. An untimed first pass checks every
    output and settles first-call costs; later passes must repeat it."""
    began = time.perf_counter()
    commands = list(commands) + list(probes)
    expected = []
    for command in commands:
        code, stdout, _ = call_main(command.argv)
        expected.append((check(command, code, stdout), stdout))
    runs, spans, failures = [], [], []
    attempted = gap = 0
    # Start another pair only if one of average length still ends in time.
    while not runs or (time.perf_counter() - began) * (1 + 1 / len(runs)) <= seconds:
        started = time.perf_counter()
        if len(runs) % 2:
            traced, tracer = _traced_pass(commands)
            untraced, untraced_s = _untraced_pass(commands)
        else:
            untraced, untraced_s = _untraced_pass(commands)
            traced, tracer = _traced_pass(commands)
        for command, (reason, first), *outputs in zip(commands, expected, untraced, traced):
            for code, stdout in outputs:
                attempted += 1
                if reason is None and (code != 0 or stdout != first):
                    reason = "output differs from the first in-process run"
                if reason is not None:
                    failures.append({"argv": list(command.argv), "reason": reason})
        values, pass_gap = _pass_metrics(tracer, untraced_s)
        gap = max(gap, pass_gap)
        runs.append(values)
        spans.append([{"name": n, "start": s - started, "end": e - started, "parent": p}
                      for n, s, e, p in tracer.spans])
    metrics = {name: statistics.median(v.get(name, 0.0) for v in runs)
               for name, *_ in PER_LAYER}
    metrics["import.numpy_s"], metrics["import.ghzport_self_s"] = import_times()
    if gap > max(abs(metrics["trace.overhead_s"]), 1e-9):
        failures.append({"argv": [], "reason": f"self times miss their parent by {gap} s"})
    return {"metrics": metrics, "passes": len(runs), "attempted": attempted,
            "failed": len(failures), "failures": failures, "closure_gap_s": gap,
            "spans": spans}
