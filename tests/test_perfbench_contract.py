"""The benchmark's traced run patches names in ghzport's modules.

perfbench/layers.py wraps functions where ghzport.cli, ghzport.paradox and
ghzport.quantum look them up as module globals. Renaming or removing one of
those names breaks the traced run at import, and calling a function other
than through its module global hides it from the trace. These tests load
layers.py the way ``perfbench/run.py --trace 1`` does and check both, and
run ``perfbench/run.py --trace 1`` itself, briefly, on every workload.
"""

import importlib.util
import io
import json
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import ghzport.cli as cli

ROOT = Path(__file__).resolve().parents[1]
BUNDLED = str(ROOT / "src" / "ghzport" / "scenarios" / "ghz-n4-m3.json")


@pytest.fixture()
def layers(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sys, "path", list(sys.path))  # layers.py prepends src/
    path = ROOT / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves(layers):
    assert layers._ORIGINAL
    for (module, name), original in layers._ORIGINAL.items():
        assert callable(original), f"{module.__name__}.{name}"


def test_call_sites_go_through_patched_names(layers):
    tracer = layers.Tracer()
    out, err = io.StringIO(), io.StringIO()
    with layers.instrumented(tracer), redirect_stdout(out), redirect_stderr(err):
        assert cli.main(["paradox", "--N", "4", "--format", "records"]) == 0
    names = {span[0] for span in tracer.spans}
    assert {"paradox.run", "paradox.build", "paradox.verify_quantum",
            "quantum.closed_exact", "lhv.forced", "lhv.count"} <= names
    for (module, name), original in layers._ORIGINAL.items():
        assert getattr(module, name) is original


def test_every_paradox_experiment_goes_through_the_patched_name(layers):
    tracer = layers.Tracer()
    out, err = io.StringIO(), io.StringIO()
    with layers.instrumented(tracer), redirect_stdout(out), redirect_stderr(err):
        assert cli.main(["paradox", "--N", "64", "--format", "records"]) == 0
    opened = Counter(span[0] for span in tracer.spans)
    assert opened["quantum.closed_exact"] == 65  # 64 swaps and the all-reference target
    assert opened["paradox.verify_quantum"] == 1


def traced(layers, *commands):
    """The tracer of instrumented ``cli.main`` runs of ``commands``, in order,
    in records format."""
    tracer = layers.Tracer()
    out, err = io.StringIO(), io.StringIO()
    with layers.instrumented(tracer), redirect_stdout(out), redirect_stderr(err):
        for argv in commands:
            assert cli.main([*argv, "--format", "records"]) == 0
    return tracer


@pytest.mark.parametrize("argv, spans", [
    (["correlate"], {"quantum.distribution", "quantum.brute", "quantum.perfect_class"}),
    (["sample", "--shots", "100"], {"quantum.distribution", "quantum.sample"}),
    (["probability"], {"quantum.distribution"}),
])
def test_table_commands_go_through_patched_names(layers, argv, spans):
    tracer = traced(layers, [argv[0], BUNDLED, *argv[1:]])
    # cli.parse_scenario forwards to ghzport.scenario; the span and the file
    # count show that the call still goes through the patched name
    opened = Counter(span[0] for span in tracer.spans)
    assert spans | {"scenario.parse"} <= set(opened)
    assert tracer.counters["scenario.files"] > 0
    assert tracer.counters["quantum.outcomes"] > 0
    # cli.full_distribution is wrapped around the original, so the table is
    # traced once, not again through the patched quantum.full_distribution
    assert opened["quantum.distribution"] == 1


def test_lhv_search_goes_through_the_patched_cli_names(layers):
    # paradox reaches lhv through paradox.* globals; lhv-search through cli.*.
    # Two runs: a first call into a lazily loaded module must not replace
    # the patched name, or the second run would go untraced.
    tracer = traced(layers, ["lhv-search", BUNDLED], ["lhv-search", BUNDLED])
    opened = Counter(span[0] for span in tracer.spans)
    assert (opened["scenario.parse"], opened["lhv.count"], opened["lhv.forced"]) == (2, 2, 2)
    assert tracer.counters["lhv.models"] > 0


def test_multiport_goes_through_the_patched_name(layers):
    tracer = traced(layers, ["multiport", "--ports", "3"])
    assert "multiport.build" in {span[0] for span in tracer.spans}


@pytest.mark.parametrize("workload", [
    workload["name"] for workload in
    json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]])
def test_traced_run_completes(workload):
    """The harness itself must not raise: layers.call_main catches whatever
    cli.main raises, so a nonzero exit is the harness's own failure."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "0.1", "--trace", "1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
