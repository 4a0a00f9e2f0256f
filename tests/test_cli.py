import gc
import json
import os
import subprocess
import sys
from importlib import resources

import pytest

import ghzport.cli as cli
from ghzport.cli import main
from ghzport.errors import ComputationIntegrityError
from ghzport.quantum import full_distribution, sample_outcomes
from ghzport.scenario import parse_scenario, parse_scenario_data

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SCENARIOS = resources.files("ghzport").joinpath("scenarios")

#: Commands whose stdout, in both formats, is pinned byte for byte in GOLDEN.
GOLDEN_COMMANDS = {
    "paradox-n4": ["paradox", "--N", "4"],
    "paradox-n5": ["paradox", "--N", "5"],
    "paradox-n48": ["paradox", "--N", "48"],
    "paradox-n64": ["paradox", "--N", "64"],
    "lhv-search-ghz-n4-m3": ["lhv-search", str(SCENARIOS / "ghz-n4-m3.json")],
    "lhv-search-ghz-n5-m4": ["lhv-search", str(SCENARIOS / "ghz-n5-m4.json")],
    "multiport-m3": ["multiport", "--ports", "3"],
    **{f"{kind}-{name}": [kind, str(SCENARIOS / f"{name}.json"), *extra]
       for kind, extra in (("correlate", []), ("probability", []),
                           ("sample", ["--shots", "1000", "--seed", "5"]))
       for name in ("bell-epr-n2-m3", "ghz-n4-m3")},
}


@pytest.fixture()
def ghz4_path(tmp_path):
    text = resources.files("ghzport").joinpath("scenarios", "ghz-n4-m3.json")
    path = tmp_path / "ghz-n4-m3.json"
    path.write_text(text.read_text(encoding="utf-8"), encoding="utf-8")
    return str(path)


@pytest.fixture()
def pair_path(tmp_path):
    doc = {
        "schema": "ghzport-scenario/1",
        "particles": 2,
        "ports": 2,
        "phases": [["0/1", "0/1"], ["0/1", "1/2"]],
        "sampling": {"shots": 100000, "seed": 9},
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """The environment of a child process that imports this source tree."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_python(*args, text=True):
    """Run ``python *args`` in a child process against this source tree."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=text,
                          env=child_env())


def run_module(*argv, text=True):
    """Run ``python -m ghzport`` in a child process against this source tree."""
    return run_python("-m", "ghzport", *argv, text=text)


def records_of(out):
    return [json.loads(line) for line in out.splitlines()]


def _rebuilt(record, **changes):
    """A copy of a ghzport record with some fields changed, through its constructor."""
    return type(record)(**{**vars(record), **changes})


class TestMultiport:
    def test_text_grid(self, capsys):
        code, out, _ = run_cli(capsys, "multiport", "--ports", "2")
        assert code == 0
        assert "M = 2 ports" in out
        assert out.count("i") >= 4

    def test_records(self, capsys):
        code, out, _ = run_cli(capsys, "multiport", "--ports", "3", "--format", "records")
        assert code == 0
        records = records_of(out)
        assert records[0]["record"] == "run"
        rows = [r for r in records if r["record"] == "multiport-row"]
        assert len(rows) == 3
        assert rows[0]["entries"][0] == pytest.approx([3**-0.5, 0.0])

    def test_bad_port_count(self, capsys):
        code, _, err = run_cli(capsys, "multiport", "--ports", "65")
        assert code == 1
        assert "error [invalid]" in err


class TestCorrelate:
    def test_text_reports_alpha_squared(self, capsys, ghz4_path):
        code, out, _ = run_cli(capsys, "correlate", ghz4_path)
        assert code == 0
        assert "exact class: γ_3^2" in out
        assert "perfect correlation: class γ_3^2" in out

    def test_m2_pi_sum_gives_minus_one(self, capsys, pair_path):
        code, out, _ = run_cli(capsys, "correlate", pair_path)
        assert code == 0
        assert "E = -1 " in out

    def test_records_round_trip(self, capsys, ghz4_path):
        code, out, _ = run_cli(capsys, "correlate", ghz4_path, "--format", "records")
        assert code == 0
        records = records_of(out)
        echoed = records[0]["scenario"]
        original = parse_scenario_data(
            json.loads(open(ghz4_path, encoding="utf-8").read())
        )
        assert parse_scenario_data(echoed) == original
        correlation = records[1]
        assert correlation["exact_class"] == {"k": 2, "mod": 3}
        assert correlation["difference"] < 1e-10


class TestProbability:
    def test_table_totals_one(self, capsys, pair_path):
        code, out, _ = run_cli(capsys, "probability", pair_path, "--format", "records")
        assert code == 0
        records = records_of(out)
        rows = [r for r in records if r["record"] == "probability"]
        assert len(rows) == 4
        assert sum(r["p"] for r in rows) == pytest.approx(1.0, abs=1e-10)
        labels = [tuple(r["detectors"]) for r in rows]
        assert labels == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_guard_exit_code(self, capsys, tmp_path):
        doc = {
            "schema": "ghzport-scenario/1",
            "particles": 8,
            "ports": 8,
            "phases": [[0.0] * 8 for _ in range(8)],
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run_cli(capsys, "probability", str(path))
        assert code == 3
        assert "error [guard]" in err
        assert "16777216" in err


class TestSample:
    def test_flags_override_block(self, capsys, pair_path):
        code, out, _ = run_cli(capsys, "sample", pair_path, "--shots", "1000",
                               "--seed", "4", "--format", "records")
        assert code == 0
        records = records_of(out)
        meta = next(r for r in records if r["record"] == "sample-meta")
        assert meta == {"record": "sample-meta", "generator": "pcg64/class-first",
                        "seed": 4, "shots": 1000}

    def test_byte_identical_reruns(self, capsys, pair_path):
        code1, out1, _ = run_cli(capsys, "sample", pair_path, "--format", "records")
        code2, out2, _ = run_cli(capsys, "sample", pair_path, "--format", "records")
        assert code1 == code2 == 0
        assert out1.encode() == out2.encode()

    def test_negative_seed_is_usage_error(self, capsys, pair_path):
        for option, value, message in [("--seed", "-1", "must be >= 0, got -1"),
                                        ("--shots", "0", "must be >= 1, got 0"),
                                        ("--shots", "-5", "must be >= 1, got -5")]:
            with pytest.raises(SystemExit) as excinfo:
                main(["sample", pair_path, option, value])
            assert excinfo.value.code == 2
            assert f"argument {option}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("shots", [10**17, 2**64])
    def test_huge_shot_count_is_a_guard_error(self, shots):
        proc = run_module("sample", str(SCENARIOS / "bell-epr-n2-m3.json"),
                          "--shots", str(shots))
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        (line,) = [l for l in proc.stderr.splitlines() if "error" in l]
        assert line.startswith("ghzport: error [guard]")
        assert "shots" in line

    def test_missing_shots_is_an_error(self, capsys, tmp_path):
        doc = {"schema": "ghzport-scenario/1", "particles": 1, "ports": 2,
               "phases": [[0.0, 0.0]]}
        path = tmp_path / "noshots.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run_cli(capsys, "sample", str(path))
        assert code == 1
        assert "error [invalid]" in err


#: Tables rendered by TestRendering besides the bundled scenarios (N = 1, 2, 4
#: and 5): N = 1 with composite M, odd N, M >= 10 (two-character labels), a
#: sparse support (zero phases), and 2^20 outcomes, too many for the
#: probability oracle, on which a few shots make a sparse draw.
RENDER_TABLES = {
    "single-hexport": (1, 6, [[0.3, 1.1, 2.0, 2.5, 4.0, 6.1]]),
    "three-hexports": (3, 6, [[f"{(m * m + l) % 12}/12" for m in range(6)] for l in range(3)]),
    "pair-dodecaports": (2, 12, [[0.1 * m * (l + 1) for m in range(12)] for l in range(2)]),
    "three-decaports": (3, 10, [[0.2 * m + 0.7 * l for m in range(10)] for l in range(3)]),
    "four-quadports-zero": (4, 4, [["0/1"] * 4 for _ in range(4)]),
    "twenty-pairs": (20, 2, [[0.0, 0.3 * l] for l in range(20)]),
}
BUNDLED_RENDERED = ["mach-zehnder-n1-m2", "bell-epr-n2-m3", "ghz-n4-m3", "ghz-n5-m4"]
#: Shots per table in the sample test; 3000 unless named here.
RENDER_SHOTS = {"twenty-pairs": 40}


@pytest.fixture()
def render_path(request, tmp_path):
    if request.param not in RENDER_TABLES:
        return str(SCENARIOS / f"{request.param}.json")
    particles, ports, phases = RENDER_TABLES[request.param]
    path = tmp_path / f"{request.param}.json"
    path.write_text(json.dumps({"schema": "ghzport-scenario/1", "particles": particles,
                                "ports": ports, "phases": phases}), encoding="utf-8")
    return str(path)


def _record_line(record):
    return json.dumps(record, separators=(", ", ": "))


def _label(outcome):
    return ", ".join(str(k + 1) for k in outcome)


class TestRendering:
    """probability and sample rows against lines built one outcome at a time
    with json.dumps and the per-row f-strings."""

    @pytest.mark.parametrize("render_path", sorted(set(RENDER_TABLES) - {"twenty-pairs"})
                             + BUNDLED_RENDERED, indirect=True)
    def test_probability_rows(self, capsys, render_path):
        scenario = parse_scenario(render_path)
        dist = full_distribution(scenario.config, scenario.phases)
        code, out, _ = run_cli(capsys, "probability", render_path, "--format", "records")
        assert code == 0
        lines = out.splitlines()
        assert lines[1:-1] == [_record_line({
            "record": "probability", "detectors": [k + 1 for k in outcome],
            "p": dist[outcome]}) for outcome in dist]
        assert lines[-1] == _record_line({"record": "probability-total", "total": dist.total})
        code, out, _ = run_cli(capsys, "probability", render_path)
        assert code == 0
        lines = out.splitlines()
        start = lines.index("joint detection probabilities (detector labels are 1-based):")
        assert lines[start + 1:-1] == [f"  ({_label(outcome)})  p = {dist[outcome]:.12g}"
                                       for outcome in dist]
        assert lines[-1] == f"total = {dist.total:.12g}"

    @pytest.mark.parametrize("render_path", sorted(RENDER_TABLES) + BUNDLED_RENDERED,
                             indirect=True)
    def test_sample_rows(self, capsys, render_path):
        scenario = parse_scenario(render_path)
        shots = RENDER_SHOTS.get(os.path.basename(render_path)[:-5], 3000)
        result = sample_outcomes(scenario.config, scenario.phases, shots, 17)
        argv = ("sample", render_path, "--shots", str(shots), "--seed", "17")
        code, out, _ = run_cli(capsys, *argv, "--format", "records")
        assert code == 0
        lines = out.splitlines()
        assert lines[2:-1] == [_record_line({
            "record": "sample-count", "detectors": [k + 1 for k in outcome],
            "count": count, "frequency": count / shots})
            for outcome, count in result.counts.items()]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        lines = out.splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("sampling: "))
        assert lines[start + 1:-1] == [
            f"  ({_label(outcome)})  count = {count}  frequency = {count / shots:.6f}"
            for outcome, count in result.counts.items()]

    @pytest.mark.parametrize("render_path", ["three-decaports", "ghz-n5-m4"], indirect=True)
    def test_rows_do_not_depend_on_the_block_size(self, capsys, monkeypatch, render_path):
        commands = [(kind, render_path, *extra, "--format", fmt)
                    for kind, extra in (("probability", ()), ("sample", ("--shots", "3000")))
                    for fmt in ("text", "records")]
        whole = [run_cli(capsys, *argv) for argv in commands]
        monkeypatch.setattr(cli, "_BLOCK", 7)
        assert [run_cli(capsys, *argv) for argv in commands] == whole


class TestLhvSearch:
    def test_counts_and_forced_value(self, capsys, ghz4_path):
        code, out, err = run_cli(capsys, "lhv-search", ghz4_path, "--format", "records")
        assert code == 0
        records = records_of(out)
        result = next(r for r in records if r["record"] == "lhv-search")
        assert result["model_space"] == 6561
        assert result["satisfying"] == 81
        assert result["forced_pattern"] == [2, 2, 2, 2]
        assert result["forced_class"] == {"k": 2, "mod": 3}
        assert "wall clock" in err

    def test_requires_constraints(self, capsys, pair_path):
        code, _, err = run_cli(capsys, "lhv-search", pair_path)
        assert code == 1
        assert "constraints" in err

    def test_missing_block_and_empty_require_are_told_apart(self, capsys, tmp_path):
        doc = {"schema": "ghzport-scenario/1", "particles": 2, "ports": 2,
               "phases": [["0/1", "0/1"], ["0/1", "1/2"]]}
        for block, message in [
                (None, "lhv-search needs a constraints block in the scenario"),
                ({"require": []},
                 "lhv-search needs at least one constraint in constraints.require")]:
            if block is not None:
                doc["constraints"] = block
            path = tmp_path / "constraints.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            code, out, err = run_cli(capsys, "lhv-search", str(path))
            assert (code, out) == (1, "")
            assert f"ghzport: error [invalid] {message}\n" in err


class TestParadox:
    def test_n4_text(self, capsys):
        code, out, _ = run_cli(capsys, "paradox", "--N", "4")
        assert code == 0
        assert "γ_3^2" in out
        assert "VERIFIED" in out
        assert "81 satisfy" in out

    def test_n4_records(self, capsys):
        code, out, _ = run_cli(capsys, "paradox", "--N", "4", "--format", "records")
        assert code == 0
        records = records_of(out)
        verdict = next(r for r in records if r["record"] == "verdict")
        assert verdict["contradiction"] and verdict["verified"]
        lhv = next(r for r in records if r["record"] == "lhv")
        assert lhv["swap_models"] == 81 and lhv["all_models"] == 0

    def test_skip_enumeration(self, capsys):
        code, out, _ = run_cli(capsys, "paradox", "--N", "5", "--skip-enumeration")
        assert code == 0
        assert "skipped on request" in out

    def test_small_n_rejected(self, capsys):
        code, _, err = run_cli(capsys, "paradox", "--N", "3")
        assert code == 1
        assert "error [invalid]" in err

    def test_unverified_verdict_exits_4_after_its_report(self, capsys, monkeypatch):
        real = cli.run_paradox
        monkeypatch.setattr(cli, "run_paradox", lambda n, enumerate_models: _rebuilt(
            real(n, enumerate_models=enumerate_models), contradiction=False))
        for fmt, shown in [("text", "contradiction: NOT PRESENT"),
                           ("records", '"verified": false')]:
            code, out, err = run_cli(capsys, "paradox", "--N", "4", "--format", fmt)
            assert code == 4
            assert shown in out.splitlines()[-1]
            clock, error = err.splitlines()
            assert clock.startswith("ghzport: paradox wall clock: ")
            assert error == ("ghzport: error [paradox-mismatch] the N = 4 contradiction "
                             "did not verify as predicted")

    def test_unconfirmed_contradiction_is_not_called_verified(self, capsys, monkeypatch):
        real = cli.run_paradox
        monkeypatch.setattr(cli, "run_paradox", lambda n, enumerate_models: _rebuilt(
            real(n, enumerate_models=enumerate_models), full_model_count=1))
        code, out, _ = run_cli(capsys, "paradox", "--N", "4")
        assert code == 4
        last = out.splitlines()[-1]
        assert last.startswith("contradiction: quantum predicts γ_3^0 (E = 1)")
        assert "VERIFIED" not in last
        code, out, _ = run_cli(capsys, "paradox", "--N", "4", "--format", "records")
        assert code == 4
        with open(os.path.join(GOLDEN, "paradox-n4.records.txt"), encoding="utf-8") as handle:
            expected = records_of(handle.read())
        expected[-2]["all_models"] = 1
        expected[-1]["verified"] = False
        assert records_of(out) == expected

    def test_integrity_error_exits_4_with_empty_stdout(self, capsys, monkeypatch):
        def broken(n, enumerate_models):
            raise ComputationIntegrityError("experiment 'all reference': classes differ")
        monkeypatch.setattr(cli, "run_paradox", broken)
        assert run_cli(capsys, "paradox", "--N", "4") == (
            4, "", "ghzport: error [paradox-mismatch] experiment 'all reference': "
                   "classes differ\n")


class TestDispatch:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bogus"])
        assert excinfo.value.code == 2

    def test_scenario_errors_list_diagnostics(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "ghzport-scenario/1", "particles": 2, '
                        '"ports": 3, "phases": [[0, 0], [0, 0, 0]], "junk": 1}',
                        encoding="utf-8")
        code, _, err = run_cli(capsys, "correlate", str(path))
        assert code == 1
        assert "error [scenario]" in err
        assert "junk" in err

    def test_huge_integer_phase_names_its_field(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"particles": 1, "ports": 2, "phases": [[%d, 0]]}' % 10**400,
                        encoding="utf-8")
        proc = run_module("correlate", str(path))
        assert proc.returncode == 1
        assert "error [scenario]" in proc.stderr
        assert "phases station 1 port 1:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_examples_listing_and_dump(self, capsys):
        code, out, _ = run_cli(capsys, "examples")
        assert code == 0
        assert "ghz-n4-m3" in out.splitlines()
        code, out, _ = run_cli(capsys, "examples", "--name", "ghz-n4-m3")
        assert code == 0
        assert json.loads(out)["particles"] == 4

    def test_examples_name_stays_inside_the_bundle(self, capsys, tmp_path):
        (tmp_path / "secret.json").write_text('{"particles": 1}', encoding="utf-8")
        name = os.path.relpath(tmp_path / "secret", str(SCENARIOS))
        code, out, err = run_cli(capsys, "examples", "--name", name)
        assert (code, out) == (1, "")
        assert f"error [invalid] no bundled scenario named {name!r}; available: " in err

    def test_console_entry_point(self, ghz4_path):
        proc = run_module("paradox", "--N", "4")
        assert proc.returncode == 0
        assert "VERIFIED" in proc.stdout
        assert "wall clock" in proc.stderr

    def test_closed_stdout_exits_1_without_a_traceback(self, tmp_path):
        # 4^8 rows, far more than a pipe buffers, so the child is still writing
        path = tmp_path / "quadports.json"
        path.write_text(json.dumps({"schema": "ghzport-scenario/1", "particles": 8,
                                    "ports": 4, "phases": [[0.0] * 4] * 8}), encoding="utf-8")
        with open(tmp_path / "stderr", "wb") as stderr:
            argv = [sys.executable, "-m", "ghzport", "probability", str(path)]
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr,
                                    env=child_env())
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=60)
        assert first == b"scenario: N = 8 particles, M = 4 ports per station\n"
        assert (code, (tmp_path / "stderr").read_bytes()) == (1, b"")

    def test_only_the_console_entry_point_freezes_the_collector(self, capsys):
        frozen = gc.get_freeze_count()
        assert main(["paradox", "--N", "4", "--format", "records"]) == 0
        capsys.readouterr()
        assert gc.get_freeze_count() == frozen
        # in a child, so this process is never frozen: importing the package
        # and calling main freeze nothing, run() freezes before main
        probe = ("import atexit, gc, sys; import ghzport, ghzport.cli as cli; "
                 "assert gc.get_freeze_count() == 0; "
                 "cli.main(['multiport', '--ports', '2']); "
                 "assert gc.get_freeze_count() == 0; "
                 "atexit.register(lambda: print('frozen', gc.get_freeze_count(), "
                 "file=sys.stderr)); "
                 "sys.argv[1:] = ['multiport', '--ports', '2']; cli.run()")
        proc = run_python("-c", probe)
        assert proc.returncode == 0
        assert "M = 2 ports" in proc.stdout
        (line,) = [l for l in proc.stderr.splitlines() if l.startswith("frozen")]
        assert int(line.split()[1]) > 0

    def test_stdout_byte_identical_for_paradox(self, ghz4_path):
        runs = [
            run_module("paradox", "--N", "4", "--format", "records", text=False)
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout

    @pytest.mark.parametrize("fmt", ["text", "records"])
    @pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
    def test_stdout_matches_golden_file(self, name, fmt):
        proc = run_module(*GOLDEN_COMMANDS[name], "--format", fmt, text=False)
        assert proc.returncode == 0
        with open(os.path.join(GOLDEN, f"{name}.{fmt}.txt"), "rb") as golden:
            assert proc.stdout == golden.read()


#: A valid scenario with neither a sampling nor a constraints block.
_BARE = {"schema": "ghzport-scenario/1", "particles": 1, "ports": 2, "phases": [[0.0, 0.0]]}


@pytest.mark.parametrize("fmt", ["text", "records"])
@pytest.mark.parametrize("argv, doc, code, word", [
    (["correlate"], {"schema": "ghzport-scenario/1", "particles": 2, "ports": 3,
                     "phases": [[0, 0], [0, 0, 0]], "junk": 1}, 1, "scenario"),
    (["probability"], {"schema": "ghzport-scenario/1", "particles": 8, "ports": 8,
                       "phases": [[0.0] * 8 for _ in range(8)]}, 3, "guard"),
    (["sample"], _BARE, 1, "invalid"),
    (["lhv-search"], _BARE, 1, "invalid"),
    (["paradox", "--N", "3"], None, 1, "invalid"),
    (["examples", "--name", "nope"], None, 1, "invalid"),
], ids=["bad-scenario", "enumeration-guard", "no-shots", "no-constraints", "paradox-n3",
        "unknown-example"])
def test_error_exit_prints_nothing_on_stdout(capsys, tmp_path, argv, doc, code, word, fmt):
    if doc is not None:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [*argv, str(path)]
    if argv[0] != "examples":  # the only subcommand without --format
        argv = [*argv, "--format", fmt]
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, "")
    assert f"ghzport: error [{word}] " in err
