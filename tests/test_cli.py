import gc
import json
import os
import subprocess
import sys
import textwrap
from importlib import resources
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import ghzport.__main__ as entry
import ghzport.cli as cli
import ghzport.quantum as quantum
from ghzport.angles import PhaseAngle, angle_to_json
from ghzport.cli import main
from ghzport.errors import ComputationIntegrityError
from ghzport.quantum import full_distribution, sample_outcomes
from ghzport.scenario import parse_scenario, parse_scenario_data, scenario_to_data
from ghzport.text import _angle_text

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

    @pytest.mark.parametrize("fmt", ["text", "records"])
    def test_exponent_overflow_names_the_exponent_not_an_angle(self, capsys, tmp_path, fmt):
        # every phase fits 64 bits, so the table commands run; the closed-form
        # exponent over the lcm 2 * (2**63 - 2) of the denominators does not
        doc = {"schema": "ghzport-scenario/1", "particles": 2, "ports": 2,
               "phases": [["1/4", "1/4"], ["1/4", "1/9223372036854775806"]]}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli(capsys, "probability", str(path))[0] == 0
        assert run_cli(capsys, "sample", str(path), "--shots", "10")[0] == 0
        assert run_cli(capsys, "correlate", str(path), "--format", fmt) == (1, "", (
            "ghzport: error [invalid] closed-form exponent of ports 1, 2 is "
            "4611686018427387901/18446744073709551612 of a turn, over the lcm "
            "18446744073709551612 of the phase denominators; it exceeds the supported "
            "64-bit numerator/denominator range\n"))


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
        monkeypatch.setattr(quantum, "_BLOCK", 7)
        assert [run_cli(capsys, *argv) for argv in commands] == whole


class TestAngleText:
    """text._angle_text formats an echoed angle from its parts and must read
    exactly as parsing it again and writing the parsed angle out."""

    @staticmethod
    def assert_reads_as_parsed(entry):
        assert _angle_text(entry) == oracles.describe(PhaseAngle.parse(entry))

    def test_every_bundled_phase(self):
        entries = []
        for path in SCENARIOS.iterdir():
            if path.name.endswith(".json"):
                data = scenario_to_data(parse_scenario(str(path)))
                rows = data["phases"] + [row for settings in data.get(
                    "constraints", {}).get("settings", []) for row in settings]
                entries += [entry for row in rows for entry in row]
        assert entries
        for entry in entries:
            self.assert_reads_as_parsed(entry)

    @pytest.mark.parametrize("entry", ["999999999/1000000000", "0/1"])
    def test_edges_of_the_turn(self, entry):
        self.assert_reads_as_parsed(entry)

    @settings(max_examples=300, deadline=None)
    @given(st.fractions(min_value=-5, max_value=5, max_denominator=10**12))
    def test_random_exact_entries(self, turns):
        self.assert_reads_as_parsed(angle_to_json(PhaseAngle.from_turns(turns)))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-100.0, 100.0))
    def test_random_float_entries(self, radians):
        self.assert_reads_as_parsed(angle_to_json(PhaseAngle.from_radians(radians)))


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

    def test_a_report_with_no_forced_value_says_so(self, capsys, monkeypatch):
        real = cli.run_paradox
        monkeypatch.setattr(cli, "run_paradox", lambda n, enumerate_models: _rebuilt(
            real(n, enumerate_models=enumerate_models), forced=None, contradiction=False))
        code, out, _ = run_cli(capsys, "paradox", "--N", "4")
        assert code == 4
        assert "\nalgebraic stage: no value is forced (unexpected)\n" in out
        assert out.splitlines()[-1] == (
            "contradiction: NOT PRESENT (forced value matches the quantum class)")

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

    @pytest.mark.parametrize("error, message", [
        (MemoryError(), "out of memory"),
        (MemoryError("Unable to allocate 8.00 GiB"), "Unable to allocate 8.00 GiB")])
    def test_memory_error_is_a_guard_exit(self, capsys, monkeypatch, ghz4_path,
                                          error, message):
        def exhausted(path):
            raise error
        monkeypatch.setattr(cli, "parse_scenario", exhausted)
        assert run_cli(capsys, "correlate", ghz4_path) == (
            3, "", f"ghzport: error [guard] {message}\n")

    def test_integrity_error_exits_4_with_empty_stdout(self, capsys, monkeypatch):
        def broken(n, enumerate_models):
            raise ComputationIntegrityError("experiment 'all reference': classes differ")
        monkeypatch.setattr(cli, "run_paradox", broken)
        assert run_cli(capsys, "paradox", "--N", "4") == (
            4, "", "ghzport: error [paradox-mismatch] experiment 'all reference': "
                   "classes differ\n")

    def test_integrity_error_outside_paradox_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(quantum, "PROBABILITY_TOLERANCE", 0.0)  # any gap fails
        code, out, err = run_cli(capsys, "correlate", str(SCENARIOS / "ghz-n4-m3.json"))
        assert (code, out, err.count("\n")) == (1, "", 1)
        # the gap's digits depend on numpy's rounding, so only the prefix is pinned
        assert err.startswith("ghzport: error [integrity] amplitude and cosine probability "
                              "routes disagree by ")


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
        assert gc.isenabled()
        # in a child, so this process is never frozen: importing the package
        # and calling main freeze nothing, ghzport.__main__.run() freezes
        # before main
        probe = ("import atexit, gc, sys; import ghzport, ghzport.cli as cli; "
                 "import ghzport.__main__ as entry; "
                 "assert gc.get_freeze_count() == 0; "
                 "assert gc.isenabled(); "
                 "cli.main(['multiport', '--ports', '2']); "
                 "assert gc.get_freeze_count() == 0; "
                 "assert gc.isenabled(); "
                 "atexit.register(lambda: print('frozen', gc.get_freeze_count(), "
                 "file=sys.stderr)); "
                 "sys.argv[1:] = ['multiport', '--ports', '2']; entry.run()")
        proc = run_python("-c", probe)
        assert proc.returncode == 0
        assert "M = 2 ports" in proc.stdout
        (line,) = [l for l in proc.stderr.splitlines() if l.startswith("frozen")]
        assert int(line.split()[1]) > 0

    def test_module_entry_point_imports_with_the_collector_paused(self):
        # gc.collect() first, so that allocations made before ghzport is
        # reached cannot trigger a collection on their own
        probe = textwrap.dedent("""
            import atexit, gc, runpy, sys
            gc.collect()
            starts = []
            gc.callbacks.append(lambda phase, info: phase == "start"
                                and starts.append(gc.get_freeze_count()))
            # the run ends the process, so a handler registered first reports
            atexit.register(lambda: print("enabled", gc.isenabled(), "unfrozen",
                                          starts.count(0), file=sys.stderr))
            sys.argv[1:] = ["multiport", "--ports", "2"]
            runpy.run_module("ghzport", run_name="__main__")
        """)
        proc = run_python("-c", probe)
        assert proc.returncode == 0
        assert "M = 2 ports" in proc.stdout
        assert proc.stderr.splitlines()[-1] == "enabled True unfrozen 0"

    def test_main_writes_only_to_the_current_sys_stdout(self):
        # Every subcommand, in both formats, on every bundled scenario, run
        # through main under redirect_stdout: nothing may reach the process's
        # own stdout (through fd 1, a stream kept from before the swap, or at
        # exit), as perfbench's traced run prints its result last there.
        probe = textwrap.dedent("""
            import io, json, sys
            from contextlib import redirect_stdout
            from importlib import resources
            import ghzport.cli as cli
            root = resources.files("ghzport").joinpath("scenarios")
            paths = sorted(str(p) for p in root.iterdir() if p.name.endswith(".json"))
            runs = [["multiport", "--ports", "3"], ["paradox", "--N", "4"],
                    ["paradox", "--N", "6"]]
            for path in paths:
                runs += [["probability", path], ["correlate", path],
                         ["sample", path, "--shots", "100"]]
                if "constraints" in json.loads(open(path, encoding="utf-8").read()):
                    runs.append(["lhv-search", path])
            runs = [[*argv, "--format", fmt] for argv in runs for fmt in ("text", "records")]
            runs += [["examples"]] + [["examples", "--name", p.name[:-5]]
                                      for p in root.iterdir() if p.name.endswith(".json")]
            for argv in runs:
                captured = io.StringIO()
                with redirect_stdout(captured):
                    code = cli.main(argv)
                if code != 0 or not captured.getvalue():
                    sys.exit(f"{argv}: exit {code}, {len(captured.getvalue())} characters")
            print(len(runs), "runs", file=sys.stderr)
        """)
        proc = run_python("-c", probe, text=False)
        assert (proc.returncode, proc.stdout) == (0, b""), proc.stderr
        assert proc.stderr.splitlines()[-1].endswith(b" runs")

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


BUNDLED_GHZ4 = str(SCENARIOS / "ghz-n4-m3.json")
#: Each subcommand's plain spelling, which ``cli._plain_args`` reads itself.
PLAIN_ARGV = [
    *([*argv, "--format", fmt] for fmt in ("text", "records") for argv in (
        ["multiport", "--ports", "3"],
        ["probability", BUNDLED_GHZ4],
        ["correlate", BUNDLED_GHZ4],
        ["sample", BUNDLED_GHZ4, "--shots", "10", "--seed", "4"],
        ["sample", "--seed", "0", BUNDLED_GHZ4, "--shots", " 7"],
        ["lhv-search", BUNDLED_GHZ4],
        ["paradox", "--N", "4"],
        ["paradox", "--skip-enumeration", "--N", "\u0664"])),
    ["paradox", "--N", "64"],
    ["sample", BUNDLED_GHZ4],
    ["examples"],
    ["examples", "--name", "ghz-n4-m3"],
    ["examples", "--name", ""],
]
#: Spellings the reader leaves to argparse: help, the version, an empty argv,
#: abbreviations, ``=``, repeated options, values starting with ``-``, ``--``,
#: values outside a bound or choices, and missing or extra arguments.
FALLBACK_ARGV = [
    [], ["--version"], ["-h"], ["bogus"], ["paradox", "-h"], ["paradox", "--help"],
    ["paradox", "--form", "records", "--N", "4"],
    ["paradox", "--format=records", "--N", "4"],
    ["paradox", "--N=4"],
    ["paradox", "--N", "4", "--N", "5"],
    ["paradox", "--N", "4", "--skip-enumeration", "--skip-enumeration"],
    ["paradox", "--N", "-4"],
    ["paradox", "--", "--N", "4"],
    ["paradox", "--N", "four"],
    ["paradox"], ["paradox", "--N"],
    ["paradox", "--N", "4", "--format", "json"],
    ["sample", BUNDLED_GHZ4, "--shots", "0"],
    ["sample", BUNDLED_GHZ4, "--seed", "-1"],
    ["sample", BUNDLED_GHZ4, "--shots", "3.0"],
    ["sample", "--shots", "5"],
    ["multiport", "--ports", "3", "extra"],
    ["examples", "--name", "ghz-n4-m3", "--format", "records"],
    ["examples", "--name", "--"], ["examples", "--name", "-h"],
]
#: The tokens the property test draws argv from: every subcommand and flag,
#: other spellings of them, and values in and out of each converter, bound
#: and choice. An argv is a first token, then up to four chunks of a flag and
#: a value or of one token, cut at seven tokens.
SUBCOMMANDS = ["multiport", "probability", "correlate", "sample", "lhv-search", "paradox",
               "examples"]
FLAGS = ["--ports", "--format", "--shots", "--seed", "--N", "--skip-enumeration", "--name",
         "--form", "--format=text", "--N=4", "-h", "--help", "--version", "--", "--skip"]
VALUES = ["4", "0", "-1", " 5", "\u0664", "4_0", "+2", "3.0", "", "text", "records",
          BUNDLED_GHZ4]
READER_VOCABULARY = SUBCOMMANDS + FLAGS + VALUES
READER_ARGV = st.builds(
    lambda first, chunks: [first, *(token for chunk in chunks for token in chunk)][:7],
    st.one_of(st.sampled_from(SUBCOMMANDS), st.sampled_from(READER_VOCABULARY)),
    st.lists(st.one_of(st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)),
                       st.tuples(st.sampled_from(READER_VOCABULARY))), max_size=4))


def _argv_id(argv):
    return " ".join(argv).replace(BUNDLED_GHZ4, "ghz-n4-m3.json")


def _read_as_argparse_does(argv):
    """``cli._plain_args(argv)``, checked against argparse whenever it reads
    ``argv``: argparse must then read it too, to the same attributes."""
    args = cli._plain_args(argv)
    if args is not None:
        try:
            parsed = cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            raise AssertionError(f"the reader read {argv!r}; argparse exits {exc.code}")
        assert vars(args) == vars(parsed), argv
    return args


def _pinned(test):
    """The property test with each argv of PLAIN_ARGV and FALLBACK_ARGV as an
    explicit example."""
    for argv in PLAIN_ARGV + FALLBACK_ARGV:
        test = example(argv)(test)
    return test


class TestPlainReader:
    """Plain command lines are read from ``cli._COMMANDS`` without argparse;
    argparse, rendered from the same table, is the oracle."""

    @pytest.mark.parametrize("argv", PLAIN_ARGV, ids=_argv_id)
    def test_plain_spelling_is_read_as_argparse_reads_it(self, argv):
        assert _read_as_argparse_does(argv) is not None

    @pytest.mark.parametrize("argv", FALLBACK_ARGV, ids=_argv_id)
    def test_other_spellings_are_left_to_argparse_and_print_nothing(self, capsys, argv):
        assert cli._plain_args(argv) is None
        assert capsys.readouterr() == ("", "")

    @_pinned
    @settings(max_examples=1500, deadline=None)
    @given(READER_ARGV)
    def test_reader_agrees_with_argparse(self, argv):
        _read_as_argparse_does(argv)

    def test_main_falls_back_to_argparse_for_other_spellings(self, capsys):
        assert main(["paradox", "--N=4", "--form", "records"]) == 0
        with open(os.path.join(GOLDEN, "paradox-n4.records.txt"), encoding="utf-8") as golden:
            assert capsys.readouterr().out == golden.read()
        with pytest.raises(SystemExit) as excinfo:
            main(["sample", BUNDLED_GHZ4, "--shots", "0"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith(
            "ghzport sample: error: argument --shots: must be >= 1, got 0\n")


#: A child that runs ``paradox --N 4 --format records`` through
#: ``ghzport.__main__.run`` with the verdict turned unverified, so it exits 4.
UNVERIFIED_PARADOX = textwrap.dedent("""
    import sys
    import ghzport.__main__ as entry
    import ghzport.cli as cli
    real = cli.run_paradox
    def unverified(n, enumerate_models):
        report = real(n, enumerate_models=enumerate_models)
        return type(report)(**{**vars(report), "contradiction": False})
    cli.run_paradox = unverified
    sys.argv[1:] = ["paradox", "--N", "4", "--format", "records"]
    entry.run()
""")


def _main_in_process(capsys, argv):
    """(exit code, stdout bytes) of ``cli.main(argv)`` in this process."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    return code, capsys.readouterr().out.encode("utf-8")


def run_buffered(*args):
    """``run_python(*args, text=False)`` with PYTHONUNBUFFERED unset, so that
    the child's stdout is block-buffered, as it is by default on a pipe."""
    env = {key: value for key, value in child_env().items() if key != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, *args], capture_output=True, env=env)


class TestProcessExit:
    """``python -m ghzport`` ends through ``os._exit`` once ``cli.main`` has
    returned, after the ``atexit`` handlers and a flush; a profiler or tracer
    keeps the interpreter's own exit."""

    @pytest.mark.parametrize("argv, code", [
        (["paradox", "--N", "4", "--format", "records"], 0),
        (["paradox", "--N", "3"], 1),
        (["paradox", "--N", "four"], 2),
        (["probability", "{table}", "--format", "records"], 3),
    ])
    def test_exit_code_and_stdout_are_those_of_main(self, capsys, tmp_path, argv, code):
        table = tmp_path / "eight-octaports.json"
        table.write_text(json.dumps({"schema": "ghzport-scenario/1", "particles": 8,
                                     "ports": 8, "phases": [[0.0] * 8] * 8}), encoding="utf-8")
        argv = [arg.format(table=table) for arg in argv]
        proc = run_buffered("-m", "ghzport", *argv)
        assert (proc.returncode, proc.stdout) == _main_in_process(capsys, argv)
        assert proc.returncode == code

    def test_unverified_verdict_exit_and_stdout_are_those_of_main(self, capsys, monkeypatch):
        real = cli.run_paradox
        monkeypatch.setattr(cli, "run_paradox", lambda n, enumerate_models: _rebuilt(
            real(n, enumerate_models=enumerate_models), contradiction=False))
        proc = run_buffered("-c", UNVERIFIED_PARADOX)
        expected = _main_in_process(capsys, ["paradox", "--N", "4", "--format", "records"])
        assert (proc.returncode, proc.stdout) == expected
        assert proc.returncode == 4

    @pytest.mark.parametrize("profiler", ["", "sys.setprofile(lambda *args: None); "],
                             ids=["fast-exit", "profiled"])
    def test_an_atexit_handler_runs_once_and_its_output_is_flushed(self, profiler):
        probe = ("import atexit, sys; import ghzport.__main__ as entry; "
                 "atexit.register(lambda: print('handler')); " + profiler +
                 "sys.argv[1:] = ['multiport', '--ports', '2']; entry.run()")
        proc = run_buffered("-c", probe)
        assert proc.returncode == 0
        assert proc.stdout.startswith(b"Bell multiport, M = 2 ports")
        assert proc.stdout.endswith(b"\nhandler\n")
        assert proc.stdout.count(b"handler") == 1

    def test_cprofile_still_prints_its_table_after_the_records(self):
        proc = run_buffered("-m", "cProfile", "-m", "ghzport", "paradox", "--N", "4",
                            "--format", "records")
        assert proc.returncode == 0
        with open(os.path.join(GOLDEN, "paradox-n4.records.txt"), "rb") as golden:
            records = golden.read()
        assert proc.stdout.startswith(records)
        assert b" function calls " in proc.stdout[len(records):]

    @pytest.mark.parametrize("tools, profile, trace, inspect, kept", [
        (None, None, None, 0, False),
        ({}, None, None, 0, False),
        ({2: "cProfile"}, None, None, 0, True),
        ({5: "optimizer"}, None, None, 0, True),
        (None, print, None, 0, True),
        ({}, None, print, 0, True),
        ({}, None, None, 1, True),
    ], ids=["no-monitoring", "no-tool", "monitoring-profiler", "last-tool-id",
            "setprofile", "settrace", "inspect"])
    def test_the_interpreter_exit_is_kept_for_profilers_tracers_and_inspect(
            self, monkeypatch, tools, profile, trace, inspect, kept):
        # sys.monitoring is faked: this suite runs on 3.11, and the 3.12+
        # interpreters here have no numpy, so ``python -m cProfile -m
        # ghzport`` through sys.monitoring is not run end to end
        def get_tool(tool):
            if not 0 <= tool <= 5:
                raise ValueError(f"invalid tool {tool} (must be between 0 and 5)")
            return tools.get(tool)

        if tools is None:
            monkeypatch.delattr(sys, "monitoring", raising=False)
        else:
            monkeypatch.setattr(sys, "monitoring", SimpleNamespace(get_tool=get_tool),
                                raising=False)
        monkeypatch.setattr(sys, "getprofile", lambda: profile)
        monkeypatch.setattr(sys, "gettrace", lambda: trace)
        monkeypatch.setattr(sys, "flags", SimpleNamespace(inspect=inspect))
        assert entry._needs_interpreter_exit() is kept


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


@pytest.mark.parametrize("command", ["lhv-search", "correlate"])
def test_deeply_nested_json_is_a_scenario_error(tmp_path, command):
    # a fresh process, so that the recursion limit is the interpreter's default
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    proc = run_module(command, str(path))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines() == [
        f"ghzport: error [scenario] 1 validation error(s) in {path}",
        "  - malformed JSON: nested too deeply"]


def test_non_utf8_file_is_a_scenario_error_naming_the_file(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"schema": "ghzport-scenario/1", "x": "\xff"}')
    code, out, err = run_cli(capsys, "correlate", str(path))
    assert (code, out) == (1, "")
    head, message = err.splitlines()
    assert head == f"ghzport: error [scenario] 1 validation error(s) in {path}"
    assert message.startswith(f"  - cannot read {path}: not UTF-8 text (")
    assert "0xff" in message
