import json
from fractions import Fraction
from importlib import resources

import pytest

import oracles
from ghzport.angles import Residue
from ghzport.errors import ScenarioError
from ghzport.quantum import correlation_closed
from ghzport.scenario import (
    SCHEMA_ID,
    SamplingSpec,
    parse_scenario,
    parse_scenario_data,
    scenario_to_data,
)


def bundled(name):
    return resources.files("ghzport").joinpath("scenarios", f"{name}.json")


def minimal_doc(**overrides):
    doc = {
        "schema": SCHEMA_ID,
        "particles": 2,
        "ports": 2,
        "phases": [[0.0, 0.0], [0.0, "1/2"]],
    }
    doc.update(overrides)
    return doc


#: Errors in every block, several in some. Station 2 of the catalog has one
#: good setting, so it would allow require[1]'s index 2 if it counted.
ERRORS_IN_EVERY_BLOCK = {
    "schema": "other/9", "particles": 2, "ports": 2, "stray": True,
    "phases": [["1/0", "bogus"], [0.0]],
    "constraints": {"settings": [[[0.0, 0.0]], [[0.0, 0.0], [0.0, "x"]]], "extra": 1,
                    "require": [{"pattern": [1, 2], "class": 0, "weight": 1},
                                {"pattern": [1, 1], "class": True},
                                {"pattern": [0, 1], "class": 0},
                                {"pattern": [1], "class": 0}]},
    "sampling": {"shots": 0, "seed": -1, "rate": 1},
}
#: A valid document that draws every note.
EVERY_NOTE = {
    "particles": 2, "ports": 2, "phases": [["3/9", "0.5"], [0.0, "1/2"]],
    "constraints": {"require": [{"pattern": [1, 1], "class": 3}]},
    "sampling": {"shots": 10},
}


class TestBundledScenarios:
    def test_ghz_n4_parses_and_correlates_to_alpha_squared(self, tmp_path):
        path = tmp_path / "ghz.json"
        path.write_text(bundled("ghz-n4-m3").read_text(encoding="utf-8"))
        scenario = parse_scenario(path)
        assert scenario.config.particles == 4
        assert scenario.config.ports == 3
        assert oracles.turns(scenario.phases.rows[0][1]) == Fraction(1, 9)
        result = correlation_closed(scenario.config, scenario.phases)
        assert result.exact_class == Residue(2, 3)
        assert scenario.catalog is not None
        assert len(scenario.constraints) == 4
        assert scenario.sampling == SamplingSpec(shots=100000, seed=7)

    @pytest.mark.parametrize(
        "name", ["mach-zehnder-n1-m2", "bell-epr-n2-m3", "ghz-n4-m3", "ghz-n5-m4"]
    )
    def test_all_bundles_parse(self, name):
        scenario = parse_scenario_data(
            json.loads(bundled(name).read_text(encoding="utf-8")), source=name
        )
        assert scenario.phases.all_exact

    def test_bell_epr_bundle_is_perfectly_correlated(self):
        scenario = parse_scenario_data(
            json.loads(bundled("bell-epr-n2-m3").read_text(encoding="utf-8"))
        )
        result = correlation_closed(scenario.config, scenario.phases)
        assert result.exact_class == Residue(2, 3)


class TestValidation:
    def test_shape_error_names_the_row(self):
        doc = minimal_doc(ports=3, phases=[[0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario_data(doc)
        assert any("station 1" in e and "3 entries" in e for e in excinfo.value.errors)

    def test_unreduced_rational_parses_with_note(self):
        doc = minimal_doc(phases=[[0.0, "3/9"], [0.0, 0.0]], ports=2)
        scenario = parse_scenario_data(doc)
        assert oracles.turns(scenario.phases.rows[0][1]) == Fraction(1, 3)
        assert any("3/9" in note and "1/3" in note for note in scenario.notes)

    def test_unknown_field_rejected(self):
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario_data(minimal_doc(detectors=5))
        assert any("unknown field 'detectors'" in e for e in excinfo.value.errors)

    def test_wrong_schema_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario_data(minimal_doc(schema="other/9"))

    def test_missing_schema_noted(self):
        doc = minimal_doc()
        del doc["schema"]
        scenario = parse_scenario_data(doc)
        assert any("schema" in note for note in scenario.notes)

    def test_overflowing_rational_rejected(self):
        doc = minimal_doc(phases=[[0.0, "1/99999999999999999999"], [0.0, 0.0]])
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario_data(doc)
        assert any("64-bit" in e for e in excinfo.value.errors)

    def test_zero_denominator_rejected(self):
        doc = minimal_doc(phases=[[0.0, "1/0"], [0.0, 0.0]])
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario_data(doc)
        assert any("zero denominator" in e for e in excinfo.value.errors)

    def test_all_errors_collected_at_once(self):
        doc = minimal_doc(
            phases=[[0.0, "bogus"], [0.0]],
            sampling={"shots": 0},
            stray=True,
        )
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario_data(doc)
        assert len(excinfo.value.errors) >= 3

    def test_errors_keep_their_order_across_blocks(self):
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario_data(ERRORS_IN_EVERY_BLOCK)
        assert excinfo.value.errors == [
            "scenario: unknown field 'stray'",
            "scenario: unsupported schema 'other/9' (expected ghzport-scenario/1)",
            "phases station 1 port 1: rational '1/0' has a zero denominator",
            "phases station 1 port 2: cannot read 'bogus' as radians or \"p/q\"",
            "phases station 2: expected 2 entries (ports=2), got 1",
            "constraints: unknown field 'extra'",
            "constraints.settings station 2 setting 2 port 2: "
            "cannot read 'x' as radians or \"p/q\"",
            "constraints.require[1]: unknown field 'weight'",
            "constraints.require[2]: class must be an integer mod 2",
            "constraints.require[3]: station 1 setting index must be a 1-based integer",
            "constraints.require[4]: pattern must list 2 setting indices",
            "sampling: unknown field 'rate'",
            "sampling: field 'shots' must be >= 1, got 0",
            "sampling: field 'seed' must be >= 0, got -1",
        ]

    def test_notes_keep_their_order_across_blocks(self):
        assert parse_scenario_data(EVERY_NOTE).notes == (
            "no schema field; assuming ghzport-scenario/1",
            'phases station 1 port 1: "3/9" normalized to 1/3 of 2*pi',
            "phases station 1 port 2: string '0.5' read as radians",
            "constraints: no settings given; each station's catalog is its phases row",
            "constraints.require[1]: class 3 reduced mod 2 to 1",
            "sampling: no seed given; defaulting to 0",
        )

    def test_every_bad_catalog_station_reported(self):
        doc = minimal_doc()
        doc["constraints"] = {"settings": [[[0, "x"]], [[0, "y"], [0]]], "require": []}
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario_data(doc)
        assert excinfo.value.errors == [
            "constraints.settings station 1 setting 1 port 2: cannot read 'x' as radians or \"p/q\"",
            "constraints.settings station 2 setting 1 port 2: cannot read 'y' as radians or \"p/q\"",
            "constraints.settings station 2 setting 2: expected 2 entries (ports=2), got 1",
        ]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(tmp_path / "absent.json")
        assert any("not found" in e for e in excinfo.value.errors)

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"particles\": 4,\n}", encoding="utf-8")
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(path)
        assert any("line 3" in e for e in excinfo.value.errors)

    def test_constraint_pattern_validation(self):
        doc = minimal_doc()
        doc["constraints"] = {
            "require": [{"pattern": [1, 2], "class": 0}],
        }
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario_data(doc)
        assert any("exceeds" in e for e in excinfo.value.errors)

    def test_constraint_class_reduced_with_note(self):
        doc = minimal_doc()
        doc["constraints"] = {"require": [{"pattern": [1, 1], "class": 5}]}
        scenario = parse_scenario_data(doc)
        assert scenario.constraints[0].required == Residue(1, 2)
        assert any("reduced mod 2" in note for note in scenario.notes)

    def test_default_catalog_is_the_phases_row(self):
        doc = minimal_doc()
        doc["constraints"] = {"require": [{"pattern": [1, 1], "class": 0}]}
        scenario = parse_scenario_data(doc)
        assert scenario.catalog.setting_counts == (1, 1)
        assert scenario.catalog.station_settings[0][0] == scenario.phases.rows[0]

    def test_negative_seed_rejected(self):
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario_data(minimal_doc(sampling={"shots": 10, "seed": -1}))
        assert excinfo.value.errors == ["sampling: field 'seed' must be >= 0, got -1"]

    def test_sampling_defaults_seed_with_note(self):
        scenario = parse_scenario_data(minimal_doc(sampling={"shots": 10}))
        assert scenario.sampling == SamplingSpec(shots=10, seed=0)
        assert any("seed" in note for note in scenario.notes)


def require(*entries):
    return {"require": list(entries)}


ROW_ERROR = 'phases station 1 port 1: expected a number of radians or a "p/q" string'
INDEX_ERROR = "constraints.require[1]: station 1 setting index must be a 1-based integer"

#: (document, exact errors or None, exact notes): the valid 2x2 ``minimal_doc``
#: with one change, each reaching one branch of the scenario checks.
SCHEMA_BRANCHES = {
    "top level a list": ([], ["top level must be a JSON object"], None),
    "particles a string": (minimal_doc(particles="2"),
                           ["scenario: field 'particles' must be an integer"], None),
    "phases an object": (minimal_doc(phases={}),
                         ["phases: expected 2 station rows (particles=2), got none"], None),
    "a string row": (minimal_doc(phases=["0.0", [0.0, 0.0]]),
                     ["phases station 1: expected a list of 2 phase entries"], None),
    "a null entry": (minimal_doc(phases=[[None, 0.0], [0.0, 0.0]]), [ROW_ERROR], None),
    "a true entry": (minimal_doc(phases=[[True, 0.0], [0.0, 0.0]]), [ROW_ERROR], None),
    "a radian string": (minimal_doc(phases=[["0.5", 0.0], [0.0, "1/2"]]), None,
                        ("phases station 1 port 1: string '0.5' read as radians",)),
    "constraints a list": (minimal_doc(constraints=[]),
                           ["constraints: expected an object with settings/require"], None),
    "settings for one station": (minimal_doc(constraints={"settings": [[[0.0, 0.0]]]}),
                                 ["constraints.settings: expected 2 station entries"], None),
    "an empty station list": (
        minimal_doc(constraints={"settings": [[], [[0.0, 0.0]]]}),
        ["constraints.settings station 1: expected a non-empty list of rows"], None),
    "require an object": (minimal_doc(constraints={"require": {}}),
                          ["constraints.require: expected a list"], None),
    "a require entry 1": (minimal_doc(constraints=require(1)),
                          ["constraints.require[1]: expected an object with pattern/class"],
                          None),
    "a one-entry pattern": (minimal_doc(constraints=require({"pattern": [1], "class": 0})),
                            ["constraints.require[1]: pattern must list 2 setting indices"],
                            None),
    "a string class": (minimal_doc(constraints=require({"pattern": [1, 1], "class": "1"})),
                       ["constraints.require[1]: class must be an integer mod 2"], None),
    "index 0": (minimal_doc(constraints=require({"pattern": [0, 1], "class": 0})),
                [INDEX_ERROR], None),
    "index true": (minimal_doc(constraints=require({"pattern": [True, 1], "class": 0})),
                   [INDEX_ERROR], None),
    "particles true": (minimal_doc(particles=True),
                       ["scenario: field 'particles' must be an integer"], None),
    "class true": (minimal_doc(constraints=require({"pattern": [1, 1], "class": True})),
                   ["constraints.require[1]: class must be an integer mod 2"], None),
    "a bad row and no settings": (
        minimal_doc(phases=[[None, 0.0], [0.0, 0.0]],
                    constraints=require({"pattern": [1, 2], "class": 0})), [ROW_ERROR], None),
    "sampling a list": (minimal_doc(sampling=[]),
                        ["sampling: expected an object with shots/seed"], None),
}


class TestSchemaBranches:
    @pytest.mark.parametrize("name", SCHEMA_BRANCHES)
    def test_each_branch_reports_its_field(self, name):
        doc, errors, notes = SCHEMA_BRANCHES[name]
        if errors is None:
            assert parse_scenario_data(doc).notes == notes
            return
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario_data(doc)
        assert excinfo.value.errors == errors

    def test_directory_cannot_be_read(self, tmp_path):
        try:
            tmp_path.read_text(encoding="utf-8")
        except OSError as exc:
            expected = [f"cannot read {tmp_path}: {exc}"]
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(tmp_path)
        assert excinfo.value.errors == expected


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name", ["mach-zehnder-n1-m2", "bell-epr-n2-m3", "ghz-n4-m3", "ghz-n5-m4"]
    )
    def test_canonical_echo_reparses_identically(self, name):
        scenario = parse_scenario_data(
            json.loads(bundled(name).read_text(encoding="utf-8"))
        )
        echoed = scenario_to_data(scenario)
        assert parse_scenario_data(echoed) == scenario

    def test_float_phases_round_trip_exactly(self):
        doc = minimal_doc(phases=[[0.125, 2.71828182845], [1e-9, "1/2"]])
        scenario = parse_scenario_data(doc)
        rebuilt = parse_scenario_data(json.loads(json.dumps(scenario_to_data(scenario))))
        assert rebuilt == scenario
