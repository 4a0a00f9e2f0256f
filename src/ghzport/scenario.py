"""Scenario files: a small, strict JSON schema describing one experiment.

Schema ``ghzport-scenario/1``::

    {
      "schema": "ghzport-scenario/1",
      "particles": 4,                       # N, stations
      "ports": 3,                           # M, ports per station
      "phases": [["0/1", "1/9", "2/9"],     # N rows of M entries; numbers are
                 ...],                      # radians, strings "p/q" mean 2*pi*p/q
      "constraints": {                      # optional, for lhv-search
        "settings": [[row, row], ...],      # per station: allowed setting rows;
                                            # defaults to the single phases row
        "require": [{"pattern": [2,1,1,1],  # 1-based setting index per station
                     "class": 2}, ...]      # forced residue mod M
      },
      "sampling": {"shots": 100000, "seed": 7}   # optional, for sample
    }

Unknown fields are rejected. All diagnostics are collected before failing so
one pass reports every problem; harmless normalizations (an unreduced "3/9",
a defaulted seed) surface as notes instead. Errors and notes come in block
order: the top level, then phases, constraints and sampling.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Tuple

from .angles import PhaseAngle, Residue, _Record, angle_to_json
from .errors import ScenarioError
from .closed import ExperimentConfig, PhaseSettings

SCHEMA_ID = "ghzport-scenario/1"


class SamplingSpec(_Record):
    """Shot count and generator seed for ``sample``."""

    _fields = ("shots", "seed")

    def __init__(self, shots: int, seed: int = 0):
        self.__dict__.update(shots=shots, seed=seed)


class Scenario(_Record):
    """A validated scenario; ``notes`` carries normalization remarks only."""

    _fields = ("config", "phases", "catalog", "constraints", "sampling", "notes")

    def __init__(self, config: ExperimentConfig, phases: PhaseSettings,
                 catalog: Optional[SettingsCatalog] = None,
                 constraints: Optional[Tuple[Constraint, ...]] = None,
                 sampling: Optional[SamplingSpec] = None, notes: Tuple[str, ...] = ()):
        self.__dict__.update(config=config, phases=phases, catalog=catalog,
                             constraints=constraints, sampling=sampling, notes=notes)

    def _key(self) -> tuple:  # every field but notes, which is left out of eq and hash
        return tuple([self.__dict__[name] for name in self._fields[:-1]])


def _parse_angle(value, where: str, errors: list, notes: list) -> Optional[PhaseAngle]:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        errors.append(f"{where}: expected a number of radians or a \"p/q\" string")
        return None
    try:
        angle = PhaseAngle.parse(value)
    except OverflowError as exc:  # RationalOverflowError, or an int too large for a float
        errors.append(f"{where}: {exc}")
        return None
    except ZeroDivisionError:
        errors.append(f"{where}: rational {value!r} has a zero denominator")
        return None
    except ValueError:
        errors.append(f"{where}: cannot read {value!r} as radians or \"p/q\"")
        return None
    if isinstance(value, str) and "/" in value:
        canonical = angle_to_json(angle)
        if value.strip() != canonical:
            notes.append(f"{where}: \"{value}\" normalized to {canonical} of 2*pi")
    elif isinstance(value, str):
        notes.append(f"{where}: string {value!r} read as radians")
    return angle


def _parse_row(value, length: int, where: str, errors: list, notes: list):
    if not isinstance(value, list):
        errors.append(f"{where}: expected a list of {length} phase entries")
        return None
    if len(value) != length:
        errors.append(f"{where}: expected {length} entries (ports={length}), got {len(value)}")
        return None
    row = [_parse_angle(entry, f"{where} port {m + 1}", errors, notes)
           for m, entry in enumerate(value)]
    if any(angle is None for angle in row):
        return None
    return tuple(row)


def _parse_rows(rows_data: list, ports: int, where: str, errors: list, notes: list) -> list:
    """The rows of ``rows_data`` that parse, the i-th named ``{where} {i}`` from 1."""
    rows = [_parse_row(row, ports, f"{where} {i + 1}", errors, notes)
            for i, row in enumerate(rows_data)]
    return [row for row in rows if row is not None]


def _require_keys(data: dict, allowed: set, where: str, errors: list) -> None:
    for key in data:
        if key not in allowed:
            errors.append(f"{where}: unknown field {key!r}")


def _parse_int(data: dict, key: str, where: str, errors: list, minimum: int):
    value = data.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        errors.append(f"{where}: field {key!r} must be an integer")
        return None
    if value < minimum:
        errors.append(f"{where}: field {key!r} must be >= {minimum}, got {value}")
        return None
    return value


def parse_scenario_data(data, source: str = "<scenario>") -> Scenario:
    """Validate a decoded scenario document; raises ScenarioError with every
    diagnostic found, or returns the scenario plus normalization notes."""
    errors, notes = [], []
    if not isinstance(data, dict):
        raise ScenarioError(["top level must be a JSON object"], source)
    _require_keys(data, {"schema", "particles", "ports", "phases", "constraints", "sampling"},
                  "scenario", errors)
    schema = data.get("schema")
    if schema is None:
        notes.append(f"no schema field; assuming {SCHEMA_ID}")
    elif schema != SCHEMA_ID:
        errors.append(f"scenario: unsupported schema {schema!r} (expected {SCHEMA_ID})")

    particles = _parse_int(data, "particles", "scenario", errors, minimum=1)
    ports = _parse_int(data, "ports", "scenario", errors, minimum=2)
    if particles is None or ports is None:
        # shape validation is meaningless without the geometry
        raise ScenarioError(errors, source)

    phases_data = data.get("phases")
    rows = []
    if not isinstance(phases_data, list) or len(phases_data) != particles:
        given = len(phases_data) if isinstance(phases_data, list) else "none"
        errors.append(
            f"phases: expected {particles} station rows (particles={particles}), got {given}"
        )
    else:
        rows = _parse_rows(phases_data, ports, "phases station", errors, notes)

    catalog = None
    constraints = None
    if "constraints" in data:
        catalog, constraints = _parse_constraints(
            data["constraints"], particles, ports, rows, errors, notes
        )

    sampling = None
    if "sampling" in data:
        sampling = _parse_sampling(data["sampling"], errors, notes)

    if errors:
        raise ScenarioError(errors, source)
    return Scenario(config=ExperimentConfig(particles, ports), phases=PhaseSettings(tuple(rows)),
                    catalog=catalog, constraints=constraints, sampling=sampling,
                    notes=tuple(notes))


def _parse_constraints(block, particles, ports, phase_rows, errors, notes):
    from .lhv import Constraint, SettingsCatalog  # only a constraints block needs them

    if not isinstance(block, dict):
        errors.append("constraints: expected an object with settings/require")
        return None, None
    _require_keys(block, {"settings", "require"}, "constraints", errors)

    settings_data = block.get("settings")
    station_settings = None
    if settings_data is None:
        if len(phase_rows) == particles:
            station_settings = tuple((row,) for row in phase_rows)
            notes.append(
                "constraints: no settings given; each station's catalog is its phases row"
            )
    elif not isinstance(settings_data, list) or len(settings_data) != particles:
        errors.append(f"constraints.settings: expected {particles} station entries")
    else:
        parsed_stations = []
        for l, rows_data in enumerate(settings_data):
            where = f"constraints.settings station {l + 1}"
            if not isinstance(rows_data, list) or not rows_data:
                errors.append(f"{where}: expected a non-empty list of rows")
                continue
            rows = _parse_rows(rows_data, ports, f"{where} setting", errors, notes)
            if len(rows) == len(rows_data):
                parsed_stations.append(tuple(rows))
        if len(parsed_stations) == particles:
            station_settings = tuple(parsed_stations)

    require_data = block.get("require", [])
    parsed = []
    if not isinstance(require_data, list):
        errors.append("constraints.require: expected a list")
        require_data = []
    for i, entry in enumerate(require_data):
        where = f"constraints.require[{i + 1}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: expected an object with pattern/class")
            continue
        _require_keys(entry, {"pattern", "class"}, where, errors)
        pattern = entry.get("pattern")
        klass = entry.get("class")
        if not isinstance(pattern, list) or len(pattern) != particles:
            errors.append(f"{where}: pattern must list {particles} setting indices")
            continue
        if isinstance(klass, bool) or not isinstance(klass, int):
            errors.append(f"{where}: class must be an integer mod {ports}")
            continue
        if not 0 <= klass < ports:
            notes.append(f"{where}: class {klass} reduced mod {ports} to {klass % ports}")
        indices = []
        for l, index in enumerate(pattern):
            if isinstance(index, bool) or not isinstance(index, int) or index < 1:
                errors.append(f"{where}: station {l + 1} setting index must be a 1-based integer")
                indices = None
                break
            limit = len(station_settings[l]) if station_settings else None
            if limit is not None and index > limit:
                errors.append(
                    f"{where}: station {l + 1} setting index {index} exceeds the "
                    f"{limit} catalog setting(s)"
                )
                indices = None
                break
            indices.append(index - 1)
        if indices is not None:
            parsed.append(Constraint(tuple(indices), Residue(klass, ports)))

    if errors or station_settings is None:
        return None, None
    return SettingsCatalog(ports, station_settings), tuple(parsed)


def _parse_sampling(block, errors, notes):
    if not isinstance(block, dict):
        errors.append("sampling: expected an object with shots/seed")
        return None
    _require_keys(block, {"shots", "seed"}, "sampling", errors)
    shots = _parse_int(block, "shots", "sampling", errors, minimum=1)
    seed = 0
    if "seed" in block:
        parsed = _parse_int(block, "seed", "sampling", errors, minimum=0)
        if parsed is not None:
            seed = parsed
    else:
        notes.append("sampling: no seed given; defaulting to 0")
    if shots is None:
        return None
    return SamplingSpec(shots, seed)


def parse_scenario(path) -> Scenario:
    """Load and validate a scenario file."""
    file_path = Path(path)
    try:
        text = file_path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ScenarioError([f"file not found: {file_path}"], str(file_path)) from None
    except OSError as exc:
        raise ScenarioError([f"cannot read {file_path}: {exc}"], str(file_path)) from None
    except UnicodeDecodeError as exc:
        raise ScenarioError([f"cannot read {file_path}: not UTF-8 text ({exc})"],
                            str(file_path)) from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            [f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"],
            str(file_path),
        ) from None
    except RecursionError:
        raise ScenarioError(["malformed JSON: nested too deeply"], str(file_path)) from None
    return parse_scenario_data(data, source=str(file_path))


def scenario_to_data(scenario: Scenario) -> dict:
    """Canonical document for echoing; re-parsing it yields an equal scenario."""
    data = {
        "schema": SCHEMA_ID,
        "particles": scenario.config.particles,
        "ports": scenario.config.ports,
        "phases": [[angle_to_json(a) for a in row] for row in scenario.phases.rows],
    }
    if scenario.catalog is not None:
        block = {
            "settings": [
                [[angle_to_json(a) for a in row] for row in settings]
                for settings in scenario.catalog.station_settings
            ],
            "require": [
                {"pattern": [i + 1 for i in c.pattern], "class": c.required.value}
                for c in (scenario.constraints or ())
            ],
        }
        data["constraints"] = block
    if scenario.sampling is not None:
        data["sampling"] = {
            "shots": scenario.sampling.shots,
            "seed": scenario.sampling.seed,
        }
    return data
