"""Deterministic local-hidden-variable models over finite setting catalogs.

A deterministic model assigns, to every (station, local setting) pair, one of
the M Bell numbers; residues mod M carry the whole arithmetic since the
product of assigned values is the sum of their exponents. The module can
evaluate models against perfect-correlation constraints, count exactly, over
every model, those satisfying a constraint set (by joining two half-tables),
and derive the value algebraically forced on one pattern by multiplying
constraints side by side.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .angles import PhaseAngle, Residue, _is_index, _Record
from .errors import ResourceLimitError
from .quantum import PhaseSettings

#: Exhaustive-search guard on the total deterministic model count.
MODEL_GUARD = 10**8


class SettingsCatalog(_Record):
    """Per-station lists of allowed local settings (rows of M phase angles)."""

    _fields = ("ports", "station_settings")

    def __init__(self, ports: int,
                 station_settings: Tuple[Tuple[Tuple[PhaseAngle, ...], ...], ...]):
        if not station_settings:
            raise ValueError("catalog needs at least one station")
        for index, settings in enumerate(station_settings):
            if not settings:
                raise ValueError(f"station {index + 1} has no settings")
            for row in settings:
                if len(row) != ports:
                    raise ValueError(
                        f"station {index + 1} has a setting of {len(row)} phases, "
                        f"expected {ports}"
                    )
        self.__dict__.update(ports=ports, station_settings=station_settings)

    @property
    def stations(self) -> int:
        return len(self.station_settings)

    @property
    def setting_counts(self) -> Tuple[int, ...]:
        return tuple(len(s) for s in self.station_settings)

    @property
    def model_count(self) -> int:
        """Number of deterministic models: M ** (total settings)."""
        return self.ports ** sum(self.setting_counts)

    def validate_pattern(self, pattern: Sequence[int]) -> Tuple[int, ...]:
        indices = tuple(pattern)
        if len(indices) != self.stations:
            raise ValueError(
                f"pattern has {len(indices)} entries, expected {self.stations}"
            )
        for station, index in enumerate(indices):
            if not _is_index(index, len(self.station_settings[station])):
                raise ValueError(
                    f"station {station + 1} setting index {index!r} out of range "
                    f"0..{len(self.station_settings[station]) - 1}"
                )
        return indices

    def phase_settings(self, pattern: Sequence[int]) -> PhaseSettings:
        """Assemble the experiment's phase table for one setting pattern."""
        indices = self.validate_pattern(pattern)
        return PhaseSettings(
            tuple(self.station_settings[l][s] for l, s in enumerate(indices))
        )


class DeterministicModel(_Record):
    """A full assignment table: (station, setting) -> residue mod M."""

    _fields = ("ports", "assignments")

    def __init__(self, ports: int, assignments: Tuple[Tuple[int, ...], ...]):
        for station, values in enumerate(assignments):
            for value in values:
                if not isinstance(value, int) or not 0 <= value < ports:
                    raise ValueError(
                        f"station {station + 1} assignment {value!r} is not a "
                        f"residue mod {ports}"
                    )
        self.__dict__.update(ports=ports, assignments=assignments)


class Constraint(_Record):
    """One perfect-correlation requirement: on this setting pattern, the
    product of the stations' values must be the Bell number of ``required``."""

    _fields = ("pattern", "required")

    def __init__(self, pattern: Tuple[int, ...], required: Residue):
        self.__dict__.update(pattern=pattern, required=required)


class ForcedValue(_Record):
    """Result of multiplying constraints: the product on ``pattern`` is forced."""

    _fields = ("pattern", "residue")

    def __init__(self, pattern: Tuple[int, ...], residue: Residue):
        self.__dict__.update(pattern=pattern, residue=residue)


class CountResult(_Record):
    """How many models satisfy a constraint set, and the first one that does."""

    _fields = ("count", "witness")

    def __init__(self, count: int, witness: Optional[DeterministicModel]):
        self.__dict__.update(count=count, witness=witness)


def model_value(model: DeterministicModel, pattern: Sequence[int]) -> Residue:
    """Residue of the Bell-number product the model predicts on a pattern."""
    indices = tuple(pattern)
    if len(indices) != len(model.assignments):
        raise ValueError(
            f"pattern has {len(indices)} entries, expected {len(model.assignments)}"
        )
    total = 0
    for station, setting in enumerate(indices):
        values = model.assignments[station]
        if not _is_index(setting, len(values)):
            raise ValueError(
                f"station {station + 1} setting index {setting!r} out of range"
            )
        total += values[setting]
    return Residue(total, model.ports)


def satisfies(model: DeterministicModel, constraints: Sequence[Constraint]) -> bool:
    """True iff the model meets every constraint."""
    return all(model_value(model, c.pattern) == c.required for c in constraints)


def _decode_model(index: int, catalog: SettingsCatalog) -> DeterministicModel:
    """Model at a given position in the lexicographic enumeration order."""
    counts = catalog.setting_counts
    ports = catalog.ports
    digits = []
    remaining = index
    for _ in range(sum(counts)):
        digits.append(remaining % ports)
        remaining //= ports
    digits.reverse()
    assignments = []
    cursor = 0
    for count in counts:
        assignments.append(tuple(digits[cursor : cursor + count]))
        cursor += count
    return DeterministicModel(ports, tuple(assignments))


def _check_constraints(catalog, constraints):
    for constraint in constraints:
        catalog.validate_pattern(constraint.pattern)
        if constraint.required.modulus != catalog.ports:
            raise ValueError(
                f"constraint residue modulus {constraint.required.modulus} "
                f"does not match the catalog's {catalog.ports} ports"
            )


def _constraint_sums(cells, constraints, ports):
    """Constraint sums mod M of every assignment to ``cells``, in lex order."""
    sums = [(0,) * len(constraints)]
    for station, setting in cells:
        touched = [c.pattern[station] == setting for c in constraints]
        sums = [
            tuple((s + value) % ports if t else s for s, t in zip(row, touched))
            for row in sums
            for value in range(ports)
        ]
    return sums


def count_satisfying(
    catalog: SettingsCatalog,
    constraints: Sequence[Constraint],
) -> CountResult:
    """Exact count over every deterministic model, by joining two half-tables.

    The (station, setting) cells, in table order, split into a leading and a
    trailing half; each half's assignments are listed in lexicographic order
    as vectors of constraint sums mod M. A model satisfies every constraint
    iff its trailing vector is ``required - leading`` mod M. The first leading
    row with a match, joined to that match's first trailing row, is the
    lexicographically smallest witness, returned when the count is positive.
    """
    total = catalog.model_count
    if total > MODEL_GUARD:
        raise ResourceLimitError(
            f"{total} deterministic models exceeds the search guard of {MODEL_GUARD}"
        )
    _check_constraints(catalog, constraints)

    ports = catalog.ports
    cells = [
        (station, setting)
        for station, count in enumerate(catalog.setting_counts)
        for setting in range(count)
    ]
    half = len(cells) // 2
    trailing = _constraint_sums(cells[half:], constraints, ports)
    matches: dict = {}
    for index, vector in enumerate(trailing):
        hits, first = matches.get(vector, (0, index))
        matches[vector] = (hits + 1, first)

    required = [c.required.value for c in constraints]
    count = 0
    witness_index = None
    for index, vector in enumerate(_constraint_sums(cells[:half], constraints, ports)):
        hits, first = matches.get(
            tuple((r - v) % ports for r, v in zip(required, vector)), (0, None)
        )
        count += hits
        if hits and witness_index is None:
            witness_index = index * len(trailing) + first
    witness = None if witness_index is None else _decode_model(witness_index, catalog)
    return CountResult(count, witness)


def ghz_forced_value(
    constraints: Sequence[Constraint], catalog: SettingsCatalog
) -> Optional[ForcedValue]:
    """Multiply the constraints side by side and name the value they force.

    Counts how often each (station, setting) cell occurs across the constraint
    patterns. Because every assigned value is an M-th root of unity, cells
    occurring 0 mod M drop out of the product. If what remains is exactly one
    cell per station, each occurring 1 mod M, those cells form a pattern whose
    product is forced to the sum of the required residues; otherwise the
    multiplication proves nothing and None is returned.
    """
    _check_constraints(catalog, constraints)
    ports = catalog.ports
    occurrences: dict = {}
    total = 0
    for constraint in constraints:
        for station, setting in enumerate(constraint.pattern):
            occurrences[(station, setting)] = occurrences.get((station, setting), 0) + 1
        total += constraint.required.value
    pattern: list = [None] * catalog.stations
    for (station, setting), hits in occurrences.items():
        remainder = hits % ports
        if remainder == 0:
            continue
        if remainder != 1 or pattern[station] is not None:
            return None
        pattern[station] = setting
    if any(setting is None for setting in pattern):
        return None
    return ForcedValue(tuple(pattern), Residue(total, ports))
