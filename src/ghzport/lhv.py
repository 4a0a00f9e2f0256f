"""Deterministic local-hidden-variable models over finite setting catalogs.

A deterministic model assigns, to every (station, local setting) pair, one of
the M Bell numbers; residues mod M carry the whole arithmetic since the
product of assigned values is the sum of their exponents. The module can
evaluate models against perfect-correlation constraints, exhaustively count
the models satisfying a constraint set, and derive the value algebraically
forced on one pattern by multiplying constraints side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .angles import PhaseAngle, Residue
from .errors import ResourceLimitError
from .quantum import PhaseSettings

#: Exhaustive-search guard on the total deterministic model count.
MODEL_GUARD = 10**8

_CHUNK = 1 << 20


@dataclass(frozen=True)
class SettingsCatalog:
    """Per-station lists of allowed local settings (rows of M phase angles)."""

    ports: int
    station_settings: Tuple[Tuple[Tuple[PhaseAngle, ...], ...], ...]

    def __post_init__(self):
        if not self.station_settings:
            raise ValueError("catalog needs at least one station")
        for index, settings in enumerate(self.station_settings):
            if not settings:
                raise ValueError(f"station {index + 1} has no settings")
            for row in settings:
                if len(row) != self.ports:
                    raise ValueError(
                        f"station {index + 1} has a setting of {len(row)} phases, "
                        f"expected {self.ports}"
                    )

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
            if not isinstance(index, (int, np.integer)) or not (
                0 <= index < len(self.station_settings[station])
            ):
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


@dataclass(frozen=True)
class DeterministicModel:
    """A full assignment table: (station, setting) -> residue mod M."""

    ports: int
    assignments: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        for station, values in enumerate(self.assignments):
            for value in values:
                if not isinstance(value, int) or not 0 <= value < self.ports:
                    raise ValueError(
                        f"station {station + 1} assignment {value!r} is not a "
                        f"residue mod {self.ports}"
                    )


@dataclass(frozen=True)
class Constraint:
    """One perfect-correlation requirement: on this setting pattern, the
    product of the stations' values must be the Bell number of ``required``."""

    pattern: Tuple[int, ...]
    required: Residue


@dataclass(frozen=True)
class ForcedValue:
    """Result of multiplying constraints: the product on ``pattern`` is forced."""

    pattern: Tuple[int, ...]
    residue: Residue


@dataclass(frozen=True)
class CountResult:
    count: int
    witness: Optional[DeterministicModel]


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
        if not isinstance(setting, (int, np.integer)) or not 0 <= setting < len(values):
            raise ValueError(
                f"station {station + 1} setting index {setting!r} out of range"
            )
        total += values[setting]
    return Residue(total, model.ports)


def satisfies(model: DeterministicModel, constraints: Sequence[Constraint]) -> bool:
    """True iff the model meets every constraint."""
    return all(model_value(model, c.pattern) == c.required for c in constraints)


def _cell_layout(catalog: SettingsCatalog):
    """Flatten (station, setting) cells in lexicographic table order."""
    cells = []
    for station, count in enumerate(catalog.setting_counts):
        for setting in range(count):
            cells.append((station, setting))
    index = {cell: position for position, cell in enumerate(cells)}
    return cells, index


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


def count_satisfying(
    catalog: SettingsCatalog,
    constraints: Sequence[Constraint],
) -> CountResult:
    """Exact count of deterministic models meeting every constraint.

    Enumerates the full model space in lexicographic order over the
    assignment table (vectorized in fixed-size chunks, which leaves both the
    count and the first-witness choice identical to a plain odometer walk).
    Returns the count and, when positive, the lexicographically smallest
    witness.
    """
    total = catalog.model_count
    if total > MODEL_GUARD:
        raise ResourceLimitError(
            f"{total} deterministic models exceeds the search guard of {MODEL_GUARD}"
        )
    for constraint in constraints:
        catalog.validate_pattern(constraint.pattern)
        if constraint.required.modulus != catalog.ports:
            raise ValueError(
                f"constraint residue modulus {constraint.required.modulus} "
                f"does not match the catalog's {catalog.ports} ports"
            )
    if not constraints:
        return CountResult(total, _decode_model(0, catalog))

    ports = catalog.ports
    cells, cell_index = _cell_layout(catalog)
    width = len(cells)
    constraint_cells = [
        [cell_index[(station, setting)] for station, setting in enumerate(c.pattern)]
        for c in constraints
    ]
    needed = sorted({pos for group in constraint_cells for pos in group})
    place_values = {pos: ports ** (width - 1 - pos) for pos in needed}

    count = 0
    witness_index = None
    for low in range(0, total, _CHUNK):
        high = min(low + _CHUNK, total)
        indices = np.arange(low, high, dtype=np.int64)
        digits = {
            pos: ((indices // place_values[pos]) % ports).astype(np.int64)
            for pos in needed
        }
        mask = np.ones(high - low, dtype=bool)
        for constraint, positions in zip(constraints, constraint_cells):
            acc = np.zeros(high - low, dtype=np.int64)
            for pos in positions:
                acc += digits[pos]
            mask &= (acc % ports) == constraint.required.value
        count += int(mask.sum())
        if witness_index is None and mask.any():
            witness_index = low + int(np.argmax(mask))
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
    ports = catalog.ports
    occurrences: dict = {}
    total = 0
    for constraint in constraints:
        catalog.validate_pattern(constraint.pattern)
        if constraint.required.modulus != ports:
            raise ValueError(
                f"constraint residue modulus {constraint.required.modulus} "
                f"does not match the catalog's {ports} ports"
            )
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
