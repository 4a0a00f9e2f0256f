"""Deterministic local-hidden-variable models over finite setting catalogs.

A deterministic model assigns, to every (station, local setting) pair, one of
the M Bell numbers; residues mod M carry the whole arithmetic since the
product of assigned values is the sum of their exponents. The module counts
exactly, over every model, those satisfying a set of perfect-correlation
constraints (by elimination of the system A x = b over each prime power of
M), with the first such model as a witness, and derives the value forced on
one pattern as the sum of the system's rows. Each entry point validates the
patterns it is given on every call; nothing is kept between calls.
"""

from __future__ import annotations

from math import gcd
from typing import Optional, Sequence, Tuple

from .angles import PhaseAngle, Residue, _is_index, _Record
from .errors import ResourceLimitError
from .closed import PhaseSettings

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
        """Assemble the experiment's phase table for one setting pattern,
        validated first; stations on the same setting share its row object."""
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


def _system(catalog, constraints):
    """Check each constraint (its pattern, then its residue's modulus) and
    write it as a row [b, a_1, ..., a_cells] of A x = b (mod M), with a 1 in
    each cell it names, cells in table order. The rows and each station's
    first cell."""
    counts = catalog.setting_counts
    first = [sum(counts[:station]) for station in range(len(counts))]
    rows = []
    for constraint in constraints:
        pattern = catalog.validate_pattern(constraint.pattern)
        if constraint.required.modulus != catalog.ports:
            raise ValueError(
                f"constraint residue modulus {constraint.required.modulus} "
                f"does not match the catalog's {catalog.ports} ports"
            )
        row = [constraint.required.value] + [0] * sum(counts)
        for station, setting in enumerate(pattern):
            row[1 + first[station] + setting] = 1
        rows.append(row)
    return rows, first


def _prime_powers(modulus):
    """The prime powers p**e, one per prime, whose product is the modulus."""
    powers, p = [], 2
    while p * p <= modulus:
        q = 1
        while modulus % p == 0:
            modulus, q = modulus // p, q * p
        if q > 1:
            powers.append(q)
        p += 1
    return powers + [modulus] if modulus > 1 else powers


def _echelon(rows, cells, q):
    """Reduce rows [b, a_1, ..., a_cells] of A x = b mod a prime power q, one
    column at a time from the last cell back. The pivot is the entry of lowest
    p-valuation, p**v = gcd(entry, q); its row, scaled to read p**v, clears
    the column and leaves as the cell's echelon row, and its saturation
    p**(e-v) * row, free of the cell, stays as the condition for a value to
    exist. Each cell's row (None if free), or None when 0 = b != 0 is left.
    """
    rows = [[x % q for x in row] for row in rows]
    echelon = [None] * cells
    for cell in reversed(range(cells)):
        chosen = min(rows, key=lambda row: gcd(row[-1], q), default=None)
        step = q if chosen is None else gcd(chosen[-1], q)
        if step < q:
            scale = pow(chosen[-1] // step, -1, q)
            pivot = echelon[cell] = [x * scale % q for x in chosen]
            rows = [[(x - t * y) % q for x, y in zip(row, pivot)]
                    if (t := row[-1] // step) else row for row in rows if row is not chosen]
            if step > 1:
                rows.append([x * (q // step) % q for x in pivot])
        kept = []
        for row in rows:
            del row[-1]
            if any(row[1:]):
                kept.append(row)
            elif row[0]:
                return None
        rows = kept
    return echelon


def count_satisfying(catalog: SettingsCatalog,
                     constraints: Sequence[Constraint]) -> CountResult:
    """Exact count over every deterministic model, by elimination over Z_M.

    A model is one residue per (station, setting) cell, each constraint one
    row of A x = b (mod M), reduced by ``_echelon`` mod each prime power q of
    M. A pivot p**v leaves p**v values for its cell, a free cell q; counts
    multiply across the prime powers (CRT). With earlier cells fixed, a cell's
    feasible values solve its echelon rows: one coset a + d Z_M across the
    prime powers. Taking a mod d, cell by cell in table order, builds the
    lexicographically smallest witness, returned when the count is positive.
    """
    total = catalog.model_count
    if total > MODEL_GUARD:
        raise ResourceLimitError(
            f"{total} deterministic models exceeds the search guard of {MODEL_GUARD}"
        )
    rows, first = _system(catalog, constraints)
    counts = catalog.setting_counts
    cells = sum(counts)
    count, systems = 1, []
    for q in _prime_powers(catalog.ports):
        echelon = _echelon(rows, cells, q)
        if echelon is None:
            return CountResult(0, None)
        for row in echelon:
            count *= q if row is None else row[-1]
        systems.append((q, echelon))
    values = []
    for cell in range(cells):
        value, step = 0, 1
        for q, echelon in systems:
            if (row := echelon[cell]) is not None:
                rest = (row[0] - sum(a * x for a, x in zip(row[1:], values))) % q
                modulus = q // row[-1]  # value = a mod step so far; CRT adds this q
                value += step * ((rest // row[-1] - value) * pow(step, -1, modulus) % modulus)
                step *= modulus
        values.append(value)
    return CountResult(count, DeterministicModel(catalog.ports, tuple(
        tuple(values[start:start + n]) for start, n in zip(first, counts))))


def ghz_forced_value(
    constraints: Sequence[Constraint], catalog: SettingsCatalog
) -> Optional[ForcedValue]:
    """Multiply the constraints side by side and name the value they force.

    The product of the constraints is the sum of the system's rows: column
    sums mod M. Because every assigned value is an M-th root of unity, a cell
    whose column sums to 0 drops out. If what remains is exactly one cell per
    station, summing to 1, those cells form a pattern whose product is forced
    to the sum of the required residues; otherwise the multiplication proves
    nothing and None is returned.
    """
    rows, first = _system(catalog, constraints)
    if not rows:
        return None
    total, *sums = (sum(column) % catalog.ports for column in zip(*rows))
    pattern = []
    for start, stop in zip(first, first[1:] + [len(sums)]):
        station = sums[start:stop]
        if sum(station) != 1:  # residues in 0..M-1: one cell at 1, the others 0
            return None
        pattern.append(station.index(1))
    return ForcedValue(tuple(pattern), Residue(total, catalog.ports))
