"""The closed-form track: the Bell-number correlation without an outcome table.

Holds the experiment geometry, the phase-settings table, the M-th roots of
unity and the closed O(N*M) correlation (1/M) sum_m exp(i sum_l
phi_l^(m,m+1)): exact, as integer exponents over a common denominator, when
every phase carries a rational part, and on floats otherwise.
Perfect-correlation detection and the prediction of the last outcome from
the other N-1 build on it. The paper's paradoxes are settled here and in
``ghzport.lhv`` alone; the outcome table, its two probability routes and
sampling live in ``ghzport.quantum``.

Detector indices are 0-based throughout this module; the command-line layer
re-exposes 1-based port labels.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from typing import Optional, Sequence, Tuple

import numpy as np

from .angles import (
    TAU,
    UNIT_TOLERANCE,
    _INT64_MAX,
    PhaseAngle,
    Residue,
    _check_int,
    _is_index,
    _Record,
    root_of_unity,
)
from .errors import RationalOverflowError


class ExperimentConfig(_Record):
    """Geometry of the experiment: N stations, each a multiport with M ports."""

    _fields = ("particles", "ports")

    def __init__(self, particles: int, ports: int):
        _check_int(particles, "particles must be an integer >= 1", 1)
        _check_int(ports, "ports must be an integer >= 2", 2)
        self.__dict__.update(particles=particles, ports=ports)

    @property
    def outcome_count(self) -> int:
        return self.ports**self.particles


def unit_roots(modulus: int) -> np.ndarray:
    """All M complex M-th roots of unity, index j holding exp(2*pi*i*j/M),
    bit for bit ``root_of_unity(j, M)``: the same operations in the same order."""
    return np.exp(1j * (2 * math.pi * np.arange(modulus) / modulus))


def _distinct(rows) -> list:
    """Each distinct row object of a settings table, by identity and in
    first-appearance order, paired with the number of stations that hold it,
    so that a row shared by stations (as in a catalog's experiments) is read
    once."""
    held = Counter(map(id, rows))
    return [(row, held.pop(id(row))) for row in rows if id(row) in held]


class PhaseSettings(_Record):
    """The N x M table of phase-shifter settings, one row per station."""

    _fields = ("rows",)

    def __init__(self, rows: Tuple[Tuple[PhaseAngle, ...], ...]):
        if not rows:
            raise ValueError("phase settings need at least one station row")
        width = len(rows[0])
        for index, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(
                    f"station {index + 1} has {len(row)} phases, expected {width}"
                )
        for row, _ in _distinct(rows):
            for angle in row:
                if not isinstance(angle, PhaseAngle):
                    raise ValueError(f"phase entries must be PhaseAngle, got {angle!r}")
        self.__dict__.update(rows=rows)

    @classmethod
    def build(cls, rows) -> "PhaseSettings":
        """Coerce nested values: PhaseAngle kept, "p/q" parsed, numbers -> radians."""
        converted = tuple(
            tuple(a if isinstance(a, PhaseAngle) else PhaseAngle.parse(a) for a in row)
            for row in rows
        )
        return cls(converted)

    @property
    def particles(self) -> int:
        return len(self.rows)

    @property
    def ports(self) -> int:
        return len(self.rows[0])

    @property
    def all_exact(self) -> bool:
        return all(angle.is_exact for row, _ in _distinct(self.rows) for angle in row)

    def float_matrix(self) -> np.ndarray:
        return np.array([[angle.radians for angle in row] for row in self.rows])


class CorrelationValue(_Record):
    """The Bell-number correlation: a complex average of unit-modulus values.

    ``exact_class`` is attached only when every input phase carried an exact
    rational part and all M closed-form exponents agree, so that the value is
    exactly the root of unity gamma_M^k.
    """

    _fields = ("value", "exact_class")

    def __init__(self, value: complex, exact_class: Optional[Residue] = None):
        if abs(value) > 1.0 + 1e-12:
            raise ValueError(f"correlation modulus {abs(value)} exceeds 1")
        self.__dict__.update(value=value, exact_class=exact_class)


def _check_settings(cfg: ExperimentConfig, settings: PhaseSettings) -> None:
    if settings.particles != cfg.particles or settings.ports != cfg.ports:
        raise ValueError(
            f"settings shape {settings.particles}x{settings.ports} does not match "
            f"configuration {cfg.particles}x{cfg.ports}"
        )


def _closed_form_exponents(settings: PhaseSettings):
    """The M closed-form exponents sum_l (phi_l^m - phi_l^(m+1)), one per m.

    The wraparound column m = M-1 uses phi^M - phi^1, so the exponents
    telescope to zero modulo one turn. A float entry's denominator is None,
    and a None among the distinct rows' denominators (the test ``all_exact``
    makes) gives ``(phases, None)``: the M unit phases exp(i * exponent) on
    the floating track. Otherwise returns ``(numerators, D)``: exponent m is
    numerators[m]/D of a turn in [0, 1), over the lcm D of the denominators,
    taken from the column sums S_m as (S_m - S_(m+1)) mod D. Each exact entry
    is scaled to D from its own numerator and denominator, times the number
    of stations that hold its row; S_m adds one such integer vector per
    distinct row, which is exactly the sum over all N stations.
    """
    distinct = _distinct(settings.rows)
    denominators = {a.denominator for row, _ in distinct for a in row}
    if None in denominators:
        phi = settings.float_matrix()
        deltas = phi - np.roll(phi, -1, axis=1)
        return np.exp(1j * deltas.sum(axis=0)), None
    denominator = math.lcm(*denominators)
    scaled = [[held * a.numerator * (denominator // a.denominator) for a in row]
              for row, held in distinct]
    sums = [sum(column) for column in zip(*scaled)]
    numerators = [(s - t) % denominator for s, t in zip(sums, sums[1:] + sums[:1])]
    if denominator > _INT64_MAX:  # only then can a reduced exponent leave the range
        for m, e in enumerate(numerators):
            common = math.gcd(e, denominator)
            if denominator // common > _INT64_MAX:  # in [0, 1): the numerator is smaller
                raise RationalOverflowError(
                    f"closed-form exponent of ports {m + 1}, {(m + 1) % len(numerators) + 1} is "
                    f"{e // common}/{denominator // common} of a turn, over the lcm "
                    f"{denominator} of the phase denominators; it exceeds the supported 64-bit "
                    "numerator/denominator range")
    return numerators, denominator


def _exact_class(numerators: list, denominator: int, ports: int) -> Optional[Residue]:
    """Class k when all M exact exponents agree, so that E = gamma_M^k.

    Agreeing exponents are each exactly k/M of a turn, because the M of them
    telescope to zero modulo one turn.
    """
    if any(e != numerators[0] for e in numerators):
        return None
    return Residue(numerators[0] * ports // denominator, ports)


def correlation_closed(
    cfg: ExperimentConfig, settings: PhaseSettings
) -> CorrelationValue:
    """Correlation in closed form: (1/M) sum_m exp(i sum_l phi_l^(m,m+1)).

    Costs O(N*M) with no enumeration guard. When every input phase carries an
    exact rational part the exponents are computed exactly, as integers over
    a common denominator, and, if all M of them agree, the correlation is
    exactly a Bell number and its class is attached.
    """
    _check_settings(cfg, settings)
    exponents, denominator = _closed_form_exponents(settings)
    if denominator is None:
        return CorrelationValue(complex(exponents.mean()))
    value = sum(cmath.exp(1j * TAU * (e / denominator)) for e in exponents) / cfg.ports
    return CorrelationValue(complex(value), _exact_class(exponents, denominator, cfg.ports))


def perfect_correlation_class(
    cfg: ExperimentConfig,
    settings: PhaseSettings,
) -> Optional[Residue]:
    """The class k with E = gamma_M^k when the correlation is perfect, else None.

    Perfect correlation means all M closed-form exponents land on the same
    Bell number; the exact track decides by arithmetic, the floating track
    within UNIT_TOLERANCE (1e-9) per unit-modulus component.
    """
    _check_settings(cfg, settings)
    phases, denominator = _closed_form_exponents(settings)
    if denominator is not None:
        return _exact_class(phases, denominator, cfg.ports)
    candidate = round(float(np.angle(phases[0])) / (TAU / cfg.ports)) % cfg.ports
    root = root_of_unity(candidate, cfg.ports)
    if np.max(np.abs(phases - root)) <= UNIT_TOLERANCE:
        return Residue(candidate, cfg.ports)
    return None


def predict_last(k_class: Residue, observed: Sequence[int]) -> Residue:
    """Detector forced at the remaining station by a perfect-correlation class.

    The product of all N Bell numbers must be gamma_M^k, so the missing
    residue is k minus the sum of the observed detector indices, mod M.
    """
    modulus = k_class.modulus
    total = 0
    for k in observed:
        if not _is_index(k, modulus):
            raise ValueError(
                f"observed detector indices must be integers in 0..{modulus - 1}, got {k!r}"
            )
        total += int(k)
    return Residue(k_class.value - total, modulus)
