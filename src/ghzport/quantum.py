"""Quantum predictions for N-particle GHZ states on Bell multiports.

Covers the whole gedankenexperiment: joint detection probabilities computed
by two independent routes (squared amplitude vs cosine expansion, permanently
cross-asserted), the Bell-number correlation function both by its
definition over outcomes, summed class by class, and in its closed O(N*M)
form, perfect-correlation detection, prediction of the last outcome from the
other N-1, and seeded sampling.

Detector indices are 0-based throughout this module; the command-line layer
re-exposes 1-based port labels.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import Counter
from collections.abc import ItemsView, Mapping, ValuesView
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .angles import (
    PROBABILITY_TOLERANCE,
    TAU,
    UNIT_TOLERANCE,
    _INT64_MAX,
    PhaseAngle,
    Residue,
    _checked,
    _is_index,
    _Record,
    root_of_unity,
)
from .errors import ComputationIntegrityError, ResourceLimitError
from .multiport import unit_roots

#: Outcome-table guard: the table operations (the distribution and what
#: builds on it) refuse beyond this many outcomes; the closed form has none.
ENUMERATION_GUARD = 10**7

#: Name of the pseudo-random generator and of the way it is drawn from when
#: sampling, recorded in outputs.
GENERATOR_NAME = "pcg64/class-first"

#: Longest run of outcomes or draws held as one array by the table-free
#: paths: sampling draws prefixes in blocks of it, and sampled counts and
#: written rows are read out in blocks of it.
_BLOCK = 2**16


class ExperimentConfig(_Record):
    """Geometry of the experiment: N stations, each a multiport with M ports."""

    _fields = ("particles", "ports")

    def __init__(self, particles: int, ports: int):
        if not isinstance(particles, int) or isinstance(particles, bool) or particles < 1:
            raise ValueError(f"particles must be an integer >= 1, got {particles!r}")
        if not isinstance(ports, int) or isinstance(ports, bool) or ports < 2:
            raise ValueError(f"ports must be an integer >= 2, got {ports!r}")
        self.__dict__.update(particles=particles, ports=ports)

    @property
    def outcome_count(self) -> int:
        return self.ports**self.particles


def _ensure_enumerable(cfg: ExperimentConfig) -> None:
    if cfg.outcome_count > ENUMERATION_GUARD:
        raise ResourceLimitError(
            f"M**N = {cfg.ports}**{cfg.particles} = {cfg.outcome_count} outcomes "
            f"exceeds the enumeration guard of {ENUMERATION_GUARD}"
        )


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


def _check_outcome(cfg: ExperimentConfig, outcome: Sequence[int]) -> Tuple[int, ...]:
    detectors = tuple(outcome)
    if len(detectors) != cfg.particles:
        raise ValueError(
            f"outcome has {len(detectors)} entries, expected {cfg.particles}"
        )
    for k in detectors:
        if not _is_index(k, cfg.ports):
            raise ValueError(
                f"detector indices must be integers in 0..{cfg.ports - 1}, got {k!r}"
            )
    return detectors


def _class_amplitudes(phi: np.ndarray, ports: int) -> np.ndarray:
    """Joint amplitude for each digit-sum class of the outcome tuple.

    The product of per-station root-of-unity factors depends on the outcome
    only through s = sum(k_l) mod M, so one amplitude per class covers all
    M**N outcomes:  amp(s) = M^(-(N+1)/2) * sum_m exp(i sum_l phi[l, m]) *
    gamma_M^(m*s), the unnormalized inverse DFT of the per-port weights.
    """
    particles = phi.shape[0]
    amps = np.fft.ifft(np.exp(1j * phi.sum(axis=0)), norm="forward")
    return amps * ports ** (-(particles + 1) / 2)


def _class_probabilities_amplitude(phi: np.ndarray, ports: int) -> np.ndarray:
    """Route A: squared modulus of the joint amplitude, per digit-sum class."""
    amps = _class_amplitudes(phi, ports)
    return amps.real**2 + amps.imag**2


def _class_probabilities_cosine(phi: np.ndarray, ports: int) -> np.ndarray:
    """Route B: the cosine expansion of the joint probability, per class.

    P = M^-(N+1) * [M + 2 sum_{m>m'} cos(sum_l dphi_l + (2*pi/M)(m-m') s)]
    where dphi_l = phi[l, m] - phi[l, m'] and s = sum(k_l) mod M. The pairs
    with one port difference d = m - m' share the class term, so their
    cosines add up to 2 Re(exp(i (2*pi/M) d s) c_d), where c_d = sum_m'
    u[m' + d] conj(u[m']) is the linear autocorrelation of the unit vector
    u[m] = prod_l exp(i phi[l, m]): one FFT pair zero-padded to 2M, so no
    difference wraps around. The class sums over d are one inverse FFT.
    """
    particles = phi.shape[0]
    spectrum = np.fft.fft(np.exp(1j * phi).prod(axis=0), 2 * ports)
    pairs = np.fft.ifft(spectrum.real**2 + spectrum.imag**2)[:ports]
    pairs[0] = 0.0
    totals = ports + (2.0 * ports) * np.fft.ifft(pairs).real
    return totals * (1.0 / ports) ** (particles + 1)


def _checked_class_probabilities(phi: np.ndarray, ports: int) -> np.ndarray:
    """Per-class probabilities with the two routes cross-asserted."""
    route_a = _class_probabilities_amplitude(phi, ports)
    route_b = _class_probabilities_cosine(phi, ports)
    gap = float(np.max(np.abs(route_a - route_b)))
    if gap >= PROBABILITY_TOLERANCE:
        raise ComputationIntegrityError(
            f"amplitude and cosine probability routes disagree by {gap:.3e} "
            f"(tolerance {PROBABILITY_TOLERANCE:.1e}); this is an implementation bug"
        )
    return route_a


def _digit_sums(particles: int, ports: int) -> np.ndarray:
    """sum of detector indices for every outcome, lexicographic by station."""
    sums = np.zeros(1, dtype=np.int32)
    step = np.arange(ports, dtype=np.int32)
    for _ in range(particles):
        sums = (sums[:, None] + step[None, :]).reshape(-1)
    return sums


def _class_tables(cfg: ExperimentConfig) -> Tuple[np.ndarray, np.ndarray]:
    """(low, high): digit-sum classes of the last k and the first N-k digits.

    Outcome i = h * len(low) + j (lex index) lies in class (high[h] + low[j])
    mod M; sampling reads them to fix each draw's last digit. k >= 1 is the
    largest with M**k <= _BLOCK, so ``low`` is short unless M alone exceeds
    it, and ``high`` has M**(N-k) < M**(N+1)/_BLOCK entries: neither table
    grows as M times M**k.
    """
    ports, particles = cfg.ports, cfg.particles
    k = 1
    while k < particles and ports ** (k + 1) <= _BLOCK:
        k += 1
    low = _digit_sums(k, ports) % ports
    high = _digit_sums(particles - k, ports) % ports
    return low.astype(np.intp), high.astype(np.intp)


def joint_amplitude(cfg: ExperimentConfig, settings: PhaseSettings, outcome) -> complex:
    """Amplitude whose squared modulus is the joint detection probability."""
    _check_settings(cfg, settings)
    detectors = _check_outcome(cfg, outcome)
    amps = _class_amplitudes(settings.float_matrix(), cfg.ports)
    return complex(amps[sum(detectors) % cfg.ports])


def joint_probability(
    cfg: ExperimentConfig,
    settings: PhaseSettings,
    outcome,
) -> float:
    """Probability of one joint detection event, cross-checked on both routes."""
    _check_settings(cfg, settings)
    detectors = _check_outcome(cfg, outcome)
    probs = _checked_class_probabilities(settings.float_matrix(), cfg.ports)
    return float(probs[sum(detectors) % cfg.ports])


class OutcomeDistribution(Mapping):
    """The complete probability table over all M**N outcome tuples, implicit.

    Behaves as a read-only mapping from 0-based detector tuples (lexicographic
    by station) to probabilities. A probability depends on an outcome only
    through the residue of its detector sum, so only the M class
    probabilities are held and no M**N-long array is ever built; the total
    and marginals follow from the class structure. Iteration still walks
    every tuple.
    """

    def __init__(self, cfg: ExperimentConfig, class_probabilities: np.ndarray):
        self._cfg = cfg
        self._probs = class_probabilities
        total = float(cfg.ports ** (cfg.particles - 1) * class_probabilities.sum())
        if abs(total - 1.0) >= PROBABILITY_TOLERANCE:
            raise ComputationIntegrityError(
                f"distribution total {total!r} deviates from 1 beyond {PROBABILITY_TOLERANCE}"
            )
        self._total = total

    @property
    def config(self) -> ExperimentConfig:
        return self._cfg

    @property
    def total(self) -> float:
        """Sum of all entries, M**(N-1) * sum_s p_s: every class holds
        M**(N-1) outcomes. Within 1e-10 of 1 by construction."""
        return self._total

    def __len__(self) -> int:
        return self._cfg.outcome_count

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return itertools.product(range(self._cfg.ports), repeat=self._cfg.particles)

    def __getitem__(self, outcome) -> float:
        detectors = _check_outcome(self._cfg, outcome)
        return float(self._probs[sum(detectors) % self._cfg.ports])

    def class_probabilities(self) -> np.ndarray:
        """Probability of one outcome in each digit-sum class (length M)."""
        return self._probs.copy()

    def marginal(self, station: int) -> np.ndarray:
        """Single-station marginal distribution (length M), from the classes.

        With one station it is the class probabilities. With N >= 2, fixing
        one detector leaves M**(N-2) outcomes in every class, so every entry
        is M**(N-2) * sum_s p_s.
        """
        if not 0 <= station < self._cfg.particles:
            raise ValueError(f"station must be in 0..{self._cfg.particles - 1}")
        ports, particles = self._cfg.ports, self._cfg.particles
        if particles == 1:
            return self._probs.copy()
        return np.full(ports, ports ** (particles - 2) * self._probs.sum())

    def support(self, eps: float = 1e-12):
        """Yield (outcome, probability) for entries above eps, in lex order."""
        ports = self._cfg.ports
        probs = self._probs.tolist()
        for prefix in itertools.product(range(ports), repeat=self._cfg.particles - 1):
            shift = sum(prefix) % ports  # prefix + (k,) lies in class shift + k
            for last in range(ports):
                p = probs[(shift + last) % ports]
                if p > eps:
                    yield prefix + (last,), p


def full_distribution(
    cfg: ExperimentConfig,
    settings: PhaseSettings,
) -> OutcomeDistribution:
    """Tabulate the joint probability over every outcome (M**N <= guard)."""
    _check_settings(cfg, settings)
    _ensure_enumerable(cfg)
    probs = _checked_class_probabilities(settings.float_matrix(), cfg.ports)
    return OutcomeDistribution(cfg, probs)


def correlation_brute(
    cfg: ExperimentConfig,
    settings: PhaseSettings,
) -> CorrelationValue:
    """Correlation by definition: sum over all outcomes of the Bell-number
    product times the outcome probability. Both depend on an outcome only
    through its class s, which holds M**(N-1) outcomes, so the sum is
    M**(N-1) * sum_s gamma_M^s p_s. Costs O(M log M) for the class
    probabilities; the enumeration guard still applies."""
    distribution = full_distribution(cfg, settings)
    values = unit_roots(cfg.ports) * distribution.class_probabilities()
    return CorrelationValue(complex(cfg.ports ** (cfg.particles - 1) * values.sum()))


def _closed_form_exponents(settings: PhaseSettings):
    """The M closed-form exponents sum_l (phi_l^m - phi_l^(m+1)), one per m.

    The wraparound column m = M-1 uses phi^M - phi^1, so the exponents
    telescope to zero modulo one turn. When every phase is exact, returns
    ``(numerators, D)``: exponent m is numerators[m]/D of a turn in [0, 1),
    over the lcm D of the phase denominators, taken from the column sums S_m
    as (S_m - S_(m+1)) mod D. One pass over each distinct row object reads
    its entries' integer ratios, which are scaled to D and multiplied by the
    number of stations that hold the row; S_m adds one such integer vector
    per distinct row, which is exactly the sum over all N stations. The first
    entry with no exact part turns to ``(phases, None)``: the M unit phases
    exp(i * exponent) on the floating track.
    """
    ratios = []
    for row, held in _distinct(settings.rows):
        try:
            ratios.append(([a.turns.as_integer_ratio() for a in row], held))
        except AttributeError:  # turns is None: a float entry
            phi = settings.float_matrix()
            deltas = phi - np.roll(phi, -1, axis=1)
            return np.exp(1j * deltas.sum(axis=0)), None
    denominator = math.lcm(*{q for row, _ in ratios for _, q in row})
    scaled = [[held * p * (denominator // q) for p, q in row] for row, held in ratios]
    sums = [sum(column) for column in zip(*scaled)]
    numerators = [(s - t) % denominator for s, t in zip(sums, sums[1:] + sums[:1])]
    if denominator > _INT64_MAX:  # only then can a reduced exponent leave the range
        for e in numerators:
            _checked(Fraction(e, denominator))
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


class OutcomeCounts(Mapping):
    """Read-only view of sampled counts, 0-based outcome tuple -> count, over
    what ``np.unique`` returns for the draws: the ascending lex ``indices`` of
    the outcomes drawn and their ``frequencies``, both read-only. Iteration is
    in lex order, a lookup a binary search; the repr is the equal dict's.
    """

    def __init__(self, cfg: ExperimentConfig, indices: np.ndarray, frequencies: np.ndarray):
        indices.setflags(write=False)
        frequencies.setflags(write=False)
        self._cfg, self.indices, self.frequencies = cfg, indices, frequencies
        self._shape = (cfg.ports,) * cfg.particles

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        for start in range(0, len(self.indices), _BLOCK):
            digits = np.unravel_index(self.indices[start : start + _BLOCK], self._shape)
            yield from zip(*(d.tolist() for d in digits))

    def __getitem__(self, outcome) -> int:
        lex = np.ravel_multi_index(_check_outcome(self._cfg, outcome), self._shape)
        at = np.searchsorted(self.indices, lex)
        if at == len(self.indices) or self.indices[at] != lex:
            raise KeyError(outcome)
        return int(self.frequencies[at])

    def items(self):
        return _CountItems(self)

    def values(self):
        return _CountValues(self)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _CountItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping.frequencies.tolist())


class _CountValues(ValuesView):
    def __iter__(self):
        return iter(self._mapping.frequencies.tolist())


class SampleResult(_Record):
    """Seeded empirical draw from the exact (implicit) outcome table.

    ``counts`` maps each observed outcome tuple to its count, in lex order:
    from ``sample_outcomes`` an ``OutcomeCounts`` view over arrays, not a
    dict of tuples. ``correlation`` is the empirical Bell-number average.
    Identical seeds give identical results; the generator and its drawing
    scheme are named so runs stay portable.
    """

    _fields = ("config", "shots", "seed", "counts", "correlation", "generator")

    def __init__(self, config: ExperimentConfig, shots: int, seed: int, counts: Mapping,
                 correlation: CorrelationValue, generator: str = GENERATOR_NAME):
        self.__dict__.update(config=config, shots=shots, seed=seed, counts=counts,
                             correlation=correlation, generator=generator)


def sample_outcomes(
    cfg: ExperimentConfig,
    settings: PhaseSettings,
    shots: int,
    seed: int,
) -> SampleResult:
    """Draw seeded outcomes class first, without an outcome table.

    Every digit-sum class holds M**(N-1) equally likely outcomes, because the
    last detector is free. One multinomial draw splits the shots over the M
    classes; each class then draws uniform (N-1)-digit prefixes and fixes the
    last digit as (s - prefix digit sum) mod M. The estimate is
    sum_s n_s gamma_M^s / shots.
    """
    if not isinstance(shots, int) or shots <= 0:
        raise ValueError(f"shots must be a positive integer, got {shots!r}")
    distribution = full_distribution(cfg, settings)
    probs = distribution.class_probabilities()
    ports = cfg.ports
    low, high = _class_tables(cfg)
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    try:
        per_class = rng.multinomial(shots, probs / probs.sum())
        drawn = np.empty(shots, dtype=np.min_scalar_type(cfg.outcome_count - 1))
        stop = 0
        for s in np.flatnonzero(per_class):
            first, stop = stop, stop + per_class[s]
            for start in range(first, stop, _BLOCK):
                size = min(_BLOCK, stop - start)
                # lex index of prefix + (0,), whose class is the prefix's
                heads = rng.integers(0, cfg.outcome_count // ports, size=size) * ports
                rows, cols = np.divmod(heads, len(low))
                drawn[start : start + size] = heads + (s - high[rows] - low[cols]) % ports
        index, frequency = np.unique(drawn, return_counts=True)
    except (MemoryError, ValueError, OverflowError):
        raise ResourceLimitError(f"shots = {shots}: the draws do not fit in memory") from None
    estimate = complex((unit_roots(ports) * per_class).sum() / shots)
    return SampleResult(cfg, shots, int(seed), OutcomeCounts(cfg, index, frequency),
                        CorrelationValue(estimate))
