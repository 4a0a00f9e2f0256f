"""The outcome table of an N-particle GHZ state on Bell multiports.

Joint detection probabilities by two independent routes (squared amplitude
vs cosine expansion, permanently cross-asserted), the implicit M**N-outcome
distribution, the Bell-number correlation by its definition over outcomes,
summed class by class, seeded sampling, and the text of the table rows the
command line prints. Every table operation stays under ``ENUMERATION_GUARD``.
The closed form, perfect-correlation detection and the prediction of the
last outcome are in ``ghzport.closed``.

Detector indices are 0-based throughout this module; the command-line layer
re-exposes 1-based port labels. Both outcome views are read-only mappings in
which a key that is no outcome is absent.
"""

from __future__ import annotations

import itertools
from collections.abc import ItemsView, Mapping, ValuesView
from typing import Iterator, Sequence, Tuple

import numpy as np

from .angles import PROBABILITY_TOLERANCE, _check_int, _is_index, _Record
from .closed import CorrelationValue, ExperimentConfig, PhaseSettings, _check_settings, unit_roots
from .closed import correlation_closed  # noqa: F401  read here by perfbench/layers.py
from .errors import ComputationIntegrityError, ResourceLimitError

#: Outcome-table guard: the table operations (the distribution and what
#: builds on it) refuse beyond this many outcomes; the closed form has none.
ENUMERATION_GUARD = 10**7

#: Name of the pseudo-random generator and of the way it is drawn from when
#: sampling, recorded in outputs.
GENERATOR_NAME = "pcg64/class-first"

#: Longest run of outcomes or draws held as one array: sampling draws
#: prefixes in blocks of it, and sampled counts and written rows are read out
#: in blocks of it.
_BLOCK = 2**16


def _ensure_enumerable(cfg: ExperimentConfig) -> None:
    if cfg.outcome_count > ENUMERATION_GUARD:
        raise ResourceLimitError(
            f"M**N = {cfg.ports}**{cfg.particles} = {cfg.outcome_count} outcomes "
            f"exceeds the enumeration guard of {ENUMERATION_GUARD}"
        )


class _NotAnOutcome(ValueError, KeyError):
    """A key that is no outcome, even one that is no sequence: a ValueError
    to ``view[key]``, and a KeyError too, so that ``in`` and ``.get`` find
    it absent."""

    __str__ = ValueError.__str__


def _check_outcome(cfg: ExperimentConfig, outcome: Sequence[int]) -> Tuple[int, ...]:
    try:
        detectors = tuple(outcome)
    except TypeError:
        raise _NotAnOutcome(f"an outcome is a sequence of detectors, got {outcome!r}") from None
    if len(detectors) != cfg.particles:
        raise _NotAnOutcome(
            f"outcome has {len(detectors)} entries, expected {cfg.particles}"
        )
    for k in detectors:
        if not _is_index(k, cfg.ports):
            raise _NotAnOutcome(
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


def _digit_sums(digits: int, ports: int) -> np.ndarray:
    """Digit sum mod M of every ``digits``-digit value, in lex order."""
    sums = np.zeros(1, dtype=np.int32)
    step = np.arange(ports, dtype=np.int32)
    for _ in range(digits):
        sums = (sums[:, None] + step[None, :]).reshape(-1)
    return (sums % ports).astype(np.intp)


def _class_tables(cfg: ExperimentConfig) -> Tuple[np.ndarray, np.ndarray]:
    """(low, high): digit-sum classes of the last N // 2 and the first
    N - N // 2 digits, the halves ``_table_rows`` labels. Outcome
    i = h * len(low) + j (lex index) lies in class (high[h] + low[j]) mod M;
    sampling reads them to fix each draw's last digit, and probability rows
    to find their class."""
    low_digits = cfg.particles // 2
    return (_digit_sums(low_digits, cfg.ports),
            _digit_sums(cfg.particles - low_digits, cfg.ports))


def _half_labels(values, digits: int, labels, lead: str):
    """Label text of each half value: its ``digits`` detector labels, digit
    k read as labels[k], each after ", " but the first after ``lead``."""
    text = np.full(len(values), "", dtype=object)
    for place in range(digits, 0, -1):  # least significant digit first
        values, column = np.divmod(values, len(labels))
        text = (lead if place == 1 else ", ") + labels[column] + text
    return text


def _table_rows(cfg, head: str, tail, index=None, values=None):
    """One string per block of _BLOCK rows: for each ascending lex index
    (every outcome when ``index`` is None), head + 1-based detector labels +
    tail(v), v being the row's entry of ``values`` or else its class, read
    from ``_class_tables`` (built only then).

    An index splits into a high and a low half of its digits. The M label
    strings are formatted once, and every low half value (at most sqrt(M**N))
    is labelled once; high half values and tails only as they occur in a
    block. A row is three gathered strings.
    """
    ports, low_digits = cfg.ports, cfg.particles // 2
    width = ports**low_digits
    labels = np.array([str(k + 1) for k in range(ports)], dtype=object)
    low_text = _half_labels(np.arange(width), low_digits, labels, ", ")
    if values is None:
        low_sums, high_sums = _class_tables(cfg)
    total = cfg.outcome_count if index is None else len(index)
    for start in range(0, total, _BLOCK):
        stop = min(start + _BLOCK, total)
        block = np.arange(start, stop) if index is None else index[start:stop]
        upper, low = np.divmod(block, width)
        keys, high = np.unique(upper, return_inverse=True)
        high_text = _half_labels(keys, cfg.particles - low_digits, labels, head)
        if values is None:
            keys = (high_sums[upper] + low_sums[low]) % ports
        else:
            keys = values[start:stop]
        keys, pick = np.unique(keys, return_inverse=True)
        parts = np.empty((stop - start, 3), dtype=object)
        parts[:, 0], parts[:, 1] = high_text[high], low_text[low]
        parts[:, 2] = np.array([tail(k) for k in keys.tolist()], dtype=object)[pick]
        yield "".join(parts.ravel().tolist())


class OutcomeDistribution(Mapping):
    """The complete probability table over all M**N outcome tuples, implicit.

    Behaves as a read-only mapping from 0-based detector tuples (lexicographic
    by station) to probabilities. A key that is no sequence, of another
    length or with a detector that is no index is absent: ``in`` is False,
    ``.get`` gives the default and ``view[key]`` raises ValueError. A
    probability depends on an outcome only through the residue of its
    detector sum, so only the M class probabilities are held and no
    M**N-long array is ever built; the total and marginals follow from the
    class structure. Iteration still walks every tuple.
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
        """Marginal distribution (length M) of station index ``station``.

        With one station it is the class probabilities. With N >= 2, fixing
        one detector leaves M**(N-2) outcomes in every class, so every entry
        is M**(N-2) * sum_s p_s.
        """
        if not _is_index(station, self._cfg.particles):
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


class OutcomeCounts(Mapping):
    """Read-only view of sampled counts, 0-based outcome tuple -> count, over
    what ``np.unique`` returns for the draws: the ascending lex ``indices`` of
    the outcomes drawn and their ``frequencies``, both read-only. Iteration is
    in lex order, a lookup a binary search (a key that is no outcome is
    absent, as from the distribution); the repr is the equal dict's.
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
    _check_int(shots, "shots must be a positive integer", 1)
    if isinstance(seed, bool) or not _is_index(seed, np.inf):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
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
