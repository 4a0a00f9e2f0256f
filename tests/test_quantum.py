import cmath
import itertools
import math
import pickle
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ghzport import quantum
from ghzport.angles import PROBABILITY_TOLERANCE, TAU, PhaseAngle, Residue
from ghzport.closed import (
    _closed_form_exponents,
    perfect_correlation_class,
    predict_last,
    unit_roots,
)
from ghzport.errors import (
    ComputationIntegrityError,
    RationalOverflowError,
    ResourceLimitError,
)
from ghzport.quantum import (
    ExperimentConfig,
    OutcomeDistribution,
    PhaseSettings,
    _class_amplitudes,
    _class_probabilities_amplitude,
    _class_probabilities_cosine,
    correlation_brute,
    correlation_closed,
    full_distribution,
    joint_amplitude,
    joint_probability,
    sample_outcomes,
)

ALPHA = cmath.exp(2j * math.pi / 3)

#: The (N, M) grid used for closed-vs-brute agreement checks.
SWEEP_CONFIGS = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 3), (4, 3), (3, 4), (2, 5)]


def zero_settings(particles, ports, exact=True):
    make = PhaseAngle.from_turns if exact else PhaseAngle.from_radians
    return PhaseSettings(tuple(tuple(make(0) for _ in range(ports))
                               for _ in range(particles)))


def random_settings(rng, particles, ports):
    return PhaseSettings.build(rng.uniform(0.0, 2 * math.pi, (particles, ports)))


def paradox_swap_settings(exact=True):
    """Three stations on the graded (0, 2*pi/9, 4*pi/9) row, one on zeros."""
    if exact:
        graded = tuple(PhaseAngle.from_turns(Fraction(j, 9)) for j in range(3))
        zeros = tuple(PhaseAngle.from_turns(0) for _ in range(3))
    else:
        graded = tuple(PhaseAngle.from_radians(2 * math.pi * j / 9) for j in range(3))
        zeros = tuple(PhaseAngle.from_radians(0.0) for _ in range(3))
    return PhaseSettings((graded, graded, graded, zeros))


def amplitude_error_bound(ports, particles):
    """First-order bound on |route A - oracles.full_table_amplitudes| per
    class, u = 2**-53. Unscaled, both sum the same M weights w_m, |w_m| <=
    1 + 2u, against gamma_M^(m*s), and the exact sums have 2-norm M.
    The oracle is within M*u*(M + 26): each root is off by at most
    (6*pi + 2)*u (three roundings of an argument below 2*pi, one in
    cmath.exp), each complex product adds 2*sqrt(2)*u, any order of the
    M - 1 additions (M - 1)*u, all times the sum of moduli, and the scaling
    one u. An FFT of length L is within log2(L)*eta of the 2-norm of its
    output, eta = 7u (Higham, Accuracy and Stability of Numerical
    Algorithms, Thm 24.2, twiddles within u). The costliest case is
    Bluestein's, which numpy's pocketfft uses for large prime factors:
    three transforms of length L < 4M whose outputs have 2-norm at most
    L*sqrt(M), so 3*ceil(log2 4M)*eta*4M*sqrt(M) covers it. Both sides are
    then scaled by M^(-(N+1)/2)."""
    unit = 2.0**-53
    oracle = ports * (ports + 26)
    fft = 84 * math.ceil(math.log2(4 * ports)) * ports**1.5
    return (oracle + fft) * unit * ports ** (-(particles + 1) / 2)


class TestExperimentConfig:
    @pytest.mark.parametrize("particles, ports, field", [
        (True, 2, "particles"), (2, True, "ports")])
    def test_bools_rejected(self, particles, ports, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ExperimentConfig(particles, ports)


class TestJointAmplitude:
    def test_mach_zehnder_bright_port(self):
        cfg = ExperimentConfig(1, 2)
        settings = zero_settings(1, 2)
        assert joint_amplitude(cfg, settings, (0,)) == pytest.approx(1.0)
        assert joint_amplitude(cfg, settings, (1,)) == pytest.approx(0.0)

    def test_four_particle_zero_phase_probability(self):
        cfg = ExperimentConfig(4, 3)
        amp = joint_amplitude(cfg, zero_settings(4, 3), (0, 0, 0, 0))
        assert abs(amp) ** 2 == pytest.approx(1 / 27, abs=1e-15)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        for particles, ports in SWEEP_CONFIGS:
            cfg = ExperimentConfig(particles, ports)
            settings = random_settings(rng, particles, ports)
            rows = [[a.radians for a in row] for row in settings.rows]
            for outcome in itertools.product(range(ports), repeat=particles):
                expected = oracles.naive_amplitude(rows, ports, outcome)
                assert abs(joint_amplitude(cfg, settings, outcome) - expected) < 1e-12

    def test_shape_mismatch_rejected(self):
        cfg = ExperimentConfig(2, 2)
        with pytest.raises(ValueError):
            joint_amplitude(cfg, zero_settings(3, 2), (0, 0))
        with pytest.raises(ValueError):
            joint_amplitude(cfg, zero_settings(2, 2), (0, 0, 0))
        with pytest.raises(ValueError):
            joint_amplitude(cfg, zero_settings(2, 2), (0, 2))


class TestJointProbability:
    def test_anticorrelated_pair(self):
        cfg = ExperimentConfig(2, 2)
        settings = PhaseSettings.build([[0.0, 0.0], [0.0, math.pi]])
        assert joint_probability(cfg, settings, (0, 1)) == pytest.approx(0.5)
        assert joint_probability(cfg, settings, (0, 0)) == pytest.approx(0.0, abs=1e-15)

    def test_zero_phase_support(self):
        # only outcomes with detector sum = 0 mod 3 occur, each at 1/27
        cfg = ExperimentConfig(4, 3)
        settings = zero_settings(4, 3)
        for outcome in itertools.product(range(3), repeat=4):
            p = joint_probability(cfg, settings, outcome)
            if sum(outcome) % 3 == 0:
                assert p == pytest.approx(1 / 27, abs=1e-12)
            else:
                assert p == pytest.approx(0.0, abs=1e-12)

    def test_both_routes_match_oracles(self):
        rng = np.random.default_rng(11)
        cfg = ExperimentConfig(3, 3)
        settings = random_settings(rng, 3, 3)
        rows = [[a.radians for a in row] for row in settings.rows]
        for outcome in itertools.product(range(3), repeat=3):
            p = joint_probability(cfg, settings, outcome)
            assert p == pytest.approx(oracles.naive_probability(rows, 3, outcome), abs=1e-12)
            assert p == pytest.approx(
                oracles.naive_probability_cosine(rows, 3, outcome), abs=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(ports=st.sampled_from([4, 6, 8, 9, 10, 12, 14, 15, 16]),
           particles=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_cosine_route_matches_oracle_per_class(self, ports, particles, seed):
        phi = np.random.default_rng(seed).uniform(0.0, 2 * math.pi, (particles, ports))
        got = _class_probabilities_cosine(phi, ports)
        for s in range(ports):
            outcome = (s,) + (0,) * (particles - 1)
            want = oracles.naive_probability_cosine(phi.tolist(), ports, outcome)
            assert abs(got[s] - want) < 1e-12

    @pytest.mark.parametrize("ports", [1000, 1009, 1024])  # composite, prime, power of two
    def test_cosine_route_matches_oracle_at_large_ports(self, ports):
        phi = np.random.default_rng(ports).uniform(0.0, 2 * math.pi, (1, ports))
        got = _class_probabilities_cosine(phi, ports)
        for s in (1, ports // 2 + 1):
            want = oracles.naive_probability_cosine(phi.tolist(), ports, (s,))
            assert abs(got[s] - want) < 1e-12

    @pytest.mark.parametrize("particles", [1, 2])
    def test_routes_agree_at_4096_ports(self, particles):
        phi = np.random.default_rng(40 + particles).uniform(0.0, 2 * math.pi, (particles, 4096))
        route_a = _class_probabilities_amplitude(phi, 4096)
        route_b = _class_probabilities_cosine(phi, 4096)
        assert np.max(np.abs(route_a - route_b)) < 1e-10

    def test_cosine_route_is_fast_at_20000_ports(self):
        # an O(M^2) loop over the port differences takes 12 to 27 s at this M
        phi = np.random.default_rng(43).uniform(0.0, 2 * math.pi, (1, 20000))
        started = time.perf_counter()
        _class_probabilities_cosine(phi, 20000)
        assert time.perf_counter() - started < 1.0

    @settings(max_examples=100, deadline=None)
    @given(ports=st.sampled_from([4, 6, 7, 8, 9, 10, 12, 13, 15, 16, 17, 53]),
           particles=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_amplitude_route_matches_oracle_per_class(self, ports, particles, seed):
        phi = np.random.default_rng(seed).uniform(0.0, 2 * math.pi, (particles, ports))
        got = _class_probabilities_amplitude(phi, ports)
        for s in range(ports):
            outcome = (s,) + (0,) * (particles - 1)
            want = oracles.naive_probability(phi.tolist(), ports, outcome)
            assert abs(got[s] - want) < 1e-12

    @pytest.mark.parametrize("ports", [1009, 4096, 4099])  # prime, power of two, prime
    def test_amplitude_route_matches_oracle_at_large_ports(self, ports):
        phi = np.random.default_rng(ports).uniform(0.0, 2 * math.pi, (1, ports))
        got = _class_probabilities_amplitude(phi, ports)
        for s in (1, ports // 2 + 1):
            want = oracles.naive_probability(phi.tolist(), ports, (s,))
            assert abs(got[s] - want) < 1e-12

    def test_amplitude_route_is_fast_at_20000_ports(self):
        # an O(M^2) sum over the M x M table of terms takes about 5 s at this M
        phi = np.random.default_rng(44).uniform(0.0, 2 * math.pi, (1, 20000))
        started = time.perf_counter()
        _class_probabilities_amplitude(phi, 20000)
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("particles", [1, 3])
    @pytest.mark.parametrize("ports", [2, 3, 12, 255, 256, 257, 300, 513, 1000, 1009])
    def test_amplitudes_match_full_table_within_error_bound(self, ports, particles):
        phi = np.random.default_rng(ports * 10 + particles).uniform(
            0.0, 2 * math.pi, (particles, ports))
        got = _class_amplitudes(phi, ports)
        want = oracles.full_table_amplitudes(phi, ports)
        assert np.max(np.abs(got - want)) <= amplitude_error_bound(ports, particles)

    def test_amplitude_route_memory_is_linear_in_ports(self):
        # the whole M x M table takes about 90 MB at M = 1500, 16 GB at 20000
        for ports in (1500, 20000):
            phi = np.random.default_rng(31).uniform(0.0, 2 * math.pi, (1, ports))
            tracemalloc.start()
            try:
                _class_probabilities_amplitude(phi, ports)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 10 * 10**6

    def test_route_disagreement_raises(self, monkeypatch):
        import ghzport.quantum as quantum

        def broken(phi, ports):
            return np.zeros(ports)

        monkeypatch.setattr(quantum, "_class_probabilities_cosine", broken)
        with pytest.raises(ComputationIntegrityError):
            joint_probability(ExperimentConfig(2, 2), zero_settings(2, 2), (0, 0))


class TestFullDistribution:
    def test_single_tritter_zero_phase(self):
        dist = full_distribution(ExperimentConfig(1, 3), zero_settings(1, 3))
        assert dist[(0,)] == pytest.approx(1.0)
        assert dist[(1,)] == pytest.approx(0.0, abs=1e-15)
        assert dist[(2,)] == pytest.approx(0.0, abs=1e-15)

    def test_pair_zero_phase(self):
        dist = full_distribution(ExperimentConfig(2, 2), zero_settings(2, 2))
        assert dist[(0, 0)] == pytest.approx(0.5)
        assert dist[(1, 1)] == pytest.approx(0.5)
        assert dist[(0, 1)] == pytest.approx(0.0, abs=1e-15)

    def test_mapping_protocol(self):
        dist = full_distribution(ExperimentConfig(2, 3), zero_settings(2, 3))
        assert len(dist) == 9
        assert list(dist)[:3] == [(0, 0), (0, 1), (0, 2)]
        assert abs(sum(dist.values()) - 1.0) < 1e-10

    def test_marginals_match_oracle(self):
        rng = np.random.default_rng(13)
        settings = random_settings(rng, 2, 3)
        rows = [[a.radians for a in row] for row in settings.rows]
        dist = full_distribution(ExperimentConfig(2, 3), settings)
        for station in range(2):
            expected = oracles.naive_marginal(rows, 3, station)
            assert np.max(np.abs(dist.marginal(station) - expected)) < 1e-12

    def test_uniform_marginals_any_settings(self):
        # no-signaling needs a second party: for N >= 2 tracing out the other
        # stations leaves every marginal uniform whatever the settings are
        rng = np.random.default_rng(17)
        for particles, ports in SWEEP_CONFIGS:
            if particles < 2:
                continue
            settings = random_settings(rng, particles, ports)
            dist = full_distribution(ExperimentConfig(particles, ports), settings)
            for station in range(particles):
                assert np.max(np.abs(dist.marginal(station) - 1 / ports)) < 1e-10

    def test_single_particle_statistics_interfere(self):
        # with one particle there is nothing to trace out: the lone station
        # sees the full interference pattern, not a uniform marginal
        dist = full_distribution(ExperimentConfig(1, 2), zero_settings(1, 2))
        assert dist.marginal(0) == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_marginal_builds_no_outcome_array(self):
        dist = full_distribution(ExperimentConfig(7, 10), zero_settings(7, 10))
        tracemalloc.start()
        try:
            marginal = dist.marginal(3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert marginal == pytest.approx([0.1] * 10, abs=1e-10)
        assert peak < 10**6  # a float64 per outcome would take 8 * 10**7 bytes

    def test_many_ports_single_station_is_fast(self):
        # both probability routes must stay polynomial of low degree in M
        settings = random_settings(np.random.default_rng(29), 1, 1000)
        started = time.perf_counter()
        full_distribution(ExperimentConfig(1, 1000), settings)
        assert time.perf_counter() - started < 2.0

    def test_enumeration_guard(self):
        with pytest.raises(ResourceLimitError, match="10000000"):
            full_distribution(ExperimentConfig(8, 8), zero_settings(8, 8))

    @pytest.mark.parametrize("particles, ports", [(1, 3), (3, 2), (2, 5)])
    def test_total_off_one_by_the_tolerance_is_an_integrity_error(self, particles, ports):
        # class probabilities built directly, so the guard sees a total that
        # no probability route would hand it
        cfg = ExperimentConfig(particles, ports)
        per_class = ports ** (particles - 1)

        def classes(miss):
            probs = np.full(ports, 1.0 / ports ** particles)
            probs[-1] += miss / per_class
            return probs, float(per_class * probs.sum())

        for miss in (2 * PROBABILITY_TOLERANCE, -2 * PROBABILITY_TOLERANCE, 1e-6, 0.5):
            probs, total = classes(miss)
            assert abs(total - 1.0) >= PROBABILITY_TOLERANCE
            with pytest.raises(ComputationIntegrityError,
                               match=re.escape(f"distribution total {total!r} deviates")):
                OutcomeDistribution(cfg, probs)
        probs, total = classes(PROBABILITY_TOLERANCE / 2)
        assert OutcomeDistribution(cfg, probs).total == total != 1.0

    def test_support_matches_the_table_walk(self):
        rng = np.random.default_rng(19)
        for particles, ports in SWEEP_CONFIGS + [(3, 6), (2, 12)]:
            cfg = ExperimentConfig(particles, ports)
            for settings in (zero_settings(particles, ports),
                             random_settings(rng, particles, ports)):
                dist = full_distribution(cfg, settings)
                for eps in (1e-12, 1 / len(dist)):
                    expected = [(outcome, dist[outcome]) for outcome in dist
                                if dist[outcome] > eps]
                    assert list(dist.support(eps)) == expected


@st.composite
def phase_tables(draw):
    """(M, N, settings): random float phases with M**N up to 2**18."""
    ports = draw(st.integers(2, 12))
    particles = draw(st.integers(1, min(8, int(math.log(2**18, ports)))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return ports, particles, random_settings(rng, particles, ports)


def pairwise_error_bound(scalars):
    """gamma_h = h*u / (1 - h*u), u = 2**-53: the relative bound, against
    the sum of the terms' moduli, on numpy's pairwise sum of ``scalars``
    numbers. Each term passes through at most h additions: a leaf of at
    most 128 starts 8 accumulators and adds up to 15 more terms into each,
    combines them in 3 levels and adds at most 7 left over, 25 in all; each
    halving above the leaf adds one, at most ceil(log2(scalars)) of them."""
    unit = 2.0**-53
    h = 25 + math.ceil(math.log2(scalars))
    return h * unit / (1 - h * unit)


class TestClassSums:
    """The total and the brute-force correlation are M**(N-1) times a sum
    over the M classes. Against numpy's sum over the materialized table
    (``oracles.lex_table_sum``), each side is within numpy's pairwise error
    bound of the exact sum, the class sum also within one rounding of the
    product, so the two differ by at most the sum of those bounds times the
    table's sum of moduli. Complex sums take real and imaginary parts as
    2*M**N scalars; the factor 2 covers both parts in the modulus."""

    @staticmethod
    def assert_within_bound(got, values, particles, ports):
        want = oracles.lex_table_sum(values, particles, ports)
        scalars = 2 if np.iscomplexobj(values) else 1
        relative = (pairwise_error_bound(scalars * ports**particles)
                    + pairwise_error_bound(scalars * ports) + 2.0**-53)
        moduli = ports ** (particles - 1) * float(np.abs(values).sum())
        assert abs(got - want) <= 2 * relative * moduli

    @settings(max_examples=100, deadline=None)
    @given(phase_tables())
    @example((2, 1, zero_settings(1, 2, exact=False)))
    @example((5, 7, zero_settings(7, 5, exact=False)))
    @example((2, 18, zero_settings(18, 2, exact=False)))
    def test_within_pairwise_bound_of_materialized_sum(self, table):
        ports, particles, settings_ = table
        cfg = ExperimentConfig(particles, ports)
        dist = full_distribution(cfg, settings_)
        probs = dist.class_probabilities()
        self.assert_within_bound(dist.total, probs, particles, ports)
        brute = correlation_brute(cfg, settings_).value
        self.assert_within_bound(brute, unit_roots(ports) * probs, particles, ports)

    def test_no_outcome_tables_at_ten_million_outcomes(self, monkeypatch):
        import ghzport.quantum as quantum

        def refuse(cfg):
            raise AssertionError("walked the outcome tables")

        monkeypatch.setattr(quantum, "_class_tables", refuse)
        cfg = ExperimentConfig(7, 10)
        settings_ = random_settings(np.random.default_rng(7), 7, 10)
        assert abs(full_distribution(cfg, settings_).total - 1.0) < 1e-10
        assert abs(correlation_brute(cfg, settings_).value) <= 1.0 + 1e-12


class TestCorrelation:
    def test_zero_phases_give_unity(self):
        for particles, ports in SWEEP_CONFIGS:
            cfg = ExperimentConfig(particles, ports)
            value = correlation_brute(cfg, zero_settings(particles, ports)).value
            assert abs(value - 1.0) < 1e-12

    def test_paradox_swap_setting_brute(self):
        cfg = ExperimentConfig(4, 3)
        value = correlation_brute(cfg, paradox_swap_settings()).value
        assert abs(value - ALPHA**2) < 1e-12

    def test_anticorrelated_pair_brute(self):
        cfg = ExperimentConfig(2, 2)
        settings = PhaseSettings.build([[0.0, 0.0], [0.0, math.pi]])
        assert abs(correlation_brute(cfg, settings).value - (-1.0)) < 1e-12

    def test_closed_exact_class_for_paradox(self):
        cfg = ExperimentConfig(4, 3)
        result = correlation_closed(cfg, paradox_swap_settings())
        assert result.exact_class == Residue(2, 3)
        assert abs(result.value - ALPHA**2) < 1e-12

    def test_closed_exact_class_zero_phases(self):
        result = correlation_closed(ExperimentConfig(4, 3), zero_settings(4, 3))
        assert result.exact_class == Residue(0, 3)
        assert result.value == pytest.approx(1.0)

    def test_closed_without_exact_inputs_has_no_class(self):
        result = correlation_closed(ExperimentConfig(4, 3), paradox_swap_settings(exact=False))
        assert result.exact_class is None
        assert abs(result.value - ALPHA**2) < 1e-9

    def test_two_port_reduction_is_cosine(self):
        rng = np.random.default_rng(19)
        for particles in range(1, 5):
            cfg = ExperimentConfig(particles, 2)
            settings = random_settings(rng, particles, 2)
            value = correlation_closed(cfg, settings).value
            target = math.cos(sum(row[0].radians - row[1].radians
                                  for row in settings.rows))
            assert abs(value.imag) < 1e-12
            assert abs(value - target) < 1e-12

    def test_closed_matches_brute_and_oracle(self):
        rng = np.random.default_rng(23)
        for particles, ports in SWEEP_CONFIGS:
            cfg = ExperimentConfig(particles, ports)
            for _ in range(10):
                settings = random_settings(rng, particles, ports)
                closed = correlation_closed(cfg, settings).value
                brute = correlation_brute(cfg, settings).value
                assert abs(closed - brute) < 1e-10
                rows = [[a.radians for a in row] for row in settings.rows]
                assert abs(brute - oracles.naive_correlation(rows, ports)) < 1e-10

    def test_modulus_never_exceeds_one(self):
        rng = np.random.default_rng(29)
        for particles, ports in SWEEP_CONFIGS:
            cfg = ExperimentConfig(particles, ports)
            for _ in range(20):
                settings = random_settings(rng, particles, ports)
                assert abs(correlation_closed(cfg, settings).value) <= 1.0 + 1e-12

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(31)
        for particles, ports in SWEEP_CONFIGS:
            cfg = ExperimentConfig(particles, ports)
            phi = rng.uniform(0.0, 2 * math.pi, (particles, ports))
            base = correlation_closed(cfg, PhaseSettings.build(phi)).value
            shifted = phi.copy()
            shifted[rng.integers(particles)] += rng.uniform(0.0, 2 * math.pi)
            moved = correlation_closed(cfg, PhaseSettings.build(shifted)).value
            assert abs(base - moved) < 1e-12

    def test_cyclic_covariance_exact(self):
        # adding 2*pi*m/M to each station-l phase m shifts every closed-form
        # exponent by exactly -1/M of a turn, multiplying E by gamma_M^(-1)
        cfg = ExperimentConfig(4, 3)
        base_settings = paradox_swap_settings()
        base = correlation_closed(cfg, base_settings)
        rows = [list(row) for row in base_settings.rows]
        rows[1] = [angle + PhaseAngle.from_turns(Fraction(m, 3))
                   for m, angle in enumerate(rows[1])]
        shifted = correlation_closed(cfg, PhaseSettings(tuple(tuple(r) for r in rows)))
        assert shifted.exact_class == Residue(base.exact_class.value - 1, 3)
        gamma_inverse = cmath.exp(-2j * math.pi / 3)
        assert abs(shifted.value - base.value * gamma_inverse) < 1e-12

    def test_cyclic_covariance_floating(self):
        rng = np.random.default_rng(37)
        for particles, ports in [(2, 3), (3, 4), (2, 5)]:
            cfg = ExperimentConfig(particles, ports)
            phi = rng.uniform(0.0, 2 * math.pi, (particles, ports))
            base = correlation_closed(cfg, PhaseSettings.build(phi)).value
            shifted = phi.copy()
            shifted[0] += 2 * math.pi * np.arange(ports) / ports
            moved = correlation_closed(cfg, PhaseSettings.build(shifted)).value
            gamma_inverse = cmath.exp(-2j * math.pi / ports)
            assert abs(moved - base * gamma_inverse) < 1e-12


class TestPerfectCorrelation:
    def test_zero_phases(self):
        assert perfect_correlation_class(
            ExperimentConfig(3, 4), zero_settings(3, 4)) == Residue(0, 4)

    def test_paradox_swap_setting(self):
        cfg = ExperimentConfig(4, 3)
        assert perfect_correlation_class(cfg, paradox_swap_settings()) == Residue(2, 3)
        assert perfect_correlation_class(
            cfg, paradox_swap_settings(exact=False)) == Residue(2, 3)

    def test_all_graded_is_not_perfect(self):
        # four stations on the graded row: exponents 5/9, 5/9, 8/9 of a turn
        graded = tuple(PhaseAngle.from_turns(Fraction(j, 9)) for j in range(3))
        settings = PhaseSettings((graded,) * 4)
        assert perfect_correlation_class(ExperimentConfig(4, 3), settings) is None
        assert abs(correlation_closed(ExperimentConfig(4, 3), settings).value) < 1.0

    def test_perturbed_setting_is_not_perfect(self):
        rows = [list(row) for row in paradox_swap_settings().rows]
        rows[2][1] = rows[2][1] + PhaseAngle.from_turns(Fraction(1, 7))
        settings = PhaseSettings(tuple(tuple(r) for r in rows))
        assert perfect_correlation_class(ExperimentConfig(4, 3), settings) is None


#: Distinct primes just below 2**32: the lcm of any two exceeds 2**63 - 1.
BIG_PRIMES = (4294967291, 4294967279, 4294967231)


@st.composite
def exact_tables(draw):
    """(M, rows of Fraction turns): random "p/q" tables over prime and
    composite M, some rows on denominators near 2**32, some constant rows
    (which leave every exponent alone but grow the common denominator), and
    half planted so that every exponent is the same k/M of a turn."""
    ports = draw(st.integers(2, 12))
    particles = draw(st.integers(1, 8))
    plant = draw(st.booleans())
    small = st.builds(Fraction, st.integers(0, 10**4),
                      st.sampled_from((1, 2, ports, ports * ports, 6 * ports, 97)))
    big = st.builds(Fraction, st.integers(1, 2**32), st.sampled_from(BIG_PRIMES))
    kinds = draw(st.lists(st.sampled_from(("small", "big", "constant")),
                          min_size=particles, max_size=particles))
    if plant:
        kinds = ["small" if kind == "big" else kind for kind in kinds]
        kinds[-1] = "small"
    rows = [[draw(big)] * ports if kind == "constant" else
            [draw(small if kind == "small" else big) for _ in range(ports)]
            for kind in kinds]
    if plant:
        k = draw(st.integers(0, ports - 1))
        start = draw(small)
        varied = [row for row, kind in zip(rows[:-1], kinds) if kind != "constant"]
        columns = [sum(row[m] for row in varied) for m in range(ports)]
        rows[-1] = [start - Fraction(m * k, ports) - columns[m] for m in range(ports)]
    return ports, rows


@st.composite
def planted_float_tables(draw, max_outcomes=12**8):
    """(M, k, rows of radians) whose closed-form exponents all equal
    2*pi*k/M up to rounding: the last row closes every column sum."""
    ports = draw(st.integers(2, 12))
    particles = draw(st.integers(1, min(8, int(math.log(max_outcomes, ports)))))
    k = draw(st.integers(0, ports - 1))
    angle = st.floats(0.0, 2 * math.pi, exclude_max=True)
    rows = [[draw(angle) for _ in range(ports)] for _ in range(particles - 1)]
    start = draw(angle)
    columns = [sum(row[m] for row in rows) for m in range(ports)]
    rows.append([start - 2 * math.pi * m * k / ports - columns[m] for m in range(ports)])
    return ports, k, rows


@st.composite
def shared_row_tables(draw):
    """(M, rows of PhaseAngle): stations pick rows from a pool of up to three
    row objects, each station holding either the pooled tuple itself or an
    equal but distinct copy, as a catalog's experiments share their rows.
    Pools may use denominators near 2**32, so D can pass 2**63; without them
    the last station is half the time planted so that every exponent is the
    same k/M of a turn."""
    ports = draw(st.integers(2, 12))
    particles = draw(st.integers(1, 64))
    wide = draw(st.booleans())
    small = st.builds(Fraction, st.integers(0, 10**4),
                      st.sampled_from((1, 2, ports, ports * ports, 6 * ports, 97)))
    big = st.builds(Fraction, st.integers(1, 2**32), st.sampled_from(BIG_PRIMES))
    turn = st.one_of(small, big) if wide else small
    pool = [tuple(PhaseAngle.from_turns(draw(turn)) for _ in range(ports))
            for _ in range(draw(st.integers(1, 3)))]
    rows = []
    for _ in range(particles):
        row = pool[draw(st.integers(0, len(pool) - 1))]
        rows.append(tuple(list(row)) if draw(st.booleans()) else row)
    if not wide and particles > 1 and draw(st.booleans()):
        k = draw(st.integers(0, ports - 1))
        start = draw(small)
        columns = [sum(row[m].turns for row in rows[:-1]) for m in range(ports)]
        rows[-1] = tuple(PhaseAngle.from_turns(start - Fraction(m * k, ports) - columns[m])
                         for m in range(ports))
    return ports, rows


class CountingRow(tuple):
    """A settings row that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class TestClosedFormOracle:
    """The closed form against the literal Fraction loop in oracles.py."""

    @staticmethod
    def assert_matches_oracle(ports, phases):
        cfg = ExperimentConfig(phases.particles, ports)
        turns = [[angle.turns for angle in row] for row in phases.rows]
        exponents = oracles.closed_form_exponents(turns, ports)
        too_wide = [e for e in exponents if e.denominator > 2**63 - 1]
        if too_wide:
            m = exponents.index(too_wide[0])
            message = (f"closed-form exponent of ports {m + 1}, {(m + 1) % ports + 1} is "
                       f"{too_wide[0].numerator}/{too_wide[0].denominator} of a turn")
            with pytest.raises(RationalOverflowError, match=message):
                correlation_closed(cfg, phases)
            with pytest.raises(RationalOverflowError, match=message):
                perfect_correlation_class(cfg, phases)
            return
        value, klass = oracles.closed_correlation(turns, ports)
        expected = None if klass is None else Residue(klass, ports)
        result = correlation_closed(cfg, phases)
        assert result.value == value  # bit-equal, not approximately
        assert result.exact_class == expected
        assert perfect_correlation_class(cfg, phases) == expected

    @settings(max_examples=300, deadline=None)
    @given(exact_tables())
    @example((3, [[Fraction(1, BIG_PRIMES[0])] * 3, [Fraction(1, BIG_PRIMES[1]), 0, 0]]))
    @example((4, [[Fraction(1, BIG_PRIMES[0])] * 4, [Fraction(1, BIG_PRIMES[1])] * 4,
                  [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]]))
    def test_exact_track_matches_oracle(self, table):
        ports, rows = table
        phases = PhaseSettings.build([[PhaseAngle.from_turns(t) for t in row] for row in rows])
        self.assert_matches_oracle(ports, phases)

    @settings(max_examples=300, deadline=None)
    @given(shared_row_tables())
    @example((3, [paradox_swap_settings().rows[0]] * 3 + [paradox_swap_settings().rows[3]]))
    @example((2, [(PhaseAngle.from_turns(Fraction(1, BIG_PRIMES[0])),) * 2] * 3
                 + [(PhaseAngle.from_turns(Fraction(1, BIG_PRIMES[1])),
                     PhaseAngle.from_turns(0))] * 2))
    def test_shared_rows_match_oracle(self, table):
        ports, rows = table
        self.assert_matches_oracle(ports, PhaseSettings(tuple(rows)))

    @settings(max_examples=200, deadline=None)
    @given(shared_row_tables(), st.data())
    def test_exponents_match_oracle_and_a_float_entry_turns_to_floats(self, table, data):
        # shared row objects over M = 2..12, composite M included; then one
        # entry of one station becomes its float-only twin, at any position
        ports, rows = table
        want = oracles.closed_form_exponents([[a.turns for a in row] for row in rows], ports)
        if max(e.denominator for e in want) > 2**63 - 1:
            with pytest.raises(RationalOverflowError):
                _closed_form_exponents(PhaseSettings(tuple(rows)))
        else:
            numerators, denominator = _closed_form_exponents(PhaseSettings(tuple(rows)))
            assert [Fraction(e, denominator) for e in numerators] == want
        station = data.draw(st.integers(0, len(rows) - 1))
        port = data.draw(st.integers(0, ports - 1))
        row = list(rows[station])
        row[port] = PhaseAngle(row[port].radians)
        rows[station] = tuple(row)
        phases, denominator = _closed_form_exponents(PhaseSettings(tuple(rows)))
        assert denominator is None
        expected = [cmath.exp(1j * TAU * float(e)) for e in want]
        assert np.allclose(phases, expected, rtol=0, atol=1e-9)

    def test_shared_row_is_read_once(self):
        # 64 stations on one row object cost the same reads as 2 stations
        graded = [PhaseAngle.from_turns(Fraction(j, 63**2)) for j in range(63)]
        reads = []
        for stations in (64, 2):
            row = CountingRow(graded)
            phases = PhaseSettings((row,) * stations)
            row.iterations = 0
            correlation_closed(ExperimentConfig(stations, 63), phases)
            reads.append(row.iterations)
        assert reads[0] == reads[1] > 0

    @settings(max_examples=200, deadline=None)
    @given(planted_float_tables(), st.floats(1e-6, 0.1), st.floats(0.0, 1e-12))
    def test_float_track_tolerance(self, table, off, within):
        ports, k, rows = table
        cfg = ExperimentConfig(len(rows), ports)
        for shift, expected in ((within, Residue(k, ports)), (off, None)):
            shifted = [row[:] for row in rows]
            shifted[0][0] += shift
            phases = PhaseSettings.build(shifted)
            assert perfect_correlation_class(cfg, phases) == expected
            assert correlation_closed(cfg, phases).exact_class is None


class TestPredictLast:
    def test_residue_equation(self):
        assert predict_last(Residue(2, 3), (0, 0, 0)) == Residue(2, 3)
        assert predict_last(Residue(2, 3), (1, 1, 1)) == Residue(2, 3)

    def test_every_supported_outcome_obeys_prediction(self):
        cfg = ExperimentConfig(4, 3)
        settings = paradox_swap_settings()
        klass = perfect_correlation_class(cfg, settings)
        dist = full_distribution(cfg, settings)
        supported = list(dist.support(1e-12))
        assert supported
        predicted = set()
        for outcome, _ in supported:
            expected = predict_last(klass, outcome[:-1])
            assert expected.value == outcome[-1]
            predicted.add(expected.value)
        assert predicted == {0, 1, 2}

    def test_rejects_bad_observations(self):
        with pytest.raises(ValueError):
            predict_last(Residue(1, 3), (0, 3))


class TestSampling:
    def test_deterministic_given_seed(self):
        cfg = ExperimentConfig(2, 3)
        rng = np.random.default_rng(41)
        settings = random_settings(rng, 2, 3)
        first = sample_outcomes(cfg, settings, 5000, seed=99)
        second = sample_outcomes(cfg, settings, 5000, seed=99)
        assert first == second

    def test_zero_phase_support_only(self):
        cfg = ExperimentConfig(3, 3)
        result = sample_outcomes(cfg, zero_settings(3, 3), 100_000, seed=1)
        assert all(sum(outcome) % 3 == 0 for outcome in result.counts)
        assert sum(result.counts.values()) == 100_000

    def test_anticorrelated_pair_estimate(self):
        cfg = ExperimentConfig(2, 2)
        settings = PhaseSettings.build([[0.0, 0.0], [0.0, math.pi]])
        result = sample_outcomes(cfg, settings, 100_000, seed=5)
        bound = 5 / math.sqrt(100_000)
        assert abs(result.correlation.value.real - (-1.0)) <= bound
        assert abs(result.correlation.value.imag) <= bound

    def test_estimate_converges_to_brute(self):
        cfg = ExperimentConfig(2, 3)
        rng = np.random.default_rng(43)
        settings = random_settings(rng, 2, 3)
        exact = correlation_brute(cfg, settings).value
        estimate = sample_outcomes(cfg, settings, 200_000, seed=7).correlation.value
        assert abs(estimate - exact) < 0.02

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            sample_outcomes(ExperimentConfig(1, 2), zero_settings(1, 2), 0, seed=0)


class TestOutcomeCounts:
    """SampleResult.counts, a mapping view over arrays, against the dict of
    tuples rebuilt from the raw draws."""

    @pytest.mark.parametrize("particles, ports, seed, block", [
        *(pytest.param(*case, None, id="-".join(map(str, case)))
          for case in [(1, 6, 3), (2, 12, 4), (3, 4, 5), (5, 3, 6), (20, 2, 7)]),
        # blocks of 7 draws and 7 outcomes: iteration crosses hundreds of blocks
        pytest.param(20, 2, 7, 7, id="20-2-7-block7")])
    def test_matches_the_raw_draws(self, monkeypatch, particles, ports, seed, block):
        if block is not None:
            monkeypatch.setattr(quantum, "_BLOCK", block)
        cfg = ExperimentConfig(particles, ports)
        settings = random_settings(np.random.default_rng(seed), particles, ports)
        result = sample_outcomes(cfg, settings, 3000, seed)
        expected = oracles.class_first_counts(
            full_distribution(cfg, settings).class_probabilities(), particles, ports, 3000,
            seed)
        counts = result.counts
        # each key also unravelled alone from its lex index, across blocks
        shape = (ports,) * particles
        assert list(expected) == [tuple(int(d) for d in np.unravel_index(int(i), shape))
                                  for i in counts.indices]
        assert dict(counts) == expected and counts == expected
        assert len(counts) == len(expected)
        assert list(counts) == list(expected) == sorted(expected)
        assert list(counts.items()) == list(expected.items())
        assert list(counts.values()) == list(expected.values())
        assert repr(counts) == repr(expected)
        assert all(counts[outcome] == count for outcome, count in expected.items())

    def test_lookups(self):
        cfg = ExperimentConfig(3, 4)
        counts = sample_outcomes(cfg, zero_settings(3, 4), 200, seed=2).counts
        present = next(iter(counts))
        absent = (0, 0, 1)  # digit sum 1: zero phases never draw it
        assert counts[present] == counts[list(present)] == counts[np.array(present)] > 0
        assert present in counts and absent not in counts
        assert counts.get(absent, "none") == "none"
        with pytest.raises(KeyError):
            counts[absent]
        for malformed in [(0, 0), (0, 0, 0, 0), (0, 0, 4), (0, -1, 1), (0, 0, 0.0)]:
            with pytest.raises(ValueError):
                counts[malformed]

    def test_read_only_stable_and_picklable(self):
        cfg = ExperimentConfig(4, 3)
        settings = random_settings(np.random.default_rng(8), 4, 3)
        first, second = (sample_outcomes(cfg, settings, 5000, seed=8).counts for _ in range(2))
        assert repr(first).encode() == repr(second).encode()
        assert first == second and pickle.loads(pickle.dumps(first)) == first
        for array in (first.indices, first.frequencies):
            with pytest.raises(ValueError):
                array[0] = 0
        with pytest.raises(TypeError):
            first[(0, 0, 0, 0)] = 1
        with pytest.raises(TypeError):
            hash(first)


class TestClassFirstSampling:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 12), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_class_counts_support_and_estimate(self, ports, particles, seed):
        cfg = ExperimentConfig(particles, ports)
        settings = random_settings(np.random.default_rng(seed), particles, ports)
        shots = 4000
        result = sample_outcomes(cfg, settings, shots, seed)
        probs = full_distribution(cfg, settings).class_probabilities()
        assert list(result.counts) == sorted(result.counts)
        assert sum(result.counts.values()) == shots
        per_class = [0] * ports
        for outcome, count in result.counts.items():
            klass = sum(outcome) % ports
            assert probs[klass] > 0
            per_class[klass] += count
        for klass, count in enumerate(per_class):
            weight = probs[klass] * ports ** (particles - 1)
            sigma = math.sqrt(shots * weight * abs(1 - weight))
            assert abs(count - shots * weight) <= 6 * sigma + 1e-6
        estimate = sum(count * cmath.exp(2j * math.pi * (sum(outcome) % ports) / ports)
                       for outcome, count in result.counts.items()) / shots
        assert abs(result.correlation.value - estimate) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(planted_float_tables(max_outcomes=10**5), st.integers(0, 2**32 - 1))
    def test_last_digit_obeys_the_class(self, table, seed):
        ports, k, rows = table
        cfg = ExperimentConfig(len(rows), ports)
        result = sample_outcomes(cfg, PhaseSettings.build(rows), 2000, seed)
        for outcome in result.counts:
            assert outcome[-1] == predict_last(Residue(k, ports), outcome[:-1]).value
