import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ghzport.angles import PhaseAngle, Residue
from ghzport.closed import predict_last
from ghzport.errors import ResourceLimitError
from ghzport.lhv import (
    MODEL_GUARD,
    Constraint,
    DeterministicModel,
    ForcedValue,
    SettingsCatalog,
    count_satisfying,
    ghz_forced_value,
    model_value,
    satisfies,
)
from ghzport.quantum import ExperimentConfig, PhaseSettings, joint_amplitude


def paradox_catalog():
    """Four stations, two settings each (graded / reference), M = 3."""
    graded = tuple(PhaseAngle.from_turns(Fraction(j, 9)) for j in range(3))
    reference = tuple(PhaseAngle.from_turns(0) for _ in range(3))
    return SettingsCatalog(3, tuple((graded, reference) for _ in range(4)))


@st.composite
def lhv_problems(draw, moduli=st.integers(2, 12)):
    """(setting counts, M, [(pattern, required)]) over at most 2*10^4 models,
    M drawn from ``moduli``.

    Patterns are sometimes reused, with the same residue (a repeat) or another
    one (a contradiction); cells no pattern names are left free.
    """
    ports = draw(moduli)
    budget = 1
    while ports ** (budget + 1) <= 2 * 10**4:
        budget += 1
    stations = draw(st.integers(1, min(4, budget)))
    counts = []
    for left in range(stations - 1, -1, -1):
        counts.append(draw(st.integers(1, min(3, budget - sum(counts) - left))))
    constraints = []
    for _ in range(draw(st.integers(0, 6))):
        if constraints and draw(st.booleans()):
            pattern, required = draw(st.sampled_from(constraints))
            required = draw(st.sampled_from([required, (required + 1) % ports]))
        else:
            pattern = tuple(draw(st.integers(0, c - 1)) for c in counts)
            required = draw(st.integers(0, ports - 1))
        constraints.append((pattern, required))
    return tuple(counts), ports, constraints


@st.composite
def multiplied_problems(draw):
    """(setting counts, M, [(pattern, required)]) for the forced value.

    Each station's column of the patterns hits its cells 0, 1, 2 or M times,
    and one drawn cell takes what is left of the row count, in a drawn order;
    row counts 1, M + 1 and 2M + 1 can leave one cell per station at 1 mod M.
    """
    ports = draw(st.integers(2, 12))
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    rows = draw(st.sampled_from([0, 1, 2, ports, ports + 1, 2 * ports + 1]))
    columns = []
    for n in counts:
        hits, left = [], rows
        for _ in range(n):
            hits.append(min(left, draw(st.sampled_from([0, 1, 2, ports]))))
            left -= hits[-1]
        hits[draw(st.integers(0, n - 1))] += left
        column = [setting for setting, h in enumerate(hits) for _ in range(h)]
        columns.append(draw(st.permutations(column)))
    required = draw(st.lists(st.integers(0, ports - 1), min_size=rows, max_size=rows))
    return tuple(counts), ports, list(zip(zip(*columns), required))


def blank_catalog(ports, counts):
    """A catalog of all-zero settings: ``counts[l]`` of them at station l."""
    zero = PhaseAngle.from_turns(0)
    return SettingsCatalog(ports, tuple(((zero,) * ports,) * c for c in counts))


def mermin(required):
    """Three two-setting stations, the patterns with an even number of second
    settings: the four rows add up to twice every cell."""
    return list(zip([(0, 1, 1), (1, 0, 1), (1, 1, 0), (0, 0, 0)], required))


#: (setting counts, M, [(pattern, required)]) for the oracle cases below.
ORACLE_CASES = [
    ((1, 1, 1), 16, [((0, 0, 0), 5)]),
    ((1, 1, 1), 16, [((0, 0, 0), 5), ((0, 0, 0), 5)]),
    ((1, 1, 1), 16, [((0, 0, 0), 5), ((0, 0, 0), 13)]),
    ((2, 1), 16, [((0, 0), 3), ((1, 0), 11)]),
    ((3,), 16, [((1,), 8), ((2,), 15)]),
    ((1, 2), 18, [((0, 0), 4), ((0, 1), 13)]),
    ((1, 2), 18, [((0, 0), 4), ((0, 0), 13)]),  # differ by 9: fails mod 2 only
    ((1, 2), 18, [((0, 1), 4), ((0, 1), 10)]),  # differ by 6: fails mod 9 only
    ((2, 1), 27, [((0, 0), 26), ((1, 0), 9), ((1, 0), 9)]),
    ((1, 1, 1), 27, [((0, 0, 0), 1), ((0, 0, 0), 10)]),
    ((3,), 27, [((0,), 26), ((1,), 9), ((2,), 0)]),
    ((1, 1), 30, [((0, 0), 29)]),
    ((1, 1), 30, [((0, 0), 29), ((0, 0), 14)]),  # fails mod 2 only
    ((1, 1), 30, [((0, 0), 29), ((0, 0), 19)]),  # fails mod 3 only
    ((1, 1), 30, [((0, 0), 29), ((0, 0), 23)]),  # fails mod 5 only
    ((2,), 30, [((0,), 7), ((1,), 22)]),
    ((2,), 32, [((1,), 31)]),
    ((1, 1), 32, [((0, 0), 16), ((0, 0), 16), ((0, 0), 0)]),
    # mod 4 the Mermin rows leave a pivot 2: its saturation row decides
    ((2, 2, 2), 4, mermin([1, 1, 1, 1])),
    ((2, 2, 2), 4, mermin([0, 0, 0, 1])),
    ((2, 2, 2), 4, mermin([3, 0, 1, 2])),
    ((2, 2, 2), 4, mermin([1, 0, 0, 1]) + [((0, 0, 0), 3)]),
    # a pivot 2 whose saturation row keeps cells of lower valuation
    ((3, 2, 2), 4, [((2, 1, 0), 2), ((2, 0, 1), 3), ((1, 0, 0), 1), ((0, 1, 1), 1)]),
    ((3, 2, 2), 4, [((2, 1, 0), 1), ((2, 0, 1), 0), ((1, 0, 0), 0), ((0, 1, 1), 0)]),
    # a column holding both 1 and 2 by the time it is reached: 2 cannot pivot
    ((3, 2, 2), 4, [((2, 1, 0), 1), ((0, 1, 1), 3), ((0, 1, 0), 2), ((2, 0, 1), 1),
                    ((2, 0, 0), 0), ((0, 0, 0), 1)]),
]


def swap_constraints(particles=4, ports=3, required=2):
    return [
        Constraint(tuple(1 if l == k else 0 for l in range(particles)),
                   Residue(required, ports))
        for k in range(particles)
    ]


class TestModelValue:
    def test_all_zero_model(self):
        model = DeterministicModel(3, ((0, 0), (0, 0), (0, 0), (0, 0)))
        assert model_value(model, (0, 1, 0, 1)) == Residue(0, 3)

    def test_single_alpha_squared(self):
        model = DeterministicModel(3, ((2,), (0,), (0,), (0,)))
        assert model_value(model, (0, 0, 0, 0)) == Residue(2, 3)

    def test_sum_reduces(self):
        model = DeterministicModel(3, ((1,), (1,), (1,), (2,)))
        assert model_value(model, (0, 0, 0, 0)) == Residue(2, 3)

    def test_bad_pattern_rejected(self):
        model = DeterministicModel(3, ((0, 0), (0, 0)))
        with pytest.raises(ValueError):
            model_value(model, (0, 2))
        with pytest.raises(ValueError):
            model_value(model, (0,))


@pytest.mark.parametrize("index, accepted", [
    (1, True), (True, True), (np.int64(1), True), (np.uint8(1), True),
    (np.bool_(True), False), (1.0, False), (np.float64(1), False), (Fraction(1), False),
    ("1", False), (None, False),
])
def test_index_checks_accept_the_same_integer_kinds(index, accepted):
    """Plain ints, bools and numpy integers are setting or detector indices;
    numpy bools, floats, fractions and strings are not."""
    zeros = (PhaseAngle(0.0),) * 2
    catalog = SettingsCatalog(2, ((zeros, zeros),) * 2)
    checks = [
        lambda: catalog.validate_pattern((0, index)),
        lambda: model_value(DeterministicModel(2, ((0, 1), (1, 1))), (0, index)),
        lambda: joint_amplitude(ExperimentConfig(2, 2), PhaseSettings((zeros,) * 2), (0, index)),
        lambda: predict_last(Residue(0, 2), (0, index)),
    ]
    for check in checks:
        if accepted:
            check()
        else:
            with pytest.raises(ValueError):
                check()


class TestSatisfies:
    def test_forced_reference_model_meets_swaps(self):
        # I(graded) = 0 everywhere forces I(reference) = 2 everywhere
        model = DeterministicModel(3, ((0, 2),) * 4)
        assert satisfies(model, swap_constraints())

    def test_same_model_fails_all_reference(self):
        model = DeterministicModel(3, ((0, 2),) * 4)
        all_reference = Constraint((1, 1, 1, 1), Residue(0, 3))
        assert not satisfies(model, [all_reference])

    def test_empty_constraints(self):
        model = DeterministicModel(3, ((1, 2),) * 4)
        assert satisfies(model, [])


class TestCountSatisfying:
    def test_paradox_counts_match_independent_oracle(self):
        catalog = paradox_catalog()
        swaps = swap_constraints()
        all_reference = Constraint((1, 1, 1, 1), Residue(0, 3))

        swaps_oracle = [(c.pattern, c.required.value) for c in swaps]
        oracle_count, oracle_first = oracles.enumerate_models((2,) * 4, 3, swaps_oracle)
        assert oracle_count == 81  # frozen before the main build

        result = count_satisfying(catalog, swaps)
        assert result.count == 81
        assert result.witness is not None
        assert result.witness.assignments == oracle_first
        assert satisfies(result.witness, swaps)

        full_oracle = swaps_oracle + [((1, 1, 1, 1), 0)]
        assert oracles.enumerate_models((2,) * 4, 3, full_oracle)[0] == 0
        result = count_satisfying(catalog, swaps + [all_reference])
        assert result.count == 0
        assert result.witness is None

    def test_single_station_single_setting(self):
        row = (PhaseAngle.from_turns(0),) * 3
        catalog = SettingsCatalog(3, (((row),),))
        result = count_satisfying(catalog, [Constraint((0,), Residue(1, 3))])
        assert result.count == 1
        assert result.witness.assignments == ((1,),)

    def test_empty_constraints_count_everything(self):
        catalog = paradox_catalog()
        result = count_satisfying(catalog, [])
        assert result.count == catalog.model_count == 3**8
        assert result.witness.assignments == ((0, 0),) * 4

    def test_guard(self):
        row = (PhaseAngle.from_turns(0),) * 5
        catalog = SettingsCatalog(5, tuple((row,) * 6 for _ in range(2)))
        assert catalog.model_count == 5**12
        with pytest.raises(ResourceLimitError, match="100000000"):
            count_satisfying(catalog, [])

    def test_guard_boundary_is_counted(self):
        row = (PhaseAngle.from_turns(0),) * 10
        catalog = SettingsCatalog(10, tuple((row, row) for _ in range(4)))
        assert catalog.model_count == MODEL_GUARD
        result = count_satisfying(catalog, [
            Constraint((0, 0, 0, 0), Residue(3, 10)),
            Constraint((1, 1, 1, 1), Residue(5, 10)),
        ])
        assert result.count == 10**6
        assert result.witness.assignments == ((0, 0), (0, 0), (0, 0), (3, 5))

    @settings(max_examples=200, deadline=None)
    @given(lhv_problems())
    @example(((2, 2), 4, [((0, 1), 2), ((0, 1), 2), ((1, 0), 1)]))
    @example(((3, 1), 6, [((2, 0), 3), ((2, 0), 4)]))
    @example(((2, 1, 1), 8, [((1, 0, 0), 7), ((0, 0, 0), 0)]))
    @example(((1, 2, 1), 9, [((0, 1, 0), 4), ((0, 1, 0), 4), ((0, 0, 0), 8)]))
    @example(((1, 2), 12, [((0, 1), 11), ((0, 1), 0)]))
    def test_random_catalogs_match_oracle(self, problem):
        counts, ports, pairs = problem
        zero = PhaseAngle.from_turns(0)
        catalog = SettingsCatalog(
            ports, tuple(tuple(((zero,) * ports,) * c) for c in counts)
        )
        constraints = [Constraint(p, Residue(r, ports)) for p, r in pairs]
        expected, first = oracles.enumerate_models(counts, ports, pairs)
        result = count_satisfying(catalog, constraints)
        assert result.count == expected
        if expected:
            assert result.witness.assignments == first
        else:
            assert result.witness is None


    @pytest.mark.parametrize("counts, ports, pairs", ORACLE_CASES)
    def test_elimination_matches_oracle(self, counts, ports, pairs):
        constraints = [Constraint(p, Residue(r, ports)) for p, r in pairs]
        expected, first = oracles.enumerate_models(counts, ports, pairs)
        result = count_satisfying(blank_catalog(ports, counts), constraints)
        assert result.count == expected
        assert (result.witness and result.witness.assignments) == first

    @settings(max_examples=100, deadline=None)
    @given(lhv_problems(st.sampled_from((16, 18, 27, 30, 32))))
    def test_prime_power_moduli_match_oracle(self, problem):
        counts, ports, pairs = problem
        constraints = [Constraint(p, Residue(r, ports)) for p, r in pairs]
        expected, first = oracles.enumerate_models(counts, ports, pairs)
        result = count_satisfying(blank_catalog(ports, counts), constraints)
        assert result.count == expected
        assert (result.witness and result.witness.assignments) == first


def timed_count(catalog, constraints):
    started = time.perf_counter()
    result = count_satisfying(catalog, constraints)
    return result, time.perf_counter() - started


#: Four two-setting stations at M = 10 (10^8 models): constraints, then the
#: count and lex-first witness derived by hand, cells x[station][setting].
DECAPORT_CASES = {
    # each x[k][1] is 2 minus the other three x[l][0]: 10^4 models; lex-first
    # x[0] = x[1] = (0, 0) forces x[2][0] + x[3][0] = 2
    "swaps": (swap_constraints(4, 10, 2), 10**4, ((0, 0), (0, 0), (0, 0), (2, 2))),
    # the four swaps sum to sum_k x[k][1] + 3 sum_l x[l][0] = 8, so the target
    # gives sum_l x[l][0] = 7 * 8 = 6 (3 is a unit mod 10): 10^3 models
    "swaps and target": (
        swap_constraints(4, 10, 2) + [Constraint((1, 1, 1, 1), Residue(0, 10))],
        10**3, ((0, 6), (0, 6), (0, 6), (6, 2))),
    # Mermin rows with x[3][0] in each: 2 * (six cells) + 4 x[3][0] = 2. Rank 4
    # mod 5, 3 mod 2, x[3][1] free: 5^4 * 2^5; x[0][0] - x[0][1] = 1 mod 5
    "mermin, even total": (
        [Constraint(p + (0,), Residue(r, 10)) for p, r in mermin([0, 0, 0, 2])],
        20000, ((0, 4), (0, 4), (0, 4), (2, 0))),
    # the same rows with an odd total: 0 = 1 mod 2
    "mermin, odd total": (
        [Constraint(p + (0,), Residue(r, 10)) for p, r in mermin([0, 0, 0, 1])], 0, None),
}


class TestGuardScale:
    def test_three_cells_mod_464(self):
        catalog = blank_catalog(464, (1, 1, 1))
        assert catalog.model_count == 464**3 <= MODEL_GUARD
        result, seconds = timed_count(catalog, [Constraint((0, 0, 0), Residue(5, 464))])
        assert result.count == 464**2 == 215296
        assert result.witness.assignments == ((0,), (0,), (5,))
        assert seconds < 0.05

    @pytest.mark.parametrize("name", DECAPORT_CASES)
    def test_four_two_setting_stations_mod_10(self, name):
        constraints, count, witness = DECAPORT_CASES[name]
        catalog = blank_catalog(10, (2, 2, 2, 2))
        assert catalog.model_count == MODEL_GUARD
        result, seconds = timed_count(catalog, constraints)
        assert result.count == count
        assert (result.witness and result.witness.assignments) == witness
        if witness is not None:
            assert satisfies(result.witness, constraints)
        assert seconds < 0.05

    @pytest.mark.parametrize("name", DECAPORT_CASES)
    def test_duplicate_rows_change_nothing(self, name):
        constraints, count, witness = DECAPORT_CASES[name]
        repeated = constraints * 50
        random.Random(19).shuffle(repeated)
        assert len(repeated) >= 200
        result = count_satisfying(blank_catalog(10, (2, 2, 2, 2)), repeated)
        assert result.count == count
        assert (result.witness and result.witness.assignments) == witness


class TestPatternChecks:
    """Every public entry point rejects a bad pattern with the same message,
    whatever patterns the catalog accepted before."""

    @pytest.mark.parametrize("pattern, message", [
        ((0, 1, 0), "pattern has 3 entries, expected 4"),
        ((0, 2, 0, 0), "station 2 setting index 2 out of range 0..1"),
        ((0, 1.0, 0, 0), "station 2 setting index 1.0 out of range 0..1"),
        ([0, 1, 0, -1], "station 4 setting index -1 out of range 0..1"),
    ])
    def test_entry_points_reject(self, pattern, message):
        catalog = paradox_catalog()
        count_satisfying(catalog, swap_constraints())  # accepts the four swaps
        calls = [
            lambda: count_satisfying(catalog, [Constraint(pattern, Residue(0, 3))]),
            lambda: ghz_forced_value(swap_constraints() + [Constraint(pattern, Residue(0, 3))],
                                     catalog),
            lambda: catalog.phase_settings(pattern),
            lambda: catalog.validate_pattern(pattern),
        ]
        for call in calls:
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == message

    def test_an_accepted_pattern_vouches_only_for_itself(self):
        catalog = paradox_catalog()
        accepted = (0, 1, 0, 0)
        catalog.phase_settings(accepted)
        assert catalog.phase_settings(accepted) == catalog.phase_settings((0, 1, 0, 0))
        with pytest.raises(ValueError, match="index 1.0 out of range"):
            catalog.phase_settings((0, 1.0, 0, 0))  # equal to ``accepted``, not it
        listed = [0, 1, 0, 0]
        catalog.phase_settings(listed)
        listed[1] = 2
        with pytest.raises(ValueError, match="index 2 out of range"):
            catalog.phase_settings(listed)
        other = blank_catalog(3, (2, 2, 2))  # three stations, not four
        with pytest.raises(ValueError, match="pattern has 4 entries, expected 3"):
            other.phase_settings(accepted)


class TestForcedValue:
    def test_paradox_swaps_force_all_reference(self):
        forced = ghz_forced_value(swap_constraints(), paradox_catalog())
        assert forced is not None
        assert forced.pattern == (1, 1, 1, 1)
        assert forced.residue == Residue(2, 3)  # 4 * 2 = 8 = 2 mod 3

    @pytest.mark.parametrize("particles", [5, 6, 7, 9])
    def test_general_family_forces_n_minus_2(self, particles):
        ports = particles - 1
        zero = PhaseAngle.from_turns(0)
        catalog = SettingsCatalog(
            ports, tuple(((zero,) * ports, (zero,) * ports) for _ in range(particles))
        )
        constraints = swap_constraints(particles, ports, required=particles - 2)
        forced = ghz_forced_value(constraints, catalog)
        assert forced.pattern == (1,) * particles
        assert forced.residue == Residue(particles - 2, ports)

    def test_irreducible_constraints_force_nothing(self):
        catalog = paradox_catalog()
        repeated = [swap_constraints()[0]] * 2  # cell counts 2 mod 3 resolve nothing
        assert ghz_forced_value(repeated, catalog) is None
        assert ghz_forced_value([], catalog) is None

    @settings(max_examples=300, deadline=None)
    @given(multiplied_problems())
    @example(((2, 2, 2, 2), 3, [(p, 2) for p in [(1, 0, 0, 0), (0, 1, 0, 0),
                                                 (0, 0, 1, 0), (0, 0, 0, 1)]]))
    @example(((2,), 3, [((0,), 1), ((1,), 2)]))  # a station with two live cells
    @example(((2, 1), 2, [((0, 0), 1), ((0, 0), 1)]))  # no live cell
    @example(((1, 1), 5, []))
    def test_matches_multiplied_constraints(self, problem):
        counts, ports, pairs = problem
        constraints = [Constraint(p, Residue(r, ports)) for p, r in pairs]
        forced = ghz_forced_value(constraints, blank_catalog(ports, counts))
        expected = oracles.multiplied_constraints(len(counts), ports, pairs)
        if expected is None:
            assert forced is None
        else:
            assert forced == ForcedValue(expected[0], Residue(expected[1], ports))

    @pytest.mark.parametrize("constraints, message", [
        ([Constraint((0, 1), Residue(1, 3)), Constraint((0, 1, 0, 0), Residue(1, 4))],
         "pattern has 2 entries, expected 4"),
        ([Constraint((0, 1, 0, 0), Residue(1, 4)), Constraint((0, 1), Residue(1, 3))],
         "constraint residue modulus 4 does not match the catalog's 3 ports"),
        ([Constraint((0, 1), Residue(1, 4))], "pattern has 2 entries, expected 4"),
    ])
    def test_first_bad_constraint_names_the_error(self, constraints, message):
        # checked in order, each constraint's pattern before its modulus
        for call in (ghz_forced_value, lambda c, catalog: count_satisfying(catalog, c)):
            with pytest.raises(ValueError) as raised:
                call(constraints, paradox_catalog())
            assert str(raised.value) == message

    def test_forced_value_consistent_with_enumeration(self):
        # every model satisfying the premises takes the forced value
        catalog = paradox_catalog()
        swaps = swap_constraints()
        forced = ghz_forced_value(swaps, catalog)
        hits = 0
        for flat in itertools.product(range(3), repeat=8):
            model = DeterministicModel(
                3, tuple((flat[2 * l], flat[2 * l + 1]) for l in range(4))
            )
            if satisfies(model, swaps):
                hits += 1
                assert model_value(model, forced.pattern) == forced.residue
        assert hits == 81
