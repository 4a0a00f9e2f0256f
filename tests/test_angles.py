import cmath
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ghzport.angles import TAU, PhaseAngle, Residue, _turns_radians, angle_to_json, root_of_unity
from ghzport.closed import ExperimentConfig, PhaseSettings
from ghzport.errors import RationalOverflowError
from ghzport.multiport import bell_multiport
from ghzport.paradox import build_scenario
from ghzport.quantum import sample_outcomes


class TestResidue:
    def test_values_reduce_into_range(self):
        assert Residue(8, 3) == Residue(2, 3)
        assert Residue(-1, 3).value == 2

    def test_bad_modulus_rejected(self):
        with pytest.raises(ValueError):
            Residue(0, 1)

    @pytest.mark.parametrize("value, modulus, message", [
        (1.0, 3, "residue value must be an integer, got 1.0"),
        ("1", 3, "residue value must be an integer, got '1'"),
        (1, 3.0, "modulus must be an integer >= 2, got 3.0"),
    ])
    def test_non_integer_fields_rejected(self, value, modulus, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Residue(value, modulus)

    @pytest.mark.parametrize("value, modulus, symbol", [
        (0, 2, "γ_2^0"), (5, 3, "γ_3^2"), (-1, 64, "γ_64^63"),
    ])
    def test_symbol_names_the_reduced_class(self, value, modulus, symbol):
        assert Residue(value, modulus).symbol() == symbol

    def test_residues_of_different_moduli_differ(self):
        assert Residue(1, 3) != Residue(1, 4)
        assert Residue(4, 3) == Residue(1, 3)
        assert hash(Residue(4, 3)) == hash(Residue(1, 3))


class TestRootOfUnity:
    def test_gamma_2_is_minus_one(self):
        assert root_of_unity(1, 2) == pytest.approx(-1.0)

    @pytest.mark.parametrize("modulus", [2, 3, 4, 5, 7, 16, 64])
    def test_zero_exponent_is_one(self, modulus):
        assert root_of_unity(0, modulus) == 1.0

    def test_gamma_3(self):
        z = root_of_unity(1, 3)
        assert z.real == pytest.approx(-0.5)
        assert z.imag == pytest.approx(math.sqrt(3) / 2)

    def test_exponent_reduces_mod_m(self):
        for modulus in (2, 3, 7, 64):
            for k in range(modulus):
                assert root_of_unity(k + modulus, modulus) == root_of_unity(k, modulus)
                assert root_of_unity(k - 5 * modulus, modulus) == root_of_unity(k, modulus)

    def test_modulus_below_one_rejected(self):
        with pytest.raises(ValueError, match="^modulus must be >= 1, got 0$"):
            root_of_unity(1, 0)
        assert root_of_unity(5, 1) == 1.0

    @given(st.integers(0, 63), st.integers(0, 63), st.integers(2, 64))
    def test_exponents_add_as_roots_multiply(self, a, b, modulus):
        left = root_of_unity(a, modulus) * root_of_unity(b, modulus)
        assert abs(left - root_of_unity(a + b, modulus)) < 1e-12

    @given(st.integers(0, 63), st.integers(2, 64))
    def test_mth_power_is_one(self, value, modulus):
        assert abs(root_of_unity(value, modulus) ** modulus - 1) < 1e-10


class TestPhaseAngle:
    def test_exact_addition(self):
        ninth = PhaseAngle.from_turns(Fraction(1, 9))
        assert oracles.turns(ninth + ninth) == Fraction(2, 9)

    def test_exact_addition_wraps(self):
        a = PhaseAngle.from_turns(Fraction(8, 9))
        b = PhaseAngle.from_turns(Fraction(2, 9))
        assert oracles.turns(a + b) == Fraction(1, 9)

    def test_mixed_addition_drops_exactness(self):
        quarter = PhaseAngle.from_turns(Fraction(1, 4))
        bump = PhaseAngle.from_radians(0.1)
        total = quarter + bump
        assert oracles.turns(total) is None
        assert total.radians == pytest.approx(math.pi / 2 + 0.1, abs=1e-12)

    def test_non_angle_operand_raises_type_error(self):
        ninth = PhaseAngle.from_turns(Fraction(1, 9))
        for other in (0.1, Fraction(1, 9), Residue(1, 9)):
            with pytest.raises(TypeError):
                ninth + other

    def test_overflow_reported(self):
        a = PhaseAngle.from_turns(Fraction(1, 2**62))
        b = PhaseAngle.from_turns(Fraction(1, 2**62 - 1))
        with pytest.raises(RationalOverflowError):
            a + b

    def test_parse_rational_and_radians(self):
        assert oracles.turns(PhaseAngle.parse("1/9")) == Fraction(1, 9)
        assert oracles.turns(PhaseAngle.parse("3/9")) == Fraction(1, 3)
        assert oracles.turns(PhaseAngle.parse(1.5)) is None
        assert oracles.turns(PhaseAngle.parse("-1/9")) == Fraction(8, 9)

    def test_is_exact_follows_the_track(self):
        assert PhaseAngle.from_turns(Fraction(1, 9)).is_exact
        assert PhaseAngle.parse("0/5").is_exact
        assert not PhaseAngle.parse(0.0).is_exact
        assert not (PhaseAngle.from_turns(Fraction(1, 9)) + PhaseAngle.from_radians(0.1)).is_exact

    @given(st.fractions(min_value=-3, max_value=3, max_denominator=10**6))
    def test_exact_file_form_parses_back(self, turns):
        angle = PhaseAngle.from_turns(turns)
        text = angle_to_json(angle)
        assert text == f"{angle.numerator}/{angle.denominator}"
        assert PhaseAngle.parse(text) == angle

    @given(st.floats(min_value=-100.0, max_value=100.0))
    def test_floating_file_form_parses_back(self, radians):
        angle = PhaseAngle.from_radians(radians)
        assert angle_to_json(angle) == angle.radians
        assert PhaseAngle.parse(angle_to_json(angle)) == angle

    def test_radians_wrap_into_one_turn(self):
        assert PhaseAngle.from_radians(-0.5).radians == pytest.approx(TAU - 0.5)
        assert PhaseAngle.from_radians(TAU).radians == 0.0
        assert math.copysign(1.0, PhaseAngle.from_radians(-0.0).radians) == 1.0

    @pytest.mark.parametrize("radians", [TAU, -0.5, math.inf, math.nan])
    def test_radians_outside_one_turn_are_refused(self, radians):
        with pytest.raises(ValueError,
                           match=re.escape(f"radians must lie in [0, 2*pi), got {radians!r}")):
            PhaseAngle(radians)

    @pytest.mark.parametrize("turns", [0.5, 1j, None])
    def test_from_turns_refuses_what_is_not_rational(self, turns):
        message = f'turns must be a rational number or a "p/q" string, got {turns!r}'
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            PhaseAngle.from_turns(turns)

    def test_seam_noise_wraps_to_zero(self):
        # a tiny negative angle plus 2*pi rounds to 2*pi, outside [0, 2*pi)
        for tiny in (-1e-300, -1e-17):
            assert math.fmod(tiny, TAU) + TAU == TAU
            assert PhaseAngle.from_radians(tiny).radians == 0.0

    @given(
        st.fractions(min_value=0, max_value=1, max_denominator=999),
        st.fractions(min_value=0, max_value=1, max_denominator=999),
        st.fractions(min_value=0, max_value=1, max_denominator=999),
    )
    def test_exact_addition_associates_and_commutes(self, a, b, c):
        pa, pb, pc = (PhaseAngle.from_turns(x) for x in (a, b, c))
        assert oracles.turns(pa + pb) == oracles.turns(pb + pa)
        assert oracles.turns((pa + pb) + pc) == oracles.turns(pa + (pb + pc))

    @settings(max_examples=200)
    @given(st.fractions(min_value=0, max_value=1, max_denominator=9999))
    def test_tracks_stay_consistent(self, turns):
        angle = PhaseAngle.from_turns(turns)
        assert 0 <= oracles.turns(angle) < 1
        assert 0.0 <= angle.radians < TAU
        assert abs(angle.radians - TAU * float(oracles.turns(angle))) < 1e-12


def fraction_oracle(make):
    """What ``Fraction`` makes of a phase: the reduced pair of ``make() % 1``
    and its radians, or the type of the exception it raises, with the 64-bit
    bound on the reduced denominator added."""
    try:
        turns = make() % 1
    except Exception as exc:  # noqa: BLE001  the type is the answer
        return type(exc)
    if turns.denominator > 2**63 - 1:
        return RationalOverflowError
    p, q = turns.numerator, turns.denominator
    return p, q, _turns_radians(p, q)


def pair_of(make):
    """What ghzport makes of a phase: its pair and radians, or the type of the
    exception it raises."""
    try:
        angle = make()
    except Exception as exc:  # noqa: BLE001
        return type(exc)
    return angle.numerator, angle.denominator, angle.radians


SCRIPTS = ("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
           "\u0966\u0967\u0968\u0969\u096a\u096b\u096c\u096d\u096e\u096f",
           "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")
SPACES = ("", "", " ", "\t", "\n", "\x1c", "\x85", "\u3000", " \u2003 ")


@st.composite
def digit_runs(draw):
    """Decimal digits in some script, with separators cut in: mostly single
    ``_`` (valid), sometimes ``__``, a space or a stray edge ``_``."""
    value = draw(st.one_of(st.just(0), st.integers(0, 999), st.integers(2**63 - 3, 2**63 + 3),
                           st.integers(0, 2**66)))
    text = str(value).translate(str.maketrans("0123456789", draw(st.sampled_from(SCRIPTS))))
    cuts = draw(st.sets(st.integers(1, len(text) - 1), max_size=3)) if len(text) > 1 else ()
    separator = draw(st.sampled_from(("_", "_", "_", "__", " ")))
    for cut in sorted(cuts, reverse=True):
        text = text[:cut] + separator + text[cut:]
    edge = draw(st.sampled_from(("", "", "", "_")))
    return draw(st.sampled_from((edge + text, text + edge)))


RATIO_TEXT = st.builds(
    lambda *parts: "".join(parts), st.sampled_from(SPACES), st.sampled_from(("", "-", "+")),
    digit_runs(), st.sampled_from(("/", "/", "/", " /", "/ ", "\t/", "/-", "/+", "-/", "//")),
    digit_runs(), st.sampled_from(SPACES))


class TestFractionGrammar:
    """Exact phases are read on ints with Python 3.11's ``Fraction(str)``
    grammar, on every interpreter; ``fractions.Fraction`` is the oracle where
    it reads that grammar (3.10's refuses ``_``, 3.12's allows whitespace
    beside the ``/``)."""

    @pytest.mark.parametrize("text, expected", [
        ("3/9", (1, 3)), ("-1/9", (8, 9)), ("+1/9", (1, 9)), ("1_0/30", (1, 3)),
        (" 1/3 ", (1, 3)), ("\u0661/\u0663", (1, 3)), ("9223372036854775808/3", (2, 3)),
        ("1 /3", ValueError), ("1/-3", ValueError), ("1/0", ZeroDivisionError),
        ("1/9223372036854775808", RationalOverflowError)])
    def test_spellings(self, text, expected):
        got = pair_of(lambda: PhaseAngle.parse(text))
        assert (got if isinstance(got, type) else got[:2]) == expected

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="this interpreter's Fraction reads another grammar")
    @settings(max_examples=500, deadline=None)
    @given(RATIO_TEXT)
    @example("1 /3")
    @example("1_0/3")
    @example("1/-3")
    @example(" +3/9 ")
    @example("\u0661/\u0663")
    @example("1/0")
    @example("9223372036854775808/3")
    @example("1/9223372036854775808")
    def test_parse_reads_what_fraction_reads(self, text):
        expected = fraction_oracle(lambda: Fraction(text))
        assert pair_of(lambda: PhaseAngle.parse(text)) == expected
        assert pair_of(lambda: PhaseAngle.from_turns(text)) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.integers(-2**70, 2**70),
        st.fractions(min_value=-5, max_value=5, max_denominator=10**12),
        st.builds(Fraction, st.integers(-2**66, 2**66), st.integers(2**63 - 3, 2**63 + 3)),
        st.builds(Fraction, st.integers(-2**66, 2**66), st.integers(1, 2**66))))
    def test_from_turns_matches_fraction_on_numbers(self, turns):
        assert pair_of(lambda: PhaseAngle.from_turns(turns)) == fraction_oracle(
            lambda: Fraction(turns))

    def test_the_pair_is_checked_and_the_field_named(self):
        with pytest.raises(ValueError, match="denominator must be an integer"):
            PhaseAngle(0.0, 0)
        with pytest.raises(ValueError, match="numerator must be an integer"):
            PhaseAngle(0.0, None, 3)
        with pytest.raises(ValueError, match="denominator must be an integer"):
            PhaseAngle(0.0, 0, 2**63)
        with pytest.raises(ValueError, match="numerator must be an integer"):
            PhaseAngle(0.0, 9, 9)
        with pytest.raises(ValueError, match="not reduced"):
            PhaseAngle(TAU / 3, 3, 9)
        with pytest.raises(ValueError, match="inconsistent"):
            PhaseAngle(0.5, 1, 9)
        assert PhaseAngle(TAU / 3, 1, 3) == PhaseAngle.from_turns(Fraction(1, 3))

    def test_radians_agree_with_the_pair_to_within_1e_12(self):
        with pytest.raises(ValueError, match="inconsistent with 1/3 of a turn"):
            PhaseAngle(TAU / 3 + 1e-9, 1, 3)
        assert PhaseAngle(TAU / 3 + 1e-13, 1, 3).numerator == 1


def _sample(shots):
    return sample_outcomes(ExperimentConfig(1, 2), PhaseSettings.build([[0, 0]]), shots, 0)


#: Every integer argument under the one rule (an int, never a bool), each a
#: call that takes the value.
INTEGER_SITES = {
    "ExperimentConfig particles": lambda value: ExperimentConfig(value, 2),
    "ExperimentConfig ports": lambda value: ExperimentConfig(1, value),
    "Residue modulus": lambda value: Residue(0, value),
    "Residue value": lambda value: Residue(value, 3),
    "sample_outcomes shots": _sample,
    "build_scenario": build_scenario,
    "bell_multiport": bell_multiport,
    "PhaseAngle numerator": lambda value: PhaseAngle(0.0, value, 1),
    "PhaseAngle denominator": lambda value: PhaseAngle(0.0, 0, value),
}

#: (site, the value at a bound, one step past it, the message for that step).
INTEGER_BOUNDS = [
    ("ExperimentConfig particles", 1, 0, "particles must be an integer >= 1, got 0"),
    ("ExperimentConfig ports", 2, 1, "ports must be an integer >= 2, got 1"),
    ("Residue modulus", 2, 1, "modulus must be an integer >= 2, got 1"),
    ("sample_outcomes shots", 1, 0, "shots must be a positive integer, got 0"),
    ("build_scenario", 4, 3, "the paradox family starts at N = M+1 = 4 particles, got 3"),
    ("build_scenario", 64, 65, "particles capped at 64, got 65"),
    ("bell_multiport", 2, 1, "ports must be an integer in 2..64, got 1"),
    ("bell_multiport", 64, 65, "ports must be an integer in 2..64, got 65"),
    ("PhaseAngle numerator", 0, -1, "numerator must be an integer in 0..0, got -1"),
    ("PhaseAngle numerator", 0, 1, "numerator must be an integer in 0..0, got 1"),
    ("PhaseAngle denominator", 1, 0, "denominator must be an integer in 1..2**63-1, got 0"),
]


class TestIntegerRule:
    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("site", INTEGER_SITES)
    def test_a_bool_is_refused(self, site, value):
        with pytest.raises(ValueError, match=f", got {value}$"):
            INTEGER_SITES[site](value)

    @pytest.mark.parametrize("site, inside, outside, message", INTEGER_BOUNDS)
    def test_every_bound_is_inclusive(self, site, inside, outside, message):
        INTEGER_SITES[site](inside)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            INTEGER_SITES[site](outside)

    def test_the_denominators_upper_bound_is_inclusive(self):
        largest = 2**63 - 1
        assert PhaseAngle(_turns_radians(1, largest), 1, largest).denominator == largest
        message = f"denominator must be an integer in 1..2**63-1, got {largest + 1}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PhaseAngle(_turns_radians(1, largest + 1), 1, largest + 1)

    @pytest.mark.parametrize("site", ["ExperimentConfig particles", "Residue value",
                                      "sample_outcomes shots", "bell_multiport"])
    def test_floats_and_numpy_integers_are_refused(self, site):
        for value in (2.0, np.int64(2)):
            with pytest.raises(ValueError, match=f", got {re.escape(repr(value))}$"):
                INTEGER_SITES[site](value)


def test_root_of_unity_matches_cmath():
    for modulus in range(2, 20):
        for k in range(modulus):
            expected = cmath.exp(2j * math.pi * k / modulus)
            assert abs(root_of_unity(k, modulus) - expected) < 1e-15
