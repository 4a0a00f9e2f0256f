import cmath
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghzport.angles import TAU, PhaseAngle, Residue, _turns_radians, root_of_unity
from ghzport.errors import RationalOverflowError


class TestResidue:
    def test_gamma_2_is_minus_one(self):
        assert Residue(1, 2).to_complex() == pytest.approx(-1.0)

    @pytest.mark.parametrize("modulus", [2, 3, 4, 5, 7, 16, 64])
    def test_zero_residue_is_one(self, modulus):
        assert Residue(0, modulus).to_complex() == pytest.approx(1.0)

    def test_gamma_3(self):
        z = Residue(1, 3).to_complex()
        assert z.real == pytest.approx(-0.5)
        assert z.imag == pytest.approx(math.sqrt(3) / 2)

    def test_values_reduce_into_range(self):
        assert Residue(8, 3) == Residue(2, 3)
        assert (-Residue(1, 3)).value == 2
        assert (Residue(2, 3) + Residue(2, 3)).value == 1

    def test_modulus_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Residue(1, 3) + Residue(1, 4)

    def test_subtraction_reduces_mod_m(self):
        assert Residue(1, 3) - Residue(2, 3) == Residue(2, 3)
        assert Residue(0, 4) - Residue(1, 4) == Residue(3, 4)
        with pytest.raises(ValueError, match="^cannot combine residues with moduli 3 and 4$"):
            Residue(1, 3) - Residue(1, 4)

    def test_bad_modulus_rejected(self):
        with pytest.raises(ValueError):
            Residue(0, 1)

    @given(st.integers(0, 63), st.integers(0, 63), st.integers(2, 64))
    def test_addition_matches_multiplication(self, a, b, modulus):
        left = Residue(a, modulus).to_complex() * Residue(b, modulus).to_complex()
        right = (Residue(a, modulus) + Residue(b, modulus)).to_complex()
        assert abs(left - right) < 1e-12

    @given(st.integers(0, 63), st.integers(2, 64))
    def test_mth_power_is_one(self, value, modulus):
        assert abs(Residue(value, modulus).to_complex() ** modulus - 1) < 1e-10


class TestPhaseAngle:
    def test_exact_addition(self):
        ninth = PhaseAngle.from_turns(Fraction(1, 9))
        assert (ninth + ninth).turns == Fraction(2, 9)

    def test_exact_addition_wraps(self):
        a = PhaseAngle.from_turns(Fraction(8, 9))
        b = PhaseAngle.from_turns(Fraction(2, 9))
        assert (a + b).turns == Fraction(1, 9)

    def test_mixed_addition_drops_exactness(self):
        quarter = PhaseAngle.from_turns(Fraction(1, 4))
        bump = PhaseAngle.from_radians(0.1)
        total = quarter + bump
        assert total.turns is None
        assert total.radians == pytest.approx(math.pi / 2 + 0.1, abs=1e-12)

    def test_exact_negation_and_subtraction_wrap(self):
        ninth = PhaseAngle.from_turns(Fraction(1, 9))
        assert (-ninth).turns == Fraction(8, 9)
        assert (ninth - PhaseAngle.from_turns(Fraction(2, 9))).turns == Fraction(8, 9)
        assert (ninth - ninth).turns == 0

    def test_float_operand_gives_a_float_angle(self):
        ninth = PhaseAngle.from_turns(Fraction(1, 9))
        bump = PhaseAngle.from_radians(0.1)
        assert (-bump).turns is None
        assert (-bump).radians == pytest.approx(TAU - 0.1, abs=1e-12)
        difference = ninth - bump
        assert difference.turns is None
        assert difference.radians == pytest.approx(TAU / 9 - 0.1, abs=1e-12)

    def test_non_angle_operand_raises_type_error(self):
        ninth = PhaseAngle.from_turns(Fraction(1, 9))
        for other in (0.1, Fraction(1, 9), Residue(1, 9)):
            with pytest.raises(TypeError):
                ninth - other
            with pytest.raises(TypeError):
                ninth + other

    def test_overflow_reported(self):
        a = PhaseAngle.from_turns(Fraction(1, 2**62))
        b = PhaseAngle.from_turns(Fraction(1, 2**62 - 1))
        with pytest.raises(RationalOverflowError):
            a + b

    def test_parse_rational_and_radians(self):
        assert PhaseAngle.parse("1/9").turns == Fraction(1, 9)
        assert PhaseAngle.parse("3/9").turns == Fraction(1, 3)
        assert PhaseAngle.parse(1.5).turns is None
        assert PhaseAngle.parse("-1/9").turns == Fraction(8, 9)

    def test_radians_wrap_into_one_turn(self):
        assert PhaseAngle.from_radians(-0.5).radians == pytest.approx(TAU - 0.5)
        assert PhaseAngle.from_radians(TAU).radians == 0.0
        assert math.copysign(1.0, PhaseAngle.from_radians(-0.0).radians) == 1.0

    def test_seam_noise_wraps_to_zero(self):
        # a tiny negative angle plus 2*pi rounds to 2*pi, outside [0, 2*pi)
        for tiny in (-1e-300, -1e-17):
            assert math.fmod(tiny, TAU) + TAU == TAU
            assert PhaseAngle.from_radians(tiny).radians == 0.0

    def test_as_residue_exact(self):
        assert PhaseAngle.from_turns(Fraction(2, 3)).as_residue(3) == Residue(2, 3)
        assert PhaseAngle.from_turns(Fraction(1, 9)).as_residue(3) is None

    def test_as_residue_floating(self):
        close = PhaseAngle.from_radians(4 * math.pi / 3 + 1e-10)
        assert close.as_residue(3) == Residue(2, 3)
        # a five-decimal approximation of 4*pi/3 is well outside the default
        # 1e-9 window but recognizable under an explicit looser tolerance
        rounded = PhaseAngle.from_radians(4.18879)
        assert rounded.as_residue(3) is None
        assert rounded.as_residue(3, tol=1e-4) == Residue(2, 3)

    @given(
        st.fractions(min_value=0, max_value=1, max_denominator=999),
        st.fractions(min_value=0, max_value=1, max_denominator=999),
        st.fractions(min_value=0, max_value=1, max_denominator=999),
    )
    def test_exact_addition_associates_and_commutes(self, a, b, c):
        pa, pb, pc = (PhaseAngle.from_turns(x) for x in (a, b, c))
        assert (pa + pb).turns == (pb + pa).turns
        assert ((pa + pb) + pc).turns == (pa + (pb + pc)).turns

    @settings(max_examples=200)
    @given(st.fractions(min_value=0, max_value=1, max_denominator=9999))
    def test_tracks_stay_consistent(self, turns):
        angle = PhaseAngle.from_turns(turns)
        assert 0 <= angle.turns < 1
        assert 0.0 <= angle.radians < TAU
        assert abs(angle.radians - TAU * float(angle.turns)) < 1e-12


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


def test_root_of_unity_matches_cmath():
    for modulus in range(2, 20):
        for k in range(modulus):
            expected = cmath.exp(2j * math.pi * k / modulus)
            assert abs(root_of_unity(k, modulus) - expected) < 1e-15
