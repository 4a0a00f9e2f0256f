import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzport.angles import TAU, PhaseAngle, Residue, root_of_unity
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


def test_root_of_unity_matches_cmath():
    for modulus in range(2, 20):
        for k in range(modulus):
            expected = cmath.exp(2j * math.pi * k / modulus)
            assert abs(root_of_unity(k, modulus) - expected) < 1e-15
