"""Exact and floating arithmetic for phases, residues and roots of unity.

Angles that are rational multiples of a full turn are tracked exactly as a
`Fraction` (in units of 2*pi) alongside their floating radian value, and
arithmetic keeps the exact track alive whenever both operands carry it.
Detector labels and correlation classes are residues modulo the port count M;
a residue k stands for the unit complex number exp(2*pi*i*k/M), the value
ascribed to a click behind output port k (0-based internally).
"""

from __future__ import annotations

import cmath
import math
import numbers
from fractions import Fraction
from typing import Optional, Union

from .errors import RationalOverflowError

TAU = 2.0 * math.pi

#: Default comparison tolerance for unit-modulus quantities.
UNIT_TOLERANCE = 1e-9
#: Default comparison tolerance for probabilities.
PROBABILITY_TOLERANCE = 1e-10

_INT64_MAX = 2**63 - 1
_BELOW_TAU = math.nextafter(TAU, 0.0)


def _checked(fraction: Fraction) -> Fraction:
    """Reject rationals outside the supported 64-bit range."""
    if abs(fraction.numerator) > _INT64_MAX or fraction.denominator > _INT64_MAX:
        raise RationalOverflowError(
            f"rational angle {fraction.numerator}/{fraction.denominator} exceeds "
            "the supported 64-bit numerator/denominator range"
        )
    return fraction


def _wrap_radians(value: float) -> float:
    """Map a radian value onto [0, 2*pi)."""
    wrapped = math.fmod(value, TAU)
    if wrapped < 0.0:
        wrapped += TAU
    if wrapped >= TAU or wrapped == 0.0:  # seam noise and -0.0 become +0.0
        wrapped = 0.0
    return wrapped


def _turns_radians(numerator: int, denominator: int) -> float:
    """2*pi*p/q for a reduced p/q in [0, 1); rounding can graze the seam for
    fractions near 1, so the result is capped at the float just below 2*pi."""
    return min(TAU * numerator / denominator, _BELOW_TAU)


def _is_index(value, size: int) -> bool:
    """True for an integer in 0..size-1: a plain int, a bool or a numpy
    integer (any ``numbers.Integral``), not a float, fraction or string."""
    return (type(value) is int or isinstance(value, numbers.Integral)) and 0 <= value < size


def root_of_unity(k: int, modulus: int) -> complex:
    """exp(2*pi*i*k/M): the value assigned to a click at detector k (mod M)."""
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    return cmath.exp(2j * math.pi * (k % modulus) / modulus)


class _Record:
    """Base of the frozen record classes. A subclass lists its fields in
    ``_fields``, in constructor order, and stores them once, in ``__init__``,
    through ``self.__dict__``. Equality (same class only) and hashing read
    ``_key``, the repr reads every field."""

    _fields = ()

    def _key(self) -> tuple:
        values = self.__dict__
        return tuple([values[name] for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        values = self.__dict__
        shown = ", ".join(f"{name}={values[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Residue(_Record):
    """An integer modulo M, the exact currency of outcomes and classes.

    ``Residue(k, M)`` names the root of unity exp(2*pi*i*k/M). Addition and
    negation reduce modulo M, mirroring multiplication of the underlying unit
    complex numbers.
    """

    _fields = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        if not isinstance(modulus, int) or modulus < 2:
            raise ValueError(f"modulus must be an integer >= 2, got {modulus!r}")
        if not isinstance(value, int):
            raise ValueError(f"residue value must be an integer, got {value!r}")
        self.__dict__.update(value=value % modulus, modulus=modulus)

    def _require_same_modulus(self, other: "Residue") -> None:
        if self.modulus != other.modulus:
            raise ValueError(
                f"cannot combine residues with moduli {self.modulus} and {other.modulus}"
            )

    def __add__(self, other: "Residue") -> "Residue":
        if not isinstance(other, Residue):
            return NotImplemented
        self._require_same_modulus(other)
        return Residue(self.value + other.value, self.modulus)

    def __neg__(self) -> "Residue":
        return Residue(-self.value, self.modulus)

    def __sub__(self, other: "Residue") -> "Residue":
        if not isinstance(other, Residue):
            return NotImplemented
        self._require_same_modulus(other)
        return Residue(self.value - other.value, self.modulus)

    def to_complex(self) -> complex:
        """The root of unity this residue stands for."""
        return root_of_unity(self.value, self.modulus)

    def symbol(self) -> str:
        """Human-facing name of the class, e.g. ``γ_3^2``."""
        return f"γ_{self.modulus}^{self.value}"


class PhaseAngle(_Record):
    """A phase-shifter setting in [0, 2*pi).

    ``turns``, when present, is the exact angle as a reduced fraction of a
    full turn in [0, 1); ``radians`` is always present and, on the exact
    track, is derived from ``turns`` so the two views never drift apart.
    Angles coming from plain numbers live only on the floating track.
    """

    _fields = ("radians", "turns")

    def __init__(self, radians: float, turns: Optional[Fraction] = None):
        if not (0.0 <= radians < TAU):
            raise ValueError(f"radians must lie in [0, 2*pi), got {radians!r}")
        if turns is not None:
            _checked(turns)
            if not 0 <= turns.numerator < turns.denominator:
                raise ValueError(f"turns must lie in [0, 1), got {turns}")
            if abs(radians - TAU * float(turns)) >= 1e-12:
                raise ValueError(f"radians {radians} inconsistent with {turns} of a turn")
        self.__dict__.update(radians=radians, turns=turns)

    @classmethod
    def from_radians(cls, radians: float) -> "PhaseAngle":
        """Floating-only angle; no exactness is assumed for plain numbers."""
        return cls(_wrap_radians(float(radians)))

    @classmethod
    def from_turns(cls, turns: Union[Fraction, int, str]) -> "PhaseAngle":
        """Exact angle 2*pi*(p/q), normalized into one turn and reduced."""
        canonical = _checked(Fraction(turns) % 1)
        return cls(_turns_radians(canonical.numerator, canonical.denominator), canonical)

    @classmethod
    def parse(cls, value: Union[str, float, int]) -> "PhaseAngle":
        """Accept a number of radians or a string "p/q" meaning 2*pi*p/q."""
        if isinstance(value, str) and "/" in value:
            return cls.from_turns(value.strip())
        return cls.from_radians(float(value))

    @property
    def is_exact(self) -> bool:
        return self.turns is not None

    def __add__(self, other: "PhaseAngle") -> "PhaseAngle":
        if not isinstance(other, PhaseAngle):
            return NotImplemented
        if self.turns is not None and other.turns is not None:
            return PhaseAngle.from_turns(self.turns + other.turns)
        return PhaseAngle.from_radians(self.radians + other.radians)

    def __neg__(self) -> "PhaseAngle":
        if self.turns is not None:
            return PhaseAngle.from_turns(-self.turns)
        return PhaseAngle.from_radians(-self.radians)

    def __sub__(self, other: "PhaseAngle") -> "PhaseAngle":
        if not isinstance(other, PhaseAngle):
            return NotImplemented
        return self + (-other)

    def as_residue(self, modulus: int, tol: float = UNIT_TOLERANCE) -> Optional[Residue]:
        """Recognize the angle as 2*pi*k/M and return k, or None.

        The exact track decides by arithmetic; the floating track accepts a
        radian distance up to ``tol`` from the nearest multiple of 2*pi/M.
        """
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        if self.turns is not None:
            scaled = self.turns * modulus
            if scaled.denominator == 1:
                return Residue(scaled.numerator, modulus)
            return None
        step = TAU / modulus
        nearest = round(self.radians / step)
        if abs(self.radians - nearest * step) <= tol:
            return Residue(nearest % modulus, modulus)
        return None

    def describe(self) -> str:
        """Radians to 12 significant digits, plus the exact form when present."""
        text = f"{self.radians:.12g}"
        if self.turns is not None:
            text += f" ({self.turns.numerator}/{self.turns.denominator} of 2*pi)"
        return text


def angle_to_json(angle: PhaseAngle):
    """Canonical file form: "p/q" when exact, a float of radians otherwise."""
    if angle.turns is not None:
        return f"{angle.turns.numerator}/{angle.turns.denominator}"
    return angle.radians
