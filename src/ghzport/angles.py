"""Exact and floating arithmetic for phases, residues and roots of unity.

Angles that are rational multiples of a full turn are tracked exactly as a
reduced integer pair p/q of a turn (in units of 2*pi) alongside their floating
radian value, and the sum of two angles stays exact when both are. "p/q"
strings are read with the grammar of ``fractions.Fraction`` but on plain
ints, so the package never imports ``fractions``. Correlation classes are
residues modulo the port count M; a residue k stands for the unit complex
number exp(2*pi*i*k/M), the value ascribed to a click behind output port k
(0-based internally). A ``Residue`` is a record only: the code that computes
a class does its arithmetic on plain ints. A count or a record field (N, M,
shots, a residue, an exact angle's pair) must be an ``int``, never a ``bool``
(``_check_int``); an index may be any integer in range (``_is_index``).
"""

from __future__ import annotations

import cmath
import math
import numbers
from typing import Optional, Tuple, Union

from .errors import RationalOverflowError

TAU = 2.0 * math.pi

#: Default comparison tolerance for unit-modulus quantities.
UNIT_TOLERANCE = 1e-9
#: Default comparison tolerance for probabilities.
PROBABILITY_TOLERANCE = 1e-10

_INT64_MAX = 2**63 - 1
_BELOW_TAU = math.nextafter(TAU, 0.0)


def _ratio(text: str) -> Tuple[int, int]:
    """The integers p, q of a "p/q" string, unreduced (q may be 0), read as
    ``Fraction(str)`` reads it: surrounding whitespace, a sign, and decimal
    digits of any script with single ``_`` between them; nothing beside the
    ``/``. ``int()`` reads each side's sign, digits and ``_`` that way, so
    only the characters beside the ``/`` need a check."""
    numerator, _, denominator = text.strip().partition("/")
    if not (numerator[-1:].isdecimal() and denominator[:1].isdecimal()):
        raise ValueError(f"invalid rational literal: {text!r}")
    return int(numerator), int(denominator)


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


def _check_int(value, what: str, low: float = -math.inf, high: float = math.inf) -> None:
    """Raise ``ValueError(f"{what}, got {value!r}")`` unless ``value`` is an
    int, not a bool, in low..high, both inclusive. ``PhaseAngle`` inlines it."""
    if not isinstance(value, int) or value.__class__ is bool or not low <= value <= high:
        raise ValueError(f"{what}, got {value!r}")


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

    ``Residue(k, M)`` names the root of unity exp(2*pi*i*k/M); the value is
    reduced modulo M on construction. It is a record, compared and printed,
    with no arithmetic of its own.
    """

    _fields = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        _check_int(modulus, "modulus must be an integer >= 2", 2)
        _check_int(value, "residue value must be an integer")
        self.__dict__.update(value=value % modulus, modulus=modulus)

    def symbol(self) -> str:
        """Human-facing name of the class, e.g. ``γ_3^2``."""
        return f"γ_{self.modulus}^{self.value}"


class PhaseAngle(_Record):
    """A phase-shifter setting in [0, 2*pi).

    ``numerator`` and ``denominator``, when present, are the exact angle as a
    reduced fraction p/q of a full turn, 0 <= p < q <= 2**63 - 1; both are
    None on the floating track. ``radians`` is always present and, on the
    exact track, is derived from the pair so the two views never drift apart.
    Angles coming from plain numbers live only on the floating track.
    """

    _fields = ("radians", "numerator", "denominator")

    def __init__(self, radians: float, numerator: Optional[int] = None,
                 denominator: Optional[int] = None):
        if not (0.0 <= radians < TAU):
            raise ValueError(f"radians must lie in [0, 2*pi), got {radians!r}")
        if numerator is not None or denominator is not None:  # exact: both needed
            if not (isinstance(denominator, int) and denominator.__class__ is not bool
                    and 0 < denominator <= _INT64_MAX):
                raise ValueError(f"denominator must be an integer in 1..2**63-1, "
                                 f"got {denominator!r}")
            if not (isinstance(numerator, int) and numerator.__class__ is not bool
                    and 0 <= numerator < denominator):
                raise ValueError(f"numerator must be an integer in 0..{denominator - 1}, "
                                 f"got {numerator!r}")
            if math.gcd(numerator, denominator) != 1:
                raise ValueError(f"numerator and denominator {numerator}/{denominator} "
                                 "are not reduced")
            if abs(radians - TAU * (numerator / denominator)) >= 1e-12:
                raise ValueError(f"radians {radians} inconsistent with "
                                 f"{numerator}/{denominator} of a turn")
        self.__dict__.update(radians=radians, numerator=numerator, denominator=denominator)

    @classmethod
    def from_radians(cls, radians: float) -> "PhaseAngle":
        """Floating-only angle; no exactness is assumed for plain numbers."""
        return cls(_wrap_radians(float(radians)))

    @classmethod
    def from_ratio(cls, numerator: int, denominator: int) -> "PhaseAngle":
        """Exact angle 2*pi*(p/q) for integers p and q > 0, reduced and wrapped
        into one turn; the reduced q must fit 64 bits."""
        if denominator == 0:
            raise ZeroDivisionError(f"rational {numerator}/0 has a zero denominator")
        common = math.gcd(numerator, denominator)
        denominator //= common
        numerator = numerator // common % denominator
        if denominator > _INT64_MAX:  # the wrapped numerator is smaller still
            raise RationalOverflowError(f"rational angle {numerator}/{denominator} exceeds "
                                        "the supported 64-bit numerator/denominator range")
        return cls(_turns_radians(numerator, denominator), numerator, denominator)

    @classmethod
    def from_turns(cls, turns: Union[numbers.Rational, str]) -> "PhaseAngle":
        """Exact angle 2*pi*t for a rational t (a ``Fraction`` or an int) or a
        "p/q" string, normalized into one turn and reduced."""
        if isinstance(turns, str):
            return cls.from_ratio(*_ratio(turns))
        if not isinstance(turns, numbers.Rational):
            raise TypeError(f"turns must be a rational number or a \"p/q\" string, got {turns!r}")
        return cls.from_ratio(int(turns.numerator), int(turns.denominator))

    @classmethod
    def parse(cls, value: Union[str, float, int]) -> "PhaseAngle":
        """Accept a number of radians or a string "p/q" meaning 2*pi*p/q."""
        if isinstance(value, str) and "/" in value:
            return cls.from_ratio(*_ratio(value))
        return cls.from_radians(float(value))

    @property
    def is_exact(self) -> bool:
        return self.denominator is not None

    def __add__(self, other: "PhaseAngle") -> "PhaseAngle":
        if not isinstance(other, PhaseAngle):
            return NotImplemented
        if self.denominator is not None and other.denominator is not None:
            return PhaseAngle.from_ratio(
                self.numerator * other.denominator + other.numerator * self.denominator,
                self.denominator * other.denominator)
        return PhaseAngle.from_radians(self.radians + other.radians)


def angle_to_json(angle: PhaseAngle):
    """Canonical file form: "p/q" when exact, a float of radians otherwise."""
    if angle.denominator is not None:
        return f"{angle.numerator}/{angle.denominator}"
    return angle.radians
