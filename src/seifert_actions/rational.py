"""Exact rational arithmetic, angles in Q/Z, and the integer token grammar.

Everything downstream (presentation sums, torus phases, obstruction
witnesses) is exact; no floating point is used anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Fraction",
    "INT",
    "RationalAngle",
    "ZERO_ANGLE",
    "angle",
    "parse_fraction",
    "parse_int",
    "parse_int_list",
]

INT = "-?[0-9]+"
"""The integer token of every text format: ASCII digits after an optional
'-'.  Format regexes embed it; `parse_int` and `parse_int_list` read it."""

_INT_RE = re.compile(INT)
# A list is empty or tokens joined by its separator: a comma with optional
# whitespace around it, or (sep None, as in table rows) whitespace alone.
_INT_LIST_RES = {
    ",": re.compile(rf"\s*(?:{INT}(?:\s*,\s*{INT})*)?\s*"),
    None: re.compile(rf"\s*(?:{INT}(?:\s+{INT})*)?\s*"),
}
# a fraction is an integer, optionally over an unsigned one
_FRACTION_RE = re.compile(rf"({INT})(?:/(?!-)({INT}))?")


def parse_int(text: str) -> int:
    """Read one integer token; surrounding whitespace is allowed."""
    if _INT_RE.fullmatch(text.strip()) is None:
        raise ValueError(f"invalid int value: {text!r}")
    return int(text)


def parse_int_list(
    text: str, error: type[ValueError], message: str, sep: str | None = ","
) -> tuple[int, ...]:
    """Read integer tokens separated by `sep`, or by whitespace when `sep`
    is None.  A blank text is the empty list; a text that is not a list,
    such as one with an empty entry, raises `error(message)`."""
    if _INT_LIST_RES[sep].fullmatch(text) is None:
        raise error(message)
    return tuple(map(int, _INT_RE.findall(text)))


def parse_fraction(text: str) -> Fraction:
    """Parse 'a' or 'a/b' (b > 0) into an exact Fraction."""
    m = _FRACTION_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a fraction: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


@dataclass(frozen=True)
class RationalAngle:
    """An element of Q/Z stored by its canonical representative in [0, 1).

    Models a point exp(2*pi*i*t) of the unit circle additively, so that
    circle multiplication is angle addition.  The value must be an int or
    a Fraction; any other type raises TypeError.
    """

    value: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.value, (Fraction, int)):
            raise TypeError(
                f"angle value must be an int or Fraction, got {self.value!r}"
            )
        object.__setattr__(self, "value", self.value % 1)

    def __add__(self, other: RationalAngle) -> RationalAngle:
        return RationalAngle(self.value + other.value)

    def __sub__(self, other: RationalAngle) -> RationalAngle:
        return RationalAngle(self.value - other.value)

    def __neg__(self) -> RationalAngle:
        return RationalAngle(-self.value)

    def scale(self, k: int) -> RationalAngle:
        # k = 1, the untwisted case of every action law, needs no arithmetic
        return self if k == 1 else RationalAngle(self.value * k)

    def is_zero(self) -> bool:
        return self.value == 0

    @property
    def order(self) -> int:
        """Order of the angle in Q/Z (1 for the zero angle)."""
        return self.value.denominator

    def __str__(self) -> str:
        return str(self.value)


def angle(numerator: int, denominator: int = 1) -> RationalAngle:
    return RationalAngle(Fraction(numerator, denominator))


ZERO_ANGLE = angle(0)
