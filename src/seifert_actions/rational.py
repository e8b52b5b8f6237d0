"""Exact rational arithmetic, angles in Q/Z, and the integer token grammar.

Everything downstream (presentation sums, torus phases, obstruction
witnesses) is exact; no floating point is used anywhere.  Sums of many
angles go through `residues`: ints mod the angles' common denominator.
Text formats build lists with `_token_list` and convert tokens with `_ints`.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from operator import attrgetter

__all__ = [
    "Fraction",
    "INT",
    "InputError",
    "RationalAngle",
    "ZERO_ANGLE",
    "Value",
    "angle",
    "parse_fraction",
    "parse_int",
    "parse_int_list",
    "residues",
]

INT = "-?[0-9]+"
"""The integer token of every text format: ASCII digits after an optional
'-'.  Regexes embed it, alone or in a `_token_list`; `_ints` converts it."""


def _token_list(item: str, sep: str | None) -> str:
    """A blank list or `item`s joined by `sep`, or by whitespace when None.  The
    trailing whitespace sits in the optional part, so a failed match is linear."""
    join = r"\s+" if sep is None else rf"\s*{sep}\s*"
    return rf"\s*(?:{item}(?:{join}{item})*\s*)?"


_INT_RE = re.compile(INT)
_INT_LIST_RES = {sep: re.compile(_token_list(INT, sep)) for sep in (",", None)}
# a fraction is an integer, optionally over an unsigned one
_FRACTION_RE = re.compile(rf"({INT})(?:/(?!-)({INT}))?")


class InputError(ValueError):
    """Base of the library's errors for bad input: text that does not parse,
    or data that breaks a rule of its type.  The CLI reports these, and
    OSError, as input errors; any other exception is a fault."""


def _ints(tokens, error: type[InputError], message: str) -> tuple[int, ...]:
    """int() of tokens already matched against INT.  A token with more
    digits than int() converts (`sys.get_int_max_str_digits`) raises
    `error(message)`, with the limit."""
    try:
        return tuple(map(int, tokens))
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise error(f"{message} (an integer has more than {limit} digits)") from None


def parse_int(text: str, error: type[InputError] = InputError, message: str = "") -> int:
    """Read one integer token; surrounding whitespace is allowed.  A text
    that is not one token raises `error(message)`; the default message
    names the text."""
    message = message or f"invalid int value: {text!r}"
    if _INT_RE.fullmatch(text.strip()) is None:
        raise error(message)
    return _ints((text,), error, message)[0]


def parse_int_list(
    text: str, error: type[InputError], message: str, sep: str | None = ","
) -> tuple[int, ...]:
    """Read integer tokens separated by `sep`, or by whitespace when `sep`
    is None.  A blank text is the empty list; a text that is not a list,
    such as one with an empty entry, raises `error(message)`."""
    if _INT_LIST_RES[sep].fullmatch(text) is None:
        raise error(message)
    # the match is the only check: int() reads each token with its whitespace
    return _ints(text.split(sep), error, message) if text.strip() else ()


def parse_fraction(text: str, error: type[InputError] = InputError, message: str = "") -> Fraction:
    """Read 'a' or 'a/b' (b > 0) into an exact Fraction; surrounding
    whitespace is allowed.  A text outside that grammar or with a zero
    denominator raises `error(message)`; the default messages name the
    text."""
    malformed = message or f"not a fraction: {text!r}"
    m = _FRACTION_RE.fullmatch(text.strip())
    if m is None:
        raise error(malformed)
    num, den = _ints((m.group(1), m.group(2) or "1"), error, malformed)
    if den == 0:
        raise error(message or f"zero denominator in {text!r}")
    return Fraction(num, den)


class Value:
    """Base of the library's immutable value classes.

    A subclass names its fields, in constructor order, in `__match_args__`,
    keeps them in `__slots__`, and sets them in its own `__init__` through
    `object.__setattr__`.  Assignment and deletion raise AttributeError.
    Two values are equal when they are of the same class and their fields
    are equal; a value hashes as the tuple of its fields, prints as
    `Name(field=value, ...)`, and copies and pickles by passing its fields
    to the constructor again.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _fields: tuple  # the tuple of field values, read by a C-level getter

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        get = attrgetter(*cls.__match_args__)
        cls._fields = property(get if len(cls.__match_args__) > 1 else lambda v: (get(v),))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields == other._fields
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields)

    def __repr__(self) -> str:
        fields = zip(self.__match_args__, self._fields)
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in fields)})"

    def __reduce__(self) -> tuple:
        return type(self), self._fields


class RationalAngle(Value):
    """An element of Q/Z stored by its canonical representative in [0, 1).

    Models a point exp(2*pi*i*t) of the unit circle additively, so that
    circle multiplication is angle addition.  The value must be an int or
    a Fraction, kept as a Fraction; any other type raises TypeError.
    """

    __slots__ = __match_args__ = ("value",)
    value: Fraction

    def __init__(self, value: Fraction) -> None:
        if not isinstance(value, Fraction):
            if not isinstance(value, int):
                raise TypeError(f"angle value must be an int or Fraction, got {value!r}")
            value = Fraction(value)
        object.__setattr__(self, "value", value % 1)

    def __add__(self, other: RationalAngle) -> RationalAngle:
        return RationalAngle(self.value + other.value)

    def __sub__(self, other: RationalAngle) -> RationalAngle:
        return RationalAngle(self.value - other.value)

    def __neg__(self) -> RationalAngle:
        return RationalAngle(-self.value)

    def scale(self, k: int) -> RationalAngle:
        # k = 1 needs no arithmetic: the sign +1 of `action.solid_torus_eval`, unit
        # entries in `action.induced_filling_action`, and k = 1 in perfbench's filling task
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


def residues(angles) -> tuple[int, list[int]]:
    """(L, [t*L, ...]): L is the lcm of the angles' orders (1 when there are
    none), and each angle t in [0, 1) becomes the int r = t*L in [0, L).  So
    k1*t1 + k2*t2 + ... is the angle of Fraction(k1*r1 + k2*r2 + ..., L)."""
    values = [t.value for t in angles]
    den = math.lcm(*[v.denominator for v in values])
    return den, [v.numerator * (den // v.denominator) for v in values]
