"""2-orbifold data sets, orbifold Euler characteristic, orbit numbers.

Data sets follow the (n1,...,nk; m1,...,ml) convention: k cone points and
l corner reflectors.  Quotients of induced base actions may carry corner
reflectors; base orbifolds of the fibered manifolds themselves never do.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .rational import INT, InputError, Value, _ints, parse_int_list

__all__ = [
    "OrbifoldData",
    "QuotientDataError",
    "euler_characteristic",
    "format_orbifold",
    "geometry_sign",
    "parse_orbifold",
    "possible_orbit_numbers",
]


class QuotientDataError(InputError):
    """Raised for malformed or inconsistent orbifold data."""


class OrbifoldData(Value):
    __slots__ = __match_args__ = ("genus", "cone_orders", "corner_orders", "with_boundary")
    genus: int
    cone_orders: tuple[int, ...]
    corner_orders: tuple[int, ...]
    with_boundary: bool

    def __init__(
        self,
        genus: int,
        cone_orders: tuple[int, ...] = (),
        corner_orders: tuple[int, ...] = (),
        with_boundary: bool = False,
    ) -> None:
        if genus < 0:
            raise QuotientDataError(f"genus must be nonnegative, got {genus}")
        for n in cone_orders + corner_orders:
            if n < 2:
                raise QuotientDataError(f"orbifold orders must be >= 2, got {n}")
        if corner_orders and not with_boundary:
            raise QuotientDataError("corner reflectors require a boundary")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "cone_orders", cone_orders)
        object.__setattr__(self, "corner_orders", corner_orders)
        object.__setattr__(self, "with_boundary", with_boundary)

    def __str__(self) -> str:
        return format_orbifold(self)


def euler_characteristic(orb: OrbifoldData) -> Fraction:
    """chi = (2 - 2g) - sum(1 - 1/n).

    Defined here for closed orientable underlying spaces only, which have
    no corner reflectors.
    """
    if orb.with_boundary:
        raise QuotientDataError(
            f"Euler characteristic unsupported for orbifolds with boundary: {orb}"
        )
    chi = Fraction(2 - 2 * orb.genus)
    for n in orb.cone_orders:
        chi -= 1 - Fraction(1, n)
    return chi


def geometry_sign(orb: OrbifoldData) -> str:
    """'spherical', 'euclidean' or 'hyperbolic' by the sign of chi."""
    chi = euler_characteristic(orb)
    if chi > 0:
        return "spherical"
    if chi == 0:
        return "euclidean"
    return "hyperbolic"


def possible_orbit_numbers(group_order: int, quotient: OrbifoldData) -> set[int]:
    """Orbit sizes a point of the covering surface can have.

    `group_order` is the order of the group acting effectively on the
    surface (the quotient of the acting group by the kernel of the induced
    base action, when the data comes from a fibered manifold).  A point over
    a cone point of order n has orbit size N/n, over a corner reflector of
    order m size N/(2m), and a regular point has orbit size N.
    """
    if group_order < 1:
        raise QuotientDataError(f"group order must be positive, got {group_order}")
    numbers = {group_order}
    for n in quotient.cone_orders:
        if group_order % n != 0:
            raise QuotientDataError(
                f"cone order {n} does not divide group order {group_order}"
            )
        numbers.add(group_order // n)
    for m in quotient.corner_orders:
        if group_order % (2 * m) != 0:
            raise QuotientDataError(
                f"corner order {m} needs 2*{m} to divide group order {group_order}"
            )
        numbers.add(group_order // (2 * m))
    return numbers


# the order lists are read, and their tokens checked, by `_parse_order_list`
_ORBIFOLD_RE = re.compile(rf"genus:({INT})\s+cone:\(([^()]*)\)\s+corner:\(([^()]*)\)")


def _parse_order_list(text: str) -> tuple[int, ...]:
    return parse_int_list(text, QuotientDataError, f"bad order list: {text.strip()!r}")


def parse_orbifold(text: str) -> OrbifoldData:
    """Parse `genus:g cone:(n1,...,nk) corner:(m1,...,ml)`.

    A nonempty corner list marks the orbifold as having boundary; the
    format has no separate boundary flag.
    """
    message = f"not an orbifold data set: {text!r}"
    m = _ORBIFOLD_RE.fullmatch(text.strip())
    if m is None:
        raise QuotientDataError(message)
    (genus,) = _ints((m.group(1),), QuotientDataError, message)
    cones = _parse_order_list(m.group(2))
    corners = _parse_order_list(m.group(3))
    return OrbifoldData(genus, cones, corners, with_boundary=bool(corners))


def format_orbifold(orb: OrbifoldData) -> str:
    cones = ",".join(str(n) for n in orb.cone_orders)
    corners = ",".join(str(m) for m in orb.corner_orders)
    return f"genus:{orb.genus} cone:({cones}) corner:({corners})"
