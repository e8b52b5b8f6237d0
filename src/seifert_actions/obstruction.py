"""The obstruction condition: divisibility test, witnesses, and rewriting.

The class b of a normalized presentation is expressible as an integer
combination of fiber-orbit sizes exactly when gcd(orbit sizes) divides b;
for an induced base action with quotient data (n1..nk; m1..ml) and
effective order N this is the single divisibility N / lcm(n's, 2m's) | b.
Both deciders are implemented and kept in exact agreement.
"""

from __future__ import annotations

import math
from itertools import accumulate

from .orbifold import OrbifoldData, possible_orbit_numbers
from .rational import InputError, Value
from .seifert import NormalizedPresentation, SeifertPair, SeifertPresentation

__all__ = [
    "HFunction",
    "ObstructionWitness",
    "RewriteError",
    "decompose",
    "format_witness",
    "obstruction_divisor",
    "orbit_constancy_check",
    "rewrite_presentation",
    "satisfies_obstruction_divisibility",
]


class RewriteError(InputError):
    """Raised when a presentation rewrite is illegal."""


class ObstructionWitness(Value):
    """Coefficients with sum(coefficients[i] * orbit_numbers[i]) = b."""

    __slots__ = __match_args__ = ("orbit_numbers", "coefficients")
    orbit_numbers: tuple[int, ...]
    coefficients: tuple[int, ...]

    def __init__(self, orbit_numbers: tuple[int, ...], coefficients: tuple[int, ...]) -> None:
        if len(orbit_numbers) != len(coefficients):
            raise InputError("orbit_numbers and coefficients must have equal length")
        object.__setattr__(self, "orbit_numbers", orbit_numbers)
        object.__setattr__(self, "coefficients", coefficients)

    def total(self) -> int:
        return sum(c * o for c, o in zip(self.coefficients, self.orbit_numbers))


class HFunction(Value):
    """Slot weights of a rewrite: critical-fiber slots first, then regular
    slots; the values must sum to the class b being rewritten."""

    __slots__ = __match_args__ = ("values",)
    values: tuple[int, ...]

    def __init__(self, values: tuple[int, ...]) -> None:
        object.__setattr__(self, "values", values)

    def total(self) -> int:
        return sum(self.values)


def obstruction_divisor(group_order: int, quotient: OrbifoldData) -> int:
    """N / lcm(n1,...,nk, 2m1,...,2ml), with the stabilizer orders read off
    `possible_orbit_numbers`: an orbit of o fibers has stabilizer order N // o."""
    numbers = possible_orbit_numbers(group_order, quotient)
    return group_order // math.lcm(*(group_order // o for o in numbers))


def satisfies_obstruction_divisibility(
    b: int, group_order: int, quotient: OrbifoldData
) -> bool:
    return b % obstruction_divisor(group_order, quotient) == 0


def _balanced_residue(value: int, modulus: int) -> int:
    """Representative of value mod modulus in (-modulus/2, modulus/2]."""
    r = value % modulus
    return r - modulus if 2 * r > modulus else r


def decompose(b: int, orbit_numbers: list[int]) -> ObstructionWitness | None:
    """Express b as an integer combination of the orbit numbers, or None.

    Feasible exactly when gcd(orbit_numbers) divides b.  The witness is
    canonical: scanning left to right, each coefficient is reduced to the
    balanced residue modulo what the remaining orbit numbers can absorb.
    """
    if not orbit_numbers:
        raise InputError("decompose requires at least one orbit number")
    for o in orbit_numbers:
        if o < 1:
            raise InputError(f"orbit numbers must be positive, got {o}")
    if b % math.gcd(*orbit_numbers) != 0:
        return None
    # one backward pass: tail_gcds[i] = gcd(orbit_numbers[i + 1:]), 0 for the empty tail
    tail_gcds = [*accumulate(reversed(orbit_numbers), math.gcd, initial=0)][-2::-1]
    coefficients = []
    remaining = b
    for o, tail_gcd in zip(orbit_numbers, tail_gcds):
        if not tail_gcd:
            coefficients.append(remaining // o)
            break
        g = math.gcd(o, tail_gcd)
        modulus = tail_gcd // g
        # solve c * o = remaining (mod tail_gcd)
        inv = pow(o // g, -1, modulus)
        c = _balanced_residue((remaining // g) * inv, modulus)
        coefficients.append(c)
        remaining -= c * o
    witness = ObstructionWitness(tuple(orbit_numbers), tuple(coefficients))
    if witness.total() != b:
        raise ArithmeticError(f"witness {coefficients} sums to {witness.total()}, not {b}")
    return witness


def format_witness(b: int, witness: ObstructionWitness) -> str:
    terms = " + ".join(
        f"{c}*{o}" for c, o in zip(witness.coefficients, witness.orbit_numbers)
    )
    return f"{b} = {terms}"


def orbit_constancy_check(h: HFunction, orbit_partition: list[list[int]]) -> bool:
    """True iff h is constant on each class of a partition of its slots."""
    covered = sorted(slot for part in orbit_partition for slot in part)
    if covered != list(range(len(h.values))):
        raise InputError("orbit partition must cover every slot exactly once")
    if not all(orbit_partition):
        raise InputError("orbit partition classes must be nonempty")
    return all(
        len({h.values[slot] for slot in part}) == 1 for part in orbit_partition
    )


def rewrite_presentation(
    pres: NormalizedPresentation,
    h: HFunction,
    orbit_partition: list[list[int]] | None = None,
) -> SeifertPresentation:
    """Spread the class b over the fibers: pair i becomes (qi, pi + h(i)*qi)
    and each extra slot j contributes a regular pair (1, h(j)).

    Legal exactly when sum(h) = b; the result is always equivalent to the
    input.  When an orbit partition of the slots is supplied, h must also be
    constant on each orbit class.
    """
    n = len(pres.pairs)
    if len(h.values) < n:
        raise RewriteError(
            f"h has {len(h.values)} slots but the presentation has {n} critical pairs"
        )
    if h.total() != pres.b:
        raise RewriteError(f"sum of h is {h.total()}, must equal b = {pres.b}")
    if orbit_partition is not None and not orbit_constancy_check(h, orbit_partition):
        raise RewriteError("h is not constant on the supplied orbit classes")
    pairs = [
        SeifertPair(pair.q, pair.p + h.values[i] * pair.q)
        for i, pair in enumerate(pres.pairs)
    ]
    pairs.extend(SeifertPair(1, value) for value in h.values[n:])
    return SeifertPresentation(pres.genus, tuple(pairs))
