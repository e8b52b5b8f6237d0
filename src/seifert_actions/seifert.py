"""Seifert presentations over orientable base spaces and their moves.

A presentation (g, o1 | (q1,p1), ..., (qn,pn)) describes a closed orientable
manifold assembled by Dehn-filling the boundary tori of a trivially fibered
piece over a genus-g surface.  Two presentations describe the same fibered
manifold exactly when they are connected by index permutations, insertion or
deletion of (1,0) pairs, and carry moves (q,p) -> (q, p + m*q) with zero net
carry; normalization picks the canonical representative of each class.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

from .rational import INT, InputError, Value, _ints, _token_list

__all__ = [
    "GluingPair",
    "MoveError",
    "NormalizedPresentation",
    "PresentationError",
    "SeifertPair",
    "SeifertPresentation",
    "add_trivial",
    "apply_move",
    "delete_trivial",
    "equivalent",
    "euler_number",
    "format_normalized",
    "format_presentation",
    "gluing_pair",
    "induced_fibration",
    "normalize",
    "pair_problems",
    "parse_pair",
    "parse_presentation",
    "permute",
    "require_pair",
    "require_valid",
    "shift",
    "validate",
]


class PresentationError(InputError):
    """Raised when an operation receives an invalid presentation."""


class MoveError(InputError):
    """Raised when a move's preconditions fail."""


@functools.total_ordering
class SeifertPair(Value):
    """One filling pair (q, p); q = 1 marks a regular fiber.  Pairs are
    ordered by (q, p).

    Validity (q >= 1 and gcd(q, |p|) = 1) is checked by `pair_problems`, not
    at construction, so that violation reports can be produced for raw input.
    """

    __slots__ = __match_args__ = ("q", "p")
    q: int
    p: int

    def __init__(self, q: int, p: int) -> None:
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.q, self.p) < (other.q, other.p)
        return NotImplemented

    def is_trivial(self) -> bool:
        return self.q == 1 and self.p == 0

    def __str__(self) -> str:
        return f"({self.q},{self.p})"


class SeifertPresentation(Value):
    __slots__ = __match_args__ = ("genus", "pairs")
    genus: int
    pairs: tuple[SeifertPair, ...]

    def __init__(self, genus: int, pairs: tuple[SeifertPair, ...] = ()) -> None:
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "pairs", pairs)

    def __str__(self) -> str:
        return format_presentation(self)


class NormalizedPresentation(Value):
    """Canonical form: sorted pairs with 0 < p < q plus the class b."""

    __slots__ = __match_args__ = ("genus", "pairs", "b")
    genus: int
    pairs: tuple[SeifertPair, ...]
    b: int

    def __init__(self, genus: int, pairs: tuple[SeifertPair, ...], b: int) -> None:
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "b", b)

    def to_presentation(self) -> SeifertPresentation:
        """Embed back as a raw presentation with an explicit (1, b) pair."""
        return SeifertPresentation(self.genus, self.pairs + (SeifertPair(1, self.b),))

    def __str__(self) -> str:
        return format_normalized(self)


def pair_problems(pairs) -> list[str]:
    """The Seifert-pair rule, q >= 1 and gcd(q, |p|) = 1: one message per
    violating pair, numbered from 1 (empty = ok)."""
    problems = []
    for idx, pair in enumerate(pairs, start=1):
        if pair.q < 1:
            problems.append(f"pair {idx}: q must be >= 1, got {pair.q}")
        elif (g := math.gcd(pair.q, abs(pair.p))) != 1:
            problems.append(f"pair {idx}: {pair} not coprime (gcd={g})")
    return problems


def require_pair(pair: SeifertPair, error: type[InputError] = PresentationError) -> None:
    """Raise `error` unless `pair` obeys the rule of `pair_problems`."""
    if pair_problems((pair,)):
        raise error(f"invalid Seifert pair {pair}")


def validate(pres: SeifertPresentation) -> list[str]:
    """Report every violation of the presentation invariants (empty = ok)."""
    problems = []
    if pres.genus < 0:
        problems.append(f"genus must be nonnegative, got {pres.genus}")
    return problems + pair_problems(pres.pairs)


def require_valid(pres: SeifertPresentation) -> None:
    problems = validate(pres)
    if problems:
        raise PresentationError("; ".join(problems))


def _canonical(pres: SeifertPresentation | NormalizedPresentation) -> tuple:
    """`normalize` on plain ints: (genus, sorted (q, p) tuples, b).  Int
    tuples sort as `SeifertPair`s do, so the order is the same."""
    if isinstance(pres, NormalizedPresentation):
        pres = pres.to_presentation()
    require_valid(pres)
    b = 0
    reduced = []
    for pair in pres.pairs:
        carry, p = divmod(pair.p, pair.q)
        b += carry
        if pair.q != 1:
            reduced.append((pair.q, p))
    return pres.genus, tuple(sorted(reduced)), b


def normalize(pres: SeifertPresentation | NormalizedPresentation) -> NormalizedPresentation:
    """Canonical form: each q >= 2 pair reduced to 0 < p < q, carries and
    q = 1 pairs folded into b, pairs sorted.  A normal form is read through
    `to_presentation`, so its b is kept and it is validated like any input."""
    genus, pairs, b = _canonical(pres)
    return NormalizedPresentation(genus, tuple(SeifertPair(q, p) for q, p in pairs), b)


def equivalent(
    a: SeifertPresentation | NormalizedPresentation, b: SeifertPresentation | NormalizedPresentation
) -> bool:
    """Fiber-preserving orientation-preserving diffeomorphism test, decided
    by equality of normalized invariants, compared as plain ints.
    Presentations of different genus are treated as inequivalent."""
    return _canonical(a) == _canonical(b)


def euler_number(pres: SeifertPresentation | NormalizedPresentation) -> Fraction:
    """Euler number e = -sum p/q over the raw pairs, as one integer sum over
    the lcm L of their q; it equals -(b + sum p/q) of the normal form.  A
    normal form is read through `to_presentation`, with its b as (1, b).

    Zero exactly when the bundle is covered by the trivial bundle; invariant
    under all moves.
    """
    if isinstance(pres, NormalizedPresentation):
        pres = pres.to_presentation()
    require_valid(pres)
    lcm = math.lcm(*(pair.q for pair in pres.pairs))
    return Fraction(-sum(pair.p * (lcm // pair.q) for pair in pres.pairs), lcm)


def permute(pres: SeifertPresentation, perm: list[int]) -> SeifertPresentation:
    """Reorder pairs by perm, a permutation of 0..n-1 (images in order)."""
    n = len(pres.pairs)
    if sorted(perm) != list(range(n)):
        raise MoveError(f"not a permutation of 0..{n - 1}: {perm}")
    return SeifertPresentation(pres.genus, tuple(pres.pairs[i] for i in perm))


def add_trivial(pres: SeifertPresentation) -> SeifertPresentation:
    return SeifertPresentation(pres.genus, pres.pairs + (SeifertPair(1, 0),))


def delete_trivial(pres: SeifertPresentation, i: int) -> SeifertPresentation:
    if not 0 <= i < len(pres.pairs):
        raise MoveError(f"pair index {i} out of range")
    if not pres.pairs[i].is_trivial():
        raise MoveError(f"pair {i} is {pres.pairs[i]}, not (1,0)")
    return SeifertPresentation(pres.genus, pres.pairs[:i] + pres.pairs[i + 1 :])


def shift(pres: SeifertPresentation, i: int, j: int, m: int) -> SeifertPresentation:
    """Carry move: (qi,pi),(qj,pj) -> (qi,pi+m*qi),(qj,pj-m*qj)."""
    n = len(pres.pairs)
    if not (0 <= i < n and 0 <= j < n):
        raise MoveError(f"pair index out of range: i={i}, j={j}")
    if i == j:
        raise MoveError("shift requires two distinct pairs")
    pairs = list(pres.pairs)
    pairs[i] = SeifertPair(pairs[i].q, pairs[i].p + m * pairs[i].q)
    pairs[j] = SeifertPair(pairs[j].q, pairs[j].p - m * pairs[j].q)
    return SeifertPresentation(pres.genus, tuple(pairs))


def apply_move(pres: SeifertPresentation, move: tuple) -> SeifertPresentation:
    """Dispatch a move given as a tagged tuple.

    Moves: ("permute", perm), ("add_trivial",), ("delete_trivial", i),
    ("shift", i, j, m).
    """
    tag = move[0]
    if tag == "permute":
        return permute(pres, move[1])
    if tag == "add_trivial":
        return add_trivial(pres)
    if tag == "delete_trivial":
        return delete_trivial(pres, move[1])
    if tag == "shift":
        return shift(pres, move[1], move[2], move[3])
    raise MoveError(f"unknown move {tag!r}")


class GluingPair(Value):
    """Exponents (x, y) of the filling map attached to a pair (q, p).

    They satisfy x*q - y*p = -1 with 0 <= y < q, so the attaching matrix
    [[x, p], [y, q]] has determinant -1.  Among the two solutions with
    |y| < q we fix the nonnegative one, i.e. y is the inverse of p mod q.
    """

    __slots__ = __match_args__ = ("x", "y", "attached_pair")
    x: int
    y: int
    attached_pair: SeifertPair

    def __init__(self, x: int, y: int, attached_pair: SeifertPair) -> None:
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "attached_pair", attached_pair)

    def matrix(self) -> tuple[int, int, int, int]:
        return (self.x, self.attached_pair.p, self.y, self.attached_pair.q)


def gluing_pair(pair: SeifertPair) -> GluingPair:
    require_pair(pair)
    q, p = pair.q, pair.p
    y = pow(p, -1, q)
    x = (y * p - 1) // q
    return GluingPair(x, y, pair)


def induced_fibration(gp: GluingPair) -> tuple[int, int]:
    """Fibration (-q, y) induced on the filled solid torus."""
    return (-gp.attached_pair.q, gp.y)


# whitespace may separate tokens but never splits one
_PAIR = rf"\(\s*({INT})\s*,\s*({INT})\s*\)"
_PAIR_RE = re.compile(_PAIR)
_PRESENTATION_RE = re.compile(rf"\(\s*({INT})\s*,\s*o1\s*\|({_token_list(_PAIR, ',')})\)")


def parse_pair(text: str) -> SeifertPair:
    """Parse a single pair written (q,p)."""
    message = f"not a Seifert pair: {text!r}"
    m = _PAIR_RE.fullmatch(text.strip())
    if m is None:
        raise PresentationError(message)
    return SeifertPair(*_ints(m.groups(), PresentationError, message))


def parse_presentation(text: str) -> SeifertPresentation:
    """Parse `(g, o1 | (q1,p1), (q2,p2), ...)`."""
    message = f"not a presentation: {text!r}"
    m = _PRESENTATION_RE.fullmatch(text.strip())
    if m is None:
        raise PresentationError(message)
    tokens = (m[1], *(t for pair in _PAIR_RE.findall(m[2]) for t in pair))
    genus, *ints = _ints(tokens, PresentationError, message)
    return SeifertPresentation(genus, tuple(map(SeifertPair, ints[::2], ints[1::2])))


def format_presentation(pres: SeifertPresentation) -> str:
    body = ", ".join(str(pair) for pair in pres.pairs)
    return f"({pres.genus}, o1 |{' ' + body if body else ''})"


def format_normalized(norm: NormalizedPresentation) -> str:
    return format_presentation(norm.to_presentation())
