"""Finite groups given by their order and product.

Elements are the indices 0..N-1, `mul(a, b)` is the product a*b and element
0 is the identity.  The built-in groups multiply by formula; a
multiplication table exists only for a group file.  Such a table is checked
for range, the Latin property and the identity at 0, and for associativity
by Light's test on a generating set (`validate_group`), in O(N^2 log N)
steps instead of O(N^3).  Orders stay small, so subgroup questions are
answered by direct scans.  `read_utf8` reads group and action files alike;
a path is a `str` or `os.PathLike`, and messages show it as given.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from functools import cached_property

from .rational import InputError, Value, parse_int, parse_int_list

__all__ = [
    "FiniteGroup",
    "GroupTableError",
    "cyclic_group",
    "dihedral_group",
    "direct_product",
    "format_group",
    "generated_subgroup",
    "is_subgroup",
    "parse_group_file",
    "parse_group_text",
    "quaternion_group",
    "validate_group",
]


class GroupTableError(InputError):
    """Raised when a multiplication table violates a group axiom."""


class FiniteGroup(Value):
    """A group on 0..order-1 with product `mul(a, b)` and identity 0.
    Equality compares the products through `mul` and stops at the first
    difference; the hash is the order's."""

    __match_args__ = ("order", "mul")
    __slots__ = (*__match_args__, "__dict__")  # `__dict__` holds `generators`
    order: int
    mul: Callable[[int, int], int]
    identity = 0

    def __init__(self, order: int, mul: Callable[[int, int], int]) -> None:
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "mul", mul)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        elements = self.elements()
        return self.order == other.order and all(
            self.mul(a, b) == other.mul(a, b) for a in elements for b in elements
        )

    def __hash__(self) -> int:
        return hash(self.order)

    def elements(self) -> range:
        return range(self.order)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set, chosen greedily: the lowest element outside the
        subgroup generated so far joins it.  Each new generator at least
        doubles that subgroup (Lagrange), so there are at most log2 N."""
        gens: list[int] = []
        members = frozenset((self.identity,))
        for g in self.elements():
            if g not in members:
                gens.append(g)
                members = generated_subgroup(self, gens)
        return tuple(gens)

    def element_order(self, a: int) -> int:
        x = a
        n = 1
        while x != self.identity:
            x = self.mul(x, a)
            n += 1
        return n


def validate_group(table: list[list[int]]) -> FiniteGroup:
    """Check the group axioms; raise on the first failure.

    Range, Latin property and the identity at element 0 are checked row by
    row and column by column; a row whose `min` or `max` is out of range is
    scanned for its first bad entry.  Associativity uses Light's test:
    (a*s)*c = a*(s*c) for all a, c and each s in a generating set.  The s
    that pass are closed under products, and every element is a product of
    generators (`generated_subgroup`), so they are the whole table.  A
    failing table raises at its first failing s (in `generators` order), a
    and c.  The group returned reads its products from the rows.
    """
    n = len(table)
    if n == 0:
        raise GroupTableError("empty table")
    for g, row in enumerate(table):
        if len(row) != n:
            raise GroupTableError(f"row {g} has {len(row)} entries, expected {n}")
        if min(row) < 0 or max(row) >= n:
            h, v = next((h, v) for h, v in enumerate(row) if not 0 <= v < n)
            raise GroupTableError(f"entry [{g}][{h}]={v} out of range 0..{n - 1}")
    full = set(range(n))
    for g, (row, column) in enumerate(zip(table, zip(*table))):
        if set(row) != full:
            raise GroupTableError(f"row {g} is not a permutation (table not Latin)")
        if set(column) != full:
            raise GroupTableError(f"column {g} is not a permutation (table not Latin)")
    if any(table[0][g] != g or table[g][0] != g for g in range(n)):
        raise GroupTableError("element 0 is not the identity")
    rows = tuple(map(tuple, table))
    group = FiniteGroup(n, lambda a, b: rows[a][b])
    for s in group.generators:
        row_s = rows[s]
        for a, row_a in enumerate(rows):
            row_as, a_row_s = rows[row_a[s]], tuple(map(row_a.__getitem__, row_s))
            if row_as != a_row_s:
                c = next(c for c in range(n) if row_as[c] != a_row_s[c])
                raise GroupTableError(
                    f"associativity fails at ({a},{s},{c}): "
                    f"({a}*{s})*{c}={row_as[c]} but {a}*({s}*{c})={a_row_s[c]}"
                )
    return group


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupTableError(f"cyclic group order must be positive, got {n}")
    return FiniteGroup(n, lambda a, b: (a + b) % n)


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Product group with element (a1, a2) encoded as a1 * |G2| + a2."""
    n2 = g2.order
    mul1, mul2 = g1.mul, g2.mul

    def mul(a: int, b: int) -> int:
        a1, a2 = divmod(a, n2)
        b1, b2 = divmod(b, n2)
        return mul1(a1, b1) * n2 + mul2(a2, b2)

    return FiniteGroup(g1.order * n2, mul)


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; 0..n-1 are rotations, n..2n-1 reflections."""
    if n < 1:
        raise GroupTableError(f"dihedral parameter must be positive, got {n}")

    def mul(a: int, b: int) -> int:
        ra, fa = a % n, a // n
        rb, fb = b % n, b // n
        rot = (ra + rb) % n if fa == 0 else (ra - rb) % n
        return rot + n * (fa ^ fb)

    return FiniteGroup(2 * n, mul)


def quaternion_group() -> FiniteGroup:
    """Quaternion group of order 8: indices 0..7 = 1, i, j, k, -1, -i, -j, -k."""

    def axis_mul(a: int, b: int) -> tuple[int, int]:
        # axes: 0 = 1, 1 = i, 2 = j, 3 = k
        if a == 0:
            return (1, b)
        if b == 0:
            return (1, a)
        if a == b:
            return (-1, 0)
        # cyclic rule i*j = k and anticommutativity
        sign = 1 if (a, b) in ((1, 2), (2, 3), (3, 1)) else -1
        return (sign, 6 - a - b)

    def mul(x: int, y: int) -> int:
        sx, ax = (-1 if x >= 4 else 1), x % 4
        sy, ay = (-1 if y >= 4 else 1), y % 4
        s, axis = axis_mul(ax, ay)
        s *= sx * sy
        return axis if s == 1 else axis + 4

    return FiniteGroup(8, mul)


def is_subgroup(group: FiniteGroup, elements: list[int]) -> bool:
    """Whether `elements` is a subgroup.  A nonempty subset of a finite group
    that is closed under the product holds each a^-1 = a^(k-1), where k is
    the order of a, so the identity and closure are all that is checked."""
    members = set(elements)
    if group.identity not in members or not members.issubset(group.elements()):
        return False
    for a in members:
        for b in members:
            if group.mul(a, b) not in members:
                return False
    return True


def generated_subgroup(group: FiniteGroup, generators: list[int]) -> frozenset[int]:
    """The closure of {identity} under right multiplication by the generators:
    closed under products, so a subgroup (see `is_subgroup`)."""
    members = {group.identity}
    frontier = list(members)
    while frontier:
        a = frontier.pop()
        for g in generators:
            x = group.mul(a, g)
            if x not in members:
                members.add(x)
                frontier.append(x)
    return frozenset(members)


def keyed_lines(text: str, source: str, error: type[InputError]):
    """The line format shared by group and action files.

    Yields (where, key, value) for each line that is neither blank nor a
    `#` comment, where `where` is `source:lineno`.  A `key: value` line
    gives its stripped key and value; a line without ':' gives key None and
    the whole stripped line.  A key already seen on an earlier line raises
    `error`.
    """
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{source}:{lineno}"
        key, sep, value = line.partition(":")
        if not sep:
            yield where, None, line
            continue
        key = key.strip()
        if key in seen:
            raise error(f"{where}: repeated key {key!r} (first on line {seen[key]})")
        seen[key] = lineno
        yield where, key, value.strip()


def parse_group_text(text: str, source: str = "<string>") -> FiniteGroup:
    """Parse the group file format: `order: N` then N rows of N indices,
    checked by `validate_group`."""
    header = None
    rows: list[tuple[int, ...]] = []
    for where, key, value in keyed_lines(text, source, GroupTableError):
        if header is None:
            if key != "order":
                raise GroupTableError(f"{where}: expected 'order: N'")
            header = parse_int(value, GroupTableError, f"{where}: bad order {value!r}")
            continue
        if key is not None:
            raise GroupTableError(f"{where}: expected a table row, got key {key!r}")
        message = f"{where}: bad table row {value!r}"
        rows.append(parse_int_list(value, GroupTableError, message, sep=None))
    if header is None:
        raise GroupTableError(f"{source}: missing 'order:' header")
    if len(rows) != header:
        raise GroupTableError(
            f"{source}: expected {header} table rows, found {len(rows)}"
        )
    return validate_group(rows)


def read_utf8(path: str | os.PathLike, error: type[InputError]) -> str:
    """The text of a group or action file, without a leading byte-order
    mark; a file that is not UTF-8 raises `error` naming the path as given."""
    try:
        with open(path, encoding="utf-8-sig") as file:
            return file.read()
    except UnicodeDecodeError as exc:
        raise error(f"{os.fspath(path)}: {exc}") from None


def parse_group_file(path: str | os.PathLike) -> FiniteGroup:
    return parse_group_text(read_utf8(path, GroupTableError), source=os.fspath(path))


def format_group(group: FiniteGroup) -> str:
    elements = group.elements()
    lines = [f"order: {group.order}"]
    lines.extend(" ".join(str(group.mul(a, b)) for b in elements) for a in elements)
    return "\n".join(lines) + "\n"
