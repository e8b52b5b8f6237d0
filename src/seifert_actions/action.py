"""Extended product actions: the data (theta1, alpha, beta, theta2) and its
compatibility laws, boundary evaluation, and transport across fillings.

A finite group acts on the trivially fibered piece by rotating fibers
(theta1), permuting boundary components (beta), rotating each boundary
circle (theta2), and possibly reflecting both directions (alpha = -1).  The
laws below are exactly what makes g -> (action of g) a homomorphism; they
are checked value-by-value, never assumed.

Composition convention: beta(g1*g2) = beta(g1) o beta(g2), i.e. the group
acts on boundary indices from the left.

`torus` and `obstruction` are read as attributes of the package by the
functions that use them, so checking an action loads neither.  An action
file's group file is its directory joined with the `group:` value.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction

import seifert_actions as lib

from .groups import FiniteGroup, GroupTableError, keyed_lines, parse_group_file, read_utf8
from .rational import (
    InputError, RationalAngle, Value, ZERO_ANGLE, parse_fraction, parse_int, parse_int_list,
    residues,
)
from .seifert import NormalizedPresentation, SeifertPair, parse_pair
from . import seifert

TYPE_CHECKING = False  # type checkers read this name as True
if TYPE_CHECKING:
    from .obstruction import ObstructionWitness
    from .torus import TorusAutomorphism

__all__ = [
    "ActionDataError",
    "ActionFormatError",
    "ExtendedActionData",
    "SolidTorusPoint",
    "UnsupportedExtensionError",
    "action_obstruction_check",
    "boundary_action",
    "boundary_orbit_numbers",
    "format_action",
    "induced_filling_action",
    "kernel_on_boundary",
    "parse_action_file",
    "parse_action_text",
    "solid_torus_eval",
    "verify_action",
]


class ActionDataError(InputError):
    """Raised for structurally malformed action data."""


class ActionFormatError(InputError):
    """Raised for unparseable action files."""


class UnsupportedExtensionError(InputError):
    """Raised when a boundary map does not cone over the solid torus."""


class ExtendedActionData(Value):
    """Per-element action data on the boundary of the fibered piece.

    alpha, theta1, beta and theta2 are indexed by element; theta2[g][i] is
    the rotation of boundary circle i under g.  beta images are 0-based
    boundary indices.
    """

    __slots__ = __match_args__ = ("group", "pairs", "alpha", "theta1", "beta", "theta2")
    group: FiniteGroup
    pairs: tuple[SeifertPair, ...]
    alpha: tuple[int, ...]
    theta1: tuple[RationalAngle, ...]
    beta: tuple[tuple[int, ...], ...]
    theta2: tuple[tuple[RationalAngle, ...], ...]

    def __init__(
        self,
        group: FiniteGroup,
        pairs: tuple[SeifertPair, ...],
        alpha: tuple[int, ...],
        theta1: tuple[RationalAngle, ...],
        beta: tuple[tuple[int, ...], ...],
        theta2: tuple[tuple[RationalAngle, ...], ...],
    ) -> None:
        n = len(pairs)
        order = group.order
        if n < 1:
            raise ActionDataError("at least one boundary component is required")
        for pair in pairs:
            seifert.require_pair(pair, ActionDataError)
        fields = {"alpha": alpha, "theta1": theta1, "beta": beta, "theta2": theta2}
        for name, seq in fields.items():
            if len(seq) != order:
                raise ActionDataError(
                    f"{name} has {len(seq)} entries, expected one per element ({order})"
                )
        for g, value in enumerate(alpha):
            if value not in (-1, 1):
                raise ActionDataError(f"alpha[{g}]={value} must be +1 or -1")
        for g, perm in enumerate(beta):
            if sorted(perm) != list(range(n)):
                raise ActionDataError(
                    f"beta must be a permutation of 0..{n - 1}, got beta[{g}]={perm}"
                )
        for g, row in enumerate(theta2):
            if len(row) != n:
                raise ActionDataError(
                    f"theta2[{g}] has {len(row)} angles, expected {n}"
                )
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "theta1", theta1)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "theta2", theta2)

    @property
    def n_boundary(self) -> int:
        return len(self.pairs)


def _residues(data: ExtendedActionData) -> tuple:
    """(L, theta1, theta2) with every angle t of the data as the int t*L in
    [0, L), where L is the lcm of their denominators (`rational.residues`)."""
    den, res = residues((*data.theta1, *(t for row in data.theta2 for t in row)))
    size, n = len(data.theta1), data.n_boundary
    return den, tuple(res[:size]), tuple(tuple(res[k:k + n]) for k in range(size, len(res), n))


def _law_problems(data: ExtendedActionData, res: tuple, g1: int, g2: int) -> list[str]:
    """The compatibility laws at (g1, g2), in report order: g1*g2 must act
    as g2 followed by g1.  The angle laws compare the int residues mod L
    of `_residues(data)`; a failing law prints the stored angle and the
    law's value Fraction(residue, L), the same reduced text as an angle."""
    den, t1, t2 = res
    g12 = data.group.mul(g1, g2)
    a1 = data.alpha[g1]
    beta2 = data.beta[g2]
    problems = []
    if data.alpha[g12] != a1 * data.alpha[g2]:
        problems.append(
            f"alpha is not a homomorphism at ({g1},{g2}): "
            f"alpha({g12})={data.alpha[g12]:+d} but product is "
            f"{a1 * data.alpha[g2]:+d}"
        )
    if t1[g12] != (expected1 := (t1[g1] + a1 * t1[g2]) % den):
        problems.append(
            f"theta1 twisted-cocycle law fails at ({g1},{g2}): "
            f"theta1({g12})={data.theta1[g12]} but law gives "
            f"{Fraction(expected1, den)}"
        )
    composed = tuple(map(data.beta[g1].__getitem__, beta2))
    if data.beta[g12] != composed:
        problems.append(
            f"beta is not a homomorphism at ({g1},{g2}): "
            f"beta({g12})={data.beta[g12]} but composition is {composed}"
        )
    row1, row2, row12 = t2[g1], t2[g2], t2[g12]
    for i, j in enumerate(beta2):
        if row12[i] != (expected2 := (row1[j] + a1 * row2[i]) % den):
            problems.append(
                f"theta2 twisted-cocycle law fails at ({g1},{g2}) on "
                f"boundary {i}: theta2({g12},{i})={data.theta2[g12][i]} "
                f"but law gives {Fraction(expected2, den)}"
            )
    return problems


def verify_action(data: ExtendedActionData) -> list[str]:
    """Check the compatibility laws and that beta only permutes equal
    fillings; an empty report means the data defines a group action.

    The laws at (g, h) say that g*h acts as h followed by g, so the h at
    which they hold for every g are closed under products.  Checking (g, s)
    for s in the group's generating set, or (e, e) when that set is empty,
    thus covers every pair in O(N*|S|*n) steps.  Failing data gets the full
    O(N^2*n) scan, so the report lists every violation in order.  The angle
    laws compare int residues mod the lcm L of the action's angle
    denominators, not angles; the report prints the same reduced fractions
    that angle arithmetic would.
    """
    group = data.group
    elements = group.elements()
    gens = group.generators or (group.identity,)
    res = _residues(data)
    problems = []
    if any(_law_problems(data, res, g, s) for g in elements for s in gens):
        problems = [
            problem
            for g1 in elements
            for g2 in elements
            for problem in _law_problems(data, res, g1, g2)
        ]
    for g in group.elements():
        for i, j in enumerate(data.beta[g]):
            if data.pairs[i] != data.pairs[j]:
                problems.append(
                    f"beta({g}) sends boundary {i} to {j} but the fillings "
                    f"differ: {data.pairs[i]} vs {data.pairs[j]}"
                )
    return problems


def _require_element_and_index(data: ExtendedActionData, g: int, i: int) -> None:
    if not 0 <= g < data.group.order:
        raise ActionDataError(f"element {g} out of range 0..{data.group.order - 1}")
    if not 0 <= i < data.n_boundary:
        raise ActionDataError(f"boundary index {i} out of range 0..{data.n_boundary - 1}")


def boundary_action(
    data: ExtendedActionData, g: int, i: int
) -> tuple[int, TorusAutomorphism]:
    """Action of g on boundary torus i of the fibered piece: the target
    index and the map (u, v) -> (theta1(g) u^alpha, theta2(i,g) v^alpha)."""
    _require_element_and_index(data, g, i)
    a = data.alpha[g]
    return data.beta[g][i], lib.torus.TorusAutomorphism(
        a, 0, 0, a, data.theta1[g], data.theta2[g][i]
    )


def induced_filling_action(
    data: ExtendedActionData, g: int, i: int
) -> tuple[int, TorusAutomorphism]:
    """Action of g on the boundary of filled solid torus i, in the filling
    framing: phases (-q*theta1 + p*theta2, y*theta1 - x*theta2).

    The closed-form side of criterion 05: it equals the boundary action
    conjugated by the attaching map, exactly, and uses angle arithmetic on
    purpose, so it shares none with `torus.conjugate_by_gluing`.
    """
    _require_element_and_index(data, g, i)
    pair = data.pairs[i]
    gp = seifert.gluing_pair(pair)
    a = data.alpha[g]
    t1, t2 = data.theta1[g], data.theta2[g][i]
    return data.beta[g][i], lib.torus.TorusAutomorphism(
        a,
        0,
        0,
        a,
        t1.scale(-pair.q) + t2.scale(pair.p),
        t1.scale(gp.y) + t2.scale(-gp.x),
    )


class SolidTorusPoint(Value):
    """Point (u, r, v) of S^1 x D with the disc in polar form.

    The meridian angle is meaningless on the core circle, so it is
    canonicalized to 0 whenever r = 0.  The radius must be an int or a
    Fraction; any other type raises TypeError.
    """

    __slots__ = __match_args__ = ("longitude", "radius", "meridian")
    longitude: RationalAngle
    radius: Fraction
    meridian: RationalAngle

    def __init__(
        self, longitude: RationalAngle, radius: Fraction, meridian: RationalAngle
    ) -> None:
        if not isinstance(radius, (Fraction, int)):
            raise TypeError(f"radius must be an int or Fraction, got {radius!r}")
        if not 0 <= radius <= 1:
            raise InputError(f"radius must lie in [0, 1], got {radius}")
        object.__setattr__(self, "longitude", longitude)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "meridian", ZERO_ANGLE if radius == 0 else meridian)


def solid_torus_eval(
    filling_action: TorusAutomorphism, point: SolidTorusPoint
) -> SolidTorusPoint:
    """Extend a boundary map over the solid torus by coning inwards.

    Only maps with matrix +-identity extend this way: the boundary rotations
    apply at every radius and the radius is preserved.
    """
    m = filling_action.matrix()
    if m == (1, 0, 0, 1):
        sign = 1
    elif m == (-1, 0, 0, -1):
        sign = -1
    else:
        raise UnsupportedExtensionError(
            f"matrix {m} is not +-identity; the map does not cone radially"
        )
    return SolidTorusPoint(
        filling_action.phase1 + point.longitude.scale(sign),
        point.radius,
        filling_action.phase2 + point.meridian.scale(sign),
    )


def boundary_orbit_numbers(data: ExtendedActionData) -> dict[int, int]:
    """Orbit size of each boundary index under the permutation part."""
    sizes = {}
    for i in range(data.n_boundary):
        orbit = {data.beta[g][i] for g in data.group.elements()}
        sizes[i] = len(orbit)
    return sizes


def action_obstruction_check(
    data: ExtendedActionData,
    pres: NormalizedPresentation,
    regular_orbits: tuple[int, ...] = (),
) -> ObstructionWitness | None:
    """Decide the obstruction condition for this action on this manifold.

    The critical fillings of the action, as (q, p mod q), must match the
    critical pairs of the presentation.  Orbit numbers come from the
    permutation part of the action; orbit numbers of interior regular
    fibers, which the boundary data cannot see, may be supplied by the caller.
    """
    critical = sorted(SeifertPair(pair.q, pair.p % pair.q) for pair in data.pairs if pair.q >= 2)
    if critical != sorted(pres.pairs):
        raise ActionDataError(
            "critical fillings of the action do not match the presentation: "
            f"{critical} vs {sorted(pres.pairs)}"
        )
    numbers = set(boundary_orbit_numbers(data).values())
    numbers.update(regular_orbits)
    return lib.obstruction.decompose(pres.b, sorted(numbers))


def kernel_on_boundary(data: ExtendedActionData) -> list[int]:
    """Elements acting trivially on every boundary datum; always normal."""
    trivial_beta = tuple(range(data.n_boundary))
    return [
        g
        for g in data.group.elements()
        if data.alpha[g] == 1
        and data.beta[g] == trivial_beta
        and data.theta1[g].is_zero()
        and all(data.theta2[g][i].is_zero() for i in range(data.n_boundary))
    ]


def _parse_angle(text: str, where: str, angles: dict[str, RationalAngle]) -> RationalAngle:
    """The angle a token gives.  `angles` maps the tokens already read from
    one file to their angles, so each distinct token is parsed once; a bad
    token is not stored and raises where it is read."""
    angle = angles.get(text)
    if angle is None:
        message = f"{where}: bad angle {text!r}"
        angle = angles[text] = RationalAngle(parse_fraction(text, ActionFormatError, message))
    return angle


def _parse_element(
    where: str, text: str, n: int, angles: dict[str, RationalAngle]
) -> tuple:
    """(alpha, theta1, beta, theta2) from the `name=value` fields of one
    element line; a name may appear once."""
    fields: dict[str, str] = {}
    for tok in text.split():
        name, sep, value = tok.partition("=")
        if not sep:
            raise ActionFormatError(f"{where}: expected name=value, got {tok!r}")
        if name in fields:
            raise ActionFormatError(f"{where}: repeated field {name!r}")
        fields[name] = value
    missing = {"alpha", "theta1", "beta", "theta2"} - fields.keys()
    if missing:
        raise ActionFormatError(f"{where}: missing fields {sorted(missing)}")
    if fields["alpha"] not in ("+1", "-1", "1"):
        raise ActionFormatError(f"{where}: alpha must be +1 or -1")
    theta1 = _parse_angle(fields["theta1"], where, angles)
    perm_text = fields["beta"]
    if not (perm_text.startswith("(") and perm_text.endswith(")")):
        raise ActionFormatError(f"{where}: beta must be parenthesized")
    images = parse_int_list(
        perm_text[1:-1], ActionFormatError, f"{where}: bad beta {perm_text!r}"
    )
    if sorted(images) != list(range(1, n + 1)):
        raise ActionFormatError(f"{where}: beta must be a permutation of 1..{n}")
    angle_toks = fields["theta2"].split(",")
    if len(angle_toks) != n:
        raise ActionFormatError(
            f"{where}: theta2 needs {n} angles, got {len(angle_toks)}"
        )
    return (
        1 if fields["alpha"] in ("+1", "1") else -1,
        theta1,
        tuple(i - 1 for i in images),
        tuple(_parse_angle(tok, where, angles) for tok in angle_toks),
    )


def parse_action_text(
    text: str, base_dir: str | os.PathLike = ".", source: str = "<string>"
) -> ExtendedActionData:
    """Parse an action file.

    Format: a `group:` line naming the group file (relative to the action
    file), a `pairs:` line listing the fillings as parenthesized pairs, each
    as spaced as `seifert.parse_pair` allows, then one line per element:

        g: alpha=+1 theta1=1/3 beta=(2,3,1) theta2=0,0,1/2

    beta is in one-line notation on the 1-based boundary indices 1..n.
    Element indices and beta images are integer tokens (`rational.INT`); no
    key, element or field may repeat.
    """
    group = None
    pairs = None
    element_lines = {}
    for where, key, value in keyed_lines(text, source, ActionFormatError):
        if key is None:
            raise ActionFormatError(f"{where}: expected 'key: value'")
        if key == "group":
            if not value:
                raise ActionFormatError(f"{where}: empty group file name")
            if "\0" in value:
                raise ActionFormatError(f"{where}: group file name {value!r} holds a NUL byte")
            try:
                group = parse_group_file(os.path.join(base_dir, value))
            except (GroupTableError, OSError) as exc:
                raise ActionFormatError(f"{where}: {exc}") from None
        elif key == "pairs":
            try:
                pieces = (piece.strip() for piece in re.split(r"(?<=\))", value))
                pairs = tuple(parse_pair(piece) for piece in pieces if piece)
            except seifert.PresentationError as exc:
                raise ActionFormatError(f"{where}: {exc}") from None
            if problems := seifert.pair_problems(pairs):
                raise ActionFormatError(f"{where}: {problems[0]}")
        else:
            g = parse_int(key, ActionFormatError, f"{where}: unknown key {key!r}")
            if g in element_lines:
                raise ActionFormatError(f"{where}: repeated element {g}")
            element_lines[g] = (where, value)
    if group is None:
        raise ActionFormatError(f"{source}: missing 'group:' line")
    if pairs is None or not pairs:
        raise ActionFormatError(f"{source}: missing or empty 'pairs:' line")
    rows = []
    angles: dict[str, RationalAngle] = {}
    for g in range(group.order):
        if g not in element_lines:
            raise ActionFormatError(f"{source}: missing line for element {g}")
        rows.append(_parse_element(*element_lines[g], len(pairs), angles))
    for g, (where, _) in element_lines.items():
        if not 0 <= g < group.order:
            raise ActionFormatError(f"{where}: element {g} out of range 0..{group.order - 1}")
    alpha, theta1, beta, theta2 = zip(*rows)
    return ExtendedActionData(group, pairs, alpha, theta1, beta, theta2)


def parse_action_file(path: str | os.PathLike) -> ExtendedActionData:
    text = read_utf8(path, ActionFormatError)
    return parse_action_text(text, os.path.dirname(path), os.fspath(path))


def format_action(data: ExtendedActionData, group_path: str) -> str:
    lines = [f"group: {group_path}"]
    lines.append("pairs: " + " ".join(str(pair) for pair in data.pairs))
    for g in data.group.elements():
        beta = ",".join(str(i + 1) for i in data.beta[g])
        theta2 = ",".join(str(data.theta2[g][i]) for i in range(data.n_boundary))
        lines.append(
            f"{g}: alpha={data.alpha[g]:+d} theta1={data.theta1[g]} "
            f"beta=({beta}) theta2={theta2}"
        )
    return "\n".join(lines) + "\n"
