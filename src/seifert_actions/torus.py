"""Boundary-torus self-maps as integer matrices with rational phase data.

An automorphism models (u, v) -> (c1 * u^a * v^b, c2 * u^c * v^d) on
S^1 x S^1, recorded by the homology matrix [[a, b], [c, d]] (determinant
+-1) and the phases of the constants c1, c2.  This level of detail is
exactly what survives on homology plus the rotation data, and it is enough
to decide finite order and to transport boundary actions across fillings.
"""

from __future__ import annotations

import math

from .rational import InputError, RationalAngle, Value, ZERO_ANGLE
from .seifert import SeifertPair, gluing_pair

__all__ = [
    "IDENTITY",
    "TorusAutomorphism",
    "compose",
    "conjugate_by_gluing",
    "format_automorphism",
    "gluing_automorphism",
    "inverse",
    "order",
    "power",
]

class TorusAutomorphism(Value):
    """The matrix entries must be ints (any other type raises TypeError)
    forming a matrix of determinant +-1 (otherwise InputError)."""

    __slots__ = __match_args__ = ("m11", "m12", "m21", "m22", "phase1", "phase2")
    m11: int
    m12: int
    m21: int
    m22: int
    phase1: RationalAngle
    phase2: RationalAngle

    def __init__(
        self,
        m11: int,
        m12: int,
        m21: int,
        m22: int,
        phase1: RationalAngle = ZERO_ANGLE,
        phase2: RationalAngle = ZERO_ANGLE,
    ) -> None:
        if not (
            isinstance(m11, int) and isinstance(m12, int)
            and isinstance(m21, int) and isinstance(m22, int)
        ):
            raise TypeError(f"matrix entries must be ints, got {(m11, m12, m21, m22)!r}")
        if abs(m11 * m22 - m12 * m21) != 1:
            raise InputError(
                f"matrix [[{m11},{m12}],[{m21},{m22}]] is not invertible over the integers"
            )
        object.__setattr__(self, "m11", m11)
        object.__setattr__(self, "m12", m12)
        object.__setattr__(self, "m21", m21)
        object.__setattr__(self, "m22", m22)
        object.__setattr__(self, "phase1", phase1)
        object.__setattr__(self, "phase2", phase2)

    @property
    def det(self) -> int:
        return self.m11 * self.m22 - self.m12 * self.m21

    def matrix(self) -> tuple[int, int, int, int]:
        return (self.m11, self.m12, self.m21, self.m22)

    def is_identity(self) -> bool:
        return (
            self.matrix() == (1, 0, 0, 1)
            and self.phase1.is_zero()
            and self.phase2.is_zero()
        )

    def __str__(self) -> str:
        return format_automorphism(self)


IDENTITY = TorusAutomorphism(1, 0, 0, 1)


def compose(f: TorusAutomorphism, g: TorusAutomorphism) -> TorusAutomorphism:
    """f after g: matrix product, phases M_f * phase(g) + phase(f)."""
    return TorusAutomorphism(
        f.m11 * g.m11 + f.m12 * g.m21,
        f.m11 * g.m12 + f.m12 * g.m22,
        f.m21 * g.m11 + f.m22 * g.m21,
        f.m21 * g.m12 + f.m22 * g.m22,
        g.phase1.scale(f.m11) + g.phase2.scale(f.m12) + f.phase1,
        g.phase1.scale(f.m21) + g.phase2.scale(f.m22) + f.phase2,
    )


def inverse(f: TorusAutomorphism) -> TorusAutomorphism:
    d = f.det
    i11, i12 = f.m22 * d, -f.m12 * d
    i21, i22 = -f.m21 * d, f.m11 * d
    return TorusAutomorphism(
        i11,
        i12,
        i21,
        i22,
        -(f.phase1.scale(i11) + f.phase2.scale(i12)),
        -(f.phase1.scale(i21) + f.phase2.scale(i22)),
    )


def power(f: TorusAutomorphism, k: int) -> TorusAutomorphism:
    if k < 0:
        return power(inverse(f), -k)
    result = IDENTITY
    for _ in range(k):
        result = compose(result, f)
    return result


def order(f: TorusAutomorphism) -> int | None:
    """Least k >= 1 with f^k = identity (matrix and phases), None if infinite.

    An integer matrix of determinant 1 has finite order exactly when it is
    +-I or |trace| < 2, and one of determinant -1 exactly when its trace is
    0; that order is then 1, 2, 3, 4 or 6.  Once the matrix part reaches the
    identity after k0 steps, the remaining phase vector lives in (Q/Z)^2
    and its order is the lcm of the denominators.
    """
    trace = f.m11 + f.m22
    if f.det == 1:
        finite = abs(trace) < 2 or f.matrix() in ((1, 0, 0, 1), (-1, 0, 0, -1))
    else:
        finite = trace == 0
    if not finite:
        return None
    stabilized, matrix_order = f, 1
    while stabilized.matrix() != (1, 0, 0, 1):
        stabilized = compose(stabilized, f)
        matrix_order += 1
    phase_order = math.lcm(stabilized.phase1.order, stabilized.phase2.order)
    return matrix_order * phase_order


def conjugate_by_gluing(
    f: TorusAutomorphism, d: TorusAutomorphism
) -> TorusAutomorphism:
    """Transport f across an attaching map d: returns d^-1 after f after d."""
    return compose(inverse(d), compose(f, d))


def gluing_automorphism(pair: SeifertPair) -> TorusAutomorphism:
    """Attaching map of a filling pair as a phase-free automorphism.

    The matrix is [[x, p], [y, q]] with x*q - y*p = -1, sending the solid
    torus framing to the framing of the boundary torus it fills.
    """
    return TorusAutomorphism(*gluing_pair(pair).matrix())


def format_automorphism(f: TorusAutomorphism) -> str:
    return (
        f"[[{f.m11},{f.m12}],[{f.m21},{f.m22}]] + ({f.phase1}, {f.phase2})"
    )
