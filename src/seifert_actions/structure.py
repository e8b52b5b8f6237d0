"""Structure of acting groups: fiber-orientation classes and splittings.

The elements preserving fiber orientation (alpha = +1) form a subgroup of
index 1 or 2; its fiber rotations generate a cyclic subgroup of the circle.
When the index is 2, the extension by the reflection class splits iff some
orientation-reversing element has order 2.
"""

from __future__ import annotations

import math

from .action import ActionDataError, ExtendedActionData
from .rational import Value

__all__ = [
    "DIRECT_LIKE",
    "NO_SPLITTING",
    "SEMIDIRECT",
    "StructureReport",
    "find_splitting",
    "fop_subgroup",
    "format_report",
    "rotation_order",
    "structure_report",
]

DIRECT_LIKE = "direct-like"
SEMIDIRECT = "semidirect"
NO_SPLITTING = "no-splitting-found"


class StructureReport(Value):
    __slots__ = __match_args__ = (
        "fop_subgroup", "fop_index", "rotation_order", "splitting_element", "classification",
    )
    fop_subgroup: tuple[int, ...]
    fop_index: int
    rotation_order: int
    splitting_element: int | None
    classification: str

    def __init__(
        self,
        fop_subgroup: tuple[int, ...],
        fop_index: int,
        rotation_order: int,
        splitting_element: int | None,
        classification: str,
    ) -> None:
        object.__setattr__(self, "fop_subgroup", fop_subgroup)
        object.__setattr__(self, "fop_index", fop_index)
        object.__setattr__(self, "rotation_order", rotation_order)
        object.__setattr__(self, "splitting_element", splitting_element)
        object.__setattr__(self, "classification", classification)


def fop_subgroup(data: ExtendedActionData) -> list[int]:
    """Elements preserving the orientation of the fibers (alpha = +1).

    alpha(g*s) = alpha(g)*alpha(s) is checked for every g and each s in
    the group's generating set, or at (e, e) when it is empty, as in
    `verify_action`.  The s at which it holds for every g are closed under
    products, so it holds exactly when alpha is a homomorphism, that is,
    when its kernel is a subgroup of index 1 or 2.
    """
    group, alpha = data.group, data.alpha
    gens = group.generators or (group.identity,)
    if any(alpha[group.mul(g, s)] != alpha[g] * alpha[s] for g in group.elements() for s in gens):
        raise ActionDataError(
            "alpha is not a homomorphism: its kernel is not a subgroup of index 1 or 2"
        )
    return [g for g in group.elements() if alpha[g] == 1]


def rotation_order(data: ExtendedActionData) -> int:
    """Order of the cyclic rotation group generated by the fiber rotations
    of orientation-preserving elements.

    Computed from the recorded angles; for non-effective data this may be
    smaller than the rotation group of any effective refinement.
    """
    orders = [
        data.theta1[g].order for g in data.group.elements() if data.alpha[g] == 1
    ]
    return math.lcm(*orders) if orders else 1


def find_splitting(data: ExtendedActionData) -> int | None:
    """Lowest-index involution reversing the fiber orientation, if any."""
    group = data.group
    for g in group.elements():
        if data.alpha[g] == -1 and group.mul(g, g) == group.identity:
            return g
    return None


def structure_report(data: ExtendedActionData) -> StructureReport:
    members = fop_subgroup(data)
    index = data.group.order // len(members)
    splitting = find_splitting(data)
    if index == 1:
        classification = DIRECT_LIKE
    elif splitting is not None:
        classification = SEMIDIRECT
    else:
        classification = NO_SPLITTING
    return StructureReport(
        fop_subgroup=tuple(members),
        fop_index=index,
        rotation_order=rotation_order(data),
        splitting_element=splitting,
        classification=classification,
    )


def format_report(report: StructureReport) -> str:
    members = ", ".join(str(g) for g in report.fop_subgroup)
    splitting = (
        "none" if report.splitting_element is None else str(report.splitting_element)
    )
    return (
        f"fop_subgroup: {{{members}}}\n"
        f"fop_index: {report.fop_index}\n"
        f"rotation_order: {report.rotation_order}\n"
        f"splitting_element: {splitting}\n"
        f"classification: {report.classification}\n"
    )
