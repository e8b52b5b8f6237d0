"""Seifert presentations, gluing algebra, and finite fiber-preserving actions."""

__version__ = "0.1.0"

from .rational import Fraction, RationalAngle, angle
from .seifert import (
    NormalizedPresentation,
    SeifertPair,
    SeifertPresentation,
    equivalent,
    euler_number,
    gluing_pair,
    normalize,
    parse_presentation,
)
from .torus import TorusAutomorphism, compose, conjugate_by_gluing, gluing_automorphism
from .orbifold import OrbifoldData, euler_characteristic, possible_orbit_numbers
from .obstruction import decompose, rewrite_presentation, satisfies_obstruction_divisibility
from .groups import FiniteGroup, cyclic_group, dihedral_group, validate_group
from .action import ExtendedActionData, boundary_action, induced_filling_action, verify_action
from .structure import StructureReport, structure_report
