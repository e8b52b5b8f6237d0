"""Seifert presentations, gluing algebra, and finite fiber-preserving actions.

The eight library modules and the public names below are resolved on first
use (PEP 562): importing the package, or one of its modules, loads no other
library module.  Code that loads a module late reads it as an attribute of
the package, `seifert_actions.torus`, and never imports it in a function.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_MODULES = {
    "rational": ["Fraction", "RationalAngle", "angle"],
    "seifert": [
        "NormalizedPresentation",
        "SeifertPair",
        "SeifertPresentation",
        "equivalent",
        "euler_number",
        "gluing_pair",
        "normalize",
        "parse_presentation",
    ],
    "torus": ["TorusAutomorphism", "compose", "conjugate_by_gluing", "gluing_automorphism"],
    "orbifold": ["OrbifoldData", "euler_characteristic", "possible_orbit_numbers"],
    "obstruction": ["decompose", "rewrite_presentation", "satisfies_obstruction_divisibility"],
    "groups": ["FiniteGroup", "cyclic_group", "dihedral_group", "validate_group"],
    "action": [
        "ExtendedActionData", "boundary_action", "induced_filling_action", "verify_action",
    ],
    "structure": ["StructureReport", "structure_report"],
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _MODULES:
        # importing a submodule binds it here, so this runs once per module
        return importlib.import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Read from the defining module on every access and never stored here,
    # so that a wrapper installed on that module, or removed again, is seen.
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *_EXPORTS})
