"""Command-line front end.

Exit statuses: 0 for success or a positive decision, 3 for a negative
decision (not equivalent, obstruction unsatisfied, invalid data), 2 for
parse or usage errors.  Output is plain text and byte-for-byte
deterministic for identical inputs.

Handlers read the library modules as attributes of the package, which
loads each one on first use (`seifert_actions.__getattr__`), so a call
loads only the modules its verb uses, and `--help`, `--version` and usage
errors load none.  An input error is a `rational.InputError` or an
OSError; any other exception is a fault and is not caught.
"""

from __future__ import annotations

import argparse
import functools
import sys

import seifert_actions as lib

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_NEGATIVE = 3


def _parse_int_list(text: str, name: str) -> tuple[int, ...]:
    return lib.rational.parse_int_list(text, lib.rational.InputError, f"bad {name}: {text!r}")


def _parse_partition(text: str) -> list[list[int]]:
    """Classes separated by ';', 1-based slots separated by ','; no class
    is empty."""
    classes = []
    for part in text.split(";"):
        slots = _parse_int_list(part, "partition list")
        if not slots:
            raise lib.rational.InputError(f"bad partition list: {text!r}")
        classes.append([slot - 1 for slot in slots])
    return classes


def _load_verified_action(path: str):
    data = lib.action.parse_action_file(path)
    problems = lib.action.verify_action(data)
    if problems:
        raise lib.rational.InputError(
            f"{path} is not a valid action: {problems[0]}"
            + (f" (+{len(problems) - 1} more)" if len(problems) > 1 else "")
        )
    return data


def _decide(positive: bool, yes: str, no: str) -> int:
    """Print `yes` or `no` as the answer: exit 0 for yes, 3 for no."""
    print(yes if positive else no)
    return EXIT_OK if positive else EXIT_NEGATIVE


def _cmd_validate(args) -> int:
    seifert = lib.seifert
    problems = seifert.validate(seifert.parse_presentation(args.presentation))
    return _decide(not problems, "ok", "\n".join(problems))


def _cmd_normalize(args) -> int:
    seifert = lib.seifert
    pres = seifert.parse_presentation(args.presentation)
    print(seifert.format_normalized(seifert.normalize(pres)))
    return EXIT_OK


def _cmd_equiv(args) -> int:
    seifert = lib.seifert
    a = seifert.parse_presentation(args.presentation_a)
    b = seifert.parse_presentation(args.presentation_b)
    return _decide(seifert.equivalent(a, b), "equivalent", "not equivalent")


def _cmd_euler(args) -> int:
    seifert = lib.seifert
    print(seifert.euler_number(seifert.parse_presentation(args.presentation)))
    return EXIT_OK


def _cmd_glue_pair(args) -> int:
    seifert = lib.seifert
    gp = seifert.gluing_pair(seifert.parse_pair(args.pair))
    fq, fy = seifert.induced_fibration(gp)
    print(f"x={gp.x} y={gp.y}")
    print(f"fibration: ({fq},{fy})")
    return EXIT_OK


def _cmd_orbifold_chi(args) -> int:
    orbifold = lib.orbifold
    orb = orbifold.parse_orbifold(args.orbifold)
    print(orbifold.euler_characteristic(orb))
    if args.sign:
        print(orbifold.geometry_sign(orb))
    return EXIT_OK


def _cmd_orbit_numbers(args) -> int:
    orbifold = lib.orbifold
    numbers = orbifold.possible_orbit_numbers(args.order, orbifold.parse_orbifold(args.orbifold))
    print(" ".join(str(n) for n in sorted(numbers)))
    return EXIT_OK


def _cmd_check_obstruction(args) -> int:
    obstruction = lib.obstruction
    orb = lib.orbifold.parse_orbifold(args.orbifold)
    print(f"divisor: {obstruction.obstruction_divisor(args.order, orb)}")
    satisfied = obstruction.satisfies_obstruction_divisibility(args.b, args.order, orb)
    return _decide(satisfied, "satisfied", "not satisfied")


def _cmd_decompose(args) -> int:
    obstruction = lib.obstruction
    witness = obstruction.decompose(args.b, _parse_int_list(args.orbits, "orbit list"))
    if witness is None:
        print("impossible")
        return EXIT_NEGATIVE
    print(obstruction.format_witness(args.b, witness))
    return EXIT_OK


def _cmd_rewrite(args) -> int:
    seifert, obstruction = lib.seifert, lib.obstruction
    norm = seifert.normalize(seifert.parse_presentation(args.presentation))
    h = obstruction.HFunction(_parse_int_list(args.h, "h list"))
    partition = None if args.partition is None else _parse_partition(args.partition)
    print(seifert.format_presentation(obstruction.rewrite_presentation(norm, h, partition)))
    return EXIT_OK


def _cmd_verify_action(args) -> int:
    problems = lib.action.verify_action(lib.action.parse_action_file(args.action_file))
    return _decide(not problems, "ok", "\n".join(problems))


def _cmd_torus_map(query: str, args) -> int:
    """boundary-action and filling-action: the library query `query` for
    one element on one boundary torus of a verified action."""
    data = _load_verified_action(args.action_file)
    if not 1 <= args.index <= data.n_boundary:
        raise lib.rational.InputError(
            f"boundary index {args.index} out of range 1..{data.n_boundary}"
        )
    # looked up per call, so that wrappers installed on the module are seen
    target, auto = getattr(lib.action, query)(data, args.element, args.index - 1)
    print(f"target: {target + 1}")
    print(f"map: {auto}")
    return EXIT_OK


def _cmd_orbits(args) -> int:
    data = _load_verified_action(args.action_file)
    sizes = lib.action.boundary_orbit_numbers(data)
    for i in range(data.n_boundary):
        print(f"{i + 1}: {sizes[i]}")
    return EXIT_OK


def _cmd_structure(args) -> int:
    structure = lib.structure
    data = _load_verified_action(args.action_file)
    sys.stdout.write(structure.format_report(structure.structure_report(data)))
    return EXIT_OK


# An argument is a positional name, or (flag, add_argument keywords).
_ORDER = ("--order", {"type": int, "required": True, "help": "effective group order"})
_ELEMENT = ("--element", {"type": int, "required": True, "help": "element index"})
_INDEX = ("--index", {"type": int, "required": True, "help": "boundary index (1-based)"})

# (verb, handler, help, arguments), in the order `--help` lists them.
VERBS = [
    ("validate", _cmd_validate, "check presentation invariants", ["presentation"]),
    ("normalize", _cmd_normalize, "canonical form of a presentation", ["presentation"]),
    ("equiv", _cmd_equiv, "fiber-preserving equivalence of presentations",
     ["presentation_a", "presentation_b"]),
    ("euler", _cmd_euler, "Euler number of a presentation", ["presentation"]),
    ("glue-pair", _cmd_glue_pair, "gluing exponents of a filling pair",
     [("pair", {"help": "a pair written (q,p)"})]),
    ("orbifold-chi", _cmd_orbifold_chi, "orbifold Euler characteristic", [
        ("orbifold", {"help": "genus:g cone:(...) corner:(...)"}),
        ("--sign", {"action": "store_true", "help": "also print the geometry sign"}),
    ]),
    ("orbit-numbers", _cmd_orbit_numbers, "possible orbit sizes over a quotient",
     ["orbifold", _ORDER]),
    ("check-obstruction", _cmd_check_obstruction, "divisibility form of the condition", [
        "orbifold",
        ("--b", {"type": int, "required": True, "help": "obstruction class"}),
        _ORDER,
    ]),
    ("decompose", _cmd_decompose, "witness b as a combination of orbit sizes", [
        ("--b", {"type": int, "required": True}),
        ("--orbits", {"required": True, "help": "comma-separated orbit sizes"}),
    ]),
    ("rewrite", _cmd_rewrite, "spread the class b over fiber slots", [
        "presentation",
        ("--h", {"required": True, "help": "comma-separated slot values"}),
        ("--partition", {
            "help": "orbit classes of slots, e.g. '1,2;3' (1-based, ';'-separated)",
        }),
    ]),
    ("verify-action", _cmd_verify_action, "check the action compatibility laws",
     ["action_file"]),
    ("boundary-action", functools.partial(_cmd_torus_map, "boundary_action"),
     "action on a boundary torus", ["action_file", _ELEMENT, _INDEX]),
    ("filling-action", functools.partial(_cmd_torus_map, "induced_filling_action"),
     "induced action on a filled torus", ["action_file", _ELEMENT, _INDEX]),
    ("orbits", _cmd_orbits, "boundary orbit numbers of an action", ["action_file"]),
    ("structure", _cmd_structure, "group-structure report of an action", ["action_file"]),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seifert-actions",
        description=(
            "Compute with Seifert presentations, gluing data, and finite "
            "fiber-preserving group actions."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"seifert-actions {lib.__version__}"
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, handler, help_text, arguments in VERBS:
        p = sub.add_parser(verb, help=help_text)
        # `type=int` arguments read the shared integer grammar, which loads
        # `rational` at the first one; argparse still reports a bad one as
        # "invalid int value"
        p.register("type", int, lambda text: lib.rational.parse_int(text))
        for argument in arguments:
            name, keywords = (argument, {}) if isinstance(argument, str) else argument
            p.add_argument(name, **keywords)
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (lib.rational.InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
