"""Command-line front end.

Exit statuses: 0 for success or a positive decision, 3 for a negative
decision (not equivalent, obstruction unsatisfied, invalid data), 2 for
parse or usage errors.  Output is plain text and byte-for-byte
deterministic for identical inputs.

A handler maps the parsed arguments to `(exit status, *answer)`; `main`
alone turns the answer into text, one line per item, a `(label, value)`
item as `label: value`.  It rejects (exit 2) an answer with an integer too
long for `str()` rather than lift the interpreter's digit limit, which also
caps the integers read from the input.

Handlers read the library modules as attributes of the package, which
loads each one on first use (`seifert_actions.__getattr__`), so a call
loads only the modules its verb uses, and `--help`, `--version` and usage
errors load none.  An input error is a `rational.InputError` or an
OSError; any other exception is a fault and is not caught.
"""

from __future__ import annotations

import argparse
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


def _decide(positive: bool, yes: str, no: str) -> tuple:
    """Answer `yes` (exit 0) or `no` (exit 3)."""
    return (EXIT_OK, yes) if positive else (EXIT_NEGATIVE, no)


def _cmd_validate(args) -> tuple:
    seifert = lib.seifert
    problems = seifert.validate(seifert.parse_presentation(args.presentation))
    return _decide(not problems, "ok", "\n".join(problems))


def _cmd_normalize(args) -> tuple:
    seifert = lib.seifert
    pres = seifert.parse_presentation(args.presentation)
    return EXIT_OK, seifert.normalize(pres)


def _cmd_equiv(args) -> tuple:
    seifert = lib.seifert
    a = seifert.parse_presentation(args.presentation_a)
    b = seifert.parse_presentation(args.presentation_b)
    return _decide(seifert.equivalent(a, b), "equivalent", "not equivalent")


def _cmd_euler(args) -> tuple:
    seifert = lib.seifert
    return EXIT_OK, seifert.euler_number(seifert.parse_presentation(args.presentation))


def _cmd_glue_pair(args) -> tuple:
    seifert = lib.seifert
    gp = seifert.gluing_pair(seifert.parse_pair(args.pair))
    fq, fy = seifert.induced_fibration(gp)
    return EXIT_OK, f"x={gp.x} y={gp.y}", ("fibration", f"({fq},{fy})")


def _cmd_orbifold_chi(args) -> tuple:
    orbifold = lib.orbifold
    orb = orbifold.parse_orbifold(args.orbifold)
    chi = orbifold.euler_characteristic(orb)
    return (EXIT_OK, chi, orbifold.geometry_sign(orb)) if args.sign else (EXIT_OK, chi)


def _cmd_orbit_numbers(args) -> tuple:
    orbifold = lib.orbifold
    numbers = orbifold.possible_orbit_numbers(args.order, orbifold.parse_orbifold(args.orbifold))
    return EXIT_OK, " ".join(str(n) for n in sorted(numbers))


def _cmd_check_obstruction(args) -> tuple:
    orb = lib.orbifold.parse_orbifold(args.orbifold)
    divisor = lib.obstruction.obstruction_divisor(args.order, orb)
    status, verdict = _decide(args.b % divisor == 0, "satisfied", "not satisfied")
    return status, ("divisor", divisor), verdict


def _cmd_decompose(args) -> tuple:
    obstruction = lib.obstruction
    witness = obstruction.decompose(args.b, _parse_int_list(args.orbits, "orbit list"))
    if witness is None:
        return EXIT_NEGATIVE, "impossible"
    return EXIT_OK, obstruction.format_witness(args.b, witness)


def _cmd_rewrite(args) -> tuple:
    seifert, obstruction = lib.seifert, lib.obstruction
    norm = seifert.normalize(seifert.parse_presentation(args.presentation))
    h = obstruction.HFunction(_parse_int_list(args.h, "h list"))
    partition = None if args.partition is None else _parse_partition(args.partition)
    return EXIT_OK, obstruction.rewrite_presentation(norm, h, partition)


def _cmd_verify_action(args) -> tuple:
    problems = lib.action.verify_action(lib.action.parse_action_file(args.action_file))
    return _decide(not problems, "ok", "\n".join(problems))


def _torus_map(query, args) -> tuple:
    """boundary-action and filling-action: `query` for one element on one
    boundary torus of a verified action."""
    data = _load_verified_action(args.action_file)
    if not 1 <= args.index <= data.n_boundary:
        raise lib.rational.InputError(
            f"boundary index {args.index} out of range 1..{data.n_boundary}"
        )
    target, auto = query(data, args.element, args.index - 1)
    return EXIT_OK, ("target", target + 1), ("map", auto)


def _cmd_orbits(args) -> tuple:
    sizes = lib.action.boundary_orbit_numbers(_load_verified_action(args.action_file))
    return EXIT_OK, *((i + 1, size) for i, size in sizes.items())


def _cmd_structure(args) -> tuple:
    structure = lib.structure
    report = structure.structure_report(_load_verified_action(args.action_file))
    return EXIT_OK, structure.format_report(report).removesuffix("\n")


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
        ("--h", {"required": True, "help": "comma-separated slot values; write a list "
                                          "that starts with a negative value as --h=-1,0"}),
        ("--partition", {
            "help": "orbit classes of slots, e.g. '1,2;3' (1-based, ';'-separated)",
        }),
    ]),
    ("verify-action", _cmd_verify_action, "check the action compatibility laws",
     ["action_file"]),
    # the query is read from `lib.action` per call, so wrappers installed there are seen
    ("boundary-action", lambda args: _torus_map(lib.action.boundary_action, args),
     "action on a boundary torus", ["action_file", _ELEMENT, _INDEX]),
    ("filling-action", lambda args: _torus_map(lib.action.induced_filling_action, args),
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
    args = build_parser().parse_args(argv)
    try:
        status, *answer = args.func(args)
        try:
            text = "\n".join(
                f"{item[0]}: {item[1]}" if isinstance(item, tuple) else str(item) for item in answer
            )
        except ValueError:  # str() refuses an integer longer than the digit limit
            limit = sys.get_int_max_str_digits()
            raise lib.rational.InputError(f"the answer has an integer of more than {limit} digits")
    except (lib.rational.InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    print(text)
    return status
