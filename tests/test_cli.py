import ast
import contextlib
import io
import os
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    PROPERTY,
    dihedral_d3_action,
    klein_action,
    mixed_orbit_action,
    perturb_action,
    reflection_z2,
    rotation_z3,
    run_python,
)
from seifert_actions import __version__, cli
from seifert_actions.action import format_action, verify_action
from seifert_actions.cli import main
from seifert_actions.groups import format_group
from seifert_actions.rational import angle
from seifert_actions.seifert import SeifertPair, parse_presentation
from test_cli_golden import BIG_Q1, BIG_Q2, write_files


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_action(tmp_path, data, name="action"):
    group_file = tmp_path / f"{name}_group.txt"
    group_file.write_text(format_group(data.group), encoding="utf-8")
    action_file = tmp_path / f"{name}.txt"
    action_file.write_text(
        format_action(data, f"{name}_group.txt"), encoding="utf-8"
    )
    return str(action_file)


def test_equiv_positive(capsys):
    code, out, _ = run(
        capsys, "equiv", "(0,o1|(3,2),(3,2),(1,2))", "(0,o1|(3,5),(3,5))"
    )
    assert code == 0
    assert out == "equivalent\n"


def test_equiv_negative(capsys):
    code, out, _ = run(capsys, "equiv", "(0,o1|(3,2))", "(0,o1|(3,1))")
    assert code == 3
    assert out == "not equivalent\n"


def test_equiv_parse_error(capsys):
    code, _, err = run(capsys, "equiv", "(0,o1|(3,2))", "nonsense")
    assert code == 2
    assert "error:" in err


def test_validate(capsys):
    code, out, _ = run(capsys, "validate", "(0,o1|(3,2))")
    assert code == 0 and out == "ok\n"
    code, out, _ = run(capsys, "validate", "(0,o1|(4,2))")
    assert code == 3 and "gcd=2" in out


def test_normalize_round_trip(capsys):
    code, out, _ = run(capsys, "normalize", "(0,o1|(3,5),(3,5))")
    assert code == 0
    assert out == "(0, o1 | (3,2), (3,2), (1,2))\n"
    assert parse_presentation(out.strip()) == parse_presentation(
        "(0,o1|(3,2),(3,2),(1,2))"
    )


def test_euler(capsys):
    code, out, _ = run(capsys, "euler", "(0,o1|(3,2),(3,2),(1,2))")
    assert code == 0 and out == "-10/3\n"
    code, out, _ = run(capsys, "euler", "(0,o1|)")
    assert code == 0 and out == "0\n"
    code, out, err = run(capsys, "euler", "(٠,o1|(٣,٢))")
    assert (code, out, err) == (2, "", "error: not a presentation: '(٠,o1|(٣,٢))'\n")


def test_glue_pair(capsys):
    code, out, _ = run(capsys, "glue-pair", "(3,2)")
    assert code == 0
    assert out == "x=1 y=2\nfibration: (-3,2)\n"


def test_orbifold_chi(capsys):
    code, out, _ = run(capsys, "orbifold-chi", "genus:0 cone:(2,2,3,3,3) corner:()")
    assert code == 0
    assert out == "-1\n"
    code, out, _ = run(
        capsys, "orbifold-chi", "--sign", "genus:0 cone:(2,2,3,3,3) corner:()"
    )
    assert out == "-1\nhyperbolic\n"
    code, _, err = run(capsys, "orbifold-chi", "genus:0 cone:(2) corner:(2)")
    assert code == 2 and "boundary" in err
    assert "genus:0 cone:(2) corner:(2)" in err


def test_orbit_numbers(capsys):
    code, out, _ = run(
        capsys, "orbit-numbers", "--order", "12", "genus:0 cone:(2,2,3,3,3) corner:()"
    )
    assert code == 0
    assert out == "4 6 12\n"
    code, _, err = run(
        capsys, "orbit-numbers", "--order", "9", "genus:0 cone:(2) corner:()"
    )
    assert code == 2
    code, _, err = run(
        capsys, "orbit-numbers", "--order", "12", "genus:0 cone:(2,,3) corner:()"
    )
    assert code == 2 and err == "error: bad order list: '2,,3'\n"
    code, _, err = run(
        capsys, "orbit-numbers", "genus:0 cone:(٢, 3) corner:()", "--order", "6"
    )
    assert code == 2 and err == "error: bad order list: '٢, 3'\n"
    code, _, err = run(
        capsys, "orbit-numbers", "--order", "٦", "genus:0 cone:(2, 3) corner:()"
    )
    assert code == 2 and "argument --order: invalid int value: '٦'" in err
    for text, want in [("genus:0 cone:(2, 3) corner:()", "2 3 6\n"),
                       ("genus:0 cone:() corner:()", "6\n")]:
        assert run(capsys, "orbit-numbers", "--order", "6", text) == (0, want, "")


def test_check_obstruction(capsys):
    code, out, _ = run(
        capsys,
        "check-obstruction", "--b", "4", "--order", "12",
        "genus:0 cone:(2,3) corner:()",
    )
    assert code == 0
    assert out == "divisor: 2\nsatisfied\n"
    code, out, _ = run(
        capsys,
        "check-obstruction", "--b", "3", "--order", "12",
        "genus:0 cone:(2,3) corner:()",
    )
    assert code == 3
    assert out.endswith("not satisfied\n")
    code, _, err = run(
        capsys,
        "check-obstruction", "--b", "1_2", "--order", "12",
        "genus:0 cone:(2,3) corner:()",
    )
    assert code == 2 and "argument --b: invalid int value: '1_2'" in err


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "--b", "3", "--orbits", "2,4")
    assert code == 3
    assert out == "impossible\n"
    code, out, _ = run(capsys, "decompose", "--b", "1", "--orbits", "2,3")
    assert code == 0
    assert out == "1 = -1*2 + 1*3\n"
    code, out, _ = run(capsys, "decompose", "--b", "5", "--orbits", "2, 3")
    assert code == 0 and out == "5 = 1*2 + 1*3\n"
    for b, orbits in [("5", "2,,3"), ("10", "1_0")]:
        code, out, err = run(capsys, "decompose", "--b", b, "--orbits", orbits)
        assert (code, out, err) == (2, "", f"error: bad orbit list: '{orbits}'\n")


def test_rewrite(capsys):
    code, out, _ = run(
        capsys, "rewrite", "(0,o1|(3,2),(3,2),(1,2))", "--h", "1,1"
    )
    assert code == 0
    assert out == "(0, o1 | (3,5), (3,5))\n"
    code, out, _ = run(
        capsys,
        "rewrite", "(0,o1|(3,2),(3,2),(1,2))", "--h", "1,1",
        "--partition", "1,2",
    )
    assert code == 0
    code, _, err = run(
        capsys, "rewrite", "(0,o1|(3,2),(3,2),(1,2))", "--h", "1,0"
    )
    assert code == 2 and "must equal b" in err
    code, out, err = run(
        capsys, "rewrite", "(0,o1|(3,2),(3,2),(1,2))", "--h", ",1,1,"
    )
    assert (code, out, err) == (2, "", "error: bad h list: ',1,1,'\n")
    code, out, err = run(
        capsys,
        "rewrite", "(0,o1|(3,2),(3,2),(1,2))", "--h", "1,1", "--partition", "1;;2",
    )
    assert (code, out, err) == (2, "", "error: bad partition list: '1;;2'\n")
    assert run(capsys, "rewrite", "(0,o1|)", "--h", "") == (0, "(0, o1 |)\n", "")


def test_verify_action(capsys, tmp_path):
    path = write_action(tmp_path, rotation_z3())
    code, out, _ = run(capsys, "verify-action", path)
    assert code == 0 and out == "ok\n"

    bad = format_action(rotation_z3(), "action_group.txt").replace(
        "1: alpha=+1 theta1=1/3", "1: alpha=+1 theta1=1/2"
    )
    bad_file = tmp_path / "bad.txt"
    bad_file.write_text(bad, encoding="utf-8")
    code, out, _ = run(capsys, "verify-action", str(bad_file))
    assert code == 3 and "theta1" in out


def test_boundary_and_filling_action(capsys, tmp_path):
    path = write_action(tmp_path, rotation_z3())
    code, out, _ = run(
        capsys, "boundary-action", path, "--element", "1", "--index", "1"
    )
    assert code == 0
    assert out == "target: 2\nmap: [[1,0],[0,1]] + (1/3, 1/3)\n"

    code, out, _ = run(
        capsys, "filling-action", path, "--element", "1", "--index", "1"
    )
    assert code == 0
    # pair (2,1): gluing x=0, y=1; phases (-2/3 + 1/3, 1/3 - 0) = (2/3, 1/3)
    assert out == "target: 2\nmap: [[1,0],[0,1]] + (2/3, 1/3)\n"

    code, _, err = run(
        capsys, "boundary-action", path, "--element", "9", "--index", "1"
    )
    assert code == 2 and "out of range" in err
    for flag, value in [("--element", "+1"), ("--index", "١")]:
        code, _, err = run(capsys, "boundary-action", path, "--element", "1",
                           "--index", "1", flag, value)
        assert code == 2 and f"argument {flag}: invalid int value: '{value}'" in err


def test_orbits(capsys, tmp_path):
    path = write_action(tmp_path, klein_action())
    code, out, _ = run(capsys, "orbits", path)
    assert code == 0
    assert out == "1: 2\n2: 2\n"


def test_structure(capsys, tmp_path):
    path = write_action(tmp_path, dihedral_d3_action())
    code, out, _ = run(capsys, "structure", path)
    assert code == 0
    assert out == (
        "fop_subgroup: {0, 1, 2}\n"
        "fop_index: 2\n"
        "rotation_order: 3\n"
        "splitting_element: 3\n"
        "classification: semidirect\n"
    )


def test_rejects_invalid_action_for_evaluation(capsys, tmp_path):
    data = reflection_z2()
    path = write_action(tmp_path, data)
    bad = (tmp_path / "action.txt").read_text(encoding="utf-8").replace(
        "0: alpha=+1 theta1=0", "0: alpha=+1 theta1=1/9"
    )
    (tmp_path / "action.txt").write_text(bad, encoding="utf-8")
    code, _, err = run(capsys, "structure", path)
    assert code == 2 and "not a valid action" in err


def test_action_verbs_report_the_first_violation_of_a_large_action(capsys, tmp_path):
    base = mixed_orbit_action(
        24, [(4, SeifertPair(2, 1)), (3, SeifertPair(5, 2)), (1, SeifertPair(3, 1))]
    )
    data = perturb_action(base, Random(8))
    problems = verify_action(data)
    assert len(problems) > 1
    path = write_action(tmp_path, data)
    expected = (
        f"error: {path} is not a valid action: {problems[0]} "
        f"(+{len(problems) - 1} more)\n"
    )
    for argv in (
        ["boundary-action", path, "--element", "1", "--index", "1"],
        ["orbits", path],
        ["structure", path],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", expected)


def test_non_coprime_pairs_cite_the_pairs_line(capsys, tmp_path):
    path = write_action(tmp_path, rotation_z3())
    text = (tmp_path / "action.txt").read_text(encoding="utf-8")
    (tmp_path / "action.txt").write_text(
        text.replace("pairs: (2,1) (2,1) (2,1)", "pairs: (2,1) (4,2) (2,1)"),
        encoding="utf-8",
    )
    code, out, err = run(capsys, "verify-action", path)
    assert (code, out) == (2, "")
    assert err == f"error: {path}:2: pair 2: (4,2) not coprime (gcd=2)\n"


def test_group_file_errors_cite_the_group_line(capsys, tmp_path):
    path = write_action(tmp_path, dihedral_d3_action())
    group_file = tmp_path / "action_group.txt"
    rows = group_file.read_text(encoding="utf-8").splitlines()
    first, second, *rest = rows[2].split()
    rows[2] = " ".join([second, first, *rest])
    group_file.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "structure", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}:1: ")
    assert err.endswith("is not a permutation (table not Latin)\n")


def test_unreadable_files_are_named(capsys, tmp_path):
    path = write_action(tmp_path, rotation_z3())
    action_file = tmp_path / "action.txt"
    text = action_file.read_text(encoding="utf-8")
    missing = str(tmp_path / "nowhere.txt")
    # a missing group file and an empty `group:` value are errors of the group line
    for line, message in [
        ("group: nowhere.txt", f"[Errno 2] No such file or directory: {missing!r}"),
        ("group:", "empty group file name"),
    ]:
        action_file.write_text(text.replace("group: action_group.txt", line), encoding="utf-8")
        assert run(capsys, "verify-action", path) == (2, "", f"error: {path}:1: {message}\n")
    # a file that is not UTF-8 is named, whether it is the group or the action file
    action_file.write_text(text, encoding="utf-8")
    group_file = tmp_path / "action_group.txt"
    group_file.write_bytes(group_file.read_bytes() + b"# caf\xe9\n")
    code, out, err = run(capsys, "verify-action", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}:1: {group_file}: 'utf-8' codec can't decode byte 0xe9")
    action_file.write_bytes(text.encode("utf-8") + b"# caf\xe9\n")
    code, out, err = run(capsys, "verify-action", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xe9")


def test_error_locations_show_the_path_as_given(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text(format_group(rotation_z3().group), encoding="utf-8")
    text = format_action(rotation_z3(), "g.txt")
    (tmp_path / "bad.action").write_text(text.replace("theta1=1/3", "theta1=1/0"), encoding="utf-8")
    assert run(capsys, "verify-action", "./bad.action") == (
        2, "", "error: ./bad.action:4: bad angle '1/0'\n"
    )
    # a missing group file is the action file's directory joined with the `group:` value
    (tmp_path / "lost.action").write_text(text.replace("g.txt", "./lost/g.txt"), encoding="utf-8")
    missing = os.path.join(str(tmp_path), "./lost/g.txt")
    assert run(capsys, "verify-action", str(tmp_path / "lost.action")) == (
        2, "", f"error: {tmp_path / 'lost.action'}:1: [Errno 2] No such file or directory: "
        f"{missing!r}\n"
    )


def test_missing_file(capsys):
    code, _, err = run(capsys, "orbits", "no_such_file.txt")
    assert code == 2 and "error:" in err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out == f"seifert-actions {__version__}\n"


def test_deterministic_output(capsys, tmp_path):
    path = write_action(tmp_path, dihedral_d3_action())
    outputs = set()
    for _ in range(3):
        _, out, _ = run(capsys, "structure", path)
        outputs.add(out)
    assert len(outputs) == 1


# The costly stdlib modules that no verb may load.  The script below runs
# cli.main(argv) in a fresh interpreter and prints the exit code, the package
# modules loaded, and whichever watched module is loaded.  It runs under
# `python -S`: `site` start-up may load a watched module itself (a `.pth`
# hook can load `pathlib` and `typing`), which would hide the verb's own.
STDLIB_WATCHED = {"dataclasses", "inspect", "pathlib", "typing"}
LOADED_MODULES = f"""
import sys
import contextlib, io
from seifert_actions import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(code, *sorted(
    m for m in sys.modules
    if m.partition(".")[0] == "seifert_actions" or m in {sorted(STDLIB_WATCHED)!r}
))
"""
BASE = {"seifert_actions", "seifert_actions.cli"}


def loaded_modules(*argv):
    code, *modules = run_python(LOADED_MODULES, *argv, flags=["-S"]).split()
    return int(code), set(modules)


@pytest.mark.parametrize("argv, expected", [
    (["--help"], (0, BASE)),
    (["euler"], (2, BASE)),  # usage error: no presentation
    (["euler", "(0,o1|(3,2))"],
     (0, BASE | {"seifert_actions.rational", "seifert_actions.seifert"})),
], ids=["help", "usage-error", "euler"])
def test_verb_loads_only_the_modules_it_needs(argv, expected):
    assert loaded_modules(*argv) == expected


@pytest.mark.parametrize("argv, modules", [
    (["decompose", "--b", "5", "--orbits", "2,3"], ("obstruction", "orbifold", "rational", "seifert")),
    (["orbifold-chi", "genus:0 cone:(2,3,5) corner:()"], ("orbifold", "rational")),
], ids=["decompose", "orbifold-chi"])
def test_non_action_verbs_load_no_action_module(argv, modules):
    code, loaded = loaded_modules(*argv)
    assert (code, loaded) == (0, BASE | {f"seifert_actions.{m}" for m in modules})


# Checking an action needs no obstruction, orbifold or torus module; only
# `structure` loads `structure`, and only the two map verbs load `torus`.
# Like every verb above, none loads a module of STDLIB_WATCHED.
@pytest.mark.parametrize("argv, extra", [
    (["verify-action"], ()),
    (["orbits"], ()),
    (["structure"], ("structure",)),
    (["boundary-action", "--element", "1", "--index", "1"], ("torus",)),
    (["filling-action", "--element", "1", "--index", "1"], ("torus",)),
], ids=["verify-action", "orbits", "structure", "boundary-action", "filling-action"])
def test_action_verbs_load_only_the_modules_they_need(tmp_path, argv, extra):
    path = write_action(tmp_path, rotation_z3())
    code, loaded = loaded_modules(argv[0], path, *argv[1:])
    modules = ("action", "groups", "rational", "seifert", *extra)
    assert code == 0
    assert loaded == BASE | {f"seifert_actions.{m}" for m in modules}


def test_a_plain_value_error_is_a_fault_not_an_input_error(monkeypatch):
    def broken(pres):
        raise ValueError("internal fault")

    monkeypatch.setattr("seifert_actions.seifert.euler_number", broken)
    with pytest.raises(ValueError, match="^internal fault$"):
        main(["euler", "(0,o1|(3,2))"])


def test_only_main_writes_stdout():
    # handlers return their answers; main alone turns them into text
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    tree.body = [
        stmt for stmt in tree.body if not (isinstance(stmt, ast.FunctionDef) and stmt.name == "main")
    ]
    for node in ast.walk(tree):
        prints = isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
        stdout = isinstance(node, ast.Attribute) and node.attr == "stdout"
        assert not (prints or stdout), f"cli.py:{node.lineno} writes stdout outside main"


LONG = "1" * 5000  # more digits than int() reads by default
TOO_LONG = f" (an integer has more than {sys.get_int_max_str_digits()} digits)\n"


@pytest.mark.parametrize("argv, message", [
    (["euler", f"(0,o1|(3,{LONG}))"], f"not a presentation: '(0,o1|(3,{LONG}))'"),
    (["decompose", "--b", "5", "--orbits", f"2,{LONG}"], f"bad orbit list: '2,{LONG}'"),
    (["orbit-numbers", "--order", "6", f"genus:0 cone:(2,{LONG}) corner:()"],
     f"bad order list: '2,{LONG}'"),
], ids=["presentation", "orbit-list", "order-list"])
def test_integers_too_long_to_read_name_their_input(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}{TOO_LONG}")


@pytest.mark.parametrize("argv", [
    ["normalize", f"(0,o1|(1,{'9' * 4300}),(1,{'9' * 4300}))"],
    ["rewrite", f"(0,o1|({BIG_Q1},1),({BIG_Q2},1))", f"--h={10**1400},{-10**1400}"],
    ["filling-action", "{path}", "--element", "1", "--index", "1"],
], ids=["normalize", "rewrite", "filling-action"])
def test_answers_too_long_to_print_exit_2(capsys, tmp_path, argv):
    # euler and orbifold-chi have golden cases; the digit limit is not raised
    path = write_action(tmp_path, reflection_z2(t=angle(1, BIG_Q1), s=angle(1, BIG_Q2)))
    want = f"error: the answer has an integer of more than {sys.get_int_max_str_digits()} digits\n"
    assert run(capsys, *(arg.replace("{path}", path) for arg in argv)) == (2, "", want)


def test_file_errors_name_their_line(capsys, tmp_path):
    path = write_action(tmp_path, rotation_z3())
    action_file = tmp_path / "action.txt"
    text = action_file.read_text(encoding="utf-8")
    action_file.write_text(text.replace("beta=(2,3,1)", f"beta=({LONG})"), encoding="utf-8")
    want = f"error: {path}:4: bad beta '({LONG})'{TOO_LONG}"
    assert run(capsys, "verify-action", path) == (2, "", want)
    action_file.write_text(
        text.replace("group: action_group.txt", "group: action\0group.txt"), encoding="utf-8"
    )
    want = f"error: {path}:1: group file name 'action\\x00group.txt' holds a NUL byte\n"
    assert run(capsys, "verify-action", path) == (2, "", want)


INTS = ["0", "1", "2", "3", "-1", "12", "٣", "1_0", LONG]
PRESENTATIONS = [
    "(0,o1|(3,2))", "(0,o1|(3,2),(3,2),(1,2))", "(1,o1|)", "(0,o1|(4,2))", "(-1,o1|(3,2))",
    "(0,o1|(0,1))", "(0,o1|(3,2)", "(3,2)", f"(0,o1|(3,{LONG}))",
    f"(0,o1|({BIG_Q1},1),({BIG_Q2},1))",  # an answer too long for str()
]
ORBIFOLDS = [
    "genus:0 cone:(2,3) corner:()", "genus:0 cone:(2) corner:(2)", "genus:1 cone:() corner:(2,3)",
    "genus:0 cone:(1) corner:()", "genus:-1 cone:() corner:()", "genus:0 cone:(2,,3) corner:()",
    f"genus:0 cone:({LONG}) corner:()", f"genus:0 cone:({BIG_Q1},{BIG_Q2}) corner:()",
]
LISTS = ["2,3", "1,1", "2,0,1", "2,,3", "", "0", "3,-1", "1;2", "1,2;3", "1;;2", f"2,{LONG}"]
# argument name -> the values drawn for it; action_file takes the golden files
VALUES = {
    "presentation": PRESENTATIONS, "presentation_a": PRESENTATIONS,
    "presentation_b": PRESENTATIONS, "pair": ["(3,2)", "(2,4)", "(0,5)", "(3,2", "(1,0)"],
    "orbifold": ORBIFOLDS, "--b": INTS, "--order": INTS, "--element": INTS, "--index": INTS,
    "--orbits": LISTS, "--h": LISTS, "--partition": LISTS,
}
STRAYS = ["--help", "--version", "--b", "--sign", "1", "(3,2)", LONG]


def argvs(values):
    """argvs that follow the verb table: each argument takes one of its
    values, an optional flag may be left out, and a stray token may follow."""
    verbs = []
    for verb, _, _, arguments in cli.VERBS:
        parts = [st.just([verb])]
        for argument in arguments:
            name, keywords = (argument, {}) if isinstance(argument, str) else argument
            if keywords.get("action") == "store_true":
                choices = [[name]]
            else:
                prefix = [name] if name.startswith("-") else []
                choices = [prefix + [value] for value in values[name]]
            if name.startswith("-") and not keywords.get("required"):
                choices.append([])
            parts.append(st.sampled_from(choices))
        parts.append(st.sampled_from([[]] * 7 * len(STRAYS) + [[t] for t in STRAYS]))
        verbs.append(st.tuples(*parts).map(lambda parts: sum(parts, [])))
    return st.one_of(verbs)


def test_every_argv_exits_0_2_or_3(tmp_path):
    write_files(tmp_path)  # the valid and malformed action files of the golden cases
    values = {**VALUES, "action_file": sorted(str(p) for p in tmp_path.glob("*.action"))}

    @settings(PROPERTY, max_examples=250)
    @given(argvs(values))
    def check(argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2, 3), argv
        assert "Traceback" not in err.getvalue(), argv

    check()
