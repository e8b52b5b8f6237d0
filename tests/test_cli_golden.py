"""Golden outputs of every CLI verb: exit code, stdout and stderr.

Each case runs `cli.main` on a fixed argv.  Action and group files are
written from the shared fixtures into a temporary directory, whose path
appears as `{dir}` in argv and in the pinned stderr.  Argparse wraps usage
text to the terminal width, so COLUMNS is fixed.  A stderr pinned as None
is not compared: those inputs are the ones whose error message names its
location in the input, which is checked in the parser tests.
"""

import pytest

from helpers import (
    dihedral_d3_action,
    klein_action,
    quaternion_action,
    reflection_z2,
    rotation_z3,
)
from seifert_actions.action import format_action
from seifert_actions.cli import main
from seifert_actions.groups import format_group

HYPERBOLIC = "genus:0 cone:(2,2,3,3,3) corner:()"
# two 3,000-digit orders, whose Euler number and chi have about 6,000 digits
BIG_Q1, BIG_Q2 = 10**2999 + 1, 10**2999 + 3


def write_files(d):
    fixtures = {
        "z3": rotation_z3(),
        "klein": klein_action(),
        "d3": dihedral_d3_action(),
        "q8": quaternion_action(),
        "refl": reflection_z2(),
    }
    for name, data in fixtures.items():
        (d / f"{name}.group").write_text(format_group(data.group), encoding="utf-8")
        (d / f"{name}.action").write_text(
            format_action(data, f"{name}.group"), encoding="utf-8"
        )
    z3 = (d / "z3.action").read_text(encoding="utf-8")
    d3_group = (d / "d3.group").read_text(encoding="utf-8")
    (d / "short.group").write_text(
        "\n".join(d3_group.splitlines()[:-1]) + "\n", encoding="utf-8"
    )
    (d / "nonlatin.group").write_text(
        d3_group.replace("1 2 0 4 5 3", "2 1 0 4 5 3"), encoding="utf-8"
    )
    variants = {
        "law": z3.replace("1: alpha=+1 theta1=1/3", "1: alpha=+1 theta1=1/2"),
        "beta-law": z3.replace("beta=(2,3,1)", "beta=(1,3,2)"),
        "bad-angle": z3.replace("theta1=1/3", "theta1=1/0"),
        "missing-element": z3.replace(z3.splitlines()[3] + "\n", ""),
        "unknown-key": z3 + "colour: red\n",
        "alpha": z3.replace("1: alpha=+1", "1: alpha=2"),
        "beta-not-perm": z3.replace("beta=(2,3,1)", "beta=(1,1,1)"),
        "beta-parens": z3.replace("beta=(2,3,1)", "beta=2,3,1"),
        "beta-int": z3.replace("beta=(2,3,1)", "beta=(2,x,1)"),
        "theta2-count": z3.replace("theta2=1/3,1/3,1/3", "theta2=0,0"),
        "missing-field": z3.replace(" theta2=1/3,1/3,1/3", ""),
        "no-equals": z3.replace("theta2=1/3,1/3,1/3", "theta2 1/3"),
        "no-colon": z3 + "stray line\n",
        "pairs-syntax": z3.replace("pairs: (2,1) (2,1) (2,1)", "pairs: (2,1) (2,1) (2,1) (3"),
        "no-pairs": z3.replace("pairs: (2,1) (2,1) (2,1)\n", ""),
        "no-group": z3.replace("group: z3.group\n", ""),
        "extra-element": z3 + "7: alpha=+1 theta1=0 beta=(1,2,3) theta2=0,0,0\n",
        "group-missing": z3.replace("group: z3.group", "group: nowhere.group"),
        "group-rows": z3.replace("group: z3.group", "group: short.group"),
        "non-coprime": z3.replace("pairs: (2,1) (2,1) (2,1)", "pairs: (4,2) (4,2) (4,2)"),
        "unicode-key": z3 + "²: alpha=+1 theta1=0 beta=(1,2,3) theta2=0,0,0\n",
    }
    for name, text in variants.items():
        (d / f"{name}.action").write_text(text, encoding="utf-8")
    d3 = (d / "d3.action").read_text(encoding="utf-8")
    (d / "nonlatin.action").write_text(
        d3.replace("group: d3.group", "group: nonlatin.group"), encoding="utf-8"
    )


def query(verb, name, element, index):
    return [verb, f"{{dir}}/{name}.action", "--element", element, "--index", index]


CASES = {
    "validate/ok": ["validate", "(0,o1|(3,2))"],
    "validate/empty": ["validate", "(1, o1 |)"],
    "validate/negative": ["validate", "(-1,o1|(4,2),(0,1),(3,-2))"],
    "validate/malformed": ["validate", "(0,o1|(3,2)"],
    "normalize/ok": ["normalize", "(2,o1|(5,-3))"],
    "normalize/carry": ["normalize", "(0,o1|(3,5),(3,5))"],
    "normalize/invalid": ["normalize", "(0,o1|(4,2))"],
    "normalize/malformed": ["normalize", "nonsense"],
    "equiv/positive": ["equiv", "(0,o1|(3,2),(3,2),(1,2))", "(0,o1|(3,5),(3,5))"],
    "equiv/negative": ["equiv", "(0,o1|(3,2))", "(0,o1|(3,1))"],
    "equiv/genus": ["equiv", "(0,o1|(3,2))", "(1,o1|(3,2))"],
    "equiv/malformed": ["equiv", "(0,o1|(3,2))", "(0,o1|(3,2)(3,1))"],
    "euler/ok": ["euler", "(0,o1|(3,2),(3,2),(1,2))"],
    "euler/zero": ["euler", "(0,o1|)"],
    "euler/invalid": ["euler", "(0,o1|(0,1))"],
    "euler/long-answer": ["euler", f"(0,o1|({BIG_Q1},1),({BIG_Q2},1))"],
    "glue-pair/ok": ["glue-pair", "(3,2)"],
    "glue-pair/negative-p": ["glue-pair", "(5,-3)"],
    "glue-pair/regular": ["glue-pair", "( 1 , 0 )"],
    "glue-pair/invalid": ["glue-pair", "(4,2)"],
    "glue-pair/malformed": ["glue-pair", "(3,"],
    "orbifold-chi/hyperbolic": ["orbifold-chi", "--sign", HYPERBOLIC],
    "orbifold-chi/spherical": ["orbifold-chi", "--sign", "genus:0 cone:(2,3) corner:()"],
    "orbifold-chi/euclidean": ["orbifold-chi", "--sign", "genus:1 cone:() corner:()"],
    "orbifold-chi/plain": ["orbifold-chi", HYPERBOLIC],
    "orbifold-chi/order-one": ["orbifold-chi", "genus:0 cone:(1) corner:()"],
    "orbifold-chi/malformed": ["orbifold-chi", "genus:x cone:() corner:()"],
    "orbifold-chi/corners": ["orbifold-chi", "genus:0 cone:(2) corner:(2)"],
    "orbifold-chi/long-answer": ["orbifold-chi", f"genus:0 cone:({BIG_Q1},{BIG_Q2}) corner:()"],
    "orbit-numbers/ok": ["orbit-numbers", "--order", "12", HYPERBOLIC],
    "orbit-numbers/corners": ["orbit-numbers", "--order", "12", "genus:0 cone:(3) corner:(2)"],
    "orbit-numbers/not-dividing": ["orbit-numbers", "--order", "9", "genus:0 cone:(2) corner:()"],
    "orbit-numbers/zero-order": ["orbit-numbers", "--order", "0", "genus:0 cone:() corner:()"],
    "orbit-numbers/empty-order": ["orbit-numbers", "genus:0 cone:(2,,3) corner:()", "--order", "12"],
    "orbit-numbers/no-order": ["orbit-numbers", HYPERBOLIC],
    "check-obstruction/satisfied": [
        "check-obstruction", "--b", "4", "--order", "12", "genus:0 cone:(2,3) corner:()",
    ],
    "check-obstruction/not-satisfied": [
        "check-obstruction", "--b", "3", "--order", "12", "genus:0 cone:(2,3) corner:()",
    ],
    "check-obstruction/malformed": [
        "check-obstruction", "--b", "3", "--order", "12", "cone:(2,3)",
    ],
    "check-obstruction/bad-int": [
        "check-obstruction", "--b", "x", "--order", "12", HYPERBOLIC,
    ],
    "decompose/ok": ["decompose", "--b", "1", "--orbits", "2,3"],
    "decompose/long": ["decompose", "--b", "-7", "--orbits", "6,10,15"],
    "decompose/impossible": ["decompose", "--b", "3", "--orbits", "2,4"],
    "decompose/zero-orbit": ["decompose", "--b", "3", "--orbits", "0,4"],
    "decompose/malformed": ["decompose", "--b", "5", "--orbits", "2,x3"],
    "rewrite/ok": ["rewrite", "(0,o1|(3,2),(3,2),(1,2))", "--h", "1,1"],
    "rewrite/partition": [
        "rewrite", "(0,o1|(3,2),(3,2),(1,2))", "--h=1,0,1", "--partition", "1,3;2",
    ],
    "rewrite/not-constant": [
        "rewrite", "(0,o1|(3,2),(3,2),(1,2))", "--h=2,0", "--partition", "1,2",
    ],
    "rewrite/empty-partition": [
        "rewrite", "(0,o1|(3,2),(3,2),(1,2))", "--h", "2,0", "--partition", "",
    ],
    "rewrite/wrong-sum": ["rewrite", "(0,o1|(3,2),(3,2),(1,2))", "--h", "1,0"],
    "rewrite/malformed": ["rewrite", "(0,o1|(3,2))", "--h=1,a"],
    "rewrite/negative-h": ["rewrite", "(0,o1|(3,2),(3,2),(1,-1))", "--h=-1,0"],
    "verify-action/z3": ["verify-action", "{dir}/z3.action"],
    "verify-action/q8": ["verify-action", "{dir}/q8.action"],
    "verify-action/law": ["verify-action", "{dir}/law.action"],
    "verify-action/beta-law": ["verify-action", "{dir}/beta-law.action"],
    "boundary-action/ok": query("boundary-action", "z3", "1", "1"),
    "boundary-action/reflect": query("boundary-action", "refl", "1", "1"),
    "boundary-action/element-range": query("boundary-action", "z3", "9", "1"),
    "boundary-action/index-range": query("boundary-action", "z3", "1", "0"),
    "boundary-action/invalid": query("boundary-action", "law", "1", "1"),
    "filling-action/ok": query("filling-action", "z3", "1", "1"),
    "filling-action/klein": query("filling-action", "klein", "3", "2"),
    "filling-action/element-range": query("filling-action", "z3", "-1", "1"),
    "filling-action/index-range": query("filling-action", "z3", "1", "4"),
    "filling-action/invalid": query("filling-action", "law", "1", "1"),
    "orbits/klein": ["orbits", "{dir}/klein.action"],
    "orbits/d3": ["orbits", "{dir}/d3.action"],
    "orbits/missing-file": ["orbits", "{dir}/no_such_file.action"],
    "structure/d3": ["structure", "{dir}/d3.action"],
    "structure/q8": ["structure", "{dir}/q8.action"],
    "structure/z3": ["structure", "{dir}/z3.action"],
    "structure/invalid": ["structure", "{dir}/law.action"],
    "usage/no-verb": [],
    "usage/unknown-verb": ["frobnicate"],
    "usage/version": ["--version"],
    "usage/help": ["--help"],
}

# Malformed action files: each is rejected by every action verb alike.
MALFORMED = [
    "bad-angle", "missing-element", "unknown-key", "alpha", "beta-not-perm",
    "beta-parens", "beta-int", "theta2-count", "missing-field", "no-equals",
    "no-colon", "pairs-syntax", "no-pairs", "no-group", "extra-element",
    "group-missing",
]
# Inputs whose error gains a location in the input (stderr not pinned).
LOCATED = ["non-coprime", "unicode-key", "nonlatin", "group-rows"]
for _name in MALFORMED + LOCATED:
    CASES[f"verify-action/{_name}"] = ["verify-action", f"{{dir}}/{_name}.action"]
CASES["structure/bad-angle"] = ["structure", "{dir}/bad-angle.action"]
UNPINNED_STDERR = {"orbifold-chi/corners", "orbit-numbers/empty-order"} | {
    f"verify-action/{name}" for name in LOCATED
}


def outcome(argv):
    """Exit code of one CLI call, as the shell sees it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    write_files(tmp_path)
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in CASES[name]]
    code = outcome(argv)
    captured = capsys.readouterr()
    err = captured.err.replace(str(tmp_path), "{dir}")
    want_code, want_out, want_err = GOLDEN[name]
    assert (code, captured.out) == (want_code, want_out)
    if want_err is not None:
        assert err == want_err


GOLDEN = {
    'boundary-action/element-range': (2, '', 'error: element 9 out of range 0..2\n'),
    'boundary-action/index-range': (2, '', 'error: boundary index 0 out of range 1..3\n'),
    'boundary-action/invalid': (2, '', 'error: {dir}/law.action is not a valid action: theta1 twisted-cocycle law fails at (1,1): theta1(2)=2/3 but law gives 0 (+3 more)\n'),
    'boundary-action/ok': (0, 'target: 2\nmap: [[1,0],[0,1]] + (1/3, 1/3)\n', ''),
    'boundary-action/reflect': (0, 'target: 1\nmap: [[-1,0],[0,-1]] + (1/5, 1/7)\n', ''),
    'check-obstruction/bad-int': (2, '', "usage: seifert-actions check-obstruction [-h] --b B --order ORDER orbifold\nseifert-actions check-obstruction: error: argument --b: invalid int value: 'x'\n"),
    'check-obstruction/malformed': (2, '', "error: not an orbifold data set: 'cone:(2,3)'\n"),
    'check-obstruction/not-satisfied': (3, 'divisor: 2\nnot satisfied\n', ''),
    'check-obstruction/satisfied': (0, 'divisor: 2\nsatisfied\n', ''),
    'decompose/impossible': (3, 'impossible\n', ''),
    'decompose/long': (0, '-7 = -2*6 + -1*10 + 1*15\n', ''),
    'decompose/malformed': (2, '', "error: bad orbit list: '2,x3'\n"),
    'decompose/ok': (0, '1 = -1*2 + 1*3\n', ''),
    'decompose/zero-orbit': (2, '', 'error: orbit numbers must be positive, got 0\n'),
    'equiv/genus': (3, 'not equivalent\n', ''),
    'equiv/malformed': (2, '', "error: not a presentation: '(0,o1|(3,2)(3,1))'\n"),
    'equiv/negative': (3, 'not equivalent\n', ''),
    'equiv/positive': (0, 'equivalent\n', ''),
    'euler/invalid': (2, '', 'error: pair 1: q must be >= 1, got 0\n'),
    'euler/long-answer': (2, '', 'error: the answer has an integer of more than 4300 digits\n'),
    'euler/ok': (0, '-10/3\n', ''),
    'euler/zero': (0, '0\n', ''),
    'filling-action/element-range': (2, '', 'error: element -1 out of range 0..2\n'),
    'filling-action/index-range': (2, '', 'error: boundary index 4 out of range 1..3\n'),
    'filling-action/invalid': (2, '', 'error: {dir}/law.action is not a valid action: theta1 twisted-cocycle law fails at (1,1): theta1(2)=2/3 but law gives 0 (+3 more)\n'),
    'filling-action/klein': (0, 'target: 1\nmap: [[1,0],[0,1]] + (0, 1/2)\n', ''),
    'filling-action/ok': (0, 'target: 2\nmap: [[1,0],[0,1]] + (2/3, 1/3)\n', ''),
    'glue-pair/invalid': (2, '', 'error: invalid Seifert pair (4,2)\n'),
    'glue-pair/malformed': (2, '', "error: not a Seifert pair: '(3,'\n"),
    'glue-pair/negative-p': (0, 'x=-2 y=3\nfibration: (-5,3)\n', ''),
    'glue-pair/ok': (0, 'x=1 y=2\nfibration: (-3,2)\n', ''),
    'glue-pair/regular': (0, 'x=-1 y=0\nfibration: (-1,0)\n', ''),
    'normalize/carry': (0, '(0, o1 | (3,2), (3,2), (1,2))\n', ''),
    'normalize/invalid': (2, '', 'error: pair 1: (4,2) not coprime (gcd=2)\n'),
    'normalize/malformed': (2, '', "error: not a presentation: 'nonsense'\n"),
    'normalize/ok': (0, '(2, o1 | (5,2), (1,-1))\n', ''),
    'orbifold-chi/corners': (2, '', None),
    'orbifold-chi/euclidean': (0, '0\neuclidean\n', ''),
    'orbifold-chi/hyperbolic': (0, '-1\nhyperbolic\n', ''),
    'orbifold-chi/long-answer': (2, '', 'error: the answer has an integer of more than 4300 digits\n'),
    'orbifold-chi/malformed': (2, '', "error: not an orbifold data set: 'genus:x cone:() corner:()'\n"),
    'orbifold-chi/order-one': (2, '', 'error: orbifold orders must be >= 2, got 1\n'),
    'orbifold-chi/plain': (0, '-1\n', ''),
    'orbifold-chi/spherical': (0, '5/6\nspherical\n', ''),
    'orbit-numbers/corners': (0, '3 4 12\n', ''),
    'orbit-numbers/empty-order': (2, '', None),
    'orbit-numbers/no-order': (2, '', 'usage: seifert-actions orbit-numbers [-h] --order ORDER orbifold\nseifert-actions orbit-numbers: error: the following arguments are required: --order\n'),
    'orbit-numbers/not-dividing': (2, '', 'error: cone order 2 does not divide group order 9\n'),
    'orbit-numbers/ok': (0, '4 6 12\n', ''),
    'orbit-numbers/zero-order': (2, '', 'error: group order must be positive, got 0\n'),
    'orbits/d3': (0, '1: 3\n2: 3\n3: 3\n', ''),
    'orbits/klein': (0, '1: 2\n2: 2\n', ''),
    'orbits/missing-file': (2, '', "error: [Errno 2] No such file or directory: '{dir}/no_such_file.action'\n"),
    'rewrite/empty-partition': (2, '', "error: bad partition list: ''\n"),
    'rewrite/malformed': (2, '', "error: bad h list: '1,a'\n"),
    'rewrite/negative-h': (0, '(0, o1 | (3,-1), (3,2))\n', ''),
    'rewrite/not-constant': (2, '', 'error: h is not constant on the supplied orbit classes\n'),
    'rewrite/ok': (0, '(0, o1 | (3,5), (3,5))\n', ''),
    'rewrite/partition': (0, '(0, o1 | (3,5), (3,2), (1,1))\n', ''),
    'rewrite/wrong-sum': (2, '', 'error: sum of h is 1, must equal b = 2\n'),
    'structure/bad-angle': (2, '', "error: {dir}/bad-angle.action:4: bad angle '1/0'\n"),
    'structure/d3': (0, 'fop_subgroup: {0, 1, 2}\nfop_index: 2\nrotation_order: 3\nsplitting_element: 3\nclassification: semidirect\n', ''),
    'structure/invalid': (2, '', 'error: {dir}/law.action is not a valid action: theta1 twisted-cocycle law fails at (1,1): theta1(2)=2/3 but law gives 0 (+3 more)\n'),
    'structure/q8': (0, 'fop_subgroup: {0, 1, 4, 5}\nfop_index: 2\nrotation_order: 1\nsplitting_element: none\nclassification: no-splitting-found\n', ''),
    'structure/z3': (0, 'fop_subgroup: {0, 1, 2}\nfop_index: 1\nrotation_order: 3\nsplitting_element: none\nclassification: direct-like\n', ''),
    'usage/help': (0, "usage: seifert-actions [-h] [--version]\n                       {validate,normalize,equiv,euler,glue-pair,orbifold-chi,orbit-numbers,check-obstruction,decompose,rewrite,verify-action,boundary-action,filling-action,orbits,structure}\n                       ...\n\nCompute with Seifert presentations, gluing data, and finite fiber-preserving\ngroup actions.\n\npositional arguments:\n  {validate,normalize,equiv,euler,glue-pair,orbifold-chi,orbit-numbers,check-obstruction,decompose,rewrite,verify-action,boundary-action,filling-action,orbits,structure}\n    validate            check presentation invariants\n    normalize           canonical form of a presentation\n    equiv               fiber-preserving equivalence of presentations\n    euler               Euler number of a presentation\n    glue-pair           gluing exponents of a filling pair\n    orbifold-chi        orbifold Euler characteristic\n    orbit-numbers       possible orbit sizes over a quotient\n    check-obstruction   divisibility form of the condition\n    decompose           witness b as a combination of orbit sizes\n    rewrite             spread the class b over fiber slots\n    verify-action       check the action compatibility laws\n    boundary-action     action on a boundary torus\n    filling-action      induced action on a filled torus\n    orbits              boundary orbit numbers of an action\n    structure           group-structure report of an action\n\noptions:\n  -h, --help            show this help message and exit\n  --version             show program's version number and exit\n", ''),
    'usage/no-verb': (2, '', 'usage: seifert-actions [-h] [--version]\n                       {validate,normalize,equiv,euler,glue-pair,orbifold-chi,orbit-numbers,check-obstruction,decompose,rewrite,verify-action,boundary-action,filling-action,orbits,structure}\n                       ...\nseifert-actions: error: the following arguments are required: verb\n'),
    'usage/unknown-verb': (2, '', "usage: seifert-actions [-h] [--version]\n                       {validate,normalize,equiv,euler,glue-pair,orbifold-chi,orbit-numbers,check-obstruction,decompose,rewrite,verify-action,boundary-action,filling-action,orbits,structure}\n                       ...\nseifert-actions: error: argument verb: invalid choice: 'frobnicate' (choose from 'validate', 'normalize', 'equiv', 'euler', 'glue-pair', 'orbifold-chi', 'orbit-numbers', 'check-obstruction', 'decompose', 'rewrite', 'verify-action', 'boundary-action', 'filling-action', 'orbits', 'structure')\n"),
    'usage/version': (0, 'seifert-actions 0.1.0\n', ''),
    'validate/empty': (0, 'ok\n', ''),
    'validate/malformed': (2, '', "error: not a presentation: '(0,o1|(3,2)'\n"),
    'validate/negative': (3, 'genus must be nonnegative, got -1\npair 1: (4,2) not coprime (gcd=2)\npair 2: q must be >= 1, got 0\n', ''),
    'validate/ok': (0, 'ok\n', ''),
    'verify-action/alpha': (2, '', 'error: {dir}/alpha.action:4: alpha must be +1 or -1\n'),
    'verify-action/bad-angle': (2, '', "error: {dir}/bad-angle.action:4: bad angle '1/0'\n"),
    'verify-action/beta-int': (2, '', "error: {dir}/beta-int.action:4: bad beta '(2,x,1)'\n"),
    'verify-action/beta-law': (3, 'beta is not a homomorphism at (1,1): beta(2)=(2, 0, 1) but composition is (0, 1, 2)\nbeta is not a homomorphism at (1,2): beta(0)=(0, 1, 2) but composition is (1, 0, 2)\nbeta is not a homomorphism at (2,1): beta(0)=(0, 1, 2) but composition is (2, 1, 0)\nbeta is not a homomorphism at (2,2): beta(1)=(0, 2, 1) but composition is (1, 2, 0)\n', ''),
    'verify-action/beta-not-perm': (2, '', 'error: {dir}/beta-not-perm.action:4: beta must be a permutation of 1..3\n'),
    'verify-action/beta-parens': (2, '', 'error: {dir}/beta-parens.action:4: beta must be parenthesized\n'),
    'verify-action/extra-element': (2, '', 'error: {dir}/extra-element.action:6: element 7 out of range 0..2\n'),
    'verify-action/group-missing': (2, '', "error: {dir}/group-missing.action:1: [Errno 2] No such file or directory: '{dir}/nowhere.group'\n"),
    'verify-action/group-rows': (2, '', None),
    'verify-action/law': (3, 'theta1 twisted-cocycle law fails at (1,1): theta1(2)=2/3 but law gives 0\ntheta1 twisted-cocycle law fails at (1,2): theta1(0)=0 but law gives 1/6\ntheta1 twisted-cocycle law fails at (2,1): theta1(0)=0 but law gives 1/6\ntheta1 twisted-cocycle law fails at (2,2): theta1(1)=1/2 but law gives 1/3\n', ''),
    'verify-action/missing-element': (2, '', 'error: {dir}/missing-element.action: missing line for element 1\n'),
    'verify-action/missing-field': (2, '', "error: {dir}/missing-field.action:4: missing fields ['theta2']\n"),
    'verify-action/no-colon': (2, '', "error: {dir}/no-colon.action:6: expected 'key: value'\n"),
    'verify-action/no-equals': (2, '', "error: {dir}/no-equals.action:4: expected name=value, got 'theta2'\n"),
    'verify-action/no-group': (2, '', "error: {dir}/no-group.action: missing 'group:' line\n"),
    'verify-action/no-pairs': (2, '', "error: {dir}/no-pairs.action: missing or empty 'pairs:' line\n"),
    'verify-action/non-coprime': (2, '', None),
    'verify-action/nonlatin': (2, '', None),
    'verify-action/pairs-syntax': (2, '', "error: {dir}/pairs-syntax.action:2: not a Seifert pair: '(3'\n"),
    'verify-action/q8': (0, 'ok\n', ''),
    'verify-action/theta2-count': (2, '', 'error: {dir}/theta2-count.action:4: theta2 needs 3 angles, got 2\n'),
    'verify-action/unicode-key': (2, '', None),
    'verify-action/unknown-key': (2, '', "error: {dir}/unknown-key.action:6: unknown key 'colour'\n"),
    'verify-action/z3': (0, 'ok\n', ''),
}
