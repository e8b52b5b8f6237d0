"""Seeded input generators, one per workload.

Each generator takes a `random.Random` seeded from `--seed` and returns
the operations of one workload, each with the answer `model` computes for
it.  CLI operations are argument lists for `python -m seifert_actions`;
group and action files are written with the library's own `format_group`
and `format_action`.  Kernel operations are closures over library calls,
looked up on the modules at call time so that the traced run sees them.

Each workload is built from a fixed multiset of case kinds per cycle, so a
seed changes the values in the inputs but not the mix of work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import model
from seifert_actions import action, groups, obstruction, orbifold, rational, seifert, torus


@dataclass
class Op:
    """One operation and its expected outcome.

    CLI operations set `argv`; the run is correct when the exit code is
    `exit`, stdout equals `stdout` (or satisfies `check`), stderr holds no
    traceback, and for exit 2 stderr contains `needle`.  Kernel operations
    set `run`, a callable taking the tracer, and `check` on its result.
    """

    kind: str
    argv: list[str] | None = None
    exit: int = 0
    stdout: str | None = None
    needle: str | None = None
    check: Callable | None = None
    run: Callable | None = None
    verb: str | None = None


# --- shared random inputs ---------------------------------------------------


def coprime_p(rng, q, lo, hi):
    while True:
        p = rng.randrange(lo, hi + 1)
        if math.gcd(q, abs(p)) == 1:
            return p


def random_pairs(rng, max_q=50, max_p=200, max_pairs=6):
    """Criterion-07 presentations: up to six pairs, q <= 50, |p| <= 200."""
    pairs = []
    for _ in range(rng.randrange(0, max_pairs + 1)):
        q = rng.randrange(1, max_q + 1)
        pairs.append((q, coprime_p(rng, q, -max_p, max_p)))
    return rng.randrange(0, 4), pairs


def random_moves(rng, pairs, count):
    """Legal move tuples in `seifert.apply_move` form, with the result."""
    moves = []
    for _ in range(count):
        n = len(pairs)
        options = ["add_trivial"] + (["permute"] if n else []) + (["shift"] if n >= 2 else [])
        trivial = [i for i, pair in enumerate(pairs) if pair == (1, 0)]
        if trivial:
            options.append("delete_trivial")
        choice = rng.choice(options)
        if choice == "permute":
            perm = list(range(n))
            rng.shuffle(perm)
            move = ("permute", perm)
        elif choice == "add_trivial":
            move = ("add_trivial",)
        elif choice == "delete_trivial":
            move = ("delete_trivial", rng.choice(trivial))
        else:
            i = rng.randrange(n)
            j = rng.choice([k for k in range(n) if k != i])
            move = ("shift", i, j, rng.randrange(-5, 6))
        pairs = model.apply_move(pairs, move)
        moves.append(move)
    return moves, pairs


def grid_cells():
    """The criterion-04 grid: orders 2..48, cone subsets of {2,3,4,6},
    corner sets (), (2), (3), (2,3), wherever the orders divide."""
    cone_sets = [()]
    for n in (2, 3, 4, 6):
        cone_sets += [c + (n,) for c in cone_sets]
    cells = []
    for order in range(2, 49):
        for cones in sorted(cone_sets):
            if any(order % n for n in cones):
                continue
            for corners in ((), (2,), (3,), (2, 3)):
                if not any(order % (2 * m) for m in corners):
                    cells.append((order, cones, corners))
    return cells


# --- cli-verbs ----------------------------------------------------------------


def cli_cycle(rng, cells):
    """One cycle: two cases for each of the ten non-action verbs."""
    ops = []

    def add(kind, argv, exit=0, stdout=None, needle=None, check=None):
        ops.append(Op(kind, argv, exit, stdout, needle, check, verb=argv[0]))

    genus, pairs = random_pairs(rng)
    add("validate/ok", ["validate", model.pres_text(genus, pairs)], 0, "ok\n")
    q = rng.randrange(2, 51)
    k = rng.choice([d for d in range(2, q + 1) if q % d == 0])
    bad_pair = (q, k * rng.randrange(-20, 21))
    bad = pairs + [bad_pair]
    rng.shuffle(bad)
    bad_genus = rng.choice([genus, -1])
    add("validate/negative", ["validate", model.pres_text(bad_genus, bad)], 3,
        "".join(line + "\n" for line in model.problems(bad_genus, bad)))

    genus, pairs = random_pairs(rng)
    add("normalize/ok", ["normalize", model.pres_text(genus, pairs)], 0,
        model.normal_text(genus, pairs) + "\n")
    add("normalize/malformed", ["normalize", model.pres_text(genus, bad)], 2,
        needle=f"({bad_pair[0]},{bad_pair[1]})", stdout="")

    genus, pairs = random_pairs(rng)
    _, moved = random_moves(rng, pairs, rng.randrange(1, 21))
    add("equiv/equivalent", ["equiv", model.pres_text(genus, pairs), model.pres_text(genus, moved)],
        0, "equivalent\n")
    shifted = moved + [(1, rng.choice([-2, -1, 1, 2]))]
    add("equiv/not", ["equiv", model.pres_text(genus, pairs), model.pres_text(genus, shifted)],
        3, "not equivalent\n")

    genus, pairs = random_pairs(rng)
    add("euler/ok", ["euler", model.pres_text(genus, pairs)], 0, f"{model.euler(pairs)}\n")
    text = model.pres_text(genus, pairs + [(3, 2)])[: -rng.randrange(1, 4)]
    add("euler/malformed", ["euler", text], 2, "", needle=text)

    q = rng.randrange(1, 51)
    p = coprime_p(rng, q, -200, 200)
    x, y = model.gluing(q, p)
    add("glue-pair/ok", ["glue-pair", f"({q},{p})"], 0,
        f"x={x} y={y}\nfibration: ({-q},{y})\n")
    q = rng.randrange(2, 51)
    p = q * rng.randrange(1, 5)
    add("glue-pair/malformed", ["glue-pair", f"({q},{p})"], 2, "", needle=f"({q},{p})")

    for sign in (False, True):
        genus = rng.randrange(0, 3)
        cones = tuple(sorted(rng.sample(range(2, 13), rng.randrange(0, 6))))
        chi = model.chi(genus, cones)
        out = f"{chi}\n"
        if sign:
            out += ("spherical" if chi > 0 else "euclidean" if chi == 0 else "hyperbolic") + "\n"
        add("orbifold-chi/ok", ["orbifold-chi", model.orbifold_text(genus, cones, ())]
            + (["--sign"] if sign else []), 0, out)

    order, cones, corners = rng.choice(cells)
    add("orbit-numbers/ok",
        ["orbit-numbers", model.orbifold_text(0, cones, corners), "--order", str(order)],
        0, " ".join(map(str, model.orbit_numbers(order, cones, corners))) + "\n")
    n = rng.choice([5, 7, 9, 11])
    add("orbit-numbers/malformed",
        ["orbit-numbers", model.orbifold_text(0, (n,), ()), "--order", str(n * 2 + 1)],
        2, "", needle=f"cone order {n}")

    for satisfied in (True, False):
        while True:
            order, cones, corners = rng.choice(cells)
            divisor = math.gcd(*model.orbit_numbers(order, cones, corners))
            if satisfied or divisor > 1:
                break
        b = divisor * rng.randrange(-10, 11)
        if not satisfied:
            b += rng.randrange(1, divisor)
        add("check-obstruction/" + ("satisfied" if satisfied else "not"),
            ["check-obstruction", model.orbifold_text(0, cones, corners),
             "--b", str(b), "--order", str(order)],
            0 if satisfied else 3,
            f"divisor: {divisor}\n" + ("satisfied\n" if satisfied else "not satisfied\n"))

    orbits = [rng.randrange(1, 61) for _ in range(rng.randrange(1, 5))]
    g = math.gcd(*orbits)
    b = g * rng.randrange(-30, 31)
    add("decompose/ok", ["decompose", "--b", str(b), "--orbits", ",".join(map(str, orbits))],
        0, check=lambda out, b=b, orbits=orbits: out.endswith("\n")
        and out.count("\n") == 1 and model.witness_ok(out[:-1], b, orbits))
    if rng.random() < 0.5:
        orbits = [2 * rng.randrange(1, 31) for _ in range(rng.randrange(1, 5))]
        add("decompose/impossible",
            ["decompose", "--b", str(2 * rng.randrange(-30, 31) + 1),
             "--orbits", ",".join(map(str, orbits))], 3, "impossible\n")
    else:
        text = f"{rng.randrange(1, 60)},x{rng.randrange(1, 60)}"
        add("decompose/malformed", ["decompose", "--b", "5", "--orbits", text], 2, "",
            needle=text)

    genus, pairs = random_pairs(rng)
    g, reduced, b = model.normal_form(genus, pairs)
    extra = rng.randrange(0, 3)
    h = [rng.randrange(-5, 6) for _ in range(len(reduced) + extra)]
    if not h:
        h = [0]
        extra = 1
    h[-1] += b - sum(h)
    argv = ["rewrite", model.pres_text(genus, pairs), "--h=" + ",".join(map(str, h))]
    if rng.random() < 0.5:
        argv += ["--partition", ";".join(str(i + 1) for i in range(len(h)))]
    rewritten = [(qq, pp + hv * qq) for (qq, pp), hv in zip(reduced, h)]
    rewritten += [(1, hv) for hv in h[len(reduced):]]
    add("rewrite/ok", argv, 0, model.pres_text(g, rewritten) + "\n")
    text = f"{rng.randrange(-5, 6)},{rng.choice('abz')}"
    add("rewrite/malformed", ["rewrite", model.pres_text(genus, pairs), "--h=" + text], 2, "",
        needle=text)
    return ops


def cli_defects(rng, cells):
    """Exit-2 inputs whose error at the seed does not name the input."""
    _, cones, corners = rng.choice([c for c in cells if c[2]])
    text = model.orbifold_text(0, cones, corners)
    lst = f"{rng.choice([2, 3, 4])},,{rng.choice([3, 6])}"
    return [
        Op("orbifold-chi/corners", ["orbifold-chi", text], 2, "", needle=text),
        Op("orbit-numbers/empty-order",
           ["orbit-numbers", f"genus:0 cone:({lst}) corner:()", "--order", "12"],
           2, "", needle=lst),
    ]


# --- action fixtures ----------------------------------------------------------

# (name, group kind, group parameter, blocks).  A block is (size, factor):
# `size` boundary tori with one common filling, cycled by the group (by the
# given direct factor for products).  `size` divides the cycling order.
SHAPES = [
    ("cyc96-n1", "cyclic", 96, [(1, 0)]),
    ("dih48-n2", "dihedral", 48, [(2, 0)]),
    ("z12xz8-n2", "product", (12, 8), [(2, 1)]),
    ("cyc8-n24", "cyclic", 8, [(8, 0), (8, 0), (4, 0), (2, 0), (1, 0), (1, 0)]),
    ("dih6-n24", "dihedral", 6, [(6, 0), (6, 0), (3, 0), (3, 0), (2, 0), (2, 0), (1, 0), (1, 0)]),
    ("cyc24-n8", "cyclic", 24, [(4, 0), (2, 0), (1, 0), (1, 0)]),
    ("z6xz8-n12", "product", (6, 8), [(6, 0), (4, 1), (2, 1)]),
    ("cyc48-n24", "cyclic", 48, [(16, 0), (4, 0), (3, 0), (1, 0)]),
]

ACTION_VERBS = ["verify-action", "structure", "orbits", "boundary-action", "filling-action"]

# One cycle of action calls as (shape, verb on valid files, verb on
# perturbed files), the same in every cycle and for every seed, so every
# cycle has the same mix.  A thirteenth light call completes it: a
# malformed file on perturbed runs, LIGHT_EXTRA on valid ones.  By time the
# calls fall into classes: four light ones, cyc96-n1, three on z6xz8-n12,
# the two shapes with two boundaries, and three on cyc48-n24.  z6xz8-n12
# holds ranks 6 to 8 of 13, so p50 falls inside its times, and cyc48-n24
# ranks 11 to 13, so p90 falls inside its times.
ACTION_CYCLE = [
    ("cyc8-n24", "orbits", "verify-action"),
    ("dih6-n24", "filling-action", "orbits"),
    ("cyc24-n8", "boundary-action", "verify-action"),
    ("cyc96-n1", "structure", "structure"),
    ("z6xz8-n12", "verify-action", "verify-action"),
    ("z6xz8-n12", "structure", "boundary-action"),
    ("z6xz8-n12", "boundary-action", "verify-action"),
    ("dih48-n2", "verify-action", "filling-action"),
    ("z12xz8-n2", "filling-action", "verify-action"),
    ("cyc48-n24", "verify-action", "verify-action"),
    ("cyc48-n24", "structure", "structure"),
    ("cyc48-n24", "orbits", "boundary-action"),
]
LIGHT_EXTRA = ("dih6-n24", "verify-action")


def shape_groups(kind, param):
    """The group as a library `FiniteGroup` and as a reference table."""
    if kind == "cyclic":
        return groups.cyclic_group(param), model.cyclic_table(param)
    if kind == "dihedral":
        return groups.dihedral_group(param), model.dihedral_table(param)
    a, b = param
    return (
        groups.direct_product(groups.cyclic_group(a), groups.cyclic_group(b)),
        model.product_table(model.cyclic_table(a), model.cyclic_table(b)),
    )


def random_angle(rng, den=12):
    return Fraction(rng.randrange(0, den), rng.randrange(1, den + 1))


def build_action(rng, kind, param, blocks):
    """A valid action by construction: a linear part (rotations by k/order
    along each cycle) plus random coboundaries in theta1 and theta2."""
    order = 2 * param if kind == "dihedral" else (param if kind == "cyclic" else param[0] * param[1])
    pairs, starts = [], []
    for size, _ in blocks:
        q = rng.randrange(1, 51)
        starts.append(len(pairs))
        pairs += [(q, coprime_p(rng, q, -60, 60))] * size
    n = len(pairs)

    def coords(x):
        """(sign, rotation by factor) of element x."""
        if kind == "cyclic":
            return 1, (x, 0)
        if kind == "dihedral":
            return (-1 if x >= param else 1), (x % param, 0)
        return 1, divmod(x, param[1])

    mod = (param, param) if kind != "product" else param
    lin1 = [Fraction(rng.randrange(mod[f]), mod[f]) for f in (0, 1)]
    lin2 = [Fraction(rng.randrange(mod[f]), mod[f]) for f in (0, 1)]
    if kind != "product":
        lin1[1] = lin2[1] = Fraction(0)
    h0 = random_angle(rng)
    h = [random_angle(rng) for _ in range(n)]
    act = {"pairs": pairs, "alpha": [], "theta1": [], "beta": [], "theta2": []}
    for x in range(order):
        sign, rot = coords(x)
        perm = list(range(n))
        for (size, factor), start in zip(blocks, starts):
            for j in range(size):
                perm[start + j] = start + (rot[factor] + sign * j) % size
        perm = tuple(perm)
        act["alpha"].append(sign)
        act["theta1"].append((rot[0] * lin1[0] + rot[1] * lin1[1] + (1 - sign) * h0) % 1)
        act["beta"].append(perm)
        base = rot[0] * lin2[0] + rot[1] * lin2[1]
        act["theta2"].append(tuple((base + h[perm[i]] - sign * h[i]) % 1 for i in range(n)))
    return act


def perturb(rng, act, change):
    """Change one `change` entry (theta1, theta2 or beta) of a random
    element; returns (new action, element)."""
    new = {key: list(value) for key, value in act.items()}
    g = rng.randrange(len(act["alpha"]))
    n = len(act["pairs"])
    if change == "theta1":
        new["theta1"][g] = (act["theta1"][g] + Fraction(rng.randrange(1, 12), 12)) % 1
    elif change == "theta2":
        i = rng.randrange(n)
        row = list(act["theta2"][g])
        row[i] = (row[i] + Fraction(rng.randrange(1, 12), 12)) % 1
        new["theta2"][g] = tuple(row)
    else:
        i, j = rng.sample(range(n), 2)
        perm = list(act["beta"][g])
        perm[i], perm[j] = perm[j], perm[i]
        new["beta"][g] = tuple(perm)
    return new, g


def library_action(group, act):
    angle = rational.RationalAngle
    return action.ExtendedActionData(
        group,
        tuple(seifert.SeifertPair(q, p) for q, p in act["pairs"]),
        tuple(act["alpha"]),
        tuple(angle(t) for t in act["theta1"]),
        tuple(act["beta"]),
        tuple(tuple(angle(t) for t in row) for row in act["theta2"]),
    )


@dataclass
class Fixture:
    shape: str
    path: str
    table: list
    act: dict
    group_file: str


def write_fixtures(rng, workdir: Path, variants: int, perturbed: bool, shapes=None):
    """Write `variants` action files per shape; return (Fixture, expected
    violation report) pairs, the report None unless `perturbed`."""
    fixtures = []
    for name, kind, param, blocks in SHAPES:
        if shapes is not None and name not in shapes:
            continue
        group, table = shape_groups(kind, param)
        group_file = f"{name}.group"
        (workdir / group_file).write_text(groups.format_group(group), encoding="utf-8")
        n = sum(size for size, _ in blocks)
        for v in range(variants):
            act = build_action(rng, kind, param, blocks)
            report = None
            if perturbed:
                # one angle and one permutation perturbation per shape
                change = rng.choice(["theta1", "theta2"]) if v % 2 == 0 or n < 2 else "beta"
                act, g = perturb(rng, act, change)
                report = model.law_violations(table, act, [g])
            path = workdir / f"{name}-{v}{'-bad' if perturbed else ''}.action"
            path.write_text(action.format_action(library_action(group, act), group_file),
                            encoding="utf-8")
            fixtures.append((Fixture(name, str(path), table, act, group_file), report))
    return fixtures


def action_argv(verb, path, g, i):
    """Arguments of an action verb; g and i are used by the two map verbs."""
    if verb in ("boundary-action", "filling-action"):
        return [verb, path, "--element", str(g), "--index", str(i + 1)]
    return [verb, path]


def action_op(rng, fx: Fixture, verb: str, report=None) -> Op:
    g = rng.randrange(len(fx.table))
    i = rng.randrange(len(fx.act["pairs"]))
    argv = action_argv(verb, fx.path, g, i)
    kind = f"{fx.shape}/{verb}"
    if report is not None:
        if verb == "verify-action":
            return Op(kind, argv, 3, "".join(line + "\n" for line in report), verb=verb)
        more = f" (+{len(report) - 1} more)" if len(report) > 1 else ""
        return Op(kind, argv, 2, "", needle=f"{fx.path} is not a valid action: {report[0]}{more}",
                  verb=verb)
    if verb == "verify-action":
        out = "ok\n"
    elif verb == "structure":
        out = model.structure_text(fx.table, fx.act)
    elif verb == "orbits":
        out = model.orbits_text(fx.act)
    elif verb == "boundary-action":
        out = model.boundary_text(fx.act, g, i)
    else:
        out = model.filling_text(fx.act, g, i)
    return Op(kind, argv, 0, out, verb=verb)


def edit_lines(text, fn):
    lines = text.splitlines()
    fn(lines)
    return "\n".join(lines) + "\n"


def malformed_files(rng, fx: Fixture, workdir: Path):
    """Broken copies of one valid fixture that the seed rejects with exit 2
    and a message naming the file.  Returns (path, needle, label)."""
    base = Path(fx.path).read_text(encoding="utf-8")
    group_text = (workdir / fx.group_file).read_text(encoding="utf-8")
    order = len(fx.table)
    n = len(fx.act["pairs"])
    g = rng.randrange(order)
    row = 2 + g  # line of element g: after 'group:' and 'pairs:'
    cases = []

    def add(label, text, needle_path=None):
        path = workdir / f"bad-{label}.action"
        path.write_text(text, encoding="utf-8")
        cases.append((str(path), needle_path or str(path), label))

    def set_field(lines, field, value):
        toks = lines[row].split()
        toks = [f"{field}={value}" if t.startswith(field + "=") else t for t in toks]
        lines[row] = " ".join(toks)

    add("bad-angle", edit_lines(base, lambda ls: set_field(ls, "theta1", f"{rng.randrange(1, 9)}/0")))
    add("missing-element", edit_lines(base, lambda ls: ls.pop(row)))
    add("unknown-key", edit_lines(base, lambda ls: ls.insert(rng.randrange(2, len(ls)), "colour: red")))
    add("alpha", edit_lines(base, lambda ls: set_field(ls, "alpha", rng.choice(["2", "0", "+2"]))))
    add("beta-not-perm", edit_lines(
        base, lambda ls: set_field(ls, "beta", "(" + ",".join(["1"] * max(n, 2)) + ")")))
    add("theta2-count", edit_lines(
        base, lambda ls: set_field(ls, "theta2", ",".join(["0"] * (n + rng.randrange(1, 3))))))
    add("pairs-syntax", edit_lines(base, lambda ls: ls.__setitem__(1, ls[1] + " (3")))
    add("extra-element", base + f"{order + rng.randrange(0, 5)}: " + base.splitlines()[2].split(": ", 1)[1] + "\n")
    missing = f"missing-{rng.randrange(10**6)}.group"
    add("group-missing", edit_lines(base, lambda ls: ls.__setitem__(0, f"group: {missing}")),
        str(workdir / missing))
    short = workdir / "short.group"
    short.write_text(edit_lines(group_text, lambda ls: ls.pop(rng.randrange(1, len(ls)))),
                     encoding="utf-8")
    add("group-rows", edit_lines(base, lambda ls: ls.__setitem__(0, "group: short.group")),
        str(short))
    return cases


def action_defects(rng, fx: Fixture, workdir: Path):
    """Known defects (ROADMAP item 4 and kin): each should exit 2 with a
    message naming the file; at the seed each is accepted or unlocated."""
    base = Path(fx.path).read_text(encoding="utf-8")
    lines = base.splitlines()
    order = len(fx.table)
    g = rng.randrange(order)
    row = 2 + g
    ops = []

    def add(label, text):
        path = workdir / f"defect-{label}.action"
        path.write_text(text, encoding="utf-8")
        ops.append(Op(f"defect/{label}", ["verify-action", str(path)], 2, "", needle=str(path),
                      verb="verify-action"))

    wrong = lines[row].replace("theta1=", f"theta1={rng.randrange(1, 7)}/7 theta1=", 1)
    add("duplicate-field", edit_lines(base, lambda ls: ls.__setitem__(row, wrong)))
    add("duplicate-element", edit_lines(base, lambda ls: ls.insert(2 + rng.randrange(order), ls[row])))
    add("unicode-digit-key", base + "²: " + lines[2].split(": ", 1)[1] + "\n")
    group_lines = (workdir / fx.group_file).read_text(encoding="utf-8").splitlines()
    r = rng.randrange(2, len(group_lines))
    toks = group_lines[r].split()
    a, b = rng.sample(range(len(toks)), 2)
    toks[a], toks[b] = toks[b], toks[a]
    group_lines[r] = " ".join(toks)
    (workdir / "non-latin.group").write_text("\n".join(group_lines) + "\n", encoding="utf-8")
    add("non-latin-group", edit_lines(base, lambda ls: ls.__setitem__(0, "group: non-latin.group")))
    q = 2 * rng.randrange(2, 10)
    pairs_line = "pairs: " + " ".join([f"({q},{q // 2})"] * len(fx.act["pairs"]))
    add("non-coprime-pair", edit_lines(base, lambda ls: ls.__setitem__(1, pairs_line)))
    return ops


# --- kernels ------------------------------------------------------------------

# Integer matrices of finite order 1, 2, 2, 3, 4, 6 and of infinite order.
MATRICES = [
    (1, 0, 0, 1), (-1, 0, 0, -1), (0, 1, 1, 0), (0, -1, 1, -1), (0, -1, 1, 0),
    (0, -1, 1, 1), (2, 1, 1, 1), (1, 1, 0, 1),
]


def moves_op(rng) -> Op:
    """Criterion 07: a move chain keeps the class and the Euler number."""
    genus, pairs = random_pairs(rng)
    moves, moved = random_moves(rng, pairs, rng.randrange(1, 21))
    other = pairs + [(1, rng.choice([-1, 1]))]

    def pres(ps):
        return seifert.SeifertPresentation(genus, tuple(seifert.SeifertPair(q, p) for q, p in ps))

    start, shifted = pres(pairs), pres(other)
    e = model.euler(pairs)
    g, reduced, b = model.normal_form(genus, pairs)

    def run():
        m = start
        for move in moves:
            m = seifert.apply_move(m, move)
        return (m, seifert.euler_number(start), seifert.euler_number(m),
                seifert.normalize(start), seifert.normalize(m),
                seifert.equivalent(start, m), seifert.equivalent(start, shifted))

    def check(r):
        m, e1, e2, n1, n2, eq, neq = r
        return ([(x.q, x.p) for x in m.pairs] == moved and e1 == e == e2 and n1 == n2
                and (n1.genus, tuple((x.q, x.p) for x in n1.pairs), n1.b) == (g, reduced, b)
                and eq is True and neq is False)

    return Op("moves", run=run, check=check)


def obstruction_op(rng, cells) -> Op:
    """Criterion 04: divisibility agrees with witness feasibility."""
    order, cones, corners = rng.choice(cells)
    bs = [rng.randrange(-50, 51) for _ in range(16)]
    orbits = model.orbit_numbers(order, cones, corners)
    divisor = math.gcd(*orbits)

    def run():
        quotient = orbifold.OrbifoldData(0, cones, corners, bool(corners))
        numbers = sorted(orbifold.possible_orbit_numbers(order, quotient))
        return numbers, [
            (obstruction.satisfies_obstruction_divisibility(b, order, quotient),
             obstruction.decompose(b, numbers))
            for b in bs
        ]

    def check(r):
        numbers, results = r
        if numbers != orbits:
            return False
        for b, (divides, w) in zip(bs, results):
            if divides != (b % divisor == 0) or (w is not None) != divides:
                return False
            if w is not None and (list(w.orbit_numbers) != orbits
                                  or sum(c * o for c, o in zip(w.coefficients, orbits)) != b):
                return False
        return True

    return Op("obstruction", run=run, check=check)


def filling_op(rng, dens=None) -> Op:
    """Criterion 05: the filling formula equals conjugation by the gluing map.

    With `dens` = (a, b), a rotation action of Z_lcm(a, b) whose generator
    turns by t and s of exact denominators a and b; without, the Z2
    reflection with random t and s.
    """
    q = rng.randrange(1, 31)
    p = coprime_p(rng, q, -60, 60)
    reflect = dens is None
    if reflect:
        t = Fraction(rng.randrange(0, 24), rng.randrange(1, 25))
        s = Fraction(rng.randrange(0, 24), rng.randrange(1, 25))
        n = 2
    else:
        t, s = (Fraction(coprime_p(rng, d, 0, d - 1) if d > 1 else 0, d) for d in dens)
        n = math.lcm(*dens)
    pair = seifert.SeifertPair(q, p)
    tt, ss = rational.RationalAngle(t), rational.RationalAngle(s)
    expected = model.filling_map(q, p, -1 if reflect else 1, t, s)
    expected_order = model.t_order(expected)

    def run():
        group = groups.cyclic_group(n)
        zero = rational.ZERO_ANGLE
        if reflect:
            alpha, theta1, theta2 = (1, -1), (zero, tt), ((zero,), (ss,))
        else:
            alpha = (1,) * n
            theta1 = tuple(tt.scale(k) for k in range(n))
            theta2 = tuple((ss.scale(k),) for k in range(n))
        data = action.ExtendedActionData(group, (pair,), alpha, theta1, ((0,),) * n, theta2)
        verified = action.verify_action(data) if n <= 6 else []
        g = 1 % n
        d = torus.gluing_automorphism(pair)
        tb, b = action.boundary_action(data, g, 0)
        tf, f = action.induced_filling_action(data, g, 0)
        return verified, tb, tf, f, torus.conjugate_by_gluing(b, d), torus.order(f)

    def check(r):
        verified, tb, tf, f, c, order = r
        return (verified == [] and tb == tf == 0 and f == c and order == expected_order
                and (f.m11, f.m12, f.m21, f.m22, f.phase1.value, f.phase2.value) == expected)

    return Op("filling", run=run, check=check)


def torus_op(rng) -> Op:
    """torus.order on conjugates of finite- and infinite-order matrices."""
    m = MATRICES[rng.randrange(len(MATRICES))]
    for _ in range(rng.randrange(0, 4)):
        k = rng.randrange(-3, 4)
        u, ui = ((1, k, 0, 1), (1, -k, 0, 1)) if rng.random() < 0.5 else ((1, 0, k, 1), (1, 0, -k, 1))
        m = model.t_compose(model.t_compose(model.t_make(*u), model.t_make(*m)), model.t_make(*ui))[:4]
    f1, f2 = random_angle(rng), random_angle(rng)
    expected = model.t_order(model.t_make(*m, f1, f2))
    f = torus.TorusAutomorphism(*m, rational.RationalAngle(f1), rational.RationalAngle(f2))

    def run():
        inv = torus.inverse(f)
        return torus.order(f), torus.order(inv), torus.compose(f, inv)

    def check(r):
        return r[:2] == (expected, expected) and r[2].is_identity()

    return Op("torus-order", run=run, check=check)


def kernel_blocks(rng, cells) -> list[list[Op]]:
    """Blocks of eight tasks in a seeded order: 3 move chains, 2 obstruction
    cells, a reflection and a rotation filling check, and 1 torus-order task.

    The rotations take their denominators from one fixed multiset, the 288
    pairs (a, b) with 1 <= a, b <= 24 and a + b even, so every seed builds
    the same cyclic groups and the cost of a pass does not depend on it.
    """
    dens = [(a, b) for a in range(1, 25) for b in range(1, 25) if (a + b) % 2 == 0]
    rng.shuffle(dens)
    blocks = []
    for pair in dens:
        ops = [moves_op(rng) for _ in range(3)] + [obstruction_op(rng, cells) for _ in range(2)]
        ops += [filling_op(rng), filling_op(rng, pair), torus_op(rng)]
        rng.shuffle(ops)
        blocks.append(ops)
    return blocks
