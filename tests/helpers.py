"""Action fixtures and independent oracles shared across the test suite."""

import math
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import settings

from seifert_actions.action import ExtendedActionData, boundary_action
from seifert_actions.groups import (
    GroupTableError,
    cyclic_group,
    dihedral_group,
    direct_product,
    quaternion_group,
)
from seifert_actions.rational import ZERO_ANGLE, angle
from seifert_actions.seifert import SeifertPair, SeifertPresentation
from seifert_actions.torus import compose


SRC = Path(__file__).resolve().parents[1] / "src"

# Property tests run a fixed, bounded set of examples and keep no database.
PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)


def run_python(code, *argv):
    """stdout of `python -c code argv...` in a fresh interpreter that
    imports the package from the source tree and writes no bytecode."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, check=True).stdout


def random_presentation(rng, max_q=50, max_p=200, max_pairs=6):
    genus = rng.randrange(0, 4)
    pairs = []
    for _ in range(rng.randrange(0, max_pairs + 1)):
        q = rng.randrange(1, max_q + 1)
        while True:
            p = rng.randrange(-max_p, max_p + 1)
            if math.gcd(q, abs(p)) == 1:
                break
        pairs.append(SeifertPair(q, p))
    return SeifertPresentation(genus, tuple(pairs))


def random_legal_move(rng, pres):
    n = len(pres.pairs)
    options = ["add_trivial"]
    if n >= 1:
        options.append("permute")
    if n >= 2:
        options.append("shift")
    trivial_indices = [i for i, pair in enumerate(pres.pairs) if pair.is_trivial()]
    if trivial_indices:
        options.append("delete_trivial")
    choice = rng.choice(options)
    if choice == "permute":
        perm = list(range(n))
        rng.shuffle(perm)
        return ("permute", perm)
    if choice == "add_trivial":
        return ("add_trivial",)
    if choice == "delete_trivial":
        return ("delete_trivial", rng.choice(trivial_indices))
    i = rng.randrange(n)
    j = rng.choice([k for k in range(n) if k != i])
    return ("shift", i, j, rng.randrange(-5, 6))


def make_action(group, pairs, alpha, theta1, beta, theta2):
    return ExtendedActionData(
        group, tuple(pairs), tuple(alpha), tuple(theta1),
        tuple(tuple(row) for row in beta), tuple(tuple(row) for row in theta2),
    )


def reflection_z2(pair=SeifertPair(3, 2), t=angle(1, 5), s=angle(1, 7)):
    """Z2 reflecting both circle directions; any phases are compatible."""
    return make_action(
        cyclic_group(2),
        (pair,),
        alpha=(1, -1),
        theta1=(ZERO_ANGLE, t),
        beta=((0,), (0,)),
        theta2=((ZERO_ANGLE,), (s,)),
    )


def rotation_z3():
    """Z3 rotating fibers by thirds and cycling three equal fillings."""
    group = cyclic_group(3)
    return make_action(
        group,
        (SeifertPair(2, 1),) * 3,
        alpha=(1, 1, 1),
        theta1=tuple(angle(k, 3) for k in range(3)),
        beta=tuple(tuple((i + k) % 3 for i in range(3)) for k in range(3)),
        theta2=tuple((angle(k, 3),) * 3 for k in range(3)),
    )


def klein_action():
    """Z2 x Z2: both generators reflect, their product rotates and swaps."""
    group = direct_product(cyclic_group(2), cyclic_group(2))
    # elements 0..3 = e, b, a, ab in the product encoding
    swap, ident = (1, 0), (0, 1)
    return make_action(
        group,
        (SeifertPair(3, 1),) * 2,
        alpha=(1, -1, -1, 1),
        theta1=(ZERO_ANGLE, angle(3, 4), angle(1, 4), angle(1, 2)),
        beta=(ident, swap, ident, swap),
        theta2=(
            (ZERO_ANGLE,) * 2,
            (ZERO_ANGLE,) * 2,
            (angle(1, 2),) * 2,
            (angle(1, 2),) * 2,
        ),
    )


def rotation_z6():
    """Z6 rotating fibers by sixths and swapping two equal fillings."""
    group = cyclic_group(6)
    swap, ident = (1, 0), (0, 1)
    return make_action(
        group,
        (SeifertPair(5, 2),) * 2,
        alpha=(1,) * 6,
        theta1=tuple(angle(k, 6) for k in range(6)),
        beta=tuple(swap if k % 2 else ident for k in range(6)),
        theta2=tuple((angle(k, 6),) * 2 for k in range(6)),
    )


def dihedral_d3_action():
    """Dihedral group of order 6 acting on three equal fillings."""
    group = dihedral_group(3)
    alpha, theta1, beta, theta2 = [], [], [], []
    for x in range(6):
        rot, flip = x % 3, x // 3
        sign = -1 if flip else 1
        alpha.append(sign)
        theta1.append(angle(rot, 3))
        beta.append(tuple((rot + sign * i) % 3 for i in range(3)))
        theta2.append((angle(rot, 3),) * 3)
    return make_action(group, (SeifertPair(2, 1),) * 3, alpha, theta1, beta, theta2)


def dihedral_d4_action():
    """Dihedral group of order 8 acting on two equal fillings."""
    group = dihedral_group(4)
    swap, ident = (1, 0), (0, 1)
    alpha, theta1, beta, theta2 = [], [], [], []
    for x in range(8):
        rot, flip = x % 4, x // 4
        alpha.append(-1 if flip else 1)
        theta1.append(angle(rot, 4))
        beta.append(swap if rot % 2 else ident)
        theta2.append((angle(rot, 4),) * 2)
    return make_action(group, (SeifertPair(3, 2),) * 2, alpha, theta1, beta, theta2)


def quaternion_action():
    """Q8 with the +-i kernel preserving fiber orientation, phases trivial.

    Every fiber-orientation-reversing element has order 4, so the
    orientation extension cannot split.
    """
    group = quaternion_group()
    alpha = tuple(1 if g % 4 in (0, 1) else -1 for g in range(8))
    return make_action(
        group,
        (SeifertPair(2, 1),),
        alpha=alpha,
        theta1=(ZERO_ANGLE,) * 8,
        beta=((0,),) * 8,
        theta2=((ZERO_ANGLE,),) * 8,
    )


def single_pair_rotation_action(pair, t, s):
    """Cyclic rotation action whose generator carries phases (t, s)."""
    n = math.lcm(t.order, s.order)
    group = cyclic_group(n)
    return make_action(
        group,
        (pair,),
        alpha=(1,) * n,
        theta1=tuple(t.scale(k) for k in range(n)),
        beta=((0,),) * n,
        theta2=tuple((s.scale(k),) for k in range(n)),
    )


def trivial_action(group, pair=SeifertPair(2, 1)):
    n = group.order
    return make_action(
        group,
        (pair,),
        alpha=(1,) * n,
        theta1=(ZERO_ANGLE,) * n,
        beta=((0,),) * n,
        theta2=((ZERO_ANGLE,),) * n,
    )


def mixed_orbit_action(cyclic_order, blocks):
    """Z_n cycling disjoint blocks of equal fillings.

    blocks is a list of (block_size, pair); block_size must divide n.
    theta2 is k/n everywhere, theta1 is k/n.
    """
    group = cyclic_group(cyclic_order)
    pairs = []
    offsets = []
    for size, pair in blocks:
        offsets.append(len(pairs))
        pairs.extend([pair] * size)
    beta = []
    for k in range(cyclic_order):
        images = list(range(len(pairs)))
        for (size, _), offset in zip(blocks, offsets):
            for i in range(size):
                images[offset + i] = offset + (i + k) % size
        beta.append(tuple(images))
    return make_action(
        group,
        pairs,
        alpha=(1,) * cyclic_order,
        theta1=tuple(angle(k, cyclic_order) for k in range(cyclic_order)),
        beta=beta,
        theta2=tuple(
            (angle(k, cyclic_order),) * len(pairs) for k in range(cyclic_order)
        ),
    )


def standard_fixtures():
    return [
        reflection_z2(),
        rotation_z3(),
        klein_action(),
        rotation_z6(),
        dihedral_d3_action(),
        dihedral_d4_action(),
    ]


def evaluation_homomorphism_holds(data):
    """Independent route to the compatibility laws: compare composed boundary
    evaluations against the evaluation at the product, for all pairs."""
    group = data.group
    for g1 in group.elements():
        for g2 in group.elements():
            g12 = group.mul(g1, g2)
            for i in range(data.n_boundary):
                mid, inner = boundary_action(data, g2, i)
                target, outer = boundary_action(data, g1, mid)
                direct_target, direct = boundary_action(data, g12, i)
                if target != direct_target or compose(outer, inner) != direct:
                    return False
    return True


def reference_law_report(data):
    """Independent route to the `verify_action` report: the laws in angle
    arithmetic at every one of the N^2 pairs, then the filling check."""
    problems = []
    for g1 in data.group.elements():
        for g2 in data.group.elements():
            g12 = data.group.mul(g1, g2)
            a1 = data.alpha[g1]
            beta2 = data.beta[g2]
            if data.alpha[g12] != a1 * data.alpha[g2]:
                problems.append(
                    f"alpha is not a homomorphism at ({g1},{g2}): "
                    f"alpha({g12})={data.alpha[g12]:+d} but product is "
                    f"{a1 * data.alpha[g2]:+d}"
                )
            expected1 = data.theta1[g1] + data.theta1[g2].scale(a1)
            if data.theta1[g12] != expected1:
                problems.append(
                    f"theta1 twisted-cocycle law fails at ({g1},{g2}): "
                    f"theta1({g12})={data.theta1[g12]} but law gives {expected1}"
                )
            composed = tuple(data.beta[g1][j] for j in beta2)
            if data.beta[g12] != composed:
                problems.append(
                    f"beta is not a homomorphism at ({g1},{g2}): "
                    f"beta({g12})={data.beta[g12]} but composition is {composed}"
                )
            for i, j in enumerate(beta2):
                expected2 = data.theta2[g1][j] + data.theta2[g2][i].scale(a1)
                if data.theta2[g12][i] != expected2:
                    problems.append(
                        f"theta2 twisted-cocycle law fails at ({g1},{g2}) on "
                        f"boundary {i}: theta2({g12},{i})={data.theta2[g12][i]} "
                        f"but law gives {expected2}"
                    )
    for g in data.group.elements():
        for i, j in enumerate(data.beta[g]):
            if data.pairs[i] != data.pairs[j]:
                problems.append(
                    f"beta({g}) sends boundary {i} to {j} but the fillings "
                    f"differ: {data.pairs[i]} vs {data.pairs[j]}"
                )
    return problems


def inverse(group, a):
    """The b with a*b = identity, found by scanning the group."""
    return next(b for b in group.elements() if group.mul(a, b) == group.identity)


def reference_table_check(table):
    """Reference for the table checks of `validate_group` before its
    associativity test: range, Latin property and identity, entry by entry,
    raising the same GroupTableError on the first failure."""
    n = len(table)
    if n == 0:
        raise GroupTableError("empty table")
    for g, row in enumerate(table):
        if len(row) != n:
            raise GroupTableError(f"row {g} has {len(row)} entries, expected {n}")
        for h, v in enumerate(row):
            if not 0 <= v < n:
                raise GroupTableError(f"entry [{g}][{h}]={v} out of range 0..{n - 1}")
    full = set(range(n))
    for g in range(n):
        if set(table[g]) != full:
            raise GroupTableError(f"row {g} is not a permutation (table not Latin)")
        if {table[h][g] for h in range(n)} != full:
            raise GroupTableError(f"column {g} is not a permutation (table not Latin)")
    if any(table[0][g] != g or table[g][0] != g for g in range(n)):
        raise GroupTableError("element 0 is not the identity")


def random_angle(rng):
    return angle(rng.randrange(0, 12), rng.randrange(1, 13))


def perturb_action(data, rng):
    """Change exactly one theta1, theta2 or beta entry to a different value."""
    choices = ["theta1", "theta2"]
    if data.n_boundary >= 2:
        choices.append("beta")
    kind = rng.choice(choices)
    g = rng.randrange(data.group.order)
    theta1 = list(data.theta1)
    theta2 = [list(row) for row in data.theta2]
    beta = [tuple(row) for row in data.beta]
    if kind == "theta1":
        while True:
            new = random_angle(rng)
            if new != theta1[g]:
                break
        theta1[g] = new
    elif kind == "theta2":
        i = rng.randrange(data.n_boundary)
        while True:
            new = random_angle(rng)
            if new != theta2[g][i]:
                break
        theta2[g][i] = new
    else:
        new = list(beta[g])
        while tuple(new) == beta[g]:
            rng.shuffle(new)
        beta[g] = tuple(new)
    return make_action(data.group, data.pairs, data.alpha, theta1, beta, theta2)
