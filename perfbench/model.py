"""Reference answers, computed without the library under test.

Everything here is plain integers and `Fraction`s: presentation invariants
by direct sums, gluing exponents by search, torus maps as 6-tuples, groups
as explicit tables and actions as lists.  The benchmark compares the
program's outputs with these answers, so nothing in this module imports
`seifert_actions`.
"""

from __future__ import annotations

import math
from fractions import Fraction

# --- presentations ---------------------------------------------------------


def normal_form(genus, pairs):
    """(genus, sorted reduced critical pairs, b) of a raw presentation."""
    b = 0
    reduced = []
    for q, p in pairs:
        if q == 1:
            b += p
        else:
            carry, rest = divmod(p, q)
            b += carry
            reduced.append((q, rest))
    return genus, tuple(sorted(reduced)), b


def euler(pairs) -> Fraction:
    """e = -(sum p/q) over every pair; carries and (1, b) terms included."""
    return -sum((Fraction(p, q) for q, p in pairs), Fraction(0))


def pres_text(genus, pairs) -> str:
    body = ", ".join(f"({q},{p})" for q, p in pairs)
    return f"({genus}, o1 |{' ' + body if body else ''})"


def normal_text(genus, pairs) -> str:
    g, reduced, b = normal_form(genus, pairs)
    return pres_text(g, reduced + ((1, b),))


def problems(genus, pairs) -> list[str]:
    out = []
    if genus < 0:
        out.append(f"genus must be nonnegative, got {genus}")
    for idx, (q, p) in enumerate(pairs, start=1):
        if q < 1:
            out.append(f"pair {idx}: q must be >= 1, got {q}")
        elif math.gcd(q, abs(p)) != 1:
            out.append(f"pair {idx}: ({q},{p}) not coprime (gcd={math.gcd(q, abs(p))})")
    return out


def gluing(q, p):
    """(x, y) with x*q - y*p = -1 and 0 <= y < q, by search over y."""
    y = next(y for y in range(q) if (y * p - 1) % q == 0) if q > 1 else 0
    return (y * p - 1) // q, y


def apply_move(pairs, move):
    """The four presentation moves on a list of (q, p)."""
    tag = move[0]
    if tag == "permute":
        return [pairs[i] for i in move[1]]
    if tag == "add_trivial":
        return pairs + [(1, 0)]
    if tag == "delete_trivial":
        return pairs[: move[1]] + pairs[move[1] + 1 :]
    _, i, j, m = move
    out = list(pairs)
    out[i] = (out[i][0], out[i][1] + m * out[i][0])
    out[j] = (out[j][0], out[j][1] - m * out[j][0])
    return out


# --- orbifolds and the obstruction -----------------------------------------


def orbifold_text(genus, cones, corners) -> str:
    return (
        f"genus:{genus} cone:({','.join(map(str, cones))}) "
        f"corner:({','.join(map(str, corners))})"
    )


def orbit_numbers(order, cones, corners) -> list[int]:
    return sorted({order} | {order // n for n in cones} | {order // (2 * m) for m in corners})


def chi(genus, cones) -> Fraction:
    return 2 - 2 * genus - sum((1 - Fraction(1, n) for n in cones), Fraction(0))


def witness_ok(text: str, b: int, orbits) -> bool:
    """True when `text` reads 'b = c1*o1 + ...' over exactly `orbits` and sums to b."""
    head, sep, terms = text.partition(" = ")
    if not sep or head != str(b):
        return False
    coefficients, seen = [], []
    for term in terms.split(" + "):
        c, star, o = term.partition("*")
        if not star:
            return False
        coefficients.append(int(c))
        seen.append(int(o))
    return seen == list(orbits) and sum(c * o for c, o in zip(coefficients, seen)) == b


# --- torus maps: (m11, m12, m21, m22, phase1, phase2), phases in [0, 1) ------


def t_make(m11, m12, m21, m22, f1=Fraction(0), f2=Fraction(0)):
    return (m11, m12, m21, m22, Fraction(f1) % 1, Fraction(f2) % 1)


def t_compose(f, g):
    """f after g."""
    a, b, c, d, f1, f2 = f
    e, h, k, m, g1, g2 = g
    return t_make(a * e + b * k, a * h + b * m, c * e + d * k, c * h + d * m,
                  a * g1 + b * g2 + f1, c * g1 + d * g2 + f2)


def t_inverse(f):
    a, b, c, d, f1, f2 = f
    det = a * d - b * c
    i11, i12, i21, i22 = d * det, -b * det, -c * det, a * det
    return t_make(i11, i12, i21, i22, -(i11 * f1 + i12 * f2), -(i21 * f1 + i22 * f2))


def t_order(f):
    """Least k with f^k = identity, or None; integer 2x2 orders are at most 12."""
    power = f
    for k in range(1, 13):
        if power[:4] == (1, 0, 0, 1):
            return k * math.lcm(power[4].denominator, power[5].denominator)
        power = t_compose(f, power)
    return None


def t_text(f) -> str:
    return f"[[{f[0]},{f[1]}],[{f[2]},{f[3]}]] + ({f[4]}, {f[5]})"


def filling_map(q, p, a, t1, t2):
    """Boundary map a*I + (t1, t2) conjugated by the attaching map of (q, p)."""
    x, y = gluing(q, p)
    d = t_make(x, p, y, q)
    return t_compose(t_inverse(d), t_compose(t_make(a, 0, 0, a, t1, t2), d))


# --- groups as tables -------------------------------------------------------


def cyclic_table(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def dihedral_table(m):
    """Order 2m; 0..m-1 rotations, m..2m-1 reflections."""

    def mul(a, b):
        ra, fa, rb, fb = a % m, a // m, b % m, b // m
        return ((ra + rb) % m if fa == 0 else (ra - rb) % m) + m * (fa ^ fb)

    return [[mul(a, b) for b in range(2 * m)] for a in range(2 * m)]


def product_table(t1, t2):
    """Element (a1, a2) encoded as a1 * |G2| + a2."""
    n2 = len(t2)
    n = len(t1) * n2
    return [
        [t1[a // n2][b // n2] * n2 + t2[a % n2][b % n2] for b in range(n)]
        for a in range(n)
    ]


# --- actions: dict of per-element lists -------------------------------------


def law_violations(table, act, elements=None) -> list[str]:
    """`verify-action` report lines for the element pairs that involve
    `elements` (all pairs when None), in the program's order."""
    n_el = len(table)
    n = len(act["pairs"])
    al, t1, be, t2 = act["alpha"], act["theta1"], act["beta"], act["theta2"]
    if elements is None:
        pairs = [(g1, g2) for g1 in range(n_el) for g2 in range(n_el)]
    else:
        hit = set(elements)
        pairs = [
            (g1, g2)
            for g1 in range(n_el)
            for g2 in range(n_el)
            if g1 in hit or g2 in hit or table[g1][g2] in hit
        ]
    out = []
    for g1, g2 in pairs:
        g12 = table[g1][g2]
        if al[g12] != al[g1] * al[g2]:
            out.append(
                f"alpha is not a homomorphism at ({g1},{g2}): alpha({g12})={al[g12]:+d} "
                f"but product is {al[g1] * al[g2]:+d}"
            )
        e1 = (t1[g1] + al[g1] * t1[g2]) % 1
        if t1[g12] != e1:
            out.append(
                f"theta1 twisted-cocycle law fails at ({g1},{g2}): "
                f"theta1({g12})={t1[g12]} but law gives {e1}"
            )
        composed = tuple(be[g1][be[g2][i]] for i in range(n))
        if be[g12] != composed:
            out.append(
                f"beta is not a homomorphism at ({g1},{g2}): "
                f"beta({g12})={be[g12]} but composition is {composed}"
            )
        for i in range(n):
            e2 = (t2[g1][be[g2][i]] + al[g1] * t2[g2][i]) % 1
            if t2[g12][i] != e2:
                out.append(
                    f"theta2 twisted-cocycle law fails at ({g1},{g2}) on boundary {i}: "
                    f"theta2({g12},{i})={t2[g12][i]} but law gives {e2}"
                )
    pq = act["pairs"]
    for g in range(n_el):
        for i, j in enumerate(be[g]):
            if pq[i] != pq[j]:
                out.append(
                    f"beta({g}) sends boundary {i} to {j} but the fillings differ: "
                    f"({pq[i][0]},{pq[i][1]}) vs ({pq[j][0]},{pq[j][1]})"
                )
    return out


def structure_text(table, act) -> str:
    al, t1 = act["alpha"], act["theta1"]
    members = [g for g in range(len(table)) if al[g] == 1]
    index = len(table) // len(members)
    rotation = math.lcm(*(t1[g].denominator for g in members))
    splitting = next(
        (g for g in range(len(table)) if al[g] == -1 and table[g][g] == 0), None
    )
    if index == 1:
        kind = "direct-like"
    elif splitting is not None:
        kind = "semidirect"
    else:
        kind = "no-splitting-found"
    return (
        f"fop_subgroup: {{{', '.join(map(str, members))}}}\n"
        f"fop_index: {index}\n"
        f"rotation_order: {rotation}\n"
        f"splitting_element: {'none' if splitting is None else splitting}\n"
        f"classification: {kind}\n"
    )


def orbits_text(act) -> str:
    n = len(act["pairs"])
    return "".join(
        f"{i + 1}: {len({perm[i] for perm in act['beta']})}\n" for i in range(n)
    )


def boundary_text(act, g, i) -> str:
    a = act["alpha"][g]
    f = t_make(a, 0, 0, a, act["theta1"][g], act["theta2"][g][i])
    return f"target: {act['beta'][g][i] + 1}\nmap: {t_text(f)}\n"


def filling_text(act, g, i) -> str:
    q, p = act["pairs"][i]
    f = filling_map(q, p, act["alpha"][g], act["theta1"][g], act["theta2"][g][i])
    return f"target: {act['beta'][g][i] + 1}\nmap: {t_text(f)}\n"
