"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a PASS line once its assertions hold (visible with -s);
stated time budgets are asserted with perf_counter.  Run with:

    pytest tests/test_acceptance.py -v -s
"""

import ast
import itertools
import math
import time
from pathlib import Path
from random import Random

import seifert_actions
from helpers import (
    evaluation_homomorphism_holds,
    perturb_action,
    quaternion_action,
    random_legal_move,
    random_presentation,
    reflection_z2,
    rotation_z3,
    single_pair_rotation_action,
    standard_fixtures,
)
from seifert_actions.action import boundary_action, induced_filling_action, verify_action
from seifert_actions.obstruction import (
    HFunction,
    decompose,
    rewrite_presentation,
    satisfies_obstruction_divisibility,
)
from seifert_actions.orbifold import (
    OrbifoldData,
    euler_characteristic,
    geometry_sign,
    possible_orbit_numbers,
)
from seifert_actions.rational import angle
from seifert_actions.seifert import (
    SeifertPair,
    apply_move,
    equivalent,
    euler_number,
    normalize,
    parse_presentation,
)
from seifert_actions.structure import (
    DIRECT_LIKE,
    NO_SPLITTING,
    SEMIDIRECT,
    structure_report,
)
from seifert_actions.torus import conjugate_by_gluing, gluing_automorphism


def _report(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_01_lens_space_rearrangement():
    left = parse_presentation("(0,o1|(3,2),(3,2),(1,2))")
    right = parse_presentation("(0,o1|(3,5),(3,5))")
    assert equivalent(left, right)

    norm = normalize(left)
    rewritten = rewrite_presentation(norm, HFunction((1, 1)))
    assert rewritten == right
    assert rewritten.pairs == (SeifertPair(3, 5), SeifertPair(3, 5))

    best = min(
        _time_once(lambda: equivalent(left, right)) for _ in range(5)
    )
    assert best < 0.001
    _report(1, f"equivalence and rewrite reproduce the rearrangement "
               f"({best * 1e6:.0f}us per call)")


def _time_once(thunk):
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def test_criterion_02_hyperbolic_base_orbifold():
    base = OrbifoldData(0, (2, 2, 3, 3, 3))
    assert euler_characteristic(base) == -1
    assert geometry_sign(base) == "hyperbolic"
    _report(2, "chi(S2(2,2,3,3,3)) = -1, hyperbolic")


def test_criterion_03_even_orbit_numbers_block_odd_classes():
    for b in range(-99, 100):
        witness = decompose(b, [2, 4])
        if b % 2:
            assert witness is None
        else:
            assert witness is not None
            assert witness.total() == b
    _report(3, "decompose(b, [2,4]) impossible iff b odd, |b| <= 99")


def test_criterion_04_divisibility_equals_witness_feasibility():
    start = time.perf_counter()
    cone_sets = [
        tuple(subset)
        for r in range(5)
        for subset in itertools.combinations((2, 3, 4, 6), r)
    ]
    corner_sets = [(), (2,), (3,), (2, 3)]
    checked = 0
    for order in range(2, 49):
        for cones in cone_sets:
            if any(order % n for n in cones):
                continue
            for corners in corner_sets:
                if any(order % (2 * m) for m in corners):
                    continue
                quotient = OrbifoldData(0, cones, corners, bool(corners))
                orbits = sorted(possible_orbit_numbers(order, quotient))
                for b in range(-50, 51):
                    divides = satisfies_obstruction_divisibility(b, order, quotient)
                    witness = decompose(b, orbits)
                    assert divides == (witness is not None)
                    if witness is not None:
                        assert witness.total() == b
                    checked += 1
    elapsed = time.perf_counter() - start
    assert checked > 40_000
    assert elapsed < 10
    _report(4, f"divisibility == decomposability on {checked} cases "
               f"({elapsed:.1f}s)")


def test_criterion_05_filling_formula_equals_conjugation():
    rng = Random(101)
    start = time.perf_counter()
    for trial in range(500):
        q = rng.randrange(1, 31)
        while True:
            p = rng.randrange(-60, 61)
            if math.gcd(q, abs(p)) == 1:
                break
        pair = SeifertPair(q, p)
        t = angle(rng.randrange(0, 24), rng.randrange(1, 25))
        s = angle(rng.randrange(0, 24), rng.randrange(1, 25))
        if trial % 2:
            data = reflection_z2(pair, t, s)
        else:
            data = single_pair_rotation_action(pair, t, s)
        if data.group.order <= 6:
            assert verify_action(data) == []
        g = 1 % data.group.order
        d = gluing_automorphism(pair)
        target_b, boundary = boundary_action(data, g, 0)
        target_f, filling = induced_filling_action(data, g, 0)
        assert target_f == target_b
        assert filling == conjugate_by_gluing(boundary, d)
    elapsed = time.perf_counter() - start
    assert elapsed < 1
    _report(5, f"closed form = conjugation on 500 random pairs ({elapsed:.2f}s)")


def test_criterion_06_fixture_homomorphisms_and_perturbations():
    start = time.perf_counter()
    fixtures = standard_fixtures()
    assert len(fixtures) == 6
    rng = Random(103)
    for data in fixtures:
        assert verify_action(data) == []
        assert evaluation_homomorphism_holds(data)
        rejected = 0
        attempts = 0
        while rejected < 20:
            attempts += 1
            assert attempts < 500
            mutated = perturb_action(data, rng)
            still_valid = evaluation_homomorphism_holds(mutated)
            assert (verify_action(mutated) == []) == still_valid
            if not still_valid:
                rejected += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5
    _report(6, f"6 fixtures sound; 20 bad perturbations rejected each "
               f"({elapsed:.2f}s)")


def test_criterion_07_moves_preserve_class_and_euler_number():
    rng = Random(107)
    start = time.perf_counter()
    for _ in range(1000):
        pres = random_presentation(rng, max_q=50)
        e = euler_number(pres)
        norm = normalize(pres)
        moved = pres
        for _ in range(rng.randrange(1, 21)):
            moved = apply_move(moved, random_legal_move(rng, moved))
        assert euler_number(moved) == e
        assert equivalent(pres, moved)
        assert normalize(moved) == norm
    elapsed = time.perf_counter() - start
    assert elapsed < 5
    _report(7, f"1000 random move sequences preserve invariants ({elapsed:.1f}s)")


def test_criterion_08_lcm_gcd_complement_identity():
    start = time.perf_counter()
    divisors = [[] for _ in range(10_001)]
    for d in range(1, 10_001):
        for multiple in range(d, 10_001, d):
            divisors[multiple].append(d)
    rng = Random(109)
    cases = 0
    for n in range(1, 10_001):
        divs = divisors[n]
        for _ in range(2):
            tuple_len = rng.randrange(1, 5)
            ns = [rng.choice(divs) for _ in range(tuple_len)]
            assert n // math.lcm(*ns) == math.gcd(*(n // d for d in ns))
            cases += 1
    elapsed = time.perf_counter() - start
    assert cases >= 10_000
    assert elapsed < 5
    _report(8, f"N/lcm = gcd(N/n_i) on {cases} sampled divisor tuples "
               f"({elapsed:.1f}s)")


def test_criterion_09_structure_classifications():
    start = time.perf_counter()
    report = structure_report(rotation_z3())
    assert report.classification == DIRECT_LIKE
    assert report.fop_index == 1

    dihedral = [d for d in standard_fixtures() if d.group.order == 6][-1]
    report = structure_report(dihedral)
    assert report.classification == SEMIDIRECT
    assert report.splitting_element is not None
    assert dihedral.alpha[report.splitting_element] == -1

    q8 = quaternion_action()
    report = structure_report(q8)
    assert report.classification == NO_SPLITTING
    assert sorted(report.fop_subgroup) == [0, 1, 4, 5]
    assert all(
        q8.group.element_order(g) == 4
        for g in q8.group.elements()
        if q8.alpha[g] == -1
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 1
    _report(9, f"direct-like / semidirect / no-splitting tags ({elapsed:.2f}s)")


def test_criterion_10_core_is_float_free():
    package_dir = Path(seifert_actions.__file__).parent
    sources = sorted(package_dir.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(
                node.value, (float, complex)
            ):
                raise AssertionError(
                    f"{path.name}:{node.lineno}: float constant {node.value!r}"
                )
            if isinstance(node, ast.Name) and node.id == "float":
                raise AssertionError(
                    f"{path.name}:{node.lineno}: use of float()"
                )
    _report(10, f"no floating point in any of {len(sources)} core modules")


def test_core_has_no_runtime_assert():
    # `python -O` strips assert statements, so invariants must raise explicitly
    package_dir = Path(seifert_actions.__file__).parent
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                raise AssertionError(f"{path.name}:{node.lineno}: assert statement")
