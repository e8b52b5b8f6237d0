import itertools
import math
from random import Random

import pytest

from seifert_actions.obstruction import (
    HFunction,
    ObstructionWitness,
    RewriteError,
    decompose,
    format_witness,
    obstruction_divisor,
    orbit_constancy_check,
    rewrite_presentation,
    satisfies_obstruction_divisibility,
)
from seifert_actions.orbifold import OrbifoldData, QuotientDataError
from seifert_actions.seifert import (
    SeifertPair,
    equivalent,
    normalize,
    parse_presentation,
)


def test_divisibility_known_values():
    quotient = OrbifoldData(0, (2, 3))
    assert obstruction_divisor(12, quotient) == 2
    assert satisfies_obstruction_divisibility(4, 12, quotient)
    assert not satisfies_obstruction_divisibility(3, 12, quotient)
    assert satisfies_obstruction_divisibility(0, 12, quotient)
    assert satisfies_obstruction_divisibility(0, 36, OrbifoldData(1, (2,), (3,), True))


def test_divisibility_empty_quotient_data():
    # lcm over no orders is 1, so the divisor is the full group order
    assert obstruction_divisor(5, OrbifoldData(2)) == 5
    assert satisfies_obstruction_divisibility(10, 5, OrbifoldData(2))
    assert not satisfies_obstruction_divisibility(3, 5, OrbifoldData(2))


def test_divisibility_checks_quotient_consistency():
    with pytest.raises(QuotientDataError):
        satisfies_obstruction_divisibility(1, 9, OrbifoldData(0, (2,)))


def test_decompose_known_values():
    w = decompose(1, [2, 3])
    assert w.coefficients == (-1, 1)
    assert w.total() == 1

    w = decompose(5, [1])
    assert w.coefficients == (5,)

    assert decompose(3, [2, 4]) is None


def test_decompose_soundness_random():
    rng = Random(31)
    for _ in range(500):
        orbits = [rng.randrange(1, 30) for _ in range(rng.randrange(1, 5))]
        b = rng.randrange(-60, 61)
        w = decompose(b, orbits)
        feasible = b % math.gcd(*orbits) == 0
        assert (w is not None) == feasible
        if w is not None:
            assert w.total() == b
            assert w.orbit_numbers == tuple(orbits)


def _brute_force_sums(orbits, bound=25):
    sums = set()
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(orbits)):
        sums.add(sum(c * o for c, o in zip(coeffs, orbits)))
    return sums


def test_decompose_completeness_vs_brute_force():
    rng = Random(37)
    cases = [[n] for n in range(1, 11)]
    for _ in range(15):
        cases.append([rng.randrange(1, 11) for _ in range(2)])
    for _ in range(8):
        cases.append([rng.randrange(1, 11) for _ in range(3)])
    for orbits in cases:
        achievable = _brute_force_sums(orbits)
        for b in range(-20, 21):
            assert (decompose(b, orbits) is not None) == (b in achievable)


def test_decompose_input_validation():
    with pytest.raises(ValueError):
        decompose(1, [])
    with pytest.raises(ValueError):
        decompose(1, [0, 2])


def test_witness_format():
    w = decompose(1, [2, 3])
    assert format_witness(1, w) == "1 = -1*2 + 1*3"
    assert ObstructionWitness((2,), (3,)).total() == 6
    with pytest.raises(ValueError):
        ObstructionWitness((2, 3), (1,))


def test_orbit_constancy_check():
    assert orbit_constancy_check(HFunction((1, 1)), [[0, 1]])
    assert not orbit_constancy_check(HFunction((1, 2)), [[0, 1]])
    assert orbit_constancy_check(HFunction((1, 2, 2)), [[0], [1, 2]])
    with pytest.raises(ValueError):
        orbit_constancy_check(HFunction((1, 2)), [[0]])
    with pytest.raises(ValueError):
        orbit_constancy_check(HFunction((1, 2)), [[0], [0, 1]])
    # an empty class is not an orbit; it is rejected, not read as "h not constant"
    with pytest.raises(ValueError, match="nonempty"):
        orbit_constancy_check(HFunction((1,)), [[0], []])
    with pytest.raises(ValueError, match="nonempty"):
        rewrite_presentation(normalize(parse_presentation("(0,o1|(1,1))")),
                             HFunction((1,)), [[0], []])


def test_rewrite_known_values():
    norm = normalize(parse_presentation("(0,o1|(3,2),(3,2),(1,2))"))
    assert norm.b == 2
    rewritten = rewrite_presentation(norm, HFunction((1, 1)))
    assert rewritten == parse_presentation("(0,o1|(3,5),(3,5))")

    # h zero on critical slots, one extra slot carrying b: the embedding
    rewritten = rewrite_presentation(norm, HFunction((0, 0, 2)))
    assert rewritten == norm.to_presentation()

    norm = normalize(parse_presentation("(0,o1|(1,3))"))
    rewritten = rewrite_presentation(norm, HFunction((1, 1, 1)))
    assert rewritten == parse_presentation("(0,o1|(1,1),(1,1),(1,1))")


def test_rewrite_requires_sum_b():
    norm = normalize(parse_presentation("(0,o1|(3,2),(3,2),(1,2))"))
    with pytest.raises(RewriteError, match="must equal b"):
        rewrite_presentation(norm, HFunction((1, 0)))
    with pytest.raises(RewriteError, match="slots"):
        rewrite_presentation(norm, HFunction((2,)))


def test_rewrite_respects_orbit_partition():
    norm = normalize(parse_presentation("(0,o1|(3,2),(3,2),(1,2))"))
    rewrite_presentation(norm, HFunction((1, 1)), [[0, 1]])
    with pytest.raises(RewriteError, match="constant"):
        rewrite_presentation(norm, HFunction((2, 0)), [[0, 1]])


def test_rewrite_always_equivalent_random():
    rng = Random(41)
    for _ in range(300):
        n_pairs = rng.randrange(0, 4)
        pairs = []
        for _ in range(n_pairs):
            q = rng.randrange(2, 12)
            p = rng.choice([p for p in range(1, q) if math.gcd(q, p) == 1])
            pairs.append(SeifertPair(q, p))
        b = rng.randrange(-10, 11)
        norm = normalize(
            parse_presentation(
                "(0,o1|"
                + ",".join(str(p) for p in pairs + [SeifertPair(1, b)])
                + ")"
            )
        )
        extra = rng.randrange(0, 3)
        values = [rng.randrange(-5, 6) for _ in range(len(norm.pairs) + extra)]
        if values:
            values[-1] += norm.b - sum(values)
        elif norm.b != 0:
            continue
        h = HFunction(tuple(values))
        rewritten = rewrite_presentation(norm, h)
        assert equivalent(norm.to_presentation(), rewritten)
        assert normalize(rewritten) == norm


def test_deciders_agree_small_sweep():
    # divisibility decision == witness feasibility over the orbit numbers
    from seifert_actions.orbifold import possible_orbit_numbers

    for order in (2, 6, 12):
        for cones in ([], [2], [2, 3], [3, 3]):
            if any(order % n for n in cones):
                continue
            quotient = OrbifoldData(0, tuple(cones))
            orbits = sorted(possible_orbit_numbers(order, quotient))
            for b in range(-15, 16):
                assert satisfies_obstruction_divisibility(b, order, quotient) == (
                    decompose(b, orbits) is not None
                )
