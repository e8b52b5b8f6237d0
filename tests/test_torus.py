import math
from fractions import Fraction
from functools import reduce
from itertools import product
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import PROPERTY

from seifert_actions.rational import ZERO_ANGLE, RationalAngle, angle
from seifert_actions.seifert import SeifertPair
from seifert_actions.torus import (
    IDENTITY,
    TorusAutomorphism,
    compose,
    conjugate_by_gluing,
    format_automorphism,
    gluing_automorphism,
    inverse,
    order,
    power,
)


def test_determinant_constraint():
    with pytest.raises(ValueError):
        TorusAutomorphism(2, 0, 0, 1)
    TorusAutomorphism(0, 1, 1, 0)  # det -1 is fine


@pytest.mark.parametrize("entries", [(Fraction(1, 2), 0, 0, 2), (0.5, 0, 0, 2.0), (1, 0, 0, 1.0)])
def test_matrix_entries_must_be_ints(entries):
    with pytest.raises(TypeError, match="must be ints"):
        TorusAutomorphism(*entries)


def test_compose_examples():
    g = TorusAutomorphism(2, 1, 1, 1, angle(1, 3), angle(1, 5))
    assert compose(IDENTITY, g) == g
    assert compose(g, inverse(g)) == IDENTITY
    assert compose(inverse(g), g) == IDENTITY

    half = TorusAutomorphism(1, 0, 0, 1, angle(1, 2), ZERO_ANGLE)
    assert compose(half, half) == IDENTITY


def test_inverse_examples():
    assert inverse(IDENTITY) == IDENTITY
    shear = TorusAutomorphism(1, 2, 0, 1)
    assert inverse(shear).matrix() == (1, -2, 0, 1)
    d = gluing_automorphism(SeifertPair(3, 2))
    assert inverse(d).matrix() == (-3, 2, 2, -1)
    assert compose(d, inverse(d)) == IDENTITY


def _random_automorphism(rng):
    # random SL(2,Z)-ish element from shears and the rotation, times phases
    m = IDENTITY
    for _ in range(rng.randrange(0, 5)):
        kind = rng.choice(["u", "l", "r"])
        if kind == "u":
            f = TorusAutomorphism(1, rng.randrange(-3, 4), 0, 1)
        elif kind == "l":
            f = TorusAutomorphism(1, 0, rng.randrange(-3, 4), 1)
        else:
            f = TorusAutomorphism(0, -1, 1, 0)
        m = compose(m, f)
    return TorusAutomorphism(
        m.m11,
        m.m12,
        m.m21,
        m.m22,
        angle(rng.randrange(-10, 11), rng.randrange(1, 11)),
        angle(rng.randrange(-10, 11), rng.randrange(1, 11)),
    )


def test_compose_associative_and_unital_random():
    rng = Random(5)
    for _ in range(200):
        f, g, h = (_random_automorphism(rng) for _ in range(3))
        assert compose(compose(f, g), h) == compose(f, compose(g, h))
        assert compose(f, IDENTITY) == f
        assert compose(IDENTITY, f) == f


def test_det_multiplicative_random():
    rng = Random(6)
    for _ in range(200):
        f, g = _random_automorphism(rng), _random_automorphism(rng)
        assert compose(f, g).det == f.det * g.det
        assert f.det in (-1, 1)


def test_order_examples():
    assert order(TorusAutomorphism(0, -1, 1, 0)) == 4
    assert order(TorusAutomorphism(1, 1, 0, 1)) is None
    assert order(TorusAutomorphism(1, 0, 0, 1, angle(1, 2), angle(1, 3))) == 6
    assert order(IDENTITY) == 1
    assert order(TorusAutomorphism(-1, 0, 0, -1)) == 2
    assert order(TorusAutomorphism(0, -1, 1, -1)) == 3
    assert order(TorusAutomorphism(0, -1, 1, 1)) == 6
    assert order(TorusAutomorphism(1, 0, 0, -1)) == 2


FINITE_MATRICES = [
    (1, 0, 0, 1),
    (-1, 0, 0, -1),
    (0, -1, 1, 0),
    (0, 1, -1, 0),
    (0, -1, 1, -1),
    (0, -1, 1, 1),
    (1, 0, 0, -1),
    (0, 1, 1, 0),
]


def test_order_is_minimal():
    rng = Random(8)
    for m in FINITE_MATRICES:
        for _ in range(10):
            f = TorusAutomorphism(
                *m,
                angle(rng.randrange(0, 6), rng.randrange(1, 7)),
                angle(rng.randrange(0, 6), rng.randrange(1, 7)),
            )
            k = order(f)
            assert k is not None
            assert power(f, k) == IDENTITY
            for j in range(1, k):
                assert power(f, j) != IDENTITY


def test_shear_blocks_finite_order():
    # +-[[1, c], [0, 1]] has finite order only when c = 0
    for c in range(-20, 21):
        up = TorusAutomorphism(1, c, 0, 1)
        down = TorusAutomorphism(-1, -c, 0, -1)
        if c == 0:
            assert order(up) == 1
            assert order(down) == 2
        else:
            assert order(up) is None
            assert order(down) is None


def _matrix_order_up_to_12(m):
    a, b, c, d = m
    power_m = m
    for k in range(1, 13):
        if power_m == (1, 0, 0, 1):
            return k
        w, x, y, z = power_m
        power_m = (w * a + x * c, w * b + x * d, y * a + z * c, y * b + z * d)
    return None


def test_order_matches_brute_force_on_small_matrices():
    # every determinant +-1 matrix with entries in [-4, 4], with random
    # phases.  A finite-order integer matrix has order at most 6, so powers
    # up to 12 certify infinite order; after that many steps the phases
    # have denominators dividing den, so f^(6*den) is then the identity.
    rng = Random(12)
    count = 0
    for m in product(range(-4, 5), repeat=4):
        if abs(m[0] * m[3] - m[1] * m[2]) != 1:
            continue
        count += 1
        phase1, phase2 = (angle(rng.randrange(0, 4), rng.randrange(1, 5)) for _ in "12")
        f = TorusAutomorphism(*m, phase1, phase2)
        if _matrix_order_up_to_12(m) is None:
            assert order(f) is None, m
            continue
        g, k = f, 1
        while not g.is_identity():
            assert k < 6 * math.lcm(phase1.order, phase2.order), m
            g = compose(g, f)
            k += 1
        assert order(f) == k, m
    assert count == 360


def test_conjugate_by_gluing_examples():
    d = gluing_automorphism(SeifertPair(3, 2))
    assert conjugate_by_gluing(IDENTITY, d) == IDENTITY

    f = TorusAutomorphism(1, 0, 0, 1, angle(1, 3), ZERO_ANGLE)
    c = conjugate_by_gluing(f, d)
    assert c.matrix() == (1, 0, 0, 1)
    assert (c.phase1, c.phase2) == (ZERO_ANGLE, angle(2, 3))

    # central matrices keep their matrix part under conjugation
    rng = Random(9)
    for _ in range(50):
        d2 = _random_automorphism(rng)
        g = TorusAutomorphism(-1, 0, 0, -1, angle(1, 4), angle(1, 6))
        assert conjugate_by_gluing(g, d2).matrix() == (-1, 0, 0, -1)


def test_gluing_automorphism_shape():
    d = gluing_automorphism(SeifertPair(5, 2))
    assert d.matrix() == (1, 2, 3, 5)
    assert d.det == -1
    assert d.phase1 == ZERO_ANGLE and d.phase2 == ZERO_ANGLE


def test_format():
    f = TorusAutomorphism(1, 0, 0, 1, angle(1, 3), angle(1, 2))
    assert format_automorphism(f) == "[[1,0],[0,1]] + (1/3, 1/2)"


def _matrix_product(m, n):
    a, b, c, d = m
    w, x, y, z = n
    return (a * w + b * y, a * x + b * z, c * w + d * y, c * x + d * z)


# words in shears, the rotation and the reflection (0, 1, 1, 0) reach every
# matrix of determinant +-1 and are mostly of infinite order, so the finite
# ones are drawn apart
_STEPS = st.one_of(
    st.sampled_from([(0, 1, 1, 0), (0, -1, 1, 0)]),
    st.integers(-6, 6).map(lambda k: (1, k, 0, 1)),
    st.integers(-6, 6).map(lambda k: (1, 0, k, 1)),
)
_MATRICES = st.one_of(
    st.sampled_from(FINITE_MATRICES),
    st.lists(_STEPS, max_size=8).map(lambda steps: reduce(_matrix_product, steps, (1, 0, 0, 1))),
)
_ANGLES = st.builds(angle, st.integers(-(2**40), 2**40), st.integers(1, 2**31 - 1))
_AUTOMORPHISMS = st.builds(
    lambda m, phase1, phase2: TorusAutomorphism(*m, phase1, phase2), _MATRICES, _ANGLES, _ANGLES
)


@PROPERTY
@given(_AUTOMORPHISMS, _AUTOMORPHISMS)
def test_compose_and_inverse_match_the_angle_formula(f, g):
    # the oracle is the angle arithmetic the phases were once computed by
    fg = compose(f, g)
    assert fg.matrix() == _matrix_product(f.matrix(), g.matrix())
    assert (fg.phase1, fg.phase2) == (
        g.phase1.scale(f.m11) + g.phase2.scale(f.m12) + f.phase1,
        g.phase1.scale(f.m21) + g.phase2.scale(f.m22) + f.phase2,
    )
    inv = inverse(f)
    assert _matrix_product(f.matrix(), inv.matrix()) == (1, 0, 0, 1)
    assert (inv.phase1, inv.phase2) == (
        -(f.phase1.scale(inv.m11) + f.phase2.scale(inv.m12)),
        -(f.phase1.scale(inv.m21) + f.phase2.scale(inv.m22)),
    )


def test_torus_maps_do_no_angle_arithmetic(monkeypatch):
    f = TorusAutomorphism(1, 0, 0, -1, angle(1, 6), angle(3, 8))
    g = TorusAutomorphism(2, 1, 1, 1, angle(1, 3), angle(5, 17))
    d = gluing_automorphism(SeifertPair(7, 3))
    calls = [
        lambda: compose(f, g),
        lambda: inverse(g),
        lambda: power(f, 5),
        lambda: power(g, -2),
        lambda: order(f),
        lambda: order(g),
        lambda: conjugate_by_gluing(f, d),
    ]
    expected = [call() for call in calls]

    def refuse(*args):
        raise AssertionError("angle arithmetic in a torus map")

    for name in ("__add__", "__sub__", "__neg__", "scale"):
        monkeypatch.setattr(RationalAngle, name, refuse)
    assert [call() for call in calls] == expected
    assert order(f) == 6 and order(g) is None
