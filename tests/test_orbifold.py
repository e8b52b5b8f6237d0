from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import PROPERTY

from seifert_actions.groups import cyclic_group, generated_subgroup, left_cosets
from seifert_actions.orbifold import (
    OrbifoldData,
    QuotientDataError,
    euler_characteristic,
    format_orbifold,
    geometry_sign,
    parse_orbifold,
    possible_orbit_numbers,
)


def test_euler_characteristic_known_values():
    assert euler_characteristic(OrbifoldData(0, (2, 2, 3, 3, 3))) == -1
    assert euler_characteristic(OrbifoldData(0)) == 2
    assert euler_characteristic(OrbifoldData(0, (2, 2, 2, 2))) == 0
    assert euler_characteristic(OrbifoldData(0, (3, 3))) == Fraction(2, 3)


def test_euler_characteristic_rejects_boundary():
    with pytest.raises(QuotientDataError):
        euler_characteristic(OrbifoldData(0, (), (2,), with_boundary=True))
    with pytest.raises(QuotientDataError):
        euler_characteristic(OrbifoldData(1, with_boundary=True))
    with pytest.raises(QuotientDataError, match=r"genus:0 cone:\(2\) corner:\(3\)"):
        euler_characteristic(parse_orbifold("genus:0 cone:(2) corner:(3)"))


def test_geometry_sign():
    assert geometry_sign(OrbifoldData(0, (2, 2, 3, 3, 3))) == "hyperbolic"
    assert geometry_sign(OrbifoldData(0, (2, 2, 2, 2))) == "euclidean"
    assert geometry_sign(OrbifoldData(0, (3, 3))) == "spherical"


def test_data_invariants():
    with pytest.raises(QuotientDataError):
        OrbifoldData(0, (1,))
    with pytest.raises(QuotientDataError):
        OrbifoldData(0, (), (2,), with_boundary=False)
    with pytest.raises(QuotientDataError):
        OrbifoldData(-1)


def test_chi_additive_under_extra_cone_point():
    rng = Random(3)
    for _ in range(200):
        cones = tuple(rng.randrange(2, 12) for _ in range(rng.randrange(0, 5)))
        genus = rng.randrange(0, 4)
        extra = rng.randrange(2, 12)
        base = euler_characteristic(OrbifoldData(genus, cones))
        bigger = euler_characteristic(OrbifoldData(genus, cones + (extra,)))
        assert bigger == base - (1 - Fraction(1, extra))


def test_possible_orbit_numbers_known_values():
    assert possible_orbit_numbers(12, OrbifoldData(0, (2, 2, 3, 3, 3))) == {6, 4, 12}
    assert possible_orbit_numbers(1, OrbifoldData(0)) == {1}
    assert possible_orbit_numbers(8, OrbifoldData(0, (), (2,), True)) == {2, 8}


def test_possible_orbit_numbers_divisibility_errors():
    with pytest.raises(QuotientDataError):
        possible_orbit_numbers(9, OrbifoldData(0, (2,)))
    with pytest.raises(QuotientDataError):
        possible_orbit_numbers(6, OrbifoldData(0, (), (2,), True))


def test_orbit_numbers_divide_group_order():
    rng = Random(4)
    for _ in range(200):
        order = rng.randrange(1, 60)
        divisors = [d for d in range(2, order + 1) if order % d == 0]
        cones = tuple(rng.choice(divisors) for _ in range(rng.randrange(0, 4))) if divisors else ()
        halves = [m for m in range(2, order + 1) if order % (2 * m) == 0]
        corners = tuple(rng.choice(halves) for _ in range(rng.randrange(0, 3))) if halves else ()
        data = OrbifoldData(0, cones, corners, with_boundary=bool(corners))
        for n in possible_orbit_numbers(order, data):
            assert order % n == 0


def test_orbit_sizes_match_coset_counts():
    # orbit-stabilizer on explicit tables: a point with stabilizer of order
    # n in a group of order N has orbit size N/n = number of cosets
    group = cyclic_group(12)
    for n in (1, 2, 3, 4, 6, 12):
        stabilizer = sorted(generated_subgroup(group, [(12 // n) % 12]))
        assert len(stabilizer) == n
        cosets = left_cosets(group, stabilizer)
        assert len(cosets) == 12 // n
        assert possible_orbit_numbers(12, OrbifoldData(0, (n,) if n >= 2 else ())) >= {
            12 // n
        }


def test_parse_and_format():
    orb = parse_orbifold("genus:0 cone:(2,2,3,3,3) corner:()")
    assert orb == OrbifoldData(0, (2, 2, 3, 3, 3))
    orb = parse_orbifold("genus:1 cone:() corner:(2,3)")
    assert orb.with_boundary and orb.corner_orders == (2, 3)
    assert parse_orbifold(format_orbifold(orb)) == orb
    with pytest.raises(QuotientDataError):
        parse_orbifold("genus:0 cone:(2)")
    with pytest.raises(QuotientDataError):
        parse_orbifold("cone:(2) corner:() genus:0")
    for text, bad in [("genus:0 cone:(2,,3) corner:()", "'2,,3'"),
                      ("genus:0 cone:() corner:(2,)", "'2,'")]:
        with pytest.raises(QuotientDataError, match=f"bad order list: {bad}"):
            parse_orbifold(text)
    for text, bad in [("genus:0 cone:(٢, 3) corner:()", "'٢, 3'"),
                      ("genus:0 cone:(1_0) corner:()", "'1_0'"),
                      ("genus:0 cone:() corner:(+2)", r"'\+2'")]:
        with pytest.raises(QuotientDataError, match=f"bad order list: {bad}"):
            parse_orbifold(text)
    with pytest.raises(QuotientDataError, match="not an orbifold data set: 'genus:٠"):
        parse_orbifold("genus:٠ cone:() corner:()")
    assert parse_orbifold("genus:0 cone:(2, 3) corner:()") == OrbifoldData(0, (2, 3))


ORDERS = st.lists(st.integers(min_value=2), max_size=5).map(tuple)


@PROPERTY
@given(st.integers(min_value=0), ORDERS, ORDERS)
def test_parse_format_round_trip_property(genus, cones, corners):
    orb = OrbifoldData(genus, cones, corners, with_boundary=bool(corners))
    assert parse_orbifold(format_orbifold(orb)) == orb
