import re
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import PROPERTY

from seifert_actions.groups import (
    GroupTableError,
    cyclic_group,
    dihedral_group,
    direct_product,
    format_group,
    generated_subgroup,
    is_subgroup,
    left_cosets,
    parse_group_text,
    quaternion_group,
    validate_group,
)


def test_validate_group_accepts_z2():
    group = validate_group([[0, 1], [1, 0]])
    assert group.order == 2 and group.identity == 0
    assert group.inv(1) == 1


def test_validate_group_accepts_klein():
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    group = validate_group([list(row) for row in klein.table])
    assert group.order == 4
    assert all(group.mul(g, g) == 0 for g in group.elements())


def test_validate_group_rejects_non_latin():
    with pytest.raises(GroupTableError, match="Latin"):
        validate_group([[0, 1], [1, 1]])


def test_validate_group_rejects_non_associative():
    # Latin square with identity 0 but (1*1)*2 != 1*(1*2)
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(GroupTableError, match="associativity"):
        validate_group(table)


def test_constructors_are_groups():
    for group in (
        cyclic_group(1),
        cyclic_group(6),
        dihedral_group(3),
        dihedral_group(4),
        direct_product(cyclic_group(2), cyclic_group(3)),
        quaternion_group(),
    ):
        validate_group([list(row) for row in group.table])
        assert group.identity == 0


def test_element_orders():
    z6 = cyclic_group(6)
    assert [z6.element_order(g) for g in z6.elements()] == [1, 6, 3, 2, 3, 6]
    q8 = quaternion_group()
    # 1, i, j, k, -1, -i, -j, -k
    assert [q8.element_order(g) for g in q8.elements()] == [1, 4, 4, 4, 2, 4, 4, 4]


def test_quaternion_relations():
    q8 = quaternion_group()
    one, i, j, k, m1 = 0, 1, 2, 3, 4
    assert q8.mul(i, i) == m1
    assert q8.mul(j, j) == m1
    assert q8.mul(k, k) == m1
    assert q8.mul(i, j) == k
    assert q8.mul(j, i) == k + 4  # -k
    assert q8.mul(q8.mul(i, j), k) == m1


def test_dihedral_relations():
    d4 = dihedral_group(4)
    r, s = 1, 4
    assert d4.element_order(r) == 4
    assert d4.element_order(s) == 2
    # s r s^-1 = r^-1
    assert d4.mul(d4.mul(s, r), d4.inv(s)) == d4.inv(r)


def test_subgroups_and_cosets():
    d3 = dihedral_group(3)
    rotations = [0, 1, 2]
    assert is_subgroup(d3, rotations)
    assert not is_subgroup(d3, [0, 3, 4])
    cosets = left_cosets(d3, rotations)
    assert len(cosets) == 2
    assert generated_subgroup(d3, [1]) == frozenset(rotations)
    assert generated_subgroup(d3, [1, 3]) == frozenset(range(6))
    with pytest.raises(GroupTableError):
        left_cosets(d3, [0, 3, 4])


def test_lagrange_on_random_generated_subgroups():
    rng = Random(21)
    for group in (dihedral_group(6), quaternion_group(), cyclic_group(12)):
        for _ in range(20):
            gens = [rng.randrange(group.order) for _ in range(rng.randrange(1, 3))]
            sub = sorted(generated_subgroup(group, gens))
            assert is_subgroup(group, sub)
            assert group.order % len(sub) == 0
            assert len(left_cosets(group, sub)) == group.order // len(sub)


def test_parse_group_text_round_trip():
    d3 = dihedral_group(3)
    parsed = parse_group_text(format_group(d3))
    assert parsed == d3


BUILT_IN_GROUPS = st.one_of(
    st.integers(1, 12).map(cyclic_group),
    st.integers(1, 6).map(dihedral_group),
    st.just(quaternion_group()),
    st.tuples(st.integers(1, 4), st.integers(1, 4)).map(
        lambda t: direct_product(cyclic_group(t[0]), dihedral_group(t[1]))
    ),
)


@PROPERTY
@given(BUILT_IN_GROUPS)
def test_parse_group_text_round_trip_property(group):
    assert parse_group_text(format_group(group)) == group


def test_parse_group_text_errors():
    with pytest.raises(GroupTableError, match="order"):
        parse_group_text("2\n0 1\n1 0\n")
    with pytest.raises(GroupTableError, match="2 table rows"):
        parse_group_text("order: 2\n0 1\n")
    with pytest.raises(GroupTableError, match=":3:"):
        parse_group_text("order: 2\n0 1\n1 x\n")
    # identity must be element 0
    with pytest.raises(GroupTableError, match="identity"):
        parse_group_text("order: 2\n1 0\n0 1\n")
    with pytest.raises(GroupTableError, match=":3: repeated key 'order'"):
        parse_group_text("order: 1\n# comment\norder: 1\n0\n")
    with pytest.raises(GroupTableError, match=":3: expected a table row"):
        parse_group_text("order: 2\n0 1\n1: 0\n")
    for rows, where, bad in [("0 0_1\n1 0\n", 2, "0 0_1"), ("0 1\n1 +0\n", 3, "1 +0"),
                             ("0 1\n1 ٠\n", 3, "1 ٠")]:
        with pytest.raises(GroupTableError, match=re.escape(f":{where}: bad table row '{bad}'")):
            parse_group_text("order: 2\n" + rows)
    for header in ["+2", "2_0", "٢"]:
        with pytest.raises(GroupTableError, match=re.escape(f":1: bad order '{header}'")):
            parse_group_text(f"order: {header}\n0 1\n1 0\n")
