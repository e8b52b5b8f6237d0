import re
import time
import tracemalloc
from itertools import combinations
from random import Random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import PROPERTY, inverse, reference_table_check

from seifert_actions.groups import (
    FiniteGroup,
    GroupTableError,
    cyclic_group,
    dihedral_group,
    direct_product,
    format_group,
    generated_subgroup,
    is_subgroup,
    parse_group_text,
    quaternion_group,
    validate_group,
)


def rows(group):
    """The multiplication table of `group`, as `validate_group` reads it."""
    return [[group.mul(a, b) for b in group.elements()] for a in group.elements()]


def test_validate_group_accepts_z2():
    group = validate_group([[0, 1], [1, 0]])
    assert group.order == 2 and group.identity == 0
    assert inverse(group, 1) == 1


def test_validate_group_accepts_klein():
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    group = validate_group(rows(klein))
    assert group.order == 4
    assert all(group.mul(g, g) == 0 for g in group.elements())


def test_validate_group_rejects_non_latin():
    with pytest.raises(GroupTableError, match="Latin"):
        validate_group([[0, 1], [1, 1]])


# Latin square with identity 0 but (1*1)*2 != 1*(1*2)
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_validate_group_rejects_non_associative():
    table = LOOP5
    message = "associativity fails at (1,1,2): (1*1)*2=2 but 1*(1*2)=4"
    with pytest.raises(GroupTableError, match=re.escape(message)):
        validate_group(table)
    # times Z2, the first generator (e, 1) passes Light's test; a later one fails
    loop = direct_product(FiniteGroup(5, lambda a, b: table[a][b]), cyclic_group(2))
    assert loop.generators == (1, 2, 4)
    message = "associativity fails at (2,2,4): (2*2)*4=4 but 2*(2*4)=8"
    with pytest.raises(GroupTableError, match=re.escape(message)):
        validate_group(rows(loop))


@st.composite
def reduced_latin_squares(draw):
    """A random Latin square of order 5 to 7 with first row and column
    0..n-1, so 0 is a two-sided identity; half are group tables with their
    non-identity elements relabeled, the rest are filled by backtracking."""
    rng = draw(st.integers(0, 2**32).map(Random))
    if draw(st.booleans()):
        group = draw(st.sampled_from([cyclic_group(5), cyclic_group(6),
                                      dihedral_group(3), cyclic_group(7)]))
        label = [0] + rng.sample(range(1, group.order), group.order - 1)
        table = [[0] * group.order for _ in group.elements()]
        for a in group.elements():
            for b in group.elements():
                table[label[a]][label[b]] = label[group.mul(a, b)]
        return table
    n = draw(st.integers(5, 7))
    table = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]

    def fill(cell):
        if cell == n * n:
            return True
        a, b = divmod(cell, n)
        if table[a][b] is not None:
            return fill(cell + 1)
        used = set(table[a]) | {table[r][b] for r in range(a)}
        for v in rng.sample(range(n), n):
            if v not in used:
                table[a][b] = v
                if fill(cell + 1):
                    return True
        table[a][b] = None
        return False

    fill(0)
    return table


@PROPERTY
@given(reduced_latin_squares())
# generators (1, 3): Light's test fails first at s = 1, so the table is
# rejected at (2,1,1), not at the lexicographically first triple (1,2,1)
@example([[0, 1, 2, 3, 4, 5], [1, 2, 4, 0, 5, 3], [2, 4, 5, 1, 3, 0],
          [3, 5, 1, 4, 0, 2], [4, 0, 3, 5, 2, 1], [5, 3, 0, 2, 1, 4]])
def test_light_test_agrees_with_triple_scan(table):
    n = len(table)
    failures = {
        (a, b, c) for a in range(n) for b in range(n) for c in range(n)
        if table[table[a][b]][c] != table[a][table[b][c]]
    }
    if not failures:
        assert validate_group(table).identity == 0
        return
    # the first failing (s, a, c), generators s in order
    gens = FiniteGroup(n, lambda a, b: table[a][b]).generators
    a, b, c = next(
        (a, s, c) for s in gens for a in range(n) for c in range(n) if (a, s, c) in failures
    )
    with pytest.raises(GroupTableError) as raised:
        validate_group(table)
    assert str(raised.value) == (
        f"associativity fails at ({a},{b},{c}): ({a}*{b})*{c}={table[table[a][b]][c]} "
        f"but {a}*({b}*{c})={table[a][table[b][c]]}"
    )


def test_non_associative_table_is_rejected_without_a_triple_scan():
    # LOOP5 times Z160, N = 800: a scan of all N^3 triples took 5.8 s (2-vCPU VM)
    loop = direct_product(FiniteGroup(5, lambda a, b: LOOP5[a][b]), cyclic_group(160))
    table = rows(loop)
    start = time.perf_counter()
    with pytest.raises(GroupTableError, match=re.escape("associativity fails at (160,160,320): ")):
        validate_group(table)
    assert time.perf_counter() - start < 2


def test_generators_generate_within_log2_bound():
    groups = (
        [cyclic_group(n) for n in range(1, 31)]
        + [dihedral_group(n) for n in range(1, 13)]
        + [direct_product(cyclic_group(a), cyclic_group(b))
           for a, b in [(2, 2), (2, 3), (6, 8), (12, 8)]]
        + [direct_product(cyclic_group(8), dihedral_group(4)), quaternion_group()]
    )
    for group in groups:
        gens = group.generators
        assert generated_subgroup(group, list(gens)) == frozenset(group.elements())
        assert 2 ** len(gens) <= group.order


def test_constructors_are_groups():
    for group in (
        cyclic_group(1),
        cyclic_group(6),
        dihedral_group(3),
        dihedral_group(4),
        direct_product(cyclic_group(2), cyclic_group(3)),
        quaternion_group(),
    ):
        validate_group(rows(group))
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
    assert d4.mul(d4.mul(s, r), inverse(d4, s)) == inverse(d4, r)


def test_subgroups_and_cosets():
    d3 = dihedral_group(3)
    rotations = [0, 1, 2]
    assert is_subgroup(d3, rotations)
    assert not is_subgroup(d3, [0, 3, 4])
    # 6 is not an element of Z6, though 6 + 6 = 0 (mod 6) would close it
    assert not is_subgroup(cyclic_group(6), [0, 6])
    assert len({frozenset(d3.mul(g, h) for h in rotations) for g in d3.elements()}) == 2
    assert generated_subgroup(d3, [1]) == frozenset(rotations)
    assert generated_subgroup(d3, [1, 3]) == frozenset(range(6))


def brute_force_is_subgroup(group, elements):
    members = set(elements)
    return (
        group.identity in members
        and all(inverse(group, a) in members for a in members)
        and all(group.mul(a, b) in members for a in members for b in members)
    )


def test_is_subgroup_agrees_with_brute_force():
    q8 = quaternion_group()
    for size in range(9):
        for subset in combinations(q8.elements(), size):
            assert is_subgroup(q8, subset) == brute_force_is_subgroup(q8, subset)
    d6 = dihedral_group(6)
    rng = Random(13)
    for _ in range(300):
        subset = [g for g in d6.elements() if rng.random() < 0.5]
        assert is_subgroup(d6, subset) == brute_force_is_subgroup(d6, subset)


def test_built_in_groups_store_no_table():
    tracemalloc.start()
    try:
        z = cyclic_group(2000)
        d = dihedral_group(1000)
        assert z.mul(1999, 3) == 2 and z.mul(700, 1300) == 0
        assert d.mul(1, 1000) == 1001 and d.mul(1000, 1) == 1999
        assert d.mul(1500, 1500) == 0
        # equality compares products one at a time, without a table
        assert cyclic_group(400) == cyclic_group(400)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_lagrange_on_random_generated_subgroups():
    rng = Random(21)
    for group in (dihedral_group(6), quaternion_group(), cyclic_group(12)):
        for _ in range(20):
            gens = [rng.randrange(group.order) for _ in range(rng.randrange(1, 3))]
            sub = sorted(generated_subgroup(group, gens))
            assert is_subgroup(group, sub)
            assert group.order % len(sub) == 0
            cosets = {frozenset(group.mul(g, h) for h in sub) for g in group.elements()}
            assert len(cosets) == group.order // len(sub)


def test_parse_group_text_round_trip():
    d3 = dihedral_group(3)
    parsed = parse_group_text(format_group(d3))
    assert parsed == d3
    assert cyclic_group(4) != direct_product(cyclic_group(2), cyclic_group(2))


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
    parsed = parse_group_text(format_group(group))
    assert parsed == group
    assert hash(parsed) == hash(group)
    # one leading byte-order mark is dropped, as when a file is read
    assert parse_group_text("\ufeff" + format_group(group)) == group


@st.composite
def perturbed_tables(draw):
    """A built-in group's table after one to three edits: an entry set to a
    value from -2 to n+1 (out of range, or in range so that its row and
    column stop being Latin), a row cut short or lengthened, or two rows or
    two columns swapped, which keeps the table Latin but moves the
    identity."""
    table = rows(draw(BUILT_IN_GROUPS))
    n = len(table)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["entry", "length", "rows", "columns"]))
        g, h = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if kind == "entry" and h < len(table[g]):
            table[g][h] = draw(st.integers(-2, n + 1))
        elif kind == "length":
            table[g] = table[g][:h] if draw(st.booleans()) else table[g] + [h]
        elif kind == "rows":
            table[g], table[h] = table[h], table[g]
        elif kind == "columns":
            for row in table:
                if max(g, h) < len(row):
                    row[g], row[h] = row[h], row[g]
    return table


def check_message(check, table):
    try:
        check(table)
    except GroupTableError as exc:
        return str(exc)
    return None


@PROPERTY
@given(perturbed_tables())
@example([])
@example([[0, 1, 2], [1, 5, -1], [2, 0, 1]])  # first of two bad entries in a row
@example([[0, 1], [1]])  # a short row
@example([[0, 1, 2], [1, 2, 0], [2, 1, 1]])  # column 1 fails before row 2
@example([[0, 1, 2], [1, 2, 0], [2, 0, 0]])  # row 2 fails before column 2
@example([[1, 0], [0, 1]])  # Latin, identity not at 0
def test_table_checks_match_the_per_entry_reference(table):
    expected = check_message(reference_table_check, table)
    message = check_message(validate_group, table)
    if expected is None:
        assert message is None or message.startswith("associativity fails at ")
    else:
        assert message == expected


def test_builders_and_parser_reject_empty_groups():
    with pytest.raises(GroupTableError, match="^cyclic group order must be positive, got 0$"):
        cyclic_group(0)
    with pytest.raises(GroupTableError, match="^dihedral parameter must be positive, got 0$"):
        dihedral_group(0)
    for order in [0, -1]:
        message = f"^group order must be at least 1, got {order}$"
        with pytest.raises(GroupTableError, match=message):
            FiniteGroup(order, lambda a, b: 0)
    with pytest.raises(GroupTableError, match="^empty table$"):
        parse_group_text("order: 0\n", source="g.txt")
    for text in ["", "\n  \n", "# a comment\n\n# another\n"]:
        with pytest.raises(GroupTableError, match="^g.txt: missing 'order:' header$"):
            parse_group_text(text, source="g.txt")
    long = "1" * 5000
    with pytest.raises(GroupTableError, match="^g.txt:1: bad order '1{5000}' \\(an integer has"):
        parse_group_text(f"order: {long}\n", source="g.txt")


def test_parse_group_text_errors():
    with pytest.raises(GroupTableError, match="order"):
        parse_group_text("2\n0 1\n1 0\n")
    with pytest.raises(GroupTableError, match="^<string>:1: expected 'order: N'$"):
        parse_group_text("\ufeff\ufefforder: 1\n0\n")
    with pytest.raises(GroupTableError, match="2 table rows"):
        parse_group_text("order: 2\n0 1\n")
    with pytest.raises(GroupTableError, match=":3:"):
        parse_group_text("order: 2\n0 1\n1 x\n")
    # identity must be element 0
    with pytest.raises(GroupTableError, match="^element 0 is not the identity$"):
        parse_group_text("order: 2\n1 0\n0 1\n")
    # D3 with its identity relabeled to element k, by swapping labels 0 and k
    d3 = dihedral_group(3)
    for k in range(1, 6):
        label = list(d3.elements())
        label[0], label[k] = k, 0
        table = [[0] * 6 for _ in range(6)]
        for a in d3.elements():
            for b in d3.elements():
                table[label[a]][label[b]] = label[d3.mul(a, b)]
        with pytest.raises(GroupTableError, match="^element 0 is not the identity$"):
            validate_group(table)
    with pytest.raises(GroupTableError, match=":3: repeated key 'order'"):
        parse_group_text("order: 1\n# comment\norder: 1\n0\n")
    with pytest.raises(GroupTableError, match=":3: expected a table row"):
        parse_group_text("order: 2\n0 1\n1: 0\n")
    for rows, where, bad in [("0 0_1\n1 0\n", 2, "0 0_1"), ("0 1\n1 +0\n", 3, "1 +0"),
                             ("0 1\n1 ٠\n", 3, "1 ٠"), ("0 1\n\ufeff1 0\n", 3, "\\ufeff1 0")]:
        with pytest.raises(GroupTableError, match=re.escape(f":{where}: bad table row '{bad}'")):
            parse_group_text("order: 2\n" + rows)
    for header in ["+2", "2_0", "٢"]:
        with pytest.raises(GroupTableError, match=re.escape(f":1: bad order '{header}'")):
            parse_group_text(f"order: {header}\n0 1\n1 0\n")
