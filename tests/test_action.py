import re
import tempfile
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    PROPERTY,
    evaluation_homomorphism_holds,
    inverse,
    klein_action,
    make_action,
    mixed_orbit_action,
    perturb_action,
    quaternion_action,
    reference_law_report,
    reflection_z2,
    rotation_z3,
    standard_fixtures,
    trivial_action,
)
from seifert_actions.action import (
    ActionDataError,
    ActionFormatError,
    ExtendedActionData,
    SolidTorusPoint,
    UnsupportedExtensionError,
    action_obstruction_check,
    boundary_action,
    boundary_orbit_numbers,
    format_action,
    induced_filling_action,
    kernel_on_boundary,
    parse_action_file,
    parse_action_text,
    solid_torus_eval,
    verify_action,
)
from seifert_actions.groups import (
    cyclic_group,
    dihedral_group,
    direct_product,
    format_group,
    parse_group_file,
)
from seifert_actions.obstruction import format_witness
from seifert_actions.rational import ZERO_ANGLE, RationalAngle, angle
from seifert_actions.seifert import SeifertPair, normalize, pair_problems, parse_presentation
from seifert_actions.torus import IDENTITY, TorusAutomorphism, gluing_automorphism
from seifert_actions.torus import conjugate_by_gluing


def test_fixtures_are_valid_actions():
    for data in standard_fixtures() + [quaternion_action()]:
        assert verify_action(data) == []
        assert evaluation_homomorphism_holds(data)


def test_verify_action_known_cases():
    # reflection with arbitrary fiber phase is fine
    assert verify_action(reflection_z2(s=ZERO_ANGLE)) == []

    # theta1 = 1/2 on a rotation generator of Z3 cannot close up
    bad = make_action(
        cyclic_group(3),
        (SeifertPair(2, 1),),
        alpha=(1, 1, 1),
        theta1=(ZERO_ANGLE, angle(1, 2), ZERO_ANGLE),
        beta=((0,),) * 3,
        theta2=((ZERO_ANGLE,),) * 3,
    )
    problems = verify_action(bad)
    assert any("theta1" in p for p in problems)
    assert not evaluation_homomorphism_holds(bad)

    # swapping fillings of different type is flagged
    mismatched = make_action(
        cyclic_group(2),
        (SeifertPair(3, 2), SeifertPair(3, 1)),
        alpha=(1, 1),
        theta1=(ZERO_ANGLE, ZERO_ANGLE),
        beta=((0, 1), (1, 0)),
        theta2=((ZERO_ANGLE,) * 2,) * 2,
    )
    problems = verify_action(mismatched)
    assert any("fillings" in p for p in problems)


def test_structural_validation():
    with pytest.raises(ActionDataError, match="alpha"):
        make_action(
            cyclic_group(2), (SeifertPair(2, 1),), (1, 2),
            (ZERO_ANGLE,) * 2, ((0,),) * 2, ((ZERO_ANGLE,),) * 2,
        )
    with pytest.raises(ActionDataError, match="permutation"):
        make_action(
            cyclic_group(2), (SeifertPair(2, 1),) * 2, (1, 1),
            (ZERO_ANGLE,) * 2, ((0, 0), (0, 1)), ((ZERO_ANGLE,) * 2,) * 2,
        )
    with pytest.raises(ActionDataError, match="pair"):
        make_action(
            cyclic_group(2), (SeifertPair(4, 2),), (1, 1),
            (ZERO_ANGLE,) * 2, ((0,),) * 2, ((ZERO_ANGLE,),) * 2,
        )
    with pytest.raises(ActionDataError, match="^at least one boundary component"):
        make_action(cyclic_group(2), (), (1, 1), (ZERO_ANGLE,) * 2, ((),) * 2, ((),) * 2)
    with pytest.raises(ActionDataError, match=r"^theta1 has 1 entries, expected one per element \(2\)$"):
        make_action(
            cyclic_group(2), (SeifertPair(2, 1),), (1, 1),
            (ZERO_ANGLE,), ((0,),) * 2, ((ZERO_ANGLE,),) * 2,
        )
    with pytest.raises(ActionDataError, match=r"^theta2\[1\] has 1 angles, expected 2$"):
        make_action(
            cyclic_group(2), (SeifertPair(2, 1),) * 2, (1, 1),
            (ZERO_ANGLE,) * 2, ((0, 1),) * 2, ((ZERO_ANGLE,) * 2, (ZERO_ANGLE,)),
        )


def test_boundary_action_examples():
    data = rotation_z3()
    target, auto = boundary_action(data, 0, 1)
    assert (target, auto) == (1, IDENTITY)

    refl = reflection_z2(t=ZERO_ANGLE, s=ZERO_ANGLE)
    target, auto = boundary_action(refl, 1, 0)
    assert auto.matrix() == (-1, 0, 0, -1)
    assert auto.phase1 == ZERO_ANGLE and auto.phase2 == ZERO_ANGLE

    # Z6 with theta1 = k/3 and theta2 = k/2 realizes phases (1/3, 1/2)
    z6 = cyclic_group(6)
    data = make_action(
        z6,
        (SeifertPair(3, 2),),
        alpha=(1,) * 6,
        theta1=tuple(angle(k, 3) for k in range(6)),
        beta=((0,),) * 6,
        theta2=tuple((angle(k, 2),) for k in range(6)),
    )
    assert verify_action(data) == []
    target, auto = boundary_action(data, 1, 0)
    assert target == 0
    assert auto.matrix() == (1, 0, 0, 1)
    assert (auto.phase1, auto.phase2) == (angle(1, 3), angle(1, 2))


def test_filling_action_examples():
    # pair (3,2), theta1 = 1/3, theta2 = 0, orientation preserved
    data = make_action(
        cyclic_group(3),
        (SeifertPair(3, 2),),
        alpha=(1,) * 3,
        theta1=tuple(angle(k, 3) for k in range(3)),
        beta=((0,),) * 3,
        theta2=((ZERO_ANGLE,),) * 3,
    )
    assert verify_action(data) == []
    target, auto = induced_filling_action(data, 1, 0)
    assert target == 0
    assert (auto.phase1, auto.phase2) == (ZERO_ANGLE, angle(2, 3))

    _, ident = induced_filling_action(data, 0, 0)
    assert ident == IDENTITY

    # q = 1 filling: phases (-t + b*s, s)
    refl = reflection_z2(pair=SeifertPair(1, 3), t=angle(1, 5), s=angle(1, 7))
    _, auto = induced_filling_action(refl, 1, 0)
    assert auto.phase1 == angle(8, 35)  # -1/5 + 3/7
    assert auto.phase2 == angle(1, 7)
    assert auto.matrix() == (-1, 0, 0, -1)


def test_queries_reject_out_of_range_element_and_index():
    data = rotation_z3()
    for query in (boundary_action, induced_filling_action):
        for g, i, message in [
            (-1, 0, "element -1 out of range 0..2"),
            (3, 0, "element 3 out of range 0..2"),
            (0, -1, "boundary index -1 out of range 0..2"),
            (0, 3, "boundary index 3 out of range 0..2"),
        ]:
            with pytest.raises(ActionDataError, match=f"^{re.escape(message)}$"):
                query(data, g, i)


def test_filling_action_matches_conjugation_on_fixtures():
    for data in standard_fixtures() + [quaternion_action()]:
        for g in data.group.elements():
            for i in range(data.n_boundary):
                d = gluing_automorphism(data.pairs[i])
                target, via_formula = induced_filling_action(data, g, i)
                boundary_target, boundary = boundary_action(data, g, i)
                assert target == boundary_target
                assert via_formula == conjugate_by_gluing(boundary, d)


def test_produced_matrices_are_alpha_identity():
    for data in standard_fixtures():
        for g in data.group.elements():
            a = data.alpha[g]
            for i in range(data.n_boundary):
                _, b_auto = boundary_action(data, g, i)
                _, f_auto = induced_filling_action(data, g, i)
                assert b_auto.matrix() == (a, 0, 0, a)
                assert f_auto.matrix() == (a, 0, 0, a)


def test_homomorphism_iff_verify_with_perturbations():
    rng = Random(55)
    for data in standard_fixtures():
        assert verify_action(data) == []
        rejected = 0
        attempts = 0
        while rejected < 20:
            attempts += 1
            assert attempts < 400
            mutated = perturb_action(data, rng)
            valid = evaluation_homomorphism_holds(mutated)
            assert (verify_action(mutated) == []) == valid
            if not valid:
                rejected += 1


def test_solid_torus_eval():
    ident = IDENTITY
    point = SolidTorusPoint(angle(1, 3), Fraction(1, 2), angle(1, 4))
    assert solid_torus_eval(ident, point) == point

    # cone apex: the core circle only rotates in the fiber direction
    spin = TorusAutomorphism(1, 0, 0, 1, angle(1, 2), angle(1, 4))
    core = SolidTorusPoint(angle(0), Fraction(0), angle(1, 9))
    image = solid_torus_eval(spin, core)
    assert image == SolidTorusPoint(angle(1, 2), Fraction(0), ZERO_ANGLE)

    rotate = TorusAutomorphism(1, 0, 0, 1, ZERO_ANGLE, angle(1, 3))
    moved = solid_torus_eval(rotate, point)
    assert moved == SolidTorusPoint(angle(1, 3), Fraction(1, 2), angle(7, 12))

    flip = TorusAutomorphism(-1, 0, 0, -1)
    flipped = solid_torus_eval(flip, point)
    assert flipped == SolidTorusPoint(angle(2, 3), Fraction(1, 2), angle(3, 4))

    with pytest.raises(UnsupportedExtensionError):
        solid_torus_eval(TorusAutomorphism(1, 1, 0, 1), point)
    with pytest.raises(ValueError):
        SolidTorusPoint(angle(0), Fraction(3, 2), angle(0))


@pytest.mark.parametrize("radius", [0.5, Decimal("0.5"), "1/2"])
def test_solid_torus_radius_must_be_int_or_fraction(radius):
    with pytest.raises(TypeError, match="int or Fraction"):
        SolidTorusPoint(angle(1, 3), radius, angle(1, 4))
    assert SolidTorusPoint(angle(1, 3), 1, angle(1, 4)).radius == 1


def test_boundary_orbit_numbers():
    assert boundary_orbit_numbers(trivial_action(cyclic_group(4))) == {0: 1}
    assert boundary_orbit_numbers(klein_action()) == {0: 2, 1: 2}
    data = rotation_z3()
    assert boundary_orbit_numbers(data) == {0: 3, 1: 3, 2: 3}


def test_orbit_numbers_divide_group_order():
    for data in standard_fixtures() + [quaternion_action()]:
        for size in boundary_orbit_numbers(data).values():
            assert data.group.order % size == 0


def test_action_obstruction_check():
    # an invariant filling (orbit 1) makes every class expressible
    data = quaternion_action()
    for b in (-9, 0, 5):
        pres = normalize(parse_presentation(f"(0,o1|(2,1),(1,{b}))"))
        witness = action_obstruction_check(data, pres)
        assert witness is not None and witness.total() == b

    # coprime orbit sizes 2 and 3 make every class expressible
    data = mixed_orbit_action(6, [(2, SeifertPair(5, 2)), (3, SeifertPair(2, 1))])
    assert verify_action(data) == []
    assert sorted(set(boundary_orbit_numbers(data).values())) == [2, 3]
    for b in range(-7, 8):
        pres = normalize(
            parse_presentation(f"(0,o1|(5,2),(5,2),(2,1),(2,1),(2,1),(1,{b}))")
        )
        witness = action_obstruction_check(data, pres)
        assert witness is not None and witness.total() == b

    # all orbit sizes even blocks odd classes
    data = mixed_orbit_action(4, [(2, SeifertPair(3, 1)), (4, SeifertPair(2, 1))])
    assert verify_action(data) == []
    assert sorted(set(boundary_orbit_numbers(data).values())) == [2, 4]
    base = "(0,o1|(3,1),(3,1),(2,1),(2,1),(2,1),(2,1),(1,{}))"
    for b in (-3, 1, 7):
        pres = normalize(parse_presentation(base.format(b)))
        assert action_obstruction_check(data, pres) is None
    for b in (-4, 0, 6):
        pres = normalize(parse_presentation(base.format(b)))
        assert action_obstruction_check(data, pres) is not None

    # caller-supplied interior orbit numbers join the decomposition
    pres = normalize(parse_presentation(base.format(3)))
    witness = action_obstruction_check(data, pres, regular_orbits=(1,))
    assert witness is not None and witness.total() == 3


def test_action_obstruction_check_requires_matching_pairs():
    data = quaternion_action()
    pres = normalize(parse_presentation("(0,o1|(3,1),(1,0))"))
    with pytest.raises(ActionDataError, match="match"):
        action_obstruction_check(data, pres)


def test_action_obstruction_check_reads_fillings_in_normal_form():
    # (2,3) and its normal form (2,1) fill the same manifold
    z3 = rotation_z3()
    pres = normalize(parse_presentation("(0,o1|(2,3),(2,3),(2,3))"))
    for pair in (SeifertPair(2, 1), SeifertPair(2, 3)):
        data = ExtendedActionData(z3.group, (pair,) * 3, z3.alpha, z3.theta1, z3.beta, z3.theta2)
        assert verify_action(data) == []
        witness = action_obstruction_check(data, pres)
        assert format_witness(pres.b, witness) == "3 = 1*3"


def test_kernel_on_boundary():
    z3 = cyclic_group(3)
    assert kernel_on_boundary(trivial_action(z3)) == [0, 1, 2]
    assert kernel_on_boundary(rotation_z3()) == [0]

    # one Klein factor acting trivially on all boundary data
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    data = make_action(
        klein,
        (SeifertPair(2, 1),),
        alpha=(1, 1, 1, 1),
        theta1=(ZERO_ANGLE, angle(1, 2), ZERO_ANGLE, angle(1, 2)),
        beta=((0,),) * 4,
        theta2=((ZERO_ANGLE,),) * 4,
    )
    assert verify_action(data) == []
    assert kernel_on_boundary(data) == [0, 2]


def test_kernel_is_normal():
    for data in standard_fixtures() + [quaternion_action()]:
        kernel = set(kernel_on_boundary(data))
        group = data.group
        for g in group.elements():
            for k in kernel:
                assert group.mul(group.mul(g, k), inverse(group, g)) in kernel


PERTURBED_BASES = standard_fixtures() + [
    quaternion_action(),
    mixed_orbit_action(12, [(3, SeifertPair(2, 1)), (2, SeifertPair(5, 2))]),
    # nine boundary tori: a beta perturbation must not list all 9! permutations
    mixed_orbit_action(6, [(6, SeifertPair(2, 1)), (3, SeifertPair(5, 2))]),
]


@PROPERTY
@given(st.sampled_from(PERTURBED_BASES), st.integers(0, 2**32))
def test_generator_check_matches_full_scan_on_perturbed_actions(data, seed):
    mutated = perturb_action(data, Random(seed))
    report = verify_action(mutated)
    assert report == reference_law_report(mutated)
    laws_hold = not any("law fails" in p or "homomorphism at" in p for p in report)
    assert laws_hold == evaluation_homomorphism_holds(mutated)


def test_trivial_group_is_checked_at_the_identity():
    valid = trivial_action(cyclic_group(1))
    data = ExtendedActionData(
        valid.group, valid.pairs, (-1,), valid.theta1, valid.beta, valid.theta2
    )
    assert cyclic_group(1).generators == ()
    assert verify_action(data) == [
        "alpha is not a homomorphism at (0,0): alpha(0)=-1 but product is +1"
    ]


def test_law_check_does_no_angle_arithmetic(monkeypatch):
    valid = mixed_orbit_action(12, [(3, SeifertPair(2, 1)), (2, SeifertPair(5, 2))])
    perturbed = perturb_action(valid, Random(3))

    def refuse(*args):
        raise AssertionError("angle arithmetic in the law check")

    for name in ("__add__", "__sub__", "__neg__", "scale"):
        monkeypatch.setattr(RationalAngle, name, refuse)
    assert verify_action(valid) == []
    assert verify_action(perturbed) != []


def test_action_file_round_trip(tmp_path):
    for name, data in [
        ("klein", klein_action()),
        ("d3", klein_action()),
        ("refl", reflection_z2()),
    ]:
        group_file = tmp_path / f"{name}_group.txt"
        group_file.write_text(format_group(data.group), encoding="utf-8")
        text = format_action(data, f"{name}_group.txt")
        parsed = parse_action_text(text, base_dir=tmp_path)
        assert parsed == data


def test_files_read_the_same_from_a_str_and_a_path(tmp_path):
    data = rotation_z3()
    (tmp_path / "g.txt").write_text(format_group(data.group), encoding="utf-8")
    (tmp_path / "a.action").write_text(format_action(data, "g.txt"), encoding="utf-8")
    assert parse_group_file(tmp_path / "g.txt") == parse_group_file(str(tmp_path / "g.txt"))
    assert parse_action_file(tmp_path / "a.action") == data
    assert parse_action_file(str(tmp_path / "a.action")) == data


def test_files_with_a_byte_order_mark_read_as_plain_ones(tmp_path):
    data = rotation_z3()
    (tmp_path / "g.txt").write_text("\ufeff" + format_group(data.group), encoding="utf-8")
    (tmp_path / "a.action").write_text("\ufeff" + format_action(data, "g.txt"), encoding="utf-8")
    assert parse_group_file(tmp_path / "g.txt") == data.group
    assert parse_action_file(tmp_path / "a.action") == data


# Large pairwise-coprime denominators put the action's common denominator
# far above 2**32.
ANGLES = st.builds(
    angle,
    st.integers(-70000, 70000),
    st.one_of(st.integers(1, 12), st.sampled_from([97, 101, 65537, 2**31 - 1])),
)
PAIRS = st.builds(SeifertPair, st.integers(1, 40), st.integers(-99, 99)).filter(
    lambda pair: not pair_problems((pair,))
)


@st.composite
def structurally_valid_actions(draw):
    """Action data that passes the structural checks; the laws may fail."""
    group = draw(st.sampled_from([cyclic_group(1), cyclic_group(3), dihedral_group(2)]))
    pairs = draw(st.lists(PAIRS, min_size=1, max_size=3))
    n, order = len(pairs), group.order
    return make_action(
        group, pairs,
        draw(st.lists(st.sampled_from([1, -1]), min_size=order, max_size=order)),
        draw(st.lists(ANGLES, min_size=order, max_size=order)),
        draw(st.lists(st.permutations(range(n)), min_size=order, max_size=order)),
        draw(st.lists(st.lists(ANGLES, min_size=n, max_size=n), min_size=order, max_size=order)),
    )


@PROPERTY
@given(structurally_valid_actions())
def test_action_file_round_trip_property(data):
    with tempfile.TemporaryDirectory() as d:
        (Path(d) / "g.txt").write_text(format_group(data.group), encoding="utf-8")
        assert parse_action_text(format_action(data, "g.txt"), base_dir=d) == data


@PROPERTY
@given(structurally_valid_actions())
def test_generator_check_matches_full_scan_on_random_data(data):
    assert verify_action(data) == reference_law_report(data)


def test_action_parse_errors_cite_lines(tmp_path):
    group_file = tmp_path / "g.txt"
    group_file.write_text(format_group(cyclic_group(2)), encoding="utf-8")
    text = (
        "group: g.txt\n"
        "pairs: (3,2)\n"
        "0: alpha=+1 theta1=0 beta=(1) theta2=0\n"
        "1: alpha=-1 theta1=1/5 beta=(1) theta2=0\n"
    )
    parse_action_text(text, base_dir=tmp_path)

    bad = text.replace("0: alpha=+1", "0: alpha=2")
    with pytest.raises(ActionFormatError, match=":3:"):
        parse_action_text(bad, base_dir=tmp_path)

    bad = text.replace("1: alpha=-1 theta1=1/5 beta=(1) theta2=0\n", "")
    with pytest.raises(ActionFormatError, match="element 1"):
        parse_action_text(bad, base_dir=tmp_path)

    bad = text.replace("1/5 beta=(1)", "1/5 beta=(2)")
    with pytest.raises(ActionFormatError, match="permutation"):
        parse_action_text(bad, base_dir=tmp_path)

    bad = text.replace("theta1=1/5", "theta1=0.2")
    with pytest.raises(ActionFormatError, match=":4:.*angle"):
        parse_action_text(bad, base_dir=tmp_path)

    with pytest.raises(ActionFormatError, match="pairs"):
        parse_action_text("group: g.txt\n0: alpha=+1\n", base_dir=tmp_path)

    bad = text.replace("theta1=1/5", "theta1=1/7 theta1=1/5")
    with pytest.raises(ActionFormatError, match=":4: repeated field 'theta1'"):
        parse_action_text(bad, base_dir=tmp_path)

    bad = text + "1: alpha=-1 theta1=1/5 beta=(1) theta2=0\n"
    with pytest.raises(ActionFormatError, match=":5: repeated key '1'"):
        parse_action_text(bad, base_dir=tmp_path)

    bad = text + "01: alpha=-1 theta1=1/5 beta=(1) theta2=0\n"
    with pytest.raises(ActionFormatError, match=":5: repeated element 1"):
        parse_action_text(bad, base_dir=tmp_path)

    bad = text.replace("pairs: (3,2)\n", "pairs: (3,2)\ngroup: g.txt\n")
    with pytest.raises(ActionFormatError, match=":3: repeated key 'group'"):
        parse_action_text(bad, base_dir=tmp_path)

    bad = text + "pairs: (5,2)\n"
    with pytest.raises(ActionFormatError, match=":5: repeated key 'pairs'"):
        parse_action_text(bad, base_dir=tmp_path)

    bad = text + "\u00b2: alpha=+1 theta1=0 beta=(1) theta2=0\n"
    with pytest.raises(ActionFormatError, match=":5: unknown key '\u00b2'"):
        parse_action_text(bad, base_dir=tmp_path)

    bad = text.replace("pairs: (3,2)", "pairs: (4,2)")
    with pytest.raises(ActionFormatError, match=r":2: pair 1: \(4,2\) not coprime \(gcd=2\)"):
        parse_action_text(bad, base_dir=tmp_path)

    # the pairs line takes the spacing of parse_pair
    for line in ["pairs: (3, 2)", "pairs: ( 3 , 2 )", "pairs:(3,2)"]:
        assert parse_action_text(text.replace("pairs: (3,2)", line), base_dir=tmp_path).pairs == (
            SeifertPair(3, 2),
        )
    (tmp_path / "g3.txt").write_text(format_group(cyclic_group(1)), encoding="utf-8")
    one = "group: g3.txt\npairs: (3, 2)(5 ,2)  ( 3,2 )\n0: alpha=+1 theta1=0 beta=(1,2,3) theta2=0,0,0\n"
    assert parse_action_text(one, base_dir=tmp_path).pairs == (
        SeifertPair(3, 2), SeifertPair(5, 2), SeifertPair(3, 2),
    )
    for line, piece in [
        ("pairs: (3, 2) x", "x"),
        ("pairs: (3,2),(5,2)", ",(5,2)"),
        ("pairs: (3, 2) (3", "(3"),
        ("pairs: 3,2", "3,2"),
        ("pairs: (3,2))", ")"),
    ]:
        message = re.escape(f":2: not a Seifert pair: {piece!r}")
        with pytest.raises(ActionFormatError, match=message):
            parse_action_text(text.replace("pairs: (3,2)", line), base_dir=tmp_path)

    for old, new, message in [
        ("1/5 beta=(1)", "1/5 beta=(+1)", r":4: bad beta '\(\+1\)'"),
        ("theta1=1/5 beta=(1) theta2=0", "theta1=1/5 beta=(1) theta2=٠", ":4: bad angle '٠'"),
        ("theta1=1/5", "theta1=١/٢", ":4: bad angle '١/٢'"),
    ]:
        with pytest.raises(ActionFormatError, match=message):
            parse_action_text(text.replace(old, new), base_dir=tmp_path)

    # a NUL byte in the group file name and a token longer than int() reads
    # are errors of their line
    bad = text.replace("group: g.txt", "group: g\0.txt")
    with pytest.raises(ActionFormatError, match=re.escape(":1: group file name 'g\\x00.txt' holds")):
        parse_action_text(bad, base_dir=tmp_path)
    long = "1" * 5000
    for old, new, message in [
        ("1/5 beta=(1)", f"1/5 beta=({long})", ":4: bad beta"),
        ("theta1=1/5", f"theta1=1/{long}", ":4: bad angle"),
        ("pairs: (3,2)", f"pairs: (3,{long})", ":2: not a Seifert pair"),
        ("1: alpha=-1", f"{long}: alpha=-1", ":4: unknown key"),
    ]:
        with pytest.raises(ActionFormatError, match=message):
            parse_action_text(text.replace(old, new), base_dir=tmp_path)

    for row in ["0 0_1", "1 +0"]:
        (tmp_path / "bad_g.txt").write_text(f"order: 2\n0 1\n{row}\n", encoding="utf-8")
        bad = text.replace("group: g.txt", "group: bad_g.txt")
        message = ":1: .*bad_g.txt:3: " + re.escape(f"bad table row '{row}'")
        with pytest.raises(ActionFormatError, match=message):
            parse_action_text(bad, base_dir=tmp_path)


def test_repeated_angle_tokens(tmp_path):
    (tmp_path / "g.txt").write_text(format_group(cyclic_group(2)), encoding="utf-8")
    text = (
        "group: g.txt\n"
        "pairs: (3,2) (3,2)\n"
        "0: alpha=+1 theta1=0 beta=(1,2) theta2=0,0\n"
        "1: alpha=+1 theta1=1/3 beta=(1,2) theta2=2/6,1/3\n"
    )
    data = parse_action_text(text, base_dir=tmp_path)
    assert data.theta2[1] == (angle(1, 3), angle(1, 3)) == (data.theta1[1],) * 2
    # a repeated token is one angle, parsed once
    assert data.theta2[1][1] is data.theta1[1]
    # a bad token that repeats is reported on the first line that holds it
    bad = text.replace("theta2=0,0", "theta2=0,1/0").replace("2/6,1/3", "1/0,1/0")
    with pytest.raises(ActionFormatError, match=re.escape(":3: bad angle '1/0'")):
        parse_action_text(bad, base_dir=tmp_path)
    bad = text.replace("theta2=2/6,1/3", "theta2=x,x").replace("theta1=0 ", "theta1=x ")
    with pytest.raises(ActionFormatError, match=re.escape(":3: bad angle 'x'")):
        parse_action_text(bad, base_dir=tmp_path)
