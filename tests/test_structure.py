import pytest

from helpers import (
    dihedral_d3_action,
    dihedral_d4_action,
    klein_action,
    make_action,
    quaternion_action,
    reflection_z2,
    rotation_z3,
    rotation_z6,
    standard_fixtures,
    trivial_action,
)
from seifert_actions.action import ActionDataError
from seifert_actions.groups import cyclic_group, is_subgroup
from seifert_actions.rational import ZERO_ANGLE
from seifert_actions.seifert import SeifertPair
from seifert_actions.structure import (
    DIRECT_LIKE,
    NO_SPLITTING,
    SEMIDIRECT,
    find_splitting,
    fop_subgroup,
    format_report,
    rotation_order,
    structure_report,
)


def test_fop_subgroup_rejects_non_homomorphic_alpha():
    # alpha = (+1, -1, +1) on Z3: {0, 2} is not closed, as 2 + 2 = 1
    data = make_action(
        cyclic_group(3), (SeifertPair(2, 1),), (1, -1, 1),
        (ZERO_ANGLE,) * 3, ((0,),) * 3, ((ZERO_ANGLE,),) * 3,
    )
    with pytest.raises(ActionDataError, match="not a subgroup"):
        fop_subgroup(data)


def test_fop_subgroup_examples():
    assert fop_subgroup(rotation_z3()) == [0, 1, 2]
    assert fop_subgroup(reflection_z2()) == [0]
    # dihedral: rotations preserve fiber orientation, reflections reverse it
    assert fop_subgroup(dihedral_d3_action()) == [0, 1, 2]


def test_fop_subgroup_is_subgroup_of_index_one_or_two():
    for data in standard_fixtures() + [quaternion_action()]:
        members = fop_subgroup(data)
        assert is_subgroup(data.group, members)
        assert data.group.order // len(members) in (1, 2)
        assert data.group.order % len(members) == 0


def test_rotation_order_examples():
    assert rotation_order(trivial_action(cyclic_group(5))) == 1
    assert rotation_order(rotation_z3()) == 3
    assert rotation_order(rotation_z6()) == 6
    # orientation-reversing elements do not contribute
    assert rotation_order(reflection_z2()) == 1
    assert rotation_order(dihedral_d4_action()) == 4


def test_find_splitting_examples():
    assert find_splitting(rotation_z3()) is None
    assert find_splitting(reflection_z2()) == 1
    assert find_splitting(dihedral_d3_action()) == 3
    assert find_splitting(quaternion_action()) is None

    # Z4 with alpha = -1 on the generator: the square has alpha = +1, so no
    # order-2 element reverses orientation
    from helpers import make_action
    from seifert_actions.rational import ZERO_ANGLE, angle
    from seifert_actions.seifert import SeifertPair

    z4 = cyclic_group(4)
    data = make_action(
        z4,
        (SeifertPair(2, 1),),
        alpha=(1, -1, 1, -1),
        theta1=(ZERO_ANGLE, angle(1, 8), ZERO_ANGLE, angle(1, 8)),
        beta=((0,),) * 4,
        theta2=((ZERO_ANGLE,),) * 4,
    )
    from seifert_actions.action import verify_action

    assert verify_action(data) == []
    assert find_splitting(data) is None


def test_find_splitting_is_exhaustive_and_sound():
    for data in standard_fixtures() + [quaternion_action()]:
        group = data.group
        g = find_splitting(data)
        candidates = [
            h
            for h in group.elements()
            if data.alpha[h] == -1 and group.mul(h, h) == group.identity
        ]
        if g is None:
            assert candidates == []
        else:
            assert g == candidates[0]
            assert data.alpha[g] == -1
            assert group.mul(g, g) == group.identity
            assert g not in fop_subgroup(data)


def test_structure_report_classifications():
    assert structure_report(rotation_z3()).classification == DIRECT_LIKE
    assert structure_report(rotation_z6()).classification == DIRECT_LIKE

    report = structure_report(dihedral_d3_action())
    assert report.classification == SEMIDIRECT
    assert report.fop_index == 2
    assert report.splitting_element == 3
    assert report.rotation_order == 3

    report = structure_report(quaternion_action())
    assert report.classification == NO_SPLITTING
    assert report.fop_index == 2
    assert report.splitting_element is None
    assert report.fop_subgroup == (0, 1, 4, 5)


def test_classification_matches_complement_existence():
    # semidirect exactly when an order-2 complement of the fop subgroup exists
    for data in standard_fixtures() + [quaternion_action()]:
        report = structure_report(data)
        group = data.group
        complements = [
            g
            for g in group.elements()
            if g not in report.fop_subgroup and group.mul(g, g) == group.identity
        ]
        if report.fop_index == 1:
            assert report.classification == DIRECT_LIKE
        elif complements:
            assert report.classification == SEMIDIRECT
        else:
            assert report.classification == NO_SPLITTING


def test_format_report():
    text = format_report(structure_report(klein_action()))
    assert "fop_subgroup: {0, 3}" in text
    assert "fop_index: 2" in text
    assert "classification: semidirect" in text
    assert "splitting_element: 1" in text
