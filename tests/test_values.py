"""The value classes behave as the frozen dataclasses they replace.

Each class is checked against a frozen dataclass twin with the same name,
fields and defaults, built here from the field lists below, on sample
values: repr, equality, hash, ordering, keyword construction and frozen
fields must agree.  Copy and pickle must round-trip every value.
"""

import copy
import dataclasses
import inspect
import operator
import pickle
from fractions import Fraction
from itertools import product

import pytest

from seifert_actions.action import ExtendedActionData, SolidTorusPoint
from seifert_actions.groups import FiniteGroup, cyclic_group
from seifert_actions.obstruction import HFunction, ObstructionWitness
from seifert_actions.orbifold import OrbifoldData
from seifert_actions.rational import ZERO_ANGLE, RationalAngle, Value, angle
from seifert_actions.seifert import (
    GluingPair,
    NormalizedPresentation,
    SeifertPair,
    SeifertPresentation,
)
from seifert_actions.structure import StructureReport
from seifert_actions.torus import TorusAutomorphism

A, B = angle(1, 3), angle(2, 5)
P, Q = SeifertPair(3, 2), SeifertPair(5, 2)
V4 = FiniteGroup(4, operator.xor)  # Z2 x Z2; a picklable product
Z3 = cyclic_group(3)


def _action(group, alpha):
    n = group.order
    return (group, (P, Q), alpha, (A,) * n, ((0, 1),) * n, ((ZERO_ANGLE, B),) * n)


# class -> (the old dataclass fields, with (name, default) for a default;
#           sample constructor arguments, canonical so that the twin, which
#           has no __post_init__, stores the same fields)
CASES = {
    RationalAngle: (["value"], [(Fraction(1, 3),), (Fraction(0),), (Fraction(1, 3),)]),
    SeifertPair: (["q", "p"], [(3, 2), (5, 2), (3, -1), (1, 0), (3, 2)]),
    SeifertPresentation: (
        ["genus", ("pairs", ())], [(0,), (0, (P, Q)), (2, (P,)), (0, ())],
    ),
    NormalizedPresentation: (
        ["genus", "pairs", "b"], [(0, (P, Q), 1), (1, (), 0), (0, (P, Q), 1)],
    ),
    GluingPair: (["x", "y", "attached_pair"], [(1, 2, P), (0, 0, SeifertPair(1, 0)), (1, 2, P)]),
    FiniteGroup: (
        ["order", "mul"], [(3, Z3.mul), (4, V4.mul), (3, lambda a, b: (a + b) % 3), (3, Z3.mul)],
    ),
    ExtendedActionData: (
        ["group", "pairs", "alpha", "theta1", "beta", "theta2"],
        [_action(V4, (1, 1, 1, 1)), _action(V4, (1, -1, 1, -1)), _action(V4, (1, 1, 1, 1))],
    ),
    SolidTorusPoint: (
        ["longitude", "radius", "meridian"],
        [(A, Fraction(1, 2), B), (A, 0, ZERO_ANGLE), (A, Fraction(1, 2), B)],
    ),
    TorusAutomorphism: (
        ["m11", "m12", "m21", "m22", ("phase1", ZERO_ANGLE), ("phase2", ZERO_ANGLE)],
        [(1, 0, 0, 1), (0, 1, 1, 0, A, B), (1, 0, 0, 1, ZERO_ANGLE, ZERO_ANGLE), (-1, 0, 0, -1)],
    ),
    OrbifoldData: (
        ["genus", ("cone_orders", ()), ("corner_orders", ()), ("with_boundary", False)],
        [(0,), (0, (2, 3, 5)), (1, (), (2,), True), (0, ())],
    ),
    ObstructionWitness: (
        ["orbit_numbers", "coefficients"], [((2, 3), (1, 1)), ((2,), (0,)), ((2, 3), (1, 1))],
    ),
    HFunction: (["values"], [((1, 2),), ((3,),), ((1, 2),)]),
    StructureReport: (
        ["fop_subgroup", "fop_index", "rotation_order", "splitting_element", "classification"],
        [((0, 1, 2), 1, 3, None, "direct-like"), ((0,), 2, 1, 1, "semidirect"),
         ((0, 1, 2), 1, 3, None, "direct-like")],
    ),
}
IDS = [cls.__name__ for cls in CASES]


def _group_eq(self, other):
    # FiniteGroup's own equality: the products, compared through `mul`
    if not isinstance(other, type(self)):
        return NotImplemented
    elements = range(self.order)
    return self.order == other.order and all(
        self.mul(a, b) == other.mul(a, b) for a in elements for b in elements
    )


def twin(cls):
    fields = [
        (f, object) if isinstance(f, str) else (f[0], object, dataclasses.field(default=f[1]))
        for f in CASES[cls][0]
    ]
    namespace = {}
    if cls is FiniteGroup:
        namespace = {"__eq__": _group_eq, "__hash__": lambda self: hash(self.order), "identity": 0}
    return dataclasses.make_dataclass(
        cls.__name__, fields, frozen=True, order=cls is SeifertPair, namespace=namespace
    )


def pairs_of(cls):
    made = twin(cls)
    return [(cls(*args), made(*args), args) for args in CASES[cls][1]]


def test_every_value_class_is_listed():
    assert set(CASES) == set(Value.__subclasses__())


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_constructor_and_fields_match_the_dataclass(cls):
    made = twin(cls)
    assert cls.__match_args__ == made.__match_args__
    params = [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]
    assert params == [(p.name, p.default) for p in inspect.signature(made).parameters.values()]
    for new, old, args in pairs_of(cls):
        kwargs = dict(zip(cls.__match_args__, args))
        assert repr(cls(**kwargs)) == repr(made(**kwargs)) == repr(old) == repr(new)
        assert cls(**kwargs) == new


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_equality_and_hash_match_the_dataclass(cls):
    samples = pairs_of(cls)
    for (new1, old1, _), (new2, old2, _) in product(samples, repeat=2):
        assert (new1 == new2) is (old1 == old2)
        assert (new1 != new2) is (old1 != old2)
    for new, old, _ in samples:
        assert hash(new) == hash(old)
        fields = tuple(getattr(new, name) for name in cls.__match_args__)
        assert (new == fields) is (old == fields) is False
        assert (new != fields) is (old != fields) is True
        # the twin is another class with the same name and fields
        assert (new == old) is False and (new != old) is True


def test_seifert_pair_order_matches_the_dataclass():
    samples = pairs_of(SeifertPair)
    for (new1, old1, _), (new2, old2, _) in product(samples, repeat=2):
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            assert op(new1, new2) is op(old1, old2)
    with pytest.raises(TypeError):
        P < (3, 2)
    assert sorted([Q, SeifertPair(3, -1), P]) == [SeifertPair(3, -1), P, Q]


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_fields_are_frozen(cls):
    for new, old, _ in pairs_of(cls):
        for name in (*cls.__match_args__, "other"):
            for target in (new, old):
                with pytest.raises(AttributeError, match=repr(name)):
                    setattr(target, name, 0)
                with pytest.raises(AttributeError):
                    delattr(target, name)
        assert hasattr(new, "__dict__") is (cls is FiniteGroup)


def test_finite_group_keeps_its_class_identity_and_cached_generators():
    assert FiniteGroup.identity == V4.identity == 0
    assert V4.generators == (1, 2) and "generators" in vars(V4)


def test_match_reads_the_fields_in_order():
    match TorusAutomorphism(0, 1, 1, 0, A):
        case TorusAutomorphism(m11, m12, _, _, phase1, phase2):
            assert (m11, m12, phase1, phase2) == (0, 1, A, ZERO_ANGLE)
        case _:
            pytest.fail("no match")


@pytest.mark.parametrize("cls", [cls for cls in CASES if cls is not FiniteGroup],
                         ids=[name for name in IDS if name != "FiniteGroup"])
def test_copy_and_pickle_round_trip(cls):
    # FiniteGroup is left out: the built-in groups multiply by closures,
    # which pickle cannot store
    for value in (cls(*args) for args in CASES[cls][1]):
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(clone) is cls and clone == value and repr(clone) == repr(value)
