import math
import re
import time
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import PROPERTY
from helpers import random_legal_move as _random_legal_move
from helpers import random_presentation as _random_presentation
from seifert_actions.seifert import (
    MoveError,
    NormalizedPresentation,
    PresentationError,
    SeifertPair,
    SeifertPresentation,
    add_trivial,
    apply_move,
    delete_trivial,
    equivalent,
    euler_number,
    format_normalized,
    format_presentation,
    gluing_pair,
    induced_fibration,
    normalize,
    parse_pair,
    parse_presentation,
    permute,
    shift,
    validate,
)


def pres(text):
    return parse_presentation(text)


def test_validate_examples():
    assert validate(pres("(0,o1|(3,2))")) == []
    report = validate(pres("(0,o1|(4,2))"))
    assert len(report) == 1 and "gcd=2" in report[0]
    assert validate(pres("(0,o1|)")) == []


def test_validate_reports_every_violation():
    bad = SeifertPresentation(-1, (SeifertPair(4, 2), SeifertPair(0, 1)))
    report = validate(bad)
    assert len(report) == 3


def test_normalize_known_values():
    n = normalize(pres("(0,o1|(3,5),(3,5))"))
    assert n.pairs == (SeifertPair(3, 2), SeifertPair(3, 2))
    assert n.b == 2

    n = normalize(pres("(0,o1|(1,7))"))
    assert n.pairs == ()
    assert n.b == 7

    # -3 = -1*5 + 2
    n = normalize(pres("(2,o1|(5,-3))"))
    assert n.pairs == (SeifertPair(5, 2),)
    assert n.b == -1


def test_normalize_sorts_pairs():
    n = normalize(pres("(0,o1|(5,2),(3,1),(5,1))"))
    assert n.pairs == (SeifertPair(3, 1), SeifertPair(5, 1), SeifertPair(5, 2))


def test_normalize_rejects_invalid():
    with pytest.raises(PresentationError):
        normalize(pres("(0,o1|(4,2))"))


def test_equivalent_examples():
    assert equivalent(pres("(0,o1|(3,2),(3,2),(1,2))"), pres("(0,o1|(3,5),(3,5))"))
    assert equivalent(pres("(0,o1|(3,2))"), pres("(0,o1|(3,2))"))
    # class sums 2/3 vs 1/3 differ
    assert not equivalent(pres("(0,o1|(3,2))"), pres("(0,o1|(3,1))"))


def test_equivalent_distinguishes_genus():
    assert not equivalent(pres("(0,o1|(3,2))"), pres("(1,o1|(3,2))"))


def test_euler_number_known_values():
    assert euler_number(pres("(0,o1|(3,2),(3,2),(1,2))")) == Fraction(-10, 3)
    assert euler_number(pres("(0,o1|)")) == 0
    assert euler_number(pres("(0,o1|(3,5),(3,5))")) == Fraction(-10, 3)


def test_moves_examples():
    shifted = shift(pres("(0,o1|(3,2),(1,2))"), 0, 1, 1)
    assert shifted == pres("(0,o1|(3,5),(1,1))")

    assert add_trivial(pres("(0,o1|)")) == pres("(0,o1|(1,0))")

    swapped = permute(pres("(0,o1|(3,2),(5,1))"), [1, 0])
    assert normalize(swapped) == normalize(pres("(0,o1|(3,2),(5,1))"))


def test_move_preconditions():
    p = pres("(0,o1|(3,2),(1,1))")
    with pytest.raises(MoveError):
        delete_trivial(p, 1)  # (1,1) is not (1,0)
    with pytest.raises(MoveError):
        shift(p, 0, 0, 1)
    with pytest.raises(MoveError):
        permute(p, [0, 0])
    with pytest.raises(MoveError, match="^pair index 2 out of range$"):
        delete_trivial(p, 2)
    with pytest.raises(MoveError, match=r"^pair index out of range: i=0, j=-1$"):
        shift(p, 0, -1, 1)
    with pytest.raises(MoveError, match="^unknown move 'twist'$"):
        apply_move(p, ("twist", 0))
    assert delete_trivial(pres("(0,o1|(1,0))"), 0) == pres("(0,o1|)")


def test_normalize_idempotent_random_suite():
    rng = Random(7)
    for _ in range(1000):
        p = _random_presentation(rng)
        n = normalize(p)
        assert normalize(n.to_presentation()) == n


def test_normalize_keeps_the_b_of_a_normal_form():
    n = normalize(pres("(0,o1|(2,1),(1,3))"))
    assert str(normalize(n)) == "(0, o1 | (2,1), (1,3))"
    assert equivalent(n, n.to_presentation())
    with pytest.raises(PresentationError, match="gcd=2"):
        normalize(NormalizedPresentation(0, (SeifertPair(4, 2),), 1))
    rng = Random(19)
    for _ in range(300):
        p = _random_presentation(rng)
        n = normalize(p)
        assert normalize(n) == n
        assert equivalent(n, p)
        assert euler_number(n) == euler_number(p)


# The reference formulas: normalize through sorted `SeifertPair`s, then the
# Euler number as a `Fraction` sum over the normal form.
def _pair_normalize(p):
    if isinstance(p, NormalizedPresentation):
        p = p.to_presentation()
    problems = validate(p)
    if problems:
        raise PresentationError("; ".join(problems))
    b, reduced = 0, []
    for pair in p.pairs:
        if pair.q == 1:
            b += pair.p
        else:
            carry, r = divmod(pair.p, pair.q)
            b += carry
            reduced.append(SeifertPair(pair.q, r))
    return NormalizedPresentation(p.genus, tuple(sorted(reduced)), b)


def _fraction_euler(p):
    norm = _pair_normalize(p)
    total = Fraction(norm.b)
    for pair in norm.pairs:
        total += Fraction(pair.p, pair.q)
    return -total


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:
        return exc.__class__, str(exc)


_INT = st.one_of(st.integers(-4, 12), st.integers(-10**30, 10**30))


@st.composite
def _presentations(draw):
    genus = draw(st.integers(-1, 3))
    pairs = tuple(SeifertPair(q, p) for q, p in draw(st.lists(st.tuples(_INT, _INT), max_size=5)))
    if draw(st.booleans()):
        return NormalizedPresentation(genus, pairs, draw(_INT))
    return SeifertPresentation(genus, pairs)


@settings(PROPERTY, max_examples=300)
@given(_presentations(), _presentations(), st.integers(0, 2))
def test_int_forms_match_the_pair_and_fraction_formulas(a, other, how):
    # `b` is another presentation, `a` reversed with a (1, 0) added, or the
    # normal form of `a`, so that `equivalent` also meets equivalent pairs.
    raw = a.to_presentation() if isinstance(a, NormalizedPresentation) else a
    b = (
        other,
        SeifertPresentation(raw.genus, raw.pairs[::-1] + (SeifertPair(1, 0),)),
        _outcome(_pair_normalize, a),
    )[how]
    if not isinstance(b, (SeifertPresentation, NormalizedPresentation)):
        b = other  # `a` is invalid, so it has no normal form
    assert _outcome(normalize, a) == _outcome(_pair_normalize, a)
    assert _outcome(euler_number, a) == _outcome(_fraction_euler, a)
    for x, y in ((a, b), (b, a)):
        expected = _outcome(lambda: _pair_normalize(x) == _pair_normalize(y))
        assert _outcome(equivalent, x, y) == expected


def test_equivalent_and_euler_build_no_pair_and_add_no_fraction(monkeypatch):
    a = pres("(1,o1|(3,2),(5,-7),(1,4),(4,1))")
    b = pres("(1,o1|(4,9),(1,0),(3,-1),(5,8))")
    c = pres("(2,o1|(3,2))")
    empty = pres("(0,o1|)")
    bad = pres("(0,o1|(4,2),(0,1))")
    calls = [
        lambda: equivalent(a, b),
        lambda: equivalent(a, c),
        lambda: euler_number(a),
        lambda: euler_number(b),
        lambda: euler_number(empty),
        lambda: _outcome(equivalent, a, bad),
        lambda: _outcome(euler_number, bad),
    ]
    expected = [call() for call in calls]
    assert expected[:5] == [True, False, Fraction(-211, 60), Fraction(-211, 60), 0]

    def refuse(*args):
        raise AssertionError("value objects or Fraction addition in equivalent or euler_number")

    monkeypatch.setattr(SeifertPair, "__init__", refuse)
    monkeypatch.setattr(NormalizedPresentation, "__init__", refuse)
    monkeypatch.setattr(Fraction, "__add__", refuse)
    monkeypatch.setattr(Fraction, "__radd__", refuse)
    assert [call() for call in calls] == expected


def test_moves_preserve_equivalence_and_euler_random_suite():
    rng = Random(11)
    for _ in range(300):
        p = _random_presentation(rng)
        e = euler_number(p)
        q = p
        for _ in range(rng.randrange(1, 8)):
            move = _random_legal_move(rng, q)
            q = apply_move(q, move)
            assert equivalent(p, q)
        assert euler_number(q) == e


def test_equivalence_relation_properties():
    rng = Random(13)
    for _ in range(100):
        a = _random_presentation(rng)
        b = a
        c = a
        for _ in range(5):
            b = apply_move(b, _random_legal_move(rng, b))
            c = apply_move(c, _random_legal_move(rng, c))
        assert equivalent(a, a)
        assert equivalent(a, b) == equivalent(b, a)
        assert equivalent(a, b) and equivalent(b, c) and equivalent(a, c)


def test_gluing_pair_known_values():
    gp = gluing_pair(SeifertPair(3, 2))
    assert (gp.x, gp.y) == (1, 2)
    assert induced_fibration(gp) == (-3, 2)

    gp = gluing_pair(SeifertPair(1, 0))
    assert (gp.x, gp.y) == (-1, 0)
    assert induced_fibration(gp) == (-1, 0)

    gp = gluing_pair(SeifertPair(1, 5))
    assert (gp.x, gp.y) == (-1, 0)

    gp = gluing_pair(SeifertPair(5, 2))
    assert (gp.x, gp.y) == (1, 3)
    assert induced_fibration(gp) == (-5, 3)


def test_gluing_pair_exhaustive():
    # brute-force oracle: the unique y in [0, q) with x*q - y*p = -1
    for q in range(1, 101):
        for p in range(-100, 101):
            if math.gcd(q, abs(p)) != 1:
                continue
            gp = gluing_pair(SeifertPair(q, p))
            assert gp.x * q - gp.y * p == -1
            assert 0 <= gp.y < q
            brute = [y for y in range(q) if (y * p - 1) % q == 0]
            assert brute == [gp.y]
            x, pp, y, qq = gp.matrix()
            assert x * qq - pp * y == -1


def test_presentation_round_trip():
    rng = Random(17)
    for _ in range(200):
        p = _random_presentation(rng)
        assert parse_presentation(format_presentation(p)) == p
    n = normalize(pres("(0,o1|(3,5),(3,5))"))
    assert normalize(parse_presentation(format_normalized(n))) == n


@PROPERTY
@given(st.integers(), st.lists(st.tuples(st.integers(), st.integers()), max_size=5))
def test_presentation_round_trip_property(genus, pairs):
    pres = SeifertPresentation(genus, tuple(SeifertPair(q, p) for q, p in pairs))
    assert parse_presentation(format_presentation(pres)) == pres
    for pair in pres.pairs:
        assert parse_pair(str(pair)) == pair


def test_parse_rejects_garbage():
    for bad in ["", "(0,o1", "(0,o2|)", "(0,o1|(3,2)(3,2))", "(x,o1|)", "(0,o1|(3,))"]:
        with pytest.raises(PresentationError):
            parse_presentation(bad)
    # integers are ASCII digits after an optional '-'; whitespace separates
    # tokens but never splits an integer or `o1`
    split = ["(1 3,2)", "(3, 2 1)", "(3,- 2)"]
    for bad in [
        "(٠,o1|(٣,٢))", "(0,o1|(+3,2))", "(0,o1|(3,1_0))", "(+0,o1|)",
        "(0,o 1|(3,2))", "(1 2, o1 | (3,2))", *(f"(0, o1 | (3,2), {pair})" for pair in split),
    ]:
        with pytest.raises(PresentationError, match=re.escape(f"not a presentation: {bad!r}")):
            parse_presentation(bad)
    for bad in ["(٣,٢)", "(3,+2)", "(3_0,1)", *split]:
        with pytest.raises(PresentationError, match=re.escape(f"not a Seifert pair: {bad!r}")):
            parse_pair(bad)


def test_parse_is_whitespace_insensitive():
    assert pres(" ( 0 , o1 | (3, 2) , ( 1 , 2 ) ) ") == pres("(0,o1|(3,2),(1,2))")


def test_malformed_presentation_is_rejected_in_linear_time():
    spaces = " " * 100_000
    for bad in ["(0,o1|" + spaces + "x)", "(0,o1|(3,2)" + spaces + "x)", "(" + spaces + "x"]:
        start = time.perf_counter()
        with pytest.raises(PresentationError):
            parse_presentation(bad)
        assert time.perf_counter() - start < 1
    start = time.perf_counter()
    with pytest.raises(PresentationError):
        parse_pair("(" + spaces + "3" + spaces + "," + spaces + "x)")
    assert time.perf_counter() - start < 1
