import math
import re
import sys
import time
from decimal import Decimal
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import PROPERTY

from seifert_actions.cli import main
from seifert_actions.orbifold import parse_orbifold
from seifert_actions.rational import (
    ZERO_ANGLE,
    InputError,
    RationalAngle,
    angle,
    parse_fraction,
    parse_int,
    parse_int_list,
    residues,
)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_lcm_gcd_complement_identity_small_exhaustive():
    # N/lcm(n_i) = gcd(N/n_i) for every divisor pair/triple of N <= 60
    for n in range(1, 61):
        divs = _divisors(n)
        for a in divs:
            for b in divs:
                assert n // math.lcm(a, b) == math.gcd(n // a, n // b)
        for a in divs[: len(divs) // 2 + 1]:
            for b in divs:
                for c in divs:
                    assert n // math.lcm(a, b, c) == math.gcd(n // a, n // b, n // c)


def test_angle_canonical_range():
    assert angle(-1, 3).value == Fraction(2, 3)
    assert angle(7, 3).value == Fraction(1, 3)
    assert angle(0).value == 0


def test_angle_known_values():
    assert angle(1, 2) + angle(2, 3) == angle(1, 6)
    assert angle(1, 3).scale(-3) == ZERO_ANGLE
    assert angle(2, 5).scale(2) == angle(4, 5)


def test_angle_subtraction():
    assert angle(1, 3) - angle(1, 2) == angle(5, 6)
    assert angle(2, 7) - angle(2, 7) == ZERO_ANGLE
    assert ZERO_ANGLE - angle(1, 4) == -angle(1, 4) == angle(3, 4)


def test_angle_group_laws_random():
    rng = Random(2024)
    angles = [
        angle(rng.randrange(-30, 30), rng.randrange(1, 30)) for _ in range(60)
    ]
    for i in range(0, 60, 3):
        a, b, c = angles[i], angles[i + 1], angles[i + 2]
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + ZERO_ANGLE == a
        assert a + (-a) == ZERO_ANGLE


def test_scale_matches_repeated_addition():
    rng = Random(99)
    for _ in range(40):
        a = angle(rng.randrange(-20, 20), rng.randrange(1, 20))
        for k in range(-12, 13):
            total = ZERO_ANGLE
            for _ in range(abs(k)):
                total = total + a
            if k < 0:
                total = -total
            assert a.scale(k) == total


@pytest.mark.parametrize("value", [0.5, Decimal("0.5"), "1/2"])
def test_angle_accepts_only_int_or_fraction(value):
    with pytest.raises(TypeError, match="int or Fraction"):
        RationalAngle(value)
    assert RationalAngle(Fraction(1, 2)) == RationalAngle(Fraction(3, 2))
    assert str(RationalAngle(-3)) == "0"


def test_angle_value_is_a_fraction():
    for value in (3, -3, True, Fraction(7, 2)):
        assert type(RationalAngle(value).value) is Fraction
    assert repr(RationalAngle(3)) == "RationalAngle(value=Fraction(0, 1))"
    assert RationalAngle(True).value == 0 and RationalAngle(Fraction(7, 2)).value == Fraction(1, 2)


def test_residues_of_no_angle_and_of_one():
    assert residues([]) == (1, [])
    assert residues([ZERO_ANGLE]) == (1, [0])
    assert residues([angle(-1, 6)]) == (6, [5])
    assert residues(iter([angle(1, 4), angle(5, 6), ZERO_ANGLE])) == (12, [3, 10, 0])


@PROPERTY
@given(st.lists(st.builds(angle, st.integers(-(2**40), 2**40), st.integers(1, 2**31 - 1)),
                max_size=8))
def test_residues_read_angles_as_ints_mod_their_common_denominator(angles):
    den, res = residues(angles)
    assert den == math.lcm(*(t.order for t in angles))
    assert len(res) == len(angles)
    for t, r in zip(angles, res):
        assert 0 <= r < den and Fraction(r, den) == t.value


def test_parse_and_format_fraction():
    assert parse_fraction("2/3") == Fraction(2, 3)
    assert parse_fraction("-1/3") == Fraction(-1, 3)
    assert parse_fraction("7") == Fraction(7)
    assert str(Fraction(2, 3)) == "2/3"
    assert str(Fraction(7)) == "7"
    with pytest.raises(ValueError):
        parse_fraction("0.5")
    with pytest.raises(ValueError):
        parse_fraction("1/0")


def test_angle_order():
    assert ZERO_ANGLE.order == 1
    assert angle(1, 2).order == 2
    assert angle(5, 6).order == 6


def test_parse_fraction_rejects_tokens_outside_the_grammar():
    for bad in ["١/٢", "+1/2", "1/-2", "1_0/3", "1/+2", "0.5", "", "1/0", " -3/0 "]:
        default = "zero denominator in" if bad.strip().endswith("/0") else "not a fraction:"
        with pytest.raises(InputError, match=f"^{default} {re.escape(repr(bad))}$"):
            parse_fraction(bad)
        with pytest.raises(_ListError, match="^bad angle$"):
            parse_fraction(bad, _ListError, "bad angle")
    assert parse_fraction(" -4/6 ", _ListError, "bad angle") == Fraction(-2, 3)


class _ListError(ValueError):
    pass


def test_tokens_longer_than_int_reads_raise_the_callers_error():
    long = "1" * 5000
    suffix = re.escape(f"(an integer has more than {sys.get_int_max_str_digits()} digits)")
    with pytest.raises(InputError, match=f"^invalid int value: '1{{5000}}' {suffix}$"):
        parse_int(long)
    with pytest.raises(_ListError, match=f"^bad {suffix}$"):
        parse_int(f" -{long} ", _ListError, "bad")
    for text, sep in [(f"2,{long}", ","), (f"2 {long}", None)]:
        with pytest.raises(_ListError, match=f"^bad list {suffix}$"):
            parse_int_list(text, _ListError, "bad list", sep)
    with pytest.raises(InputError, match=f"^not a fraction: '1/1{{5000}}' {suffix}$"):
        parse_fraction(f"1/{long}")
    with pytest.raises(_ListError, match=f"^bad angle {suffix}$"):
        parse_fraction(f" -{long}/3 ", _ListError, "bad angle")


NON_ASCII_DIGITS = st.characters(categories=["Nd"], exclude_characters="0123456789")
# tokens outside the grammar: non-ASCII digits, '+', '_', an empty entry
BAD_TOKENS = st.one_of(
    st.text(NON_ASCII_DIGITS, min_size=1),
    st.tuples(st.integers(), NON_ASCII_DIGITS).map(lambda t: f"{t[0]}{t[1]}"),
    st.integers(min_value=0).map(lambda n: f"+{n}"),
    st.tuples(st.integers(), st.integers(min_value=0)).map(lambda t: f"{t[0]}_{t[1]}"),
    st.just(""),
)


def test_int_list_examples():
    for blank in ["", " ", " \t "]:
        assert parse_int_list(blank, _ListError, "unused") == ()
        assert parse_int_list(blank, _ListError, "unused", sep=None) == ()
    assert parse_int_list(" 1 , -2 ", _ListError, "unused") == (1, -2)
    assert parse_int_list(" -7 , 0,12 ", _ListError, "unused") == (-7, 0, 12)
    assert parse_int_list("0\t-1  2", _ListError, "unused", sep=None) == (0, -1, 2)
    for text in [",", ",1", "1,", "1,,2", "1 2", "- 1", "1-2", "0x1", "1e3"]:
        with pytest.raises(_ListError, match="bad"):
            parse_int_list(text, _ListError, "bad")


@PROPERTY
@given(st.lists(st.integers(), max_size=8))
def test_int_list_round_trip(values):
    for sep, joiner in [(",", ","), (",", " , "), (None, " "), (None, " \t ")]:
        text = joiner.join(str(v) for v in values)
        assert parse_int_list(text, _ListError, "unused", sep) == tuple(values)
    assert [parse_int(f" {v} ") for v in values] == values


@PROPERTY
@given(st.lists(st.integers().map(str), min_size=1, max_size=6), BAD_TOKENS, st.data())
def test_int_list_rejects_tokens_outside_the_grammar(tokens, bad, data):
    tokens.insert(data.draw(st.integers(0, len(tokens))), bad)
    with pytest.raises(ValueError, match="invalid int value"):
        parse_int(bad)
    for sep, joiner in [(",", ","), (None, " ")]:
        if sep is None and bad == "":
            continue  # whitespace lists have no empty entries
        text = joiner.join(tokens)
        with pytest.raises(_ListError, match=re.escape(f"bad list: {text!r}")):
            parse_int_list(text, _ListError, f"bad list: {text!r}", sep)


PADDED = " " * 40_000 + "x"  # a long whitespace run, then a bad token
# (call, args, message): every reader of an integer list, in the library and the CLI
LINEAR_REJECTIONS = [
    *(
        pytest.param(parse_int_list, (text, _ListError, "bad list", sep), "bad list",
                     id=f"{name}-{'comma' if sep else 'space'}")
        for name, text in [("blank", PADDED), ("item", "2" + PADDED), ("sep", "2," + PADDED)]
        for sep in (",", None)
    ),
    pytest.param(parse_orbifold, (f"genus:0 cone:({PADDED}) corner:()",), "bad order list: 'x'",
                 id="cone"),
    pytest.param(parse_orbifold, (f"genus:0 cone:() corner:({PADDED})",), "bad order list: 'x'",
                 id="corner"),
    pytest.param(main, (["decompose", "--b", "3", "--orbits", PADDED],),
                 f"bad orbit list: {PADDED!r}", id="decompose"),
    pytest.param(main, (["rewrite", "(0,o1|(2,1))", "--h=" + PADDED],),
                 f"bad h list: {PADDED!r}", id="rewrite-h"),
    pytest.param(main, (["rewrite", "(0,o1|(2,1))", "--h=0", "--partition", "1;" + PADDED],),
                 f"bad partition list: {PADDED!r}", id="rewrite-partition"),
    pytest.param(main, (["orbifold-chi", f"genus:0 cone:({PADDED}) corner:()"],),
                 "bad order list: 'x'", id="orbifold-chi"),
    pytest.param(main, (["orbit-numbers", "--order", "6", f"genus:0 cone:() corner:({PADDED})"],),
                 "bad order list: 'x'", id="orbit-numbers"),
    pytest.param(main, (["check-obstruction", "--b", "1", "--order", "6",
                         f"genus:0 cone:({PADDED}) corner:()"],),
                 "bad order list: 'x'", id="check-obstruction"),
]


@pytest.mark.parametrize("call, args, message", LINEAR_REJECTIONS)
def test_malformed_list_is_rejected_in_linear_time(capsys, call, args, message):
    start = time.perf_counter()
    if call is main:
        assert main(*args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    else:
        with pytest.raises(ValueError) as exc:
            call(*args)
        assert str(exc.value) == message
    assert time.perf_counter() - start < 1
