from fractions import Fraction

import pytest

from hopfrob import GF, QQ, InvalidInputError, field_from_name
from hopfrob.scalars import PrimeField, RationalField


def test_qq_basics():
    assert QQ.zero() == Fraction(0)
    assert QQ.one() == Fraction(1)
    assert QQ.normalize(3) == Fraction(3)
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.neg(Fraction(1, 2)) == Fraction(-1, 2)
    assert QQ.characteristic == 0
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_qq_parse_fmt_roundtrip():
    for text in ["0", "5", "-3", "2/7", "-11/4"]:
        assert QQ.fmt(QQ.parse(text)) == text
    assert QQ.parse("4/6") == Fraction(2, 3)


def test_gf_basics():
    F = GF(7)
    assert F.p == 7
    assert F.zero() == 0 and F.one() == 1
    assert F.from_int(-3) == 4
    assert F.normalize(10) == 3
    assert F.inv(3) == 5  # 3*5 = 15 = 1 mod 7
    assert F.neg(2) == 5
    assert F.characteristic == 7
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_gf_is_cached_and_distinct():
    assert GF(5) is GF(5)
    assert GF(5) != GF(7)
    assert GF(5) != QQ


def test_gf_rejects_composite_modulus():
    for bad in [1, 4, 6, 9, 15, 2**10]:
        with pytest.raises(InvalidInputError):
            GF(bad)


def test_gf_accepts_genuine_primes():
    for p in [2, 3, 5, 7, 13, 101, 2**31 - 1]:
        assert GF(p).p == p


def test_field_arithmetic_laws_gf13():
    F = GF(13)
    elems = list(range(13))
    for a in elems:
        for b in elems:
            assert F.normalize(a + b) == (a + b) % 13
            assert F.normalize(a * b) == (a * b) % 13
            if b != 0:
                assert F.normalize(b * F.inv(b)) == 1


def test_field_from_name():
    assert field_from_name("rational") == QQ
    assert field_from_name("prime 7") == GF(7)
    assert isinstance(field_from_name("rational"), RationalField)
    assert isinstance(field_from_name("prime 13"), PrimeField)
    for bad in ["real", "prime", "prime x", "prime 6", ""]:
        with pytest.raises(InvalidInputError):
            field_from_name(bad)


def test_field_name_roundtrip():
    for F in [QQ, GF(2), GF(5), GF(7), GF(13)]:
        assert field_from_name(F.name) == F


def test_prime_field_parse_fmt():
    F = GF(7)
    assert F.parse("10") == 3
    assert F.parse("-1") == 6
    assert F.fmt(3) == "3"
    with pytest.raises(InvalidInputError):
        F.parse("2/3")


def test_qq_parse_all_reads_integer_tokens_as_parse_does():
    """Over QQ, integer tokens of every form int() accepts (a sign, leading
    zeros, an underscore, non-ASCII digits) give Fraction(token), and a list
    holding a fraction or an exponent is read token by token by parse."""
    ints = ["+5", "-0", "00012", "1_0", "\u0665", "\u0661\u0662"]
    got = QQ.parse_all(ints)
    assert got == [Fraction(t) for t in ints] == [5, 0, 12, 10, 5, 12]
    assert all(type(c) is Fraction for c in got)
    mixed = ["3", "1/2", "1e3", "-7"]
    assert QQ.parse_all(mixed) == [Fraction(t) for t in mixed]


@pytest.mark.parametrize("field", [GF(7), QQ])
def test_parse_all_is_parse_of_each_token(field):
    """parse_all reads a token list as parse reads each token, and a bad
    token raises parse's own error for the first one."""
    toks = ["+3", "-0", "007", "1_0", "9", "-8"]
    assert field.parse_all(toks) == [field.parse(t) for t in toks]
    assert [type(c) for c in field.parse_all(toks)] == [type(field.zero())] * len(toks)
    with pytest.raises(InvalidInputError) as exc:
        field.parse_all(["1", "0x1", "3/0"])
    with pytest.raises(InvalidInputError) as first:
        field.parse("0x1")
    assert str(exc.value) == str(first.value)
