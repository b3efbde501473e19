import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tworow import (
    GF2,
    GF3,
    GF5,
    QQ,
    DivisionByZero,
    ExactMatrix,
    FieldKind,
    FieldMismatch,
    FieldSpec,
    ParseError,
    parse_field,
)
from tworow.fields import is_prime


def test_is_prime_small():
    def slow(k):
        return k >= 2 and all(k % d for d in range(2, int(k**0.5) + 1))

    for k in range(-2, 500):
        assert is_prime(k) == slow(k), k
    assert is_prime(2147483647)
    assert not is_prime(2147483647 * 3)


def test_gf2_is_singleton_kind():
    assert FieldSpec.gf(2) is GF2
    assert GF2.kind is FieldKind.GF2
    assert GF2.characteristic == 2


def test_gfp_validation():
    with pytest.raises(ParseError):
        FieldSpec.gf(4)
    with pytest.raises(ParseError):
        FieldSpec.gf(9)
    with pytest.raises(ParseError):
        FieldSpec.gf(1)
    assert FieldSpec.gf(7).p == 7


def test_parse_field_names():
    assert parse_field("gf2") is GF2
    assert parse_field("gf(2)") is GF2
    assert parse_field("gf(5)") == GF5
    assert parse_field("q") == QQ
    with pytest.raises(ParseError):
        parse_field("gf(6)")
    with pytest.raises(ParseError):
        parse_field("reals")
    with pytest.raises(ParseError):  # more digits than int() converts
        parse_field("gf(" + "7" * 5000 + ")")


def test_scalar_canonicalization():
    assert GF5.scalar(7) == GF5.scalar(2)
    assert GF5.scalar(-1) == GF5.scalar(4)
    assert QQ.scalar(Fraction(2, 4)) == QQ.scalar(Fraction(1, 2))
    assert str(GF3.scalar(5)) == "2"
    assert str(QQ.scalar(Fraction(-3, 6))) == "-1/2"
    # over GF(p) only an int is a plain value, a bool included: int() would
    # truncate 2.9 to 2, and 3/2 to 1 where it is 4 in GF(5)
    assert GF5.scalar(True) == GF5.one and type(GF5.scalar(True).value) is int
    for spec in (GF2, GF5):
        for value in (2.9, 0.5, Fraction(3, 2), Fraction(4)):
            with pytest.raises(FieldMismatch, match=re.escape(f"cannot coerce {value!r} into {spec.name}")):
                spec.scalar(value)
    assert QQ.scalar(0.5) == QQ.scalar(Fraction(1, 2)) and QQ.scalar(True) == QQ.one
    # over Q a float is the binary fraction it stores, not the decimal it prints
    assert QQ.scalar(0.1).value == Fraction(3602879701896397, 36028797018963968)
    assert QQ.scalar(0.1) != QQ.scalar(Fraction(1, 10))
    # what Fraction cannot take is a FieldMismatch over Q as over GF(p);
    # a rational literal still is a value
    assert QQ.scalar("1/2") == QQ.scalar(Fraction(1, 2))
    for value in (None, [1], 1 + 2j, float("nan"), "abc", float("inf"), "1/0"):
        for spec in (GF5, QQ):
            with pytest.raises(FieldMismatch, match=re.escape(f"cannot coerce {value!r} into {spec.name}")):
                spec.scalar(value)
    for spec in (GF5, QQ):
        with pytest.raises(FieldMismatch, match=f"cannot coerce None into {re.escape(spec.name)}"):
            ExactMatrix(spec, [[None]])


def test_parse_scalar_round_trip():
    for spec, texts in [
        (GF2, ["0", "1"]),
        (GF5, ["0", "1", "4"]),
        (QQ, ["0", "-7", "3/4", "-22/7"]),
    ]:
        for t in texts:
            assert str(spec.parse_scalar(t)) == t
    with pytest.raises(ParseError):
        GF5.parse_scalar("x")
    with pytest.raises(ParseError):
        QQ.parse_scalar("1/0")


def test_rational_literals_are_integers_or_ratios():
    # Fraction itself would also take decimals, exponents, digit separators
    # and non-ASCII digits
    for text, want in [("12", 12), ("-3/4", Fraction(-3, 4)), ("+6/4", Fraction(3, 2)),
                       (" 7 ", 7), ("0/5", 0)]:
        assert QQ.parse_raw(text) == want
    for text in ["1e999999", "1e3", "0.5", ".5", "1.", "1_000", "\u0663", "3/-4",
                 "1 / 2", "1/2/3", "/2", "", "-", "inf", "nan"]:
        with pytest.raises(ParseError, match="bad q scalar literal"):
            QQ.parse_raw(text)


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        GF2.scalar(1) + GF3.scalar(1)
    with pytest.raises(FieldMismatch):
        QQ.scalar(1) * GF5.scalar(1)


def test_inverse_and_division():
    assert GF5.scalar(2).inv() == GF5.scalar(3)
    assert (QQ.scalar(Fraction(3, 4)) / QQ.scalar(Fraction(3, 2))) == QQ.scalar(
        Fraction(1, 2)
    )
    with pytest.raises(DivisionByZero):
        GF3.scalar(0).inv()
    with pytest.raises(DivisionByZero):
        QQ.scalar(1) / QQ.scalar(0)


def test_bool_and_hash():
    assert not GF3.scalar(0)
    assert GF3.scalar(2)
    assert hash(GF3.scalar(2)) == hash(GF3.scalar(5))
    assert GF3.scalar(2) != GF5.scalar(2)


@given(st.integers(), st.integers(), st.integers())
def test_gfp_field_axioms(x, y, z):
    for spec in (GF2, GF3, GF5):
        a, b, c = spec.scalar(x), spec.scalar(y), spec.scalar(z)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == spec.zero
        assert a - b == a + (-b)
        if b:
            assert b * b.inv() == spec.one


@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=50),
    st.fractions(min_value=-50, max_value=50, max_denominator=50),
)
def test_rational_axioms(x, y):
    a, b = QQ.scalar(x), QQ.scalar(y)
    assert a + b == QQ.scalar(x + y)
    assert a * b == QQ.scalar(x * y)
    assert a - b == QQ.scalar(x - y)
    if y != 0:
        assert a / b == QQ.scalar(Fraction(x, 1) / y)


def test_field_names():
    assert GF2.name == "gf2"
    assert GF5.name == "gf(5)"
    assert QQ.name == "q"
