"""Exact arithmetic: canonical forms, ordering, and decimal rendering."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camech.errors import CamechError, ParseError
from camech.money import Money, fraction_to_decimal, iroot, parse_decimal, square_parts
from camech.norm import bundle_ratio_power


def test_square_parts():
    assert square_parts(1) == (1, 1)
    assert square_parts(2) == (1, 2)
    assert square_parts(4) == (2, 1)
    assert square_parts(8) == (2, 2)
    assert square_parts(12) == (2, 3)
    assert square_parts(3969) == (63, 1)
    assert square_parts(2 * 3 * 5 * 7) == (1, 210)


def test_iroot():
    assert iroot(0, 3) == 0
    assert iroot(26, 3) == 2
    assert iroot(27, 3) == 3
    assert iroot(10 ** 12, 4) == 1000
    for n in range(0, 200):
        for k in (2, 3, 5):
            r = iroot(n, k)
            assert r ** k <= n < (r + 1) ** k


def test_rational_roundtrip():
    assert Money(F(19, 2)).terms() == ((1, F(19, 2)),)
    assert Money(3) == 3 and Money(F(19, 2)) == F(19, 2)
    assert Money(0).terms() == ()
    assert not Money(0)
    assert Money(1)


def test_sqrt_normalisation():
    assert Money.sqrt(4) == Money(2)
    assert Money.sqrt(8) == Money.root_term(2, 2)
    assert Money.sqrt(0) == Money(0)
    # sqrt(2)*sqrt(2) == 2, sqrt(2)*sqrt(3) == sqrt(6)
    r2, r3 = Money.sqrt(2), Money.sqrt(3)
    assert r2 * r2 == Money(2)
    assert r2 * r3 == Money.sqrt(6)
    assert (r2 + r3) * (r2 - r3) == Money(-1)


def test_irrational_values_are_not_rational():
    v = Money.root_term(F(13, 2), 2)
    assert not v.is_rational
    assert (v * v).is_rational and Money(F(19, 2)).is_rational


def test_ordering_exact():
    # 7/5 < sqrt(2) < 3/2, decided without floats
    r2 = Money.sqrt(2)
    assert Money(F(7, 5)) < r2 < Money(F(3, 2))
    assert r2.compare(r2) == 0
    # sqrt(2) + sqrt(3) vs sqrt(10): 2+3+2*sqrt(6) vs 10 -> sqrt(6) vs 5/2 -> 24 < 25
    assert Money.sqrt(2) + Money.sqrt(3) < Money.sqrt(10)


def test_division():
    assert Money(5) / 2 == Money(F(5, 2))
    assert Money.root_term(13, 2) / F(2, 3) == Money.root_term(F(39, 2), 2)
    with pytest.raises(ZeroDivisionError):
        Money(1) / 0


@pytest.mark.parametrize(
    "call",
    [
        lambda: square_parts(0),
        lambda: iroot(-1, 2),
        lambda: iroot(8, 0),
        lambda: Money.sqrt(-2),
        lambda: bundle_ratio_power(0, 1, 1, 1),
    ],
    ids=["square_parts", "iroot-n", "iroot-k", "sqrt", "bundle_ratio_power"],
)
def test_out_of_domain_raises_camech_error(call):
    with pytest.raises(CamechError):
        call()


def test_to_decimal():
    assert Money(F(19, 2)).to_decimal() == "9.5"
    assert Money(18).to_decimal() == "18"
    assert Money(0).to_decimal() == "0"
    assert Money(F(-1)).to_decimal() == "-1"
    assert Money(F(2, 3)).to_decimal() == "0.666666666667"
    # sqrt(2) to 12 significant digits
    assert Money.sqrt(2).to_decimal() == "1.41421356237"
    assert Money.root_term(F(13, 2), 2).to_decimal() == "9.19238815543"
    # round-half-even at the cut digit: ...012.5 -> ...012, ...013.5 -> ...014
    assert Money(F(1234567890125, 10 ** 13)).to_decimal() == "0.123456789012"
    assert Money(F(1234567890135, 10 ** 13)).to_decimal() == "0.123456789014"


def test_fraction_to_decimal_exact():
    assert fraction_to_decimal(F(19, 2)) == "9.5"
    assert fraction_to_decimal(F(10)) == "10"
    assert fraction_to_decimal(F(1001, 1000)) == "1.001"
    assert fraction_to_decimal(F(-3, 4)) == "-0.75"
    assert fraction_to_decimal(F(1, 3)) == "1/3"  # non-terminating: exact literal
    assert parse_decimal("1/3") == F(1, 3)
    assert parse_decimal("9.5") == F(19, 2)


def test_parse_decimal_bounds_literal_size():
    assert parse_decimal("1e990") == 10 ** 990
    assert parse_decimal("2.5e-3") == F(1, 400)
    for text in ("1e999999999", "1e-999999999", "1e5000", "9" * 1001, "1e_", "x"):
        with pytest.raises(ParseError):
            parse_decimal(text)


def test_to_decimal_extreme_magnitudes():
    assert Money(F(3, 10 ** 700)).to_decimal() == "0." + "0" * 699 + "3"
    assert Money(10 ** 5000).to_decimal() == "1" + "0" * 5000
    assert Money(F(1, 2 ** 3000)).to_decimal() == "0." + "0" * 903 + "812854862556"


@given(st.fractions(), st.fractions())
@settings(max_examples=60, deadline=None)
def test_rational_arithmetic_matches_fraction(a, b):
    assert Money(a) + Money(b) == Money(a + b)
    assert Money(a) * Money(b) == Money(a * b)
    assert Money(a) - Money(b) == Money(a - b)
    assert Money(a).compare(Money(b)) == (a > b) - (a < b)


_small_surd = st.builds(
    Money.root_term,
    st.fractions(min_value=-5, max_value=5),
    st.integers(min_value=1, max_value=30),
)
_values = st.one_of(st.fractions(min_value=-10, max_value=10).map(Money), _small_surd)


@given(_values, _values, _values)
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) - b == a


@given(_values, _values)
@settings(max_examples=60, deadline=None)
def test_total_order(a, b):
    assert (a < b) + (a == b) + (a > b) == 1
    # sign agrees with a float evaluation well away from the boundary
    fa, fb = float(a), float(b)
    if abs(fa - fb) > 1e-6:
        assert (a < b) == (fa < fb)


@given(_values)
@settings(max_examples=40, deadline=None)
def test_decimal_render_is_close(v):
    text = v.to_decimal()
    assert abs(float(F(text) if "/" not in text else F(text)) - float(v)) <= max(
        1e-9, abs(float(v)) * 1e-9
    )
