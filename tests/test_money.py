"""Exact arithmetic: canonical forms, ordering, and decimal rendering."""

import random
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction as F
from math import isqrt
from unittest import mock

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


def test_iroot_large_degrees_and_operands():
    # the floor root of up to 70,000-bit operands at degrees up to 2,000,
    # exact powers and their neighbours included
    rng = random.Random("iroot")
    cases = [(rng.getrandbits(rng.randint(1, 70_000)), rng.randint(3, 2_000)) for _ in range(150)]
    cases += [(rng.getrandbits(rng.randint(1, 2_000)), rng.randint(3, 12)) for _ in range(150)]
    cases += [(b ** k + d, k) for b in (2, 3, 10 ** 20 + 7) for k in (3, 7, 1_000) for d in (-1, 0, 1)]
    for n, k in cases:
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
    assert Money.sqrt(8) == Money.sqrt(2) * 2
    assert Money.sqrt(0) == Money(0)
    assert Money.sqrt(12) * F(1, 2) == Money.sqrt(3)
    # a mixed value renders its rational part as radicand 1, first
    assert repr(Money(3) + Money.sqrt(8) * F(1, 4)) == "Money<(3)*sqrt(1) + (1/2)*sqrt(2)>"
    # Money scales by rationals only: the product of two radicals is undefined
    with pytest.raises(TypeError):
        Money.sqrt(2) * Money.sqrt(3)
    with pytest.raises(TypeError):
        Money(2) * Money(3)


def test_irrational_values_are_not_rational():
    v = Money.sqrt(2) * F(13, 2)
    assert not v.is_rational and not (v + 1).is_rational
    assert (v - v).is_rational and (v * 0).is_rational and Money(F(19, 2)).is_rational


def test_ordering_exact():
    # 7/5 < sqrt(2) < 3/2, decided without floats
    r2 = Money.sqrt(2)
    assert Money(F(7, 5)) < r2 < Money(F(3, 2))
    assert r2.compare(r2) == 0
    # sqrt(2) + sqrt(3) vs sqrt(10): 2+3+2*sqrt(6) vs 10 -> sqrt(6) vs 5/2 -> 24 < 25
    assert Money.sqrt(2) + Money.sqrt(3) < Money.sqrt(10)


def test_division():
    # dividing is scaling by the reciprocal; `/` and `float()` are not defined
    assert Money(5) * F(1, 2) == Money(F(5, 2))
    assert Money.sqrt(2) * 13 * F(3, 2) == Money.sqrt(2) * F(39, 2)
    assert F(1, 4) * Money.sqrt(8) == Money.sqrt(2) * F(1, 2)
    with pytest.raises(TypeError):
        Money(5) / 2
    with pytest.raises(TypeError):
        float(Money.sqrt(2))


def test_money_rejects_floats():
    # a float's binary value is not the decimal it was written as
    for value in (0.1, 1.0, -0.0, float("inf")):
        with pytest.raises(TypeError):
            Money(value)
    with pytest.raises(TypeError):
        Money(1) + 0.5
    # strings stay accepted: `repr` renders a rational as Money('3/2')
    assert repr(Money(F(3, 2))) == "Money('3/2')"
    assert eval(repr(Money(F(3, 2)))) == Money("3/2") == F(3, 2)
    assert Money("0.1") == F(1, 10) and Money(Money(7)) == 7


def test_rational_money_hashes_like_its_fraction():
    assert hash(Money(F(3, 2))) == hash(F(3, 2))
    assert hash(Money(3)) == hash(3) and hash(Money(0)) == hash(0)
    assert len({Money(0), 0}) == 1
    assert {Money(F(3, 2)), F(3, 2), Money(7), 7, F(7)} == {F(3, 2), 7}
    r = Money.sqrt(2) * F(1, 3)
    assert hash(r) == hash(Money.sqrt(8) * F(1, 6)) and len({r, Money.sqrt(2)}) == 2


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
    assert (Money.sqrt(2) * F(13, 2)).to_decimal() == "9.19238815543"
    # round-half-even at the cut digit: ...012.5 -> ...012, ...013.5 -> ...014
    assert Money(F(1234567890125, 10 ** 13)).to_decimal() == "0.123456789012"
    assert Money(F(1234567890135, 10 ** 13)).to_decimal() == "0.123456789014"


def _reference_decimal(v: Money) -> str:
    """`v` to 12 significant digits, half to even, by Python's `decimal` at 80 digits."""
    with localcontext() as ctx:
        ctx.prec = 80
        x = sum(
            Decimal(c.numerator) / Decimal(c.denominator) * Decimal(m).sqrt()
            for m, c in v.terms()
        )
        x = x.quantize(Decimal(1).scaleb(x.adjusted() - 11), rounding=ROUND_HALF_EVEN)
    text = format(x, "f")
    return text.rstrip("0").rstrip(".") if "." in text else text


def _near(target: F, m: int, rng: random.Random) -> Money:
    """c * sqrt(m) within about 2**-120 of `target` > 0, relatively, on a random side of it."""
    bits = 120 - (target.numerator.bit_length() - target.denominator.bit_length())
    scaled = target * target * F(4) ** bits / m
    c = isqrt(scaled.numerator // scaled.denominator) + rng.randint(0, 1)
    return Money.sqrt(m) * (c / F(2) ** bits)


def _reference_values(rng: random.Random):
    """(value, the power of ten it lies a hair off, or None)."""
    radicands = [2, 3, 5, 6, 7, 8, 10, 12, 13, 30, 101, 2 * 3 * 5 * 7 * 11 * 13]
    for i in range(5200):
        kind = i % 6
        scale = F(10) ** rng.choice([rng.randint(-4, 4), rng.randint(-300, 300)])
        sign = rng.choice([1, -1])
        if kind == 0:  # rationals
            yield Money(F(rng.randint(-10 ** 15, 10 ** 15), rng.randint(1, 10 ** 6)) * scale), None
        elif kind == 1:  # rationals exactly half-way between two 12-digit decimals
            n = rng.randint(10 ** 11, 10 ** 12 - 1)
            yield Money(sign * F(2 * n + 1, 2) * scale / 10 ** 11), None
        elif kind in (2, 3):  # 1 to 4 terms, mixed signs
            v = Money(0)
            for _ in range(rng.randint(1, 4)):
                c = F(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 4))
                v = v + Money.sqrt(rng.choice(radicands + [1])) * c
            yield v * scale, None
        elif kind == 4:  # a hair off a power of ten: 64-bit bounds straddle it
            yield _near(scale, rng.choice(radicands[:-1]), rng) * sign, scale * sign
        else:  # a hair off a rounding half-way point
            n = rng.randint(10 ** 11, 10 ** 12 - 1)
            target = F(2 * n + 1, 2) * scale / 10 ** 11
            yield _near(target, rng.choice(radicands), rng) * sign, None


def test_to_decimal_matches_decimal_reference():
    values = [(v, power) for v, power in _reference_values(random.Random(2002)) if v]
    assert len(values) >= 5000
    assert sum(not v.is_rational for v, _ in values) >= 2500
    straddling = 0
    for v, power in values:
        assert v.to_decimal() == _reference_decimal(v), v
        if power is not None:
            lo, hi, d = v._integer_bounds(64)
            straddling += F(lo, d) < power < F(hi, d)
    assert straddling >= 500


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
    assert Money(a) * b == b * Money(a) == Money(a * b)
    assert Money(a) - Money(b) == Money(a - b)
    assert Money(a).compare(Money(b)) == (a > b) - (a < b)
    # the rational shortcuts: Fraction - Money, scaling, negation, compare
    results = [a - Money(b), 2 - Money(b), Money(a) * b, Money(a) * 0, -Money(a),
               Money(a) - Money(a), Money(b) * F(0)]
    assert all(type(r) is Money for r in results)
    assert results[:5] == [Money(a - b), Money(2 - b), Money(a * b), Money(0), Money(-a)]
    assert Money(a).compare(Money(a)) == 0 and Money(a).compare(a) == 0
    assert Money(a).compare(b) == (a > b) - (a < b)
    # a zero result equals and hashes as 0, and is the one shared zero
    for zero in (Money(a) * 0, Money(a) - Money(a), a - Money(a), Money(b) * F(0),
                 -Money(0), Money(0) + Money(0), Money(0) - Money(0), Money(0) + 0):
        assert zero == 0 == Money(0) and hash(zero) == hash(0) and not zero
        assert zero.terms() == () and zero.sign() == 0 and zero.is_rational
        assert zero is Money.ZERO


_root_multiples = st.builds(
    lambda c, m: Money.sqrt(m) * c,
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.integers(min_value=0, max_value=60),
)


@st.composite
def _built_values(draw):
    """Sums, differences, negations and scalings of c * sqrt(m), m from 0 to 60."""
    v = draw(_root_multiples)
    for step in draw(st.lists(st.sampled_from(["add", "sub", "rsub", "neg", "scale"]), max_size=8)):
        if step == "add":
            v = v + draw(_root_multiples)
        elif step == "sub":
            v = v - draw(_root_multiples)
        elif step == "rsub":
            v = draw(st.fractions(min_value=-5, max_value=5, max_denominator=12)) - v
        elif step == "neg":
            v = -v
        else:
            v = v * draw(st.sampled_from([0, 1, -1, 2, F(1, 3), F(-5, 2)]))
    return v


@given(_built_values())
@settings(max_examples=300, deadline=None)
def test_arithmetic_keeps_the_canonical_form(v):
    terms = v.terms()
    radicands = [m for m, _ in terms]
    # sorted, each radicand once, the rational part (radicand 1) only first
    assert radicands == sorted(set(radicands)) and 1 not in radicands[1:]
    assert all(square_parts(m)[0] == 1 for m in radicands)
    assert all(type(c) is F and c for _, c in terms)
    assert v.is_rational == (radicands in ([], [1]))
    rebuilt = sum((Money.sqrt(m) * c for m, c in terms), Money(0))
    assert rebuilt == v and hash(rebuilt) == hash(v)
    assert bool(v) == bool(terms)
    if not v:
        assert v is Money.ZERO


_small_surd = st.builds(
    lambda c, m: Money.sqrt(m) * c,
    st.fractions(min_value=-5, max_value=5),
    st.integers(min_value=1, max_value=30),
)
_values = st.one_of(st.fractions(min_value=-10, max_value=10).map(Money), _small_surd)
_scalars = st.fractions(min_value=-10, max_value=10)


def _approx(v: Money) -> float:
    """A float evaluation, independent of `Money`'s own refinement."""
    return sum(float(c) * m ** 0.5 for m, c in v.terms())


_rationals = st.one_of(
    st.integers(min_value=-10 ** 30, max_value=10 ** 30),
    st.fractions(),
    st.fractions(max_denominator=7),
    st.sampled_from([0, F(0), 1, -1, F(1, 3), F(-1, 3), F(2, 6)]),
)


@given(_rationals, _rationals)
@settings(max_examples=300)
def test_rational_compare_matches_fraction_order(a, b):
    # two rational values compare by integer cross-multiplication: both
    # signs, zero, equal values and `int` operands order as `Fraction`s do
    want = (F(a) > F(b)) - (F(a) < F(b))
    assert Money(a).compare(Money(b)) == want == -Money(b).compare(Money(a))
    assert Money(a).compare(b) == want and Money(a).compare(F(b)) == want
    assert Money(a).compare(Money(F(a))) == 0 == Money(a).compare(a)
    assert ((Money(a) < b), (Money(a) <= b), (Money(a) > b), (Money(a) >= b)) == (
        F(a) < F(b), F(a) <= F(b), F(a) > F(b), F(a) >= F(b))


@given(_rationals, _small_surd.filter(lambda v: not v.is_rational))
@settings(max_examples=100)
def test_mixed_compare_is_decided_through_sign(r, s):
    # a rational against an irrational value takes no rational shortcut
    with mock.patch.object(Money, "sign", autospec=True, side_effect=Money.sign) as sign:
        got = Money(r).compare(s), s.compare(r), s.compare(Money(r))
    assert sign.call_count == 3
    want = (Money(r) - s).sign()
    assert got == (want, -want, -want) and want != 0
    if abs(F(r)) < 10 ** 6 and abs(float(F(r)) - _approx(s)) > 1e-6:
        assert (want < 0) == (float(F(r)) < _approx(s))


@given(_values, _values, _values, _scalars, _scalars)
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c, r, s):
    # additive group laws plus scaling by rationals: a vector space over Q
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a + b) - b == a
    assert (a + b) * r == a * r + b * r
    assert a * (r + s) == a * r + a * s
    assert (a * r) * s == a * (r * s)
    assert a * 1 == a and a * 0 == Money(0)
    # radical operands take the general path; results stay `Money`s
    results = [r - a, a * r, -a, a - a, a * 0, (a + b) - b]
    assert all(type(v) is Money for v in results)
    assert r - a == Money(r) + (-a) and (r - a) + a == Money(r)
    assert (a * r).terms() == tuple((m, c * r) for m, c in a.terms() if c * r)
    assert (-a).terms() == tuple((m, -c) for m, c in a.terms())
    assert a.compare(b) == (a - b).sign() == -b.compare(a)
    assert a.compare(a) == 0 and hash(a - a) == hash(0) == hash(a * 0)


@given(_values, _values)
@settings(max_examples=60, deadline=None)
def test_total_order(a, b):
    assert (a < b) + (a == b) + (a > b) == 1
    # sign agrees with a float evaluation well away from the boundary
    fa, fb = _approx(a), _approx(b)
    if abs(fa - fb) > 1e-6:
        assert (a < b) == (fa < fb)


@given(_values)
@settings(max_examples=40, deadline=None)
def test_decimal_render_is_close(v):
    text = v.to_decimal()
    assert abs(float(F(text)) - _approx(v)) <= max(1e-9, abs(_approx(v)) * 1e-9)


_squarefree = st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13, 30, 210])
_nonzero = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6).filter(bool)


@given(_nonzero, _squarefree, st.integers(min_value=1, max_value=300))
@settings(max_examples=100, deadline=None)
def test_one_term_bounds_are_the_term_bounds(c, m, bits):
    lo, hi, d = (Money.sqrt(m) * c)._integer_bounds(bits)
    lo, hi = F(lo, d), F(hi, d)
    # the per-term formula: c times the root's bounds r / 2**bits and (r + 1) / 2**bits
    r = isqrt(m << (2 * bits))
    assert (lo, hi) == tuple(sorted((c * F(r, 2 ** bits), c * F(r + 1, 2 ** bits))))
    # and they bracket c * sqrt(m), checked on squares alone
    low, high = sorted((lo / c, hi / c))
    assert 0 < low and low ** 2 < m < high ** 2 and high - low == F(1, 2 ** bits)
    n = c.numerator
    assert Money(c)._integer_bounds(bits) == (n, n, c.denominator)
    assert Money(0)._integer_bounds(bits) == (0, 0, 1)


@given(
    st.lists(st.tuples(st.sampled_from([1, 2, 3, 5, 6, 7, 10, 210]), _nonzero),
             min_size=2, max_size=6),
    st.integers(min_value=1, max_value=300),
)
@settings(max_examples=150, deadline=None)
def test_bounds_are_the_integer_bounds_over_their_denominator(terms, bits):
    v = Money(0)
    for m, c in terms:
        v = v + Money.sqrt(m) * c
    lo, hi, d = v._integer_bounds(bits)
    assert d > 0 and lo <= hi and (lo == hi) == v.is_rational
    # the per-term formula, summed as `Fraction`s
    below = above = F(0)
    for m, c in v.terms():
        r = isqrt(m << (2 * bits))
        ends = (c, c) if m == 1 else sorted((c * F(r, 2 ** bits), c * F(r + 1, 2 ** bits)))
        below, above = below + ends[0], above + ends[1]
    assert (F(lo, d), F(hi, d)) == (below, above)


@given(_values, _scalars, _scalars)
@settings(max_examples=60, deadline=None)
def test_equal_values_hash_equal_whatever_built_them(a, r, s):
    v = Money.sqrt(2) * r + Money.sqrt(3) * s + a
    same = [
        a + Money.sqrt(3) * s + Money.sqrt(2) * r,  # another term order
        (v * 2) * F(1, 2),
        v + v - v,
        Money.sqrt(8) * (r / 2) + Money.sqrt(12) * (s / 2) + a,  # other radicands
    ]
    for w in same:
        assert w == v and hash(w) == hash(v)
    assert hash(Money.sqrt(8) * F(1, 2)) == hash(Money.sqrt(2))
    assert hash(Money.sqrt(2) + Money.sqrt(2)) == hash(Money.sqrt(2) * 2) == hash(Money.sqrt(8))
    if not v.is_rational:
        assert hash(v) == hash(frozenset((m, c.numerator, c.denominator) for m, c in v.terms()))


@given(_values, _values, st.integers(min_value=1, max_value=200))
@settings(max_examples=100, deadline=None)
def test_sign_agrees_with_bounds(a, b, bits):
    for v in (a, a - b, a + b * F(1, 3)):
        sign = v.sign()
        lo, hi, _ = v._integer_bounds(bits)
        assert lo <= hi
        if sign > 0:
            assert hi > 0
        elif sign < 0:
            assert lo < 0
        else:
            assert lo == hi == 0
        if lo > 0 or hi < 0:
            assert sign == (1 if lo > 0 else -1)
