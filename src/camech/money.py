"""Exact money arithmetic.

Declared amounts are `Fraction`s.  The prices a mechanism computes from them
(thresholds, payments, revenue and utilities) need square roots at norm
exponent 1/2 and must never depend on a floating-point epsilon, so they are
`Money`: rational linear combinations of square roots of square-free
integers.  That set is closed under addition and multiplication, equality is
decidable from the canonical form alone, and the sign of a non-zero value
can always be resolved by refining integer square-root bounds.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Union

from .errors import InvalidArgument, ParseError

Rational = Union[int, Fraction]

_ZERO = Fraction(0)

#: Most digits plus decimal exponent a literal may have: amounts stay far below
#: Python's 4,300-digit int-to-str limit and `Fraction` builds no huge power of ten.
MAX_LITERAL_DIGITS = 1000

#: Significant digits of every rendered decimal.
SIGNIFICANT_DIGITS = 12

_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*$")


@lru_cache(maxsize=None)
def square_parts(n: int) -> tuple[int, int]:
    """Split n >= 1 into (outer, core) with n == outer**2 * core, core square-free."""
    if n < 1:
        raise InvalidArgument("square_parts expects a positive integer")
    outer, core, m = 1, 1, n
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            outer *= d ** (e // 2)
            if e % 2:
                core *= d
        d += 1 if d == 2 else 2
    return outer, core * m


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if n < 0 or k < 1:
        raise InvalidArgument("iroot expects n >= 0 and k >= 1")
    if n == 0 or k == 1:
        return n
    if k == 2:
        return isqrt(n)
    x = 1 << (-(-n.bit_length() // k))
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    return x


def _rational_value(terms: dict[int, Fraction]) -> Fraction | None:
    """The value of a term map as a Fraction, or None when it is irrational."""
    if not terms:
        return _ZERO
    return terms.get(1) if len(terms) == 1 else None


class Money:
    """A sum of rational multiples of sqrt(m) over square-free integers m.

    The term map is canonical (no zero coefficients, every radicand
    square-free), which makes equality a structural check: square roots of
    distinct square-free integers are linearly independent over the
    rationals.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, value: Rational | "Money" = 0):
        if isinstance(value, Money):
            self._terms = value._terms
        else:
            f = Fraction(value)
            self._terms = {1: f} if f else {}
        self._hash = None

    @classmethod
    def _from_terms(cls, terms: dict[int, Fraction]) -> "Money":
        self = object.__new__(cls)
        self._terms = {m: c for m, c in terms.items() if c}
        self._hash = None
        return self

    @classmethod
    def _rational(cls, value: Fraction) -> "Money":
        self = object.__new__(cls)
        self._terms = {1: value} if value else {}
        self._hash = None
        return self

    @classmethod
    def sqrt(cls, n: int) -> "Money":
        """Exact square root of a non-negative integer."""
        if n < 0:
            raise InvalidArgument("sqrt of a negative integer")
        if n == 0:
            return cls()
        outer, core = square_parts(n)
        if core == 1:
            return cls(outer)
        return cls._from_terms({core: Fraction(outer)})

    @classmethod
    def root_term(cls, coefficient: Rational, radicand: int) -> "Money":
        """coefficient * sqrt(radicand), normalised."""
        return cls(coefficient) * cls.sqrt(radicand)

    # -- predicates ---------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return _rational_value(self._terms) is not None

    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        """Canonical (radicand, coefficient) pairs, sorted by radicand."""
        return tuple(sorted(self._terms.items()))

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Money | None":
        if isinstance(other, Money):
            return other
        if isinstance(other, Fraction):
            return Money._rational(other)
        if isinstance(other, int):
            return Money(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self._terms:
            return o
        if not o._terms:
            return self
        a, b = _rational_value(self._terms), _rational_value(o._terms)
        if a is not None and b is not None:
            return Money._rational(a + b)
        terms = dict(self._terms)
        for m, c in o._terms.items():
            s = terms.get(m, _ZERO) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Money._from_terms(terms)

    __radd__ = __add__

    def __neg__(self):
        return Money._from_terms({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = _rational_value(self._terms), _rational_value(o._terms)
        if a is not None and b is not None:
            return Money._rational(a * b)
        out: dict[int, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in o._terms.items():
                if m1 == m2:
                    m, extra = 1, m1
                else:
                    outer, core = square_parts(m1 * m2)
                    m, extra = core, outer
                c = c1 * c2 * extra
                s = out.get(m, _ZERO) + c
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Money._from_terms(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("money division by zero")
            inv = Fraction(1, 1) / Fraction(other)
            return Money._from_terms({m: c * inv for m, c in self._terms.items()})
        return NotImplemented

    def __bool__(self):
        return bool(self._terms)

    # -- ordering -----------------------------------------------------------

    def sign(self) -> int:
        """-1, 0 or +1; exact."""
        if not self._terms:
            return 0
        if self.is_rational:
            f = self._terms[1]
            return -1 if f < 0 else 1
        coeffs = list(self._terms.values())
        if all(c > 0 for c in coeffs):
            return 1
        if all(c < 0 for c in coeffs):
            return -1
        bits = 32
        while True:
            lo, hi = self.bounds(bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2

    def bounds(self, bits: int) -> tuple[Fraction, Fraction]:
        """Exact rational bounds lo <= value <= hi, roots taken to `bits` fractional bits."""
        lo = hi = _ZERO
        scale = 1 << bits
        for m, c in self._terms.items():
            if m == 1:
                lo += c
                hi += c
                continue
            r = isqrt(m << (2 * bits))
            rlo, rhi = Fraction(r, scale), Fraction(r + 1, scale)
            if c > 0:
                lo += c * rlo
                hi += c * rhi
            else:
                lo += c * rhi
                hi += c * rlo
        return lo, hi

    def compare(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare Money with {type(other).__name__}")
        a, b = _rational_value(self._terms), _rational_value(o._terms)
        if a is not None and b is not None:
            return -1 if a < b else (1 if a > b else 0)
        return (self - o).sign()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.terms())
        return self._hash

    # -- rendering ----------------------------------------------------------

    def __float__(self):
        return float(sum(float(c) * m ** 0.5 for m, c in self._terms.items()))

    def __repr__(self):
        if not self._terms:
            return "Money(0)"
        if self.is_rational:
            return f"Money({str(self._terms[1])!r})"
        parts = " + ".join(f"({c})*sqrt({m})" for m, c in self.terms())
        return f"Money<{parts}>"

    def to_decimal(self) -> str:
        """Decimal string rounded (half-even) to `SIGNIFICANT_DIGITS` digits, zeros stripped."""
        s = self.sign()
        if s == 0:
            return "0"
        x = -self if s < 0 else self
        e = x._floor_log10()
        text = _decimal_text(x._scaled_round(SIGNIFICANT_DIGITS - 1 - e), e)
        return "-" + text if s < 0 else text

    def _floor_log10(self) -> int:
        """floor(log10(self)) for self > 0."""
        bits = 64
        while True:
            lo, hi = self.bounds(bits)
            if lo > 0:
                elo = _floor_log10_fraction(lo)
                ehi = _floor_log10_fraction(hi)
                if elo == ehi:
                    return elo
            bits *= 2

    def _scaled_round(self, shift: int) -> int:
        """round-half-even of self * 10**shift, for self > 0."""
        scale = Fraction(10) ** shift
        if self.is_rational:
            return _round_half_even(self._terms[1] * scale)
        bits = 64
        while True:
            lo, hi = self.bounds(bits)
            rlo = _round_half_even(lo * scale)
            rhi = _round_half_even(hi * scale)
            if rlo == rhi:
                return rlo
            bits *= 2


def _decimal_text(n: int, e: int) -> str:
    """The decimal n * 10**(e - SIGNIFICANT_DIGITS + 1), zeros stripped; n has
    `SIGNIFICANT_DIGITS` digits, or is 10**SIGNIFICANT_DIGITS after rounding up."""
    if n >= 10 ** SIGNIFICANT_DIGITS:
        n //= 10
        e += 1
    digits = str(n)
    if e >= SIGNIFICANT_DIGITS - 1:
        text = digits + "0" * (e - SIGNIFICANT_DIGITS + 1)
    elif e >= 0:
        text = digits[: e + 1] + "." + digits[e + 1 :]
    else:
        text = "0." + "0" * (-e - 1) + digits
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text


def root_to_decimal(y: Fraction, q: int) -> str:
    """y**(1/q) rounded to `SIGNIFICANT_DIGITS` digits, for y >= 0 whose q-th
    root is zero or irrational (so no rounding tie can occur); integers only."""
    if not y:
        return "0"
    e = _floor_log10_fraction(y) // q  # 10**e <= y**(1/q) < 10**(e + 1)
    shift = (SIGNIFICANT_DIGITS - 1 - e) * q
    # plain integers: Fraction arithmetic would take gcds of huge powers
    num, den = y.numerator << q, y.denominator
    if shift >= 0:
        num *= 10 ** shift
    else:
        den *= 10 ** -shift
    twice = iroot(num // den, q)  # floor(2 * y**(1/q) * 10**(SIGNIFICANT_DIGITS - 1 - e))
    return _decimal_text((twice + 1) // 2, e)


def _floor_log10_fraction(f: Fraction) -> int:
    """floor(log10(f)) for f > 0, in integers only."""
    n, d = f.numerator, f.denominator

    def below(e: int) -> bool:  # f < 10**e
        return n < d * 10 ** e if e >= 0 else n * 10 ** -e < d

    e = (n.bit_length() - d.bit_length()) * 30103 // 100000  # log10(2) ~ 0.30103
    while below(e):
        e -= 1
    while not below(e + 1):
        e += 1
    return e


def _round_half_even(f: Fraction) -> int:
    q, r = divmod(f.numerator, f.denominator)
    twice = 2 * r
    if twice > f.denominator or (twice == f.denominator and q % 2):
        q += 1
    return q


def fraction_to_decimal(f: Fraction) -> str:
    """Exact decimal string for a rational with a 10-smooth denominator.

    Falls back to the "p/q" literal otherwise; both forms parse back exactly.
    """
    d = f.denominator
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{f.numerator}/{f.denominator}"
    m = max(twos, fives)
    scaled = f.numerator * 10 ** m // f.denominator
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(m + 1, "0")
    if m == 0:
        return sign + digits
    text = digits[:-m] + "." + digits[-m:]
    text = text.rstrip("0").rstrip(".")
    return sign + text


def parse_decimal(text: str) -> Fraction:
    """Exact rational from a decimal or "p/q" literal of bounded size."""
    m = _EXPONENT.search(text)
    power = m.group(1).lstrip("+-").replace("_", "").lstrip("0") if m else ""
    digits = sum(c.isdigit() for c in (text[: m.start()] if m else text))
    if len(power) > 4 or digits + int(power or 0) > MAX_LITERAL_DIGITS:
        raise ParseError(f"numeric literal longer than {MAX_LITERAL_DIGITS} digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not an exact numeric literal: {text!r}") from exc
