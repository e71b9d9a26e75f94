"""Exact money arithmetic.

Declared amounts are `Fraction`s.  The prices a mechanism computes from them
(thresholds, payments, revenue and utilities) need square roots at norm
exponent 1/2 and must never depend on a floating-point epsilon, so they are
`Money`: a rational part plus rational multiples of square roots of
square-free integers above 1, the two held in separate fields.  That set
is closed under addition and under scaling by a rational, which is all the
mechanisms need; equality is decidable from the canonical form alone, and
the sign and the decimal digits of a non-zero value can always be resolved
by refining integer square-root bounds.  Those bounds are integers over one
positive denominator (`Money._integer_bounds`), which the sign, the decimal
rounding and the critical-value scan's brackets read without building a
`Fraction`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt, lcm, log2
from typing import Union

from .errors import InvalidArgument, ParseError

Rational = Union[int, Fraction]

#: Most digits plus decimal exponent a literal may have: amounts stay far below
#: Python's 4,300-digit int-to-str limit and `Fraction` builds no huge power of ten.
MAX_LITERAL_DIGITS = 1000

#: Significant digits of every rendered decimal.
SIGNIFICANT_DIGITS = 12

_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*$")


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
    # start just above the root, from a float estimate (doubled should the
    # float fall short): from above, Newton's step never drops below the
    # floor and descends until it stops there, in a few steps, where a start
    # at a power of two above the root shrinks by only about (k - 1) / k a step
    t = log2(n) / k
    shift = max(int(t) - 52, 0)
    x = int(2.0 ** (t - shift))
    x = (x + (x >> 20) + 2) << shift
    while x ** k <= n:
        x <<= 1
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


#: The root map every rational value shares; no root map is mutated once a
#: `Money` holds it.
_NO_ROOTS: dict[int, Fraction] = {}


def _money(r: Rational, roots: dict[int, Fraction]) -> "Money":
    """The value r + sum(c * sqrt(m) for m, c in roots.items()), for a
    canonical `roots` map; a zero value is the shared `Money.ZERO`."""
    if not r:
        if not roots:
            return Money.ZERO
        r = 0
    self = object.__new__(Money)
    self._r, self._roots, self._hash = r, roots, None
    return self


class Money:
    """A rational plus a sum of rational multiples of sqrt(m), m > 1 square-free.

    Two fields hold the value: `_r`, the rational part, is the int 0 or a
    non-zero rational, and `_roots` maps each radicand m > 1 to its non-zero
    `Fraction` coefficient; every rational value shares one empty map.  The
    form is canonical, which makes equality a structural check: square
    roots of distinct square-free integers are linearly independent over
    the rationals.

    A `Money` is built from an int, a `Fraction`, a string `Fraction`
    parses (as `repr` renders it) or another `Money`.  A float raises
    `TypeError`: its binary value is seldom the number meant, and `Money`
    arithmetic rejects floats too.

    Each operation works on both fields in one path, with no separate path
    for rational values, and does no `Fraction` work on a zero rational part
    or an empty root map.  `sign` and `_integer_bounds` read a value with
    one root and no rational part, as most thresholds are, straight off its
    coefficient.  Every zero result of arithmetic is the one shared
    `Money.ZERO`; a `Money` never changes after it is built, so sharing it
    is safe.
    """

    __slots__ = ("_r", "_roots", "_hash")

    def __init__(self, value: Rational | str | "Money" = 0):
        if isinstance(value, Money):
            self._r, self._roots = value._r, value._roots
        elif isinstance(value, float):
            raise TypeError("Money does not take a float; pass a Fraction or a string")
        else:
            self._r, self._roots = Fraction(value) or 0, _NO_ROOTS
        self._hash = None

    @classmethod
    def sqrt(cls, n: int) -> "Money":
        """Exact square root of a non-negative integer."""
        if n < 0:
            raise InvalidArgument("sqrt of a negative integer")
        outer, core = square_parts(n) if n else (0, 1)
        return cls(outer) if core == 1 else _money(0, {core: Fraction(outer)})

    # -- predicates ---------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return not self._roots

    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        """Canonical (radicand, coefficient) pairs, sorted by radicand; the
        rational part, when non-zero, is radicand 1."""
        roots = sorted(self._roots.items())
        return ((1, Fraction(self._r)), *roots) if self._r else tuple(roots)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Money):
            r, roots = other._r, other._roots
        elif isinstance(other, (int, Fraction)):
            r, roots = other, _NO_ROOTS
        else:
            return NotImplemented
        if self._r:
            r = self._r + r if r else self._r
        if not roots:
            roots = self._roots
        elif self._roots:
            merged = dict(self._roots)
            for m, c in roots.items():
                if m in merged:
                    c += merged.pop(m)
                if c:
                    merged[m] = c
            roots = merged
        return _money(r, roots)

    __radd__ = __add__

    def __neg__(self):
        roots = self._roots
        if not (roots or self._r):  # most losing bids' payments: nothing to build
            return Money.ZERO
        return _money(-self._r, {m: -c for m, c in roots.items()} if roots else roots)

    def __sub__(self, other):
        return self + -other if isinstance(other, (Money, int, Fraction)) else NotImplemented

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        roots = self._roots
        return _money(other - self._r if self._r else other,
                      {m: -c for m, c in roots.items()} if roots else roots)

    def __mul__(self, other):
        """Scaling by an `int` or a `Fraction`; a product of two `Money`s is
        not defined."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return Money.ZERO
        roots = self._roots
        return _money(self._r * other if self._r else 0,
                      {m: c * other for m, c in roots.items()} if roots else roots)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self._roots or self._r)

    # -- ordering -----------------------------------------------------------

    def sign(self) -> int:
        """-1, 0 or +1; exact."""
        n, roots = self._r.numerator, self._roots
        if not roots:
            return (n > 0) - (n < 0)
        if len(roots) == 1 and not n:  # most thresholds: the coefficient's sign
            (c,) = roots.values()
            return 1 if c.numerator > 0 else -1
        positive = [c.numerator > 0 for c in roots.values()]
        if n:
            positive.append(n > 0)
        if all(positive):
            return 1
        if not any(positive):
            return -1
        bits = 32
        while True:
            lo, hi, _ = self._integer_bounds(bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2

    def _integer_bounds(self, bits: int) -> tuple[int, int, int]:
        """(lo, hi, d) with d > 0 and lo / d <= value <= hi / d, roots taken to
        `bits` fractional bits; lo == hi exactly when the value is rational.

        Each root c * sqrt(m) is bounded by c times the root's bounds
        r / 2**bits and (r + 1) / 2**bits, r = isqrt(m * 4**bits); the rational
        part and the roots are summed over the lcm of the coefficients'
        denominators, shifted by `bits` when there are roots.  Integers only,
        so no bound is normalised.
        """
        r, roots = self._r, self._roots
        if len(roots) == 1 and not r:  # most thresholds: no lcm and no sum
            ((m, c),) = roots.items()
            n, d = c.numerator, c.denominator
            lo = n * isqrt(m << (2 * bits))
            return (lo, lo + n, d << bits) if n > 0 else (lo + n, lo, d << bits)
        n, d = r.numerator, r.denominator
        if not roots:
            return n, n, d
        for c in roots.values():
            d = lcm(d, c.denominator)
        lo = hi = n * (d // r.denominator) << bits
        for m, c in roots.items():
            n = c.numerator * (d // c.denominator)
            below = n * isqrt(m << (2 * bits))
            if n > 0:
                lo += below
                hi += below + n
            else:
                lo += below + n
                hi += below
        return lo, hi, d << bits

    def compare(self, other) -> int:
        if isinstance(other, Money):
            r, roots = other._r, other._roots
        elif isinstance(other, (int, Fraction)):
            r, roots = other, _NO_ROOTS
        else:
            raise TypeError(f"cannot compare Money with {type(other).__name__}")
        if roots or self._roots:
            return (self - other).sign()
        # denominators are positive, so one cross-multiplication decides
        x, y = self._r.numerator * r.denominator, r.numerator * self._r.denominator
        return (x > y) - (x < y)

    def __eq__(self, other):
        if isinstance(other, Money):
            return self._r == other._r and self._roots == other._roots
        if isinstance(other, (int, Fraction)):
            return not self._roots and self._r == other
        return NotImplemented

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __hash__(self):
        # a rational value hashes as the `Fraction` it equals; an irrational
        # one, which equals no `Fraction`, hashes its canonical integers
        if self._hash is None:
            r, roots = self._r, self._roots
            self._hash = hash(frozenset([(m, c.numerator, c.denominator) for m, c in (
                {1: r, **roots} if r else roots).items()])) if roots else hash(r)
        return self._hash

    # -- rendering ----------------------------------------------------------

    def __repr__(self):
        if not self._roots:
            return f"Money({str(self._r)!r})" if self._r else "Money(0)"
        parts = " + ".join(f"({c})*sqrt({m})" for m, c in self.terms())
        return f"Money<{parts}>"

    def to_decimal(self) -> str:
        """Decimal string rounded (half-even) to `SIGNIFICANT_DIGITS` digits, zeros stripped.

        Bounds are refined until both round to the same sign, decimal
        exponent and digits, which the value between them then shares.
        """
        if not self:
            return "0"
        bits = 64
        while True:
            lo, hi, d = self._integer_bounds(bits)
            rounded = _rounded(lo, d)
            if rounded[0] and (hi == lo or rounded == _rounded(hi, d)):
                sign, n, e = rounded
                text = _decimal_text(n, e)
                return "-" + text if sign < 0 else text
            bits *= 2


Money.ZERO = Money()


def _rounded(n: int, d: int) -> tuple[int, int, int]:
    """(sign, q, e) for f = n / d, d > 0, with e = floor(log10|f|) and
    q = |f| * 10**(SIGNIFICANT_DIGITS - 1 - e) rounded half to even; (0, 0, 0)
    for zero.  Integers only; n / d need not be in lowest terms."""
    if not n:
        return 0, 0, 0
    sign = -1 if n < 0 else 1
    n = abs(n)
    e = _decimal_exponent(n, d)
    shift = SIGNIFICANT_DIGITS - 1 - e
    if shift >= 0:
        n *= 10 ** shift
    else:
        d *= 10 ** -shift
    q, r = divmod(n, d)
    if 2 * r > d or (2 * r == d and q % 2):
        q += 1
    return sign, q, e


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


def over_power_to_decimal(amount: Fraction, base: int, exponent: Fraction) -> str:
    """amount / base**exponent rounded (half-even) to `SIGNIFICANT_DIGITS`
    digits, for amount >= 0 and base >= 1.

    An integer base**(p/q) is divided out at once.  An irrational one, which
    leaves no rounding tie, is bracketed by the integer q-th roots of
    base**p at doubling precision until both ends of the quotient's bracket
    round alike.  The work grows with the digits of the amount and the size
    of base**p, never with the q-th power of the amount.
    """
    if not amount:
        return "0"
    q = exponent.denominator
    power = base ** exponent.numerator
    n, d = amount.numerator, amount.denominator
    r = iroot(power, q)
    if r ** q == power:
        return _decimal_text(*_rounded(n, d * r)[1:])
    bits = 64
    while True:
        r = iroot(power << (q * bits), q)  # r < base**exponent * 2**bits < r + 1
        rounded = _rounded(n << bits, d * (r + 1))
        if rounded == _rounded(n << bits, d * r):
            return _decimal_text(rounded[1], rounded[2])
        bits *= 2


def _decimal_exponent(n: int, d: int) -> int:
    """floor(log10(n / d)) for n, d > 0, in integers only."""

    def below(e: int) -> bool:  # n / d < 10**e
        return n < d * 10 ** e if e >= 0 else n * 10 ** -e < d

    e = (n.bit_length() - d.bit_length()) * 30103 // 100000  # log10(2) ~ 0.30103
    while below(e):
        e -= 1
    while not below(e + 1):
        e += 1
    return e


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
