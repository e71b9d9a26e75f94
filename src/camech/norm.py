"""Bid ranking under the amount-over-bundle-size family of norms.

A bid (s, a) scores a / |s|**l for a configurable rational exponent l >= 0.
All comparisons are exact: for l = p/q bids rank as their order keys
a**q / |s|**p do.  Instances rank on integers: with amounts w / d over
one denominator and L the lcm of the bundle sizes, the key
w**q * (L / |s|)**p is the order key times (d**q * L**p).  Amounts are
`Fraction`s by type, probes included; radicals appear only in crossing
values, and so in thresholds, payments, revenue and utilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import ExponentNotSupported, InvalidArgument, TiesPresent
from .model import AuctionInstance, SingleMindedBid
from .money import Money, iroot, root_to_decimal, square_parts

#: Largest numerator or denominator of a norm exponent, so exact powers stay small.
MAX_EXPONENT_TERM = 1000


class TieRule(Enum):
    """How bids with exactly equal norms are ordered."""

    CANONICAL = "canonical"
    EXPLICIT = "explicit"
    REJECT = "reject"


@dataclass(frozen=True)
class NormConfig:
    exponent: Fraction = Fraction(1)
    tie_rule: TieRule = TieRule.CANONICAL
    explicit_order: tuple[int, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.exponent, Fraction):
            object.__setattr__(self, "exponent", Fraction(self.exponent))
        e = self.exponent
        if e < 0 or max(e.numerator, e.denominator) > MAX_EXPONENT_TERM:
            raise InvalidArgument(f"norm exponent must be p/q >= 0 with p, q <= {MAX_EXPONENT_TERM}")
        if self.tie_rule is TieRule.EXPLICIT and self.explicit_order is None:
            raise InvalidArgument("explicit tie rule requires an explicit order")


@lru_cache(maxsize=4096)
def bundle_ratio_power(w_num: int, w_den: int, p: int, q: int) -> Money:
    """(w_num / w_den) ** (p / q) as an exact value, for p / q in lowest terms.

    Closed forms exist for integer and half-integer exponents; other rational
    exponents are accepted only when the power happens to be rational.
    """
    if w_num < 1 or w_den < 1:
        raise InvalidArgument("bundle sizes must be positive")
    a, b = w_num ** p, w_den ** p
    g = gcd(a, b)
    a, b = a // g, b // g
    if q == 1 or a == b:
        return Money(Fraction(a, b))
    if q == 2:
        outer, core = square_parts(a * b)
        return Money.root_term(Fraction(outer, b), core)
    ra, rb = iroot(a, q), iroot(b, q)
    if ra ** q == a and rb ** q == b:
        return Money(Fraction(ra, rb))
    raise ExponentNotSupported(
        f"({w_num}/{w_den})**{Fraction(p, q)} has no exact representation here"
    )


def crossing_value(bid: SingleMindedBid, size: int, exponent: Fraction) -> Money:
    """The declared value at which a size-`size` bundle's norm equals `bid`'s."""
    p, q = exponent.numerator, exponent.denominator
    return bundle_ratio_power(size, len(bid.bundle), p, q) * bid.amount


def norm_text(bid: SingleMindedBid, exponent: Fraction) -> str:
    """The norm a / size**exponent at 12 significant digits, without floats.

    Exact where the norm has a closed form; otherwise it is the irrational
    q-th root of the order key amount**q / size**p, rounded from integer roots.
    """
    size = len(bid.bundle)
    p, q = exponent.numerator, exponent.denominator
    try:
        return (bundle_ratio_power(1, size, p, q) * bid.amount).to_decimal()
    except ExponentNotSupported:
        return root_to_decimal(bid.amount ** q / size ** p, q)


@dataclass(frozen=True, eq=False)
class RankedList:
    """A total order over bid indices, norm-descending, ties resolved.

    `keys[j]` is bid j's order key amount**q / size**p, scaled to an
    integer: equal keys are equal norms.
    """

    order: tuple[int, ...]
    exponent: Fraction
    had_ties: bool
    keys: tuple[int, ...]


def rank(instance: AuctionInstance, cfg: NormConfig) -> RankedList:
    """Sort bid indices by strictly non-increasing norm.

    Deterministic for every tie rule.  With `REJECT` the presence of any two
    equal-norm bids raises `TiesPresent`; with `CANONICAL` ties break by
    higher amount, then smaller bundle bitset, then lower bid index; with
    `EXPLICIT` ties break by position in `cfg.explicit_order`.
    """
    bids = instance.bids
    n = len(bids)
    exponent = cfg.exponent
    if cfg.tie_rule is TieRule.EXPLICIT:
        if sorted(cfg.explicit_order) != list(range(n)):
            raise InvalidArgument("explicit order must be a permutation of the bid indices")
        explicit_pos = {j: p for p, j in enumerate(cfg.explicit_order)}

    p, q = exponent.numerator, exponent.denominator
    sizes = [len(b.bundle) for b in bids]
    amounts = instance.integer_amounts.weights
    top = lcm(*sizes)
    keys = [w ** q * (top // s) ** p for w, s in zip(amounts, sizes)]
    order = sorted(range(n), key=keys.__getitem__, reverse=True)
    ties = [(i, j) for i, j in zip(order, order[1:]) if keys[i] == keys[j]]
    if ties:
        if cfg.tie_rule is TieRule.REJECT:
            raise TiesPresent("distinct bids share a norm value", ties)
        if cfg.tie_rule is TieRule.EXPLICIT:
            order = sorted(range(n), key=lambda i: (keys[i], -explicit_pos[i]), reverse=True)
        else:
            masks = instance.bid_masks
            order = sorted(
                range(n), key=lambda i: (keys[i], amounts[i], -masks[i], -i), reverse=True
            )
    return RankedList(tuple(order), exponent, bool(ties), tuple(keys))
