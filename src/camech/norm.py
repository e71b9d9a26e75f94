"""Bid ranking under the amount-over-bundle-size family of norms.

A bid (s, a) scores a / |s|**l for a configurable rational exponent l >= 0.
All comparisons are exact: for l = p/q bids rank as their order keys
a**q / |s|**p do.  Instances rank on integers: with amounts w / d over
one denominator and L the lcm of the bundle sizes, the key
w**q * (L / |s|)**p is the order key times (d**q * L**p).  Amounts are
`Fraction`s by type, probes included; radicals appear only in crossing
values, and so in thresholds, payments, revenue and utilities.

`rank` sorts every instance in full.  `place`, which the rerun answers of
greedy and Clarke-with-greedy call, keeps in an instance's `rankings` its
ranking under each `NormConfig` it was asked for, with one slot holding
the order without the last bid replaced.  Two threads racing may both
append a ranking for one configuration, and they are equal.  The slot is
replaced by one assignment of a whole record, so a reader sees either the
old record or the new one, each correct for the bid it names.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import ExponentNotSupported, InstanceTooLarge, InvalidArgument, TiesPresent
from .model import AuctionInstance, SingleMindedBid
from .money import Money, iroot, over_power_to_decimal

#: Largest numerator or denominator of a norm exponent, so exact powers stay small.
MAX_EXPONENT_TERM = 1000
#: Most bits the integer order keys of one instance may hold together,
#: checked before any key is built.  A key w**q * (L / s)**p has about
#: q * bits(w) + p * bits(L / s) bits: 3.3 million for one 999-digit amount
#: at q = 1000, and at most 22 million for 200,000 generated bids at l = 1.
#: On a 2-vCPU host, `run` on ten 990-digit bids at l = 999/1000 (33
#: million bits) takes 2.4 s; twenty such bids are refused.
MAX_KEY_BITS = 1 << 25


class TieRule(Enum):
    """How bids with exactly equal norms are ordered."""

    CANONICAL = "canonical"
    REJECT = "reject"


@dataclass(frozen=True)
class NormConfig:
    exponent: Fraction = Fraction(1)
    tie_rule: TieRule = TieRule.CANONICAL

    def __post_init__(self):
        if not isinstance(self.exponent, Fraction):
            object.__setattr__(self, "exponent", Fraction(self.exponent))
        e = self.exponent
        if e < 0 or max(e.numerator, e.denominator) > MAX_EXPONENT_TERM:
            raise InvalidArgument(f"norm exponent must be p/q >= 0 with p, q <= {MAX_EXPONENT_TERM}")


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
        return Money.sqrt(a * b) * Fraction(1, b)
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
    """The norm a / size**exponent at 12 significant digits, without floats."""
    return over_power_to_decimal(bid.amount, len(bid.bundle), exponent)


@dataclass(frozen=True, eq=False, init=False)
class RankedList:
    """A total order over bid indices, norm-descending, ties resolved."""

    order: tuple[int, ...]
    had_ties: bool

    def __init__(self, order: tuple[int, ...], had_ties: bool):
        self.__dict__.update(order=order, had_ties=had_ties)


def _integer_keys(instance: AuctionInstance, exponent: Fraction) -> tuple[list[int], int]:
    """Every bid's integer order key, and the lcm of the bundle sizes.

    Raises `InstanceTooLarge`, before any key is built, when the keys
    would hold more than `MAX_KEY_BITS` bits together.
    """
    p, q = exponent.numerator, exponent.denominator
    sizes = [len(b.bundle) for b in instance.bids]
    top = lcm(*sizes)
    amounts = instance.integer_amounts.weights
    bits = sum(q * w.bit_length() + p * (top // s).bit_length() for w, s in zip(amounts, sizes))
    if bits > MAX_KEY_BITS:
        raise InstanceTooLarge(
            f"ranking at norm exponent {exponent} needs order keys of about {bits} bits;"
            f" at most {MAX_KEY_BITS} are allowed"
        )
    return [w ** q * (top // s) ** p for w, s in zip(amounts, sizes)], top


def _sorted(instance: AuctionInstance, cfg: NormConfig) -> tuple[list[int], list[int], int, bool]:
    """The full sort: order, keys, lcm of the sizes and whether keys tie."""
    n = len(instance.bids)
    keys, top = _integer_keys(instance, cfg.exponent)
    order = sorted(range(n), key=keys.__getitem__, reverse=True)
    ties = [(i, j) for i, j in zip(order, order[1:]) if keys[i] == keys[j]]
    if ties:
        if cfg.tie_rule is TieRule.REJECT:
            raise TiesPresent("distinct bids share a norm value", ties)
        amounts, masks = instance.integer_amounts.weights, instance.bid_masks
        order = sorted(range(n), key=lambda i: (keys[i], amounts[i], -masks[i], -i), reverse=True)
    return order, keys, top, bool(ties)


class _Without:
    """A ranking with bid j taken out: the other bids' order, their negated
    keys in that order (so ascending) and whether two of them tie."""

    __slots__ = ("j", "order", "neg_keys", "ties")

    def __init__(self, j: int, order: tuple[int, ...], neg_keys: list[int], ties: bool):
        self.j, self.order, self.neg_keys, self.ties = j, order, neg_keys, ties


class _KeptRanking:
    """An instance's ranking under one `NormConfig`, kept for its reruns:
    the order, the negated keys in that order (so ascending), the key
    scale, the exponent's p and q, and in `without` the `_Without` of the
    last replaced bid."""

    __slots__ = ("order", "neg_keys", "scale", "p", "q", "without")

    def __init__(self, instance: AuctionInstance, cfg: NormConfig):
        order, keys, top, _ = _sorted(instance, cfg)
        self.order = tuple(order)
        self.neg_keys = [-keys[i] for i in order]
        self.p, self.q = p, q = cfg.exponent.numerator, cfg.exponent.denominator
        self.scale = instance.integer_amounts.denominator ** q * top ** p
        self.without = None

    def without_bid(self, j: int) -> _Without:
        without = self.without
        if without is None or without.j != j:
            at = self.order.index(j)
            others = self.neg_keys[:at] + self.neg_keys[at + 1:]
            ties = any(a == b for a, b in zip(others, others[1:]))
            without = self.without = _Without(
                j, self.order[:at] + self.order[at + 1:], others, ties
            )
        return without


def _kept_ranking(instance: AuctionInstance, cfg: NormConfig) -> _KeptRanking | None:
    """The ranking kept in `instance.rankings` for cfg, computed on first
    use; None when it raised `TiesPresent`."""
    rankings = instance.rankings
    # a scan, not a dict: hashing a `NormConfig` hashes its Fraction
    for kept, ranking in rankings:
        if kept is cfg or kept == cfg:
            return ranking
    try:
        ranking = _KeptRanking(instance, cfg)
    except TiesPresent:
        ranking = None
    rankings.append((cfg, ranking))
    return ranking


def place(
    instance: AuctionInstance, cfg: NormConfig, j: int, size: int, amounts: Sequence[Fraction]
) -> tuple[_Without, list[Optional[int]]] | None:
    """Where bid j goes when a bid of `size` goods replaces it, at each of
    `amounts`: the instance's ranking without bid j, and for each amount
    bid j's position in that order, found by its own bisect on exact keys,
    or None when bid j's key then ties another bid's.  None as a whole
    when the instance's ranking raised `TiesPresent`.

    `rank(instance.with_bid(j, bid), cfg)` orders the other bids as the
    instance does, tie breaks included, since rescaling the amounts or
    sizes multiplies every key by one positive factor."""
    ranking = _kept_ranking(instance, cfg)
    if ranking is None:
        return None
    without = ranking.without_bid(j)
    neg_keys, last = without.neg_keys, len(without.neg_keys)
    # the instance's key of bid i is its order key times `ranking.scale`,
    # and bid j's order key is (num / d)**q / s**p: bid i ranks above j
    # exactly when its key exceeds num**q * scale / (d**q * s**p), or that
    # value's floor
    q, scale, below = ranking.q, ranking.scale, size ** ranking.p
    positions: list[Optional[int]] = []
    for amount in amounts:
        num, den = amount.as_integer_ratio()
        floor, rest = divmod(num ** q * scale, den ** q * below)
        pos = bisect_left(neg_keys, -floor)
        tied = not rest and pos < last and neg_keys[pos] == -floor
        positions.append(None if tied else pos)
    return without, positions


def keys_tie(instance: AuctionInstance, exponent: Fraction) -> bool:
    """Whether two bids' order keys are equal at `exponent`: whether `rank`
    finds a tie, without ordering the bids."""
    keys, _ = _integer_keys(instance, exponent)
    return len(set(keys)) < len(keys)


def rank(instance: AuctionInstance, cfg: NormConfig) -> RankedList:
    """Sort bid indices by strictly non-increasing norm.

    Deterministic for every tie rule.  With `REJECT` the presence of any two
    equal-norm bids raises `TiesPresent`; with `CANONICAL` ties break by
    higher amount, then smaller bundle bitset, then lower bid index.
    """
    order, _, _, ties = _sorted(instance, cfg)
    return RankedList(tuple(order), ties)
