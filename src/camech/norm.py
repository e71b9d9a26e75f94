"""Bid ranking under the amount-over-bundle-size family of norms.

A bid (s, a) scores a / |s|**l for a configurable rational exponent l >= 0.
All comparisons are exact: for l = p/q bids rank as their order keys
a**q / |s|**p do.  Instances rank on integers: with amounts w / d over
one denominator and L the lcm of the bundle sizes, the key
w**q * (L / |s|)**p is the order key times (d**q * L**p).  Amounts are
`Fraction`s by type, probes included; radicals appear only in crossing
values, and so in thresholds, payments, revenue and utilities.

`rank` sorts every instance in full.  `NormBid`, the per-bid object of
greedy and Clarke-with-greedy, places a replaced bid j among the others
by a bisect on that ranking, which an instance keeps in its `rankings`
under each `NormConfig` it was asked for.  Two threads racing may both
append a ranking for one configuration, and they are equal.  What a
`NormBid` builds, the ranking without bid j and its walk, it keeps for
itself, so whoever holds it decides how long that lives.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Callable, Optional, Sequence

from .errors import ExponentNotSupported, InstanceTooLarge, InvalidArgument, TiesPresent
from .model import AuctionInstance, BidRerun, SingleMindedBid
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


class _KeptRanking:
    """An instance's ranking under one `NormConfig`, kept for its reruns:
    the order, the negated keys in that order (so ascending), the key
    scale and the exponent's p and q."""

    __slots__ = ("order", "neg_keys", "scale", "p", "q")

    def __init__(self, instance: AuctionInstance, cfg: NormConfig):
        order, keys, top, _ = _sorted(instance, cfg)
        self.order = tuple(order)
        self.neg_keys = [-keys[i] for i in order]
        self.p, self.q = p, q = cfg.exponent.numerator, cfg.exponent.denominator
        self.scale = instance.integer_amounts.denominator ** q * top ** p


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


def _walk_prefix(masks: Sequence[int], order: Sequence[int]) -> list[int]:
    """The goods the greedy walk of `order` grants before each position,
    and after the last."""
    used, granted = 0, [0]
    for i in order:
        if not used & masks[i]:
            used |= masks[i]
        granted.append(used)
    return granted


def _free() -> Money:
    return Money.ZERO


class NormBid:
    """Bid j of an instance under a mechanism that allocates greedily by
    cfg's norm, answering for bid j moved to other bundles and amounts.

    `thresholds(bundle)` gives the values at which the bundle's norm
    crosses each other bid's, the grid, and those of them kept.  They
    depend on the bundle's size alone, so each size's crossing values are
    computed once, k * (n - 1) in a whole misreport search, and every
    bundle of a size gets one grid tuple.  Under `CANONICAL` only the
    crossing values of the other bids the bundle overlaps are kept.  The
    walk grants a bid when no earlier granted bid overlaps it, so the
    allocation depends only on the order within each overlapping pair; a
    winner's blocker overlaps it, and clarke-greedy's payment is the
    difference of two such allocations' values.  Moving bid j across, or
    onto, the crossing value of a bid it does not overlap reorders two
    independent bids and leaves j's grant and payment as they are.  Under
    `REJECT` a tie with any bid raises `TiesPresent`, so every crossing
    value is kept.

    `rerun(bundle, amounts)` gives bid j's part of the mechanism's run with
    bid j moved to `bundle`, at each amount, read off the walk of the other
    bids in the instance's order (`order`, the instance's ranking without
    bid j; `granted`, the goods that walk grants before each position).
    Bid j goes in at its place p, found by its own bisect on exact keys
    (`rank(instance.with_bid(j, bid), cfg)` orders the other bids as the
    instance does, tie breaks included, since rescaling the amounts or
    sizes multiplies every key by one positive factor).  The bids before p
    are granted as in the walk without bid j, so bid j is granted exactly
    when its bundle misses the goods granted there.  A winner's payment is
    read from `price(self, p, mask)` for its bundle's `mask`: a function of
    no arguments, or None when it pays nothing.  At every place that grants
    bid j, it has one blocker and the bids after it lose the same to it: a
    bid between two such places that meets bid j's bundle was denied on
    goods outside it.  So the amounts granted share one answer, priced at
    the first of them, and so do the amounts denied.  Each entry is
    None where bid j's key ties another's (the full run breaks the tie or
    raises), and the whole answer None when `price` is None or the
    instance's ranking raised `TiesPresent`.

    Each part is built on first use and kept for the object's life; the
    caller owns the object and shares it with no other thread.
    """

    __slots__ = ("instance", "j", "cfg", "price", "by_size", "ranking", "order", "neg_keys",
                 "ties", "granted")

    def __init__(
        self, instance: AuctionInstance, j: int, cfg: NormConfig,
        price: Optional[Callable[[NormBid, int, int], Optional[Callable[[], Money]]]],
    ):
        self.instance, self.j, self.cfg, self.price = instance, j, cfg, price
        self.by_size: dict[int, tuple[Money, ...]] = {}
        self.order = None

    def crossing_values(self, size: int) -> tuple[Money, ...]:
        """Every other bid's crossing value at `size`, in bid order."""
        grid = self.by_size.get(size)
        # no tuple built from a generator: CPython resizes it rather than
        # taking it from the tuple free list of its size, but frees it onto
        # that list, which then fills to 2000 dead tuples
        if grid is None:
            j, exponent = self.j, self.cfg.exponent
            grid = self.by_size[size] = tuple([
                crossing_value(b, size, exponent)
                for i, b in enumerate(self.instance.bids) if i != j
            ])
        return grid

    def crossing(self, i: int, size: int) -> Money:
        """Other bid i's crossing value at `size`."""
        return self.crossing_values(size)[i - (i > self.j)]

    def thresholds(self, bundle: frozenset) -> tuple[Sequence[Money], tuple[Money, ...]]:
        grid = self.crossing_values(len(bundle))
        if self.cfg.tie_rule is not TieRule.CANONICAL:
            return grid, grid
        masks, j, mask = self.instance.bid_masks, self.j, self.instance.mask_of(bundle)
        return [t for t, m in zip(grid, masks[:j] + masks[j + 1:]) if m & mask], grid

    def rerun(self, bundle: frozenset, amounts: Sequence[Fraction]) -> Optional[list]:
        if self.price is None:
            return None
        if self.order is None:
            ranking = _kept_ranking(self.instance, self.cfg)
            if ranking is None:
                return None
            at = ranking.order.index(self.j)
            self.ranking, self.order = ranking, ranking.order[:at] + ranking.order[at + 1:]
            self.neg_keys = neg_keys = ranking.neg_keys[:at] + ranking.neg_keys[at + 1:]
            self.ties = any(a == b for a, b in zip(neg_keys, neg_keys[1:]))
            self.granted = _walk_prefix(self.instance.bid_masks, self.order)
        ranking, neg_keys, granted = self.ranking, self.neg_keys, self.granted
        mask, last = self.instance.mask_of(bundle), len(neg_keys)
        # the instance's key of bid i is its order key times `ranking.scale`,
        # and bid j's order key is (num / d)**q / s**p: bid i ranks above j
        # exactly when its key exceeds num**q * scale / (d**q * s**p), or that
        # value's floor
        q, scale, below = ranking.q, ranking.scale, len(bundle) ** ranking.p
        denied = BidRerun(frozenset(), _free, self.ties)
        won = None
        answers: list[Optional[BidRerun]] = []
        for amount in amounts:
            num, den = amount.as_integer_ratio()
            floor, rest = divmod(num ** q * scale, den ** q * below)
            pos = bisect_left(neg_keys, -floor)
            if not rest and pos < last and neg_keys[pos] == -floor:
                answers.append(None)
            elif granted[pos] & mask:
                answers.append(denied)
            else:
                if won is None:
                    won = BidRerun(bundle, self.price(self, pos, mask) or _free, self.ties)
                answers.append(won)
        return answers


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
