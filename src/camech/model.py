"""Core auction data: goods, single-bundle bids, instances, allocations, outcomes.

Declared amounts are `Fraction`s; `Money` holds only what mechanisms compute
from them: payments, revenue and utilities.  All values are immutable after
construction and every operation is a pure function, so everything here can
be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple, Optional

from .errors import InvalidArgument
from .money import Money

Good = str

#: Bundles are held as fixed-width bitsets, one bit per good.
MAX_GOODS = 63


@dataclass(frozen=True)
class SingleMindedBid:
    """A bidder's declared type: one bundle of goods and one rational amount.

    The amount is a `Fraction` (an `int` is converted); anything else, a
    `Money` included, raises `InvalidArgument`.  `is_reserve` marks a bid
    placed by the auctioneer itself; a granted reserve bid leaves its goods
    unsold and contributes nothing to revenue.
    """

    bidder: str
    bundle: frozenset[Good]
    amount: Fraction
    is_reserve: bool = False

    def __post_init__(self):
        if not isinstance(self.bundle, frozenset):
            object.__setattr__(self, "bundle", frozenset(self.bundle))
        amount = self.amount
        if type(amount) is not Fraction:
            if isinstance(amount, bool) or not isinstance(amount, (int, Fraction)):
                raise InvalidArgument(
                    f"a bid amount must be a Fraction or an int, not {type(amount).__name__}"
                )
            object.__setattr__(self, "amount", Fraction(amount))

    def with_amount(self, amount) -> "SingleMindedBid":
        return SingleMindedBid(self.bidder, self.bundle, amount, self.is_reserve)


class IntegerAmounts(NamedTuple):
    """Rational amounts as integer weights over one common denominator.

    Bid j's amount is `weights[j] / denominator`, in lowest terms: no smaller
    denominator holds every amount.  Weights compare, add and tie exactly
    as the amounts do.
    """

    denominator: int
    weights: tuple[int, ...]

    @classmethod
    def of(cls, amounts: list[Fraction]) -> "IntegerAmounts":
        d = lcm(*(a.denominator for a in amounts))
        return cls(d, tuple(a.numerator * (d // a.denominator) for a in amounts))

    def replaced(self, j: int, amount: Fraction) -> "IntegerAmounts":
        """The same form with amount j replaced, rescaled by the lcm of the
        denominators and reduced back to lowest terms."""
        d = lcm(self.denominator, amount.denominator)
        scale = d // self.denominator
        weights = [w * scale for w in self.weights]
        weights[j] = amount.numerator * (d // amount.denominator)
        g = gcd(d, *weights)
        if g != 1:
            d //= g
            weights = [w // g for w in weights]
        return IntegerAmounts(d, tuple(weights))


@dataclass(frozen=True, eq=False)
class AuctionInstance:
    """A goods universe, a list of bids, and optionally the bidders' true types.

    Each bid entry is one single-minded agent.  A complex player is
    represented by several entries whose bidder ids share an owner prefix
    ("green:a", "green:ab", ...).
    """

    goods: tuple[Good, ...]
    bids: tuple[SingleMindedBid, ...]
    true_types: Optional[Mapping[str, SingleMindedBid]] = None

    def __post_init__(self):
        if not isinstance(self.goods, tuple):
            object.__setattr__(self, "goods", tuple(self.goods))
        if not isinstance(self.bids, tuple):
            object.__setattr__(self, "bids", tuple(self.bids))
        if self.true_types is not None and not isinstance(self.true_types, dict):
            object.__setattr__(self, "true_types", dict(self.true_types))

    @cached_property
    def good_index(self) -> dict[Good, int]:
        return {g: i for i, g in enumerate(self.goods)}

    @cached_property
    def bid_masks(self) -> tuple[int, ...]:
        return tuple(self.mask_of(b.bundle) for b in self.bids)

    @cached_property
    def all_amounts_rational(self) -> bool:
        # always true now that amounts are `Fraction`s by type; kept as a
        # cached property because perfbench's tracer reads its `.func`
        return True

    @cached_property
    def integer_amounts(self) -> IntegerAmounts:
        """The amounts over their common denominator."""
        return IntegerAmounts.of([b.amount for b in self.bids])

    def mask_of(self, bundle: Iterable[Good]) -> int:
        index = self.good_index
        mask = 0
        for g in bundle:
            mask |= 1 << index[g]
        return mask

    def with_bid(self, j: int, new_bid: SingleMindedBid) -> "AuctionInstance":
        """Copy of the instance with bid j replaced; caches are reseeded."""
        bids = list(self.bids)
        bids[j] = new_bid
        child = AuctionInstance(self.goods, tuple(bids), self.true_types)
        cache = child.__dict__
        cache["good_index"] = self.good_index
        masks = list(self.bid_masks)
        masks[j] = self.mask_of(new_bid.bundle)
        cache["bid_masks"] = tuple(masks)
        cache["integer_amounts"] = self.integer_amounts.replaced(j, new_bid.amount)
        return child

    def with_amount(self, j: int, amount) -> "AuctionInstance":
        return self.with_bid(j, self.bids[j].with_amount(amount))

    def without_true_types(self) -> "AuctionInstance":
        if self.true_types is None:
            return self
        child = AuctionInstance(self.goods, self.bids, None)
        child.__dict__["good_index"] = self.good_index
        child.__dict__["bid_masks"] = self.bid_masks
        return child

    def assuming_truthful(self) -> "AuctionInstance":
        """Copy whose true types are exactly the declared bids."""
        return AuctionInstance(self.goods, self.bids, {b.bidder: b for b in self.bids})


@dataclass(frozen=True)
class Allocation:
    """Map from bid index to the bundle actually handed over.

    Mechanisms in this package always grant full declared bundles; the type
    still allows arbitrary bundles so that the exactness checker can describe
    (and tests can plant) a broken mechanism granting partial ones.
    """

    grants: Mapping[int, frozenset[Good]]

    def __post_init__(self):
        if not isinstance(self.grants, dict):
            object.__setattr__(self, "grants", dict(self.grants))

    @classmethod
    def of_indices(cls, instance: AuctionInstance, indices: Iterable[int]) -> "Allocation":
        return cls({j: instance.bids[j].bundle for j in indices})

    @property
    def granted(self) -> frozenset[int]:
        return frozenset(self.grants)

    def bundle_granted(self, j: int) -> frozenset[Good]:
        return self.grants.get(j, frozenset())

    def is_conflict_free(self) -> bool:
        seen: set[Good] = set()
        for bundle in self.grants.values():
            if seen & bundle:
                return False
            seen |= bundle
        return True

    def is_exact(self, instance: AuctionInstance) -> bool:
        return all(bundle == instance.bids[j].bundle for j, bundle in self.grants.items())


@dataclass(frozen=True, eq=False)
class Outcome:
    """Result of running a mechanism: who got what, who pays what."""

    allocation: Allocation
    payments: tuple[Money, ...]
    revenue: Money
    utilities: Optional[Mapping[int, Money]] = None
    trace: object = None
    meta: Optional[Mapping[str, object]] = None

    def is_granted(self, j: int) -> bool:
        return j in self.allocation.grants


@dataclass(frozen=True)
class Violation:
    bid_index: Optional[int]
    reason: str

    def __str__(self):
        where = "instance" if self.bid_index is None else f"bid {self.bid_index}"
        return f"{where}: {self.reason}"


def validate_instance(instance: AuctionInstance) -> list[Violation]:
    """Structural checks; returns one entry per violation, empty when valid."""
    out: list[Violation] = []
    if len(set(instance.goods)) != len(instance.goods):
        out.append(Violation(None, "duplicate good ids"))
    if len(instance.goods) > MAX_GOODS:
        out.append(Violation(None, f"more than {MAX_GOODS} goods"))
    goods = set(instance.goods)
    seen_bidders: set[str] = set()
    for j, b in enumerate(instance.bids):
        if not b.bundle:
            out.append(Violation(j, "empty bundle"))
        unknown = b.bundle - goods
        if unknown:
            out.append(Violation(j, f"unknown good: {', '.join(sorted(unknown))}"))
        if b.amount < 0:
            out.append(Violation(j, "negative amount"))
        if b.bidder in seen_bidders:
            out.append(Violation(j, f"duplicate bidder id: {b.bidder}"))
        seen_bidders.add(b.bidder)
    for name, t in (instance.true_types or {}).items():
        if name not in seen_bidders:
            out.append(Violation(None, f"true type for unknown bidder: {name}"))
        if not t.bundle or t.bundle - goods:
            out.append(Violation(None, f"true type for {name} uses an invalid bundle"))
        if t.amount < 0:
            out.append(Violation(None, f"true type for {name} has a negative amount"))
    return out


def conflicts(b1: SingleMindedBid, b2: SingleMindedBid) -> bool:
    """Two bids conflict when their bundles intersect."""
    return bool(b1.bundle & b2.bundle)


def bidder_utility(true_type: SingleMindedBid, granted_bundle: Iterable[Good], payment: Money) -> Money:
    """Value received minus payment, under single-minded valuation.

    The true bundle is worth its amount when fully covered by the granted
    bundle (free disposal) and nothing otherwise.
    """
    granted = frozenset(granted_bundle)
    value = true_type.amount if true_type.bundle <= granted else Money(0)
    return value - payment


def allocation_value(instance: AuctionInstance, allocation: Allocation) -> Fraction:
    """Sum of the declared amounts of the granted bids."""
    return sum((instance.bids[j].amount for j in allocation.grants), Fraction(0))


def assemble_outcome(
    instance: AuctionInstance,
    allocation: Allocation,
    payments: tuple[Money, ...],
    trace: object = None,
    meta: Optional[Mapping[str, object]] = None,
) -> Outcome:
    """Fill in revenue (non-reserve payments) and, when true types are known, utilities."""
    revenue = sum((payments[j] for j, b in enumerate(instance.bids) if not b.is_reserve), Money(0))
    utilities: Optional[dict[int, Money]] = None
    if instance.true_types is not None:
        utilities = {}
        for j, b in enumerate(instance.bids):
            if b.is_reserve:
                continue
            true_type = instance.true_types.get(b.bidder, b)
            utilities[j] = bidder_utility(true_type, allocation.bundle_granted(j), payments[j])
    return Outcome(allocation, payments, revenue, utilities, trace, meta)
