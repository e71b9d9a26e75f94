"""Core auction data: goods, single-bundle bids, instances, allocations, outcomes.

Declared amounts are `Fraction`s; `Money` holds only what mechanisms compute
from them: payments, revenue and utilities.  All values are immutable after
construction and every operation is a pure function, so everything here can
be shared freely across threads.  An `Outcome`'s revenue and utilities are
computed on first read and cached; that changes no value, since each is a
pure function of the outcome's inputs, and two threads racing to fill a
cache store equal values, so an outcome stays immutable and thread-safe.
The same holds for an instance's caches; `norm` documents the rankings it
keeps in `rankings`.

Records built once per mechanism rerun (bids, instances, allocations and
outcomes here; rankings and traces in `norm` and `greedy`) are frozen
dataclasses with hand-written `__init__`s.  A bid checks and sets its own
fields, with no `__post_init__` call, and keeps the compact attribute
storage that instance pools holding bids by the thousand rely on.  The
short-lived records fill their fields in one `__dict__` update instead of
one `object.__setattr__` per field, and a `with_bid` child copies its
parent's normalised fields without any `__init__`; so does a bid's
`with_amount` copy at a `Fraction` amount, which reruns build and drop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import InvalidArgument
from .money import Money

Good = str

#: Bundles are held as fixed-width bitsets, one bit per good.
MAX_GOODS = 63

_set = object.__setattr__


@dataclass(frozen=True, init=False)
class SingleMindedBid:
    """A bidder's declared type: one bundle of goods and one rational amount.

    The amount is a `Fraction` (an `int` is converted); anything else, a
    `Money` included, raises `InvalidArgument`.  Any iterable bundle is
    held as a `frozenset`.  `is_reserve` marks a bid placed by the
    auctioneer itself; a granted reserve bid leaves its goods unsold and
    contributes nothing to revenue.
    """

    bidder: str
    bundle: frozenset[Good]
    amount: Fraction
    is_reserve: bool = False

    def __init__(
        self, bidder: str, bundle: Iterable[Good], amount: Fraction, is_reserve: bool = False
    ):
        if not isinstance(bundle, frozenset):
            bundle = frozenset(bundle)
        if type(amount) is not Fraction:
            if isinstance(amount, bool) or not isinstance(amount, (int, Fraction)):
                raise InvalidArgument(
                    f"a bid amount must be a Fraction or an int, not {type(amount).__name__}"
                )
            amount = Fraction(amount)
        _set(self, "bidder", bidder)
        _set(self, "bundle", bundle)
        _set(self, "amount", amount)
        _set(self, "is_reserve", is_reserve)

    def with_amount(self, amount) -> "SingleMindedBid":
        if type(amount) is not Fraction:
            return SingleMindedBid(self.bidder, self.bundle, amount, self.is_reserve)
        # this bid's other fields are normalised already, so a `Fraction`
        # amount skips the validating __init__
        copy = object.__new__(SingleMindedBid)
        copy.__dict__.update(
            bidder=self.bidder, bundle=self.bundle, amount=amount, is_reserve=self.is_reserve
        )
        return copy


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
        return IntegerAmounts.of([b.amount for b in self.bids])

    @cached_property
    def rankings(self) -> list:
        """The rankings `norm.NormBid` places a replaced bid among to answer
        reruns of this instance: `(NormConfig, ranking)` pairs, one per
        configuration, each shared by every bid's per-bid object."""
        return []

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
        masks = list(self.bid_masks)
        masks[j] = self.mask_of(new_bid.bundle)
        # this instance's fields are normalised already, so the child skips
        # the dataclass __init__ and __post_init__
        child = object.__new__(AuctionInstance)
        child.__dict__.update(
            goods=self.goods, bids=tuple(bids), true_types=self.true_types,
            good_index=self.good_index, bid_masks=tuple(masks),
        )
        return child

    def with_amount(self, j: int, amount) -> "AuctionInstance":
        return self.with_bid(j, self.bids[j].with_amount(amount))

    def assuming_truthful(self) -> "AuctionInstance":
        """Copy whose true types are exactly the declared bids."""
        return AuctionInstance(self.goods, self.bids, {b.bidder: b for b in self.bids})


@dataclass(frozen=True, init=False)
class Allocation:
    """Map from bid index to the bundle actually handed over.

    Mechanisms in this package always grant full declared bundles; the type
    still allows arbitrary bundles so that the exactness checker can describe
    (and tests can plant) a broken mechanism granting partial ones.
    """

    grants: Mapping[int, frozenset[Good]]

    def __init__(self, grants: Mapping[int, frozenset[Good]]):
        self.__dict__["grants"] = grants if isinstance(grants, dict) else dict(grants)

    @classmethod
    def of_indices(cls, instance: AuctionInstance, indices: Iterable[int]) -> "Allocation":
        return cls({j: instance.bids[j].bundle for j in indices})

    @property
    def granted(self) -> frozenset[int]:
        return frozenset(self.grants)

    def bundle_granted(self, j: int) -> frozenset[Good]:
        return self.grants.get(j, frozenset())


@dataclass(frozen=True, eq=False, init=False)
class Outcome:
    """Result of running a mechanism: who got what, who pays what.

    `revenue` and `utilities` are computed from the payments on first read
    and cached.  `instance` is the instance the mechanism ran on; its reserve
    flags keep bids out of revenue and its true types, when known, value
    the utilities.  Build one with `assemble_outcome`.
    """

    instance: AuctionInstance
    allocation: Allocation
    payments: Sequence[Money]
    trace: object = None
    meta: Optional[Mapping[str, object]] = None

    def __init__(
        self, instance: AuctionInstance, allocation: Allocation, payments: Sequence[Money],
        trace: object = None, meta: Optional[Mapping[str, object]] = None,
    ):
        self.__dict__.update(
            instance=instance, allocation=allocation, payments=payments, trace=trace, meta=meta
        )

    def is_granted(self, j: int) -> bool:
        return j in self.allocation.grants

    @cached_property
    def revenue(self) -> Money:
        """The sum of the non-reserve payments."""
        payments = self.payments
        return sum(
            (payments[j] for j, b in enumerate(self.instance.bids) if not b.is_reserve), Money(0)
        )

    @cached_property
    def utilities(self) -> Optional[dict[int, Money]]:
        """Each non-reserve bid's utility under its true type; None when the
        instance has no true types."""
        instance = self.instance
        if instance.true_types is None:
            return None
        utilities = {}
        for j, b in enumerate(instance.bids):
            if b.is_reserve:
                continue
            true_type = instance.true_types.get(b.bidder, b)
            utilities[j] = bidder_utility(
                true_type, self.allocation.bundle_granted(j), self.payments[j]
            )
        return utilities


class BidRerun(NamedTuple):
    """Bid j's part of one mechanism run on an instance with bid j replaced:
    the bundle it was granted (empty when denied), a function of no
    arguments returning its payment, so that a reader of the grant alone
    prices nothing, and whether the run's ranking had tied norms."""

    bundle: frozenset[Good]
    price: Callable[[], Money]
    had_ties: bool


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


def bidder_utility(true_type: SingleMindedBid, granted_bundle: Iterable[Good], payment: Money) -> Money:
    """Value received minus payment, under single-minded valuation.

    The true bundle is worth its amount when fully covered by the granted
    bundle (free disposal) and nothing otherwise.
    """
    if true_type.bundle <= frozenset(granted_bundle):
        return true_type.amount - payment
    return -payment


def allocation_value(instance: AuctionInstance, allocation: Allocation) -> Fraction:
    """Sum of the declared amounts of the granted bids."""
    return sum((instance.bids[j].amount for j in allocation.grants), Fraction(0))


def assemble_outcome(
    instance: AuctionInstance,
    allocation: Allocation,
    payments: Sequence[Money],
    trace: object = None,
    meta: Optional[Mapping[str, object]] = None,
) -> Outcome:
    """The outcome of `instance`; revenue and utilities follow from the
    payments when first read."""
    return Outcome(instance, allocation, payments, trace, meta)
