"""The two-phase greedy mechanism.

Phase one ranks bids by descending norm; phase two walks the ranking and
grants every bid whose bundle is disjoint from all bundles granted so far.
A granted bid pays the declared value at which its norm would exactly match
the norm of its blocker: the first bid after it in the ranking that was
denied, conflicts with it, and conflicts with no other granted bid ranked
earlier.  Bids without a blocker, and denied bids, pay nothing.  A
payment is computed when it is first read, so a rerun that reads only the
allocation prices nothing.

The walk takes any order: the tie-order enumeration walks each resolution
of the norm ties, and Clarke-with-greedy walks its ranking without bid j.

`rerun_greedy` answers a checker's rerun, bid j replaced, with bid j's
grant and payment alone, read off the walk of the other bids: bid j at
position p is granted exactly when its bundle misses the goods that walk
grants before p, and a winner's blocker comes from the walk resumed at p.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import index
from typing import Mapping, Optional

from .errors import InvalidArgument
from .model import (
    Allocation, AuctionInstance, BidRerun, Outcome, SingleMindedBid, assemble_outcome,
)
from .money import Money
from .norm import NormConfig, RankedList, _Without, bundle_ratio_power, crossing_value, place, rank


@dataclass(frozen=True, eq=False, init=False)
class GreedyTrace:
    """Execution record: the ranking used, deny reasons, and each winner's blocker."""

    ranking: RankedList
    blocked_by: Mapping[int, int]  # denied bid -> earliest granted conflicting bid
    blockers: Mapping[int, Optional[int]]  # granted bid, in grant order -> its blocker

    def __init__(
        self, ranking: RankedList, blocked_by: Mapping[int, int],
        blockers: Mapping[int, Optional[int]],
    ):
        self.__dict__.update(ranking=ranking, blocked_by=blocked_by, blockers=blockers)


def greedy_allocate(instance: AuctionInstance, cfg: NormConfig) -> tuple[Allocation, GreedyTrace]:
    """Rank, then grant greedily; records why each denied bid lost."""
    return _walk(instance, rank(instance, cfg))


def _walk(instance: AuctionInstance, ranking: RankedList) -> tuple[Allocation, GreedyTrace]:
    """Grant along `ranking.order` every bid disjoint from the grants so far.

    A denied bid meeting exactly one granted bid is that bid's blocker when
    the bid has none yet: the bids granted so far are exactly the grants
    ranked before it.  Granted bundles are disjoint, so the walk needs no
    list of every granted bid a denied bid meets.  The first one in grant
    order is the bid it is `blocked_by`, and the scan stops there; it is
    the only one exactly when the denied bid's overlap with all granted
    goods lies inside its bundle.
    """
    bids = instance.bids
    masks = instance.bid_masks
    used = 0
    grants: dict[int, frozenset] = {}
    blocked: dict[int, int] = {}
    blockers: dict[int, Optional[int]] = {}
    for j in ranking.order:
        m = masks[j]
        overlap = used & m
        if overlap:
            for g in blockers:
                if masks[g] & m:
                    break
            blocked[j] = g
            if not overlap & ~masks[g] and blockers[g] is None:
                blockers[g] = j
        else:
            used |= m
            blockers[j] = None
            grants[j] = bids[j].bundle
    return Allocation(grants), GreedyTrace(ranking, blocked, blockers)


def blocker(trace: GreedyTrace, j: int) -> Optional[int]:
    """The first bid denied because of granted bid j alone, or None."""
    try:
        return trace.blockers[j]
    except KeyError:
        raise InvalidArgument(f"bid {j} was denied; it has no blocker") from None


class GreedyPayments(Sequence):
    """Bid j's payment, computed when `self[j]` is first read and then cached.

    A winner pays its blocker's crossing value at the winner's bundle size;
    a loser, or a winner without a blocker, pays zero.
    """

    __slots__ = ("_bids", "_blockers", "_exponent", "_prices")

    def __init__(
        self, bids: tuple[SingleMindedBid, ...], blockers: Mapping[int, Optional[int]],
        exponent: Fraction,
    ):
        self._bids = bids
        self._blockers = blockers
        self._exponent = exponent
        self._prices: dict[int, Money] = {}

    def __len__(self) -> int:
        return len(self._bids)

    def __getitem__(self, j) -> Money:
        if type(j) is not int or not 0 <= j < len(self._bids):
            n = len(self._bids)
            j = index(j)
            if j < 0:
                j += n
            if not 0 <= j < n:
                raise IndexError("payment index out of range")
        price = self._prices.get(j)
        if price is None:
            i = self._blockers.get(j)
            bids = self._bids
            price = (
                Money.ZERO if i is None
                else crossing_value(bids[i], len(bids[j].bundle), self._exponent)
            )
            self._prices[j] = price
        return price


def run_greedy(instance: AuctionInstance, cfg: NormConfig) -> Outcome:
    """Allocate greedily and charge each winner its blocker's crossing value."""
    allocation, trace = _walk(instance, rank(instance, cfg))
    return _priced(instance, allocation, trace, cfg.exponent)


def _priced(
    instance: AuctionInstance, allocation: Allocation, trace: GreedyTrace, exponent: Fraction
) -> Outcome:
    """The outcome of a walk, each winner charged its blocker's crossing value.

    The crossing values are computed on first read, but their size ratio
    powers are looked up here, so an exponent without an exact payment
    raises `ExponentNotSupported` from this call.  A power has a closed form
    whenever the exponent's denominator q is 1 or 2, so the lookups run only
    when q > 2.
    """
    bids = instance.bids
    q = exponent.denominator
    if q > 2:
        p = exponent.numerator
        for j, i in trace.blockers.items():
            if i is not None:
                bundle_ratio_power(len(bids[j].bundle), len(bids[i].bundle), p, q)
    payments = GreedyPayments(bids, trace.blockers, exponent)
    return assemble_outcome(instance, allocation, payments, trace)


def _free() -> Money:
    return Money.ZERO


def _granted_before(without: _Without, masks: Sequence[int]) -> list[int]:
    """The goods the walk of `without.order` grants before each position,
    and after the last: computed once per instance, norm and bid j."""
    granted = without.granted_before
    if granted is None:
        used = 0
        granted = [0]
        for i in without.order:
            if not used & masks[i]:
                used |= masks[i]
            granted.append(used)
        without.granted_before = granted
    return granted


def rerun_greedy(
    instance: AuctionInstance, j: int, bid: SingleMindedBid, cfg: NormConfig
) -> Optional[BidRerun]:
    """Bid j's part of `run_greedy(instance.with_bid(j, bid), cfg)`, without
    building that instance or its outcome.

    The other bids keep their order, and bid j goes in at its `place`, p.
    The bids before p are granted as in the walk without bid j, so bid j is
    granted exactly when it misses the goods granted there.  A winner's
    blocker is the first later bid denied whose overlap with the goods
    granted so far lies inside bid j's bundle, so the walk resumes at p
    only until it finds one.  The payment is priced when read.

    None when only the full run can say: bid j's key ties another's (the
    full run breaks the tie or raises), the instance's ranking raised
    `TiesPresent`, the instance is itself a `with_bid` copy (whose copies
    are sorted in full), or the exponent's denominator is above 2 (where
    `_priced` looks up every winner's ratio power and may raise).
    """
    if cfg.exponent.denominator > 2 or instance.origin is not None:
        return None
    placed = place(instance, cfg, j, bid)
    if placed is None:
        return None
    without, pos = placed
    masks = instance.bid_masks
    mask = instance.mask_of(bid.bundle)
    used = _granted_before(without, masks)[pos]
    if used & mask:
        return BidRerun(frozenset(), _free, without.ties)
    used |= mask
    for i in without.order[pos:]:
        overlap = used & masks[i]
        if not overlap:
            used |= masks[i]
        elif not overlap & ~mask:
            price = partial(crossing_value, instance.bids[i], len(bid.bundle), cfg.exponent)
            return BidRerun(bid.bundle, price, without.ties)
    return BidRerun(bid.bundle, _free, without.ties)
