"""The two-phase greedy mechanism.

Phase one ranks bids by descending norm; phase two walks the ranking and
grants every bid whose bundle is disjoint from all bundles granted so far.
A granted bid pays the declared value at which its norm would exactly match
the norm of its blocker: the first bid after it in the ranking that was
denied, conflicts with it, and conflicts with no other granted bid ranked
earlier.  Bids without a blocker, and denied bids, pay nothing.

The walk takes any order: the tie-order enumeration walks each resolution
of the norm ties.

`greedy_bid` gives bid j's per-bid object (`norm.NormBid`), which answers
a checker's reruns of one bundle, bid j replaced, with bid j's grant and
payment alone at each amount, read off the walk of the other bids: bid j
at position p is granted exactly when its bundle misses the goods that
walk grants before p, and a winner's blocker comes from the walk resumed
at p.  The payment is read off bid j's grid of crossing values only when
asked for, so a rerun that reads only the grant prices nothing.
`exact.clarke_greedy_bid` answers Clarke-with-greedy's reruns off the same
walk.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Mapping, Optional

from .errors import InvalidArgument
from .model import Allocation, AuctionInstance, Outcome, assemble_outcome
from .money import Money
from .norm import NormBid, NormConfig, RankedList, crossing_value, rank


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


def run_greedy(instance: AuctionInstance, cfg: NormConfig) -> Outcome:
    """Allocate greedily and charge each winner its blocker's crossing value."""
    allocation, trace = _walk(instance, rank(instance, cfg))
    return _priced(instance, allocation, trace, cfg.exponent)


def _priced(
    instance: AuctionInstance, allocation: Allocation, trace: GreedyTrace, exponent: Fraction
) -> Outcome:
    """The outcome of a walk, each winner charged its blocker's crossing
    value; raises `ExponentNotSupported` at the first winner, in grant
    order, whose size ratio power has no exact value."""
    bids = instance.bids
    payments = [Money.ZERO] * len(bids)
    for j, i in trace.blockers.items():
        if i is not None:
            payments[j] = crossing_value(bids[i], len(bids[j].bundle), exponent)
    return assemble_outcome(instance, allocation, tuple(payments), trace)


def _blocker_price(bid: NormBid, pos: int, mask: int) -> Optional[Callable[[], Money]]:
    """Bid j's payment granted at position `pos` of the walk without it
    with the goods `mask`: its blocker's crossing value, read from bid j's
    grid when asked for, or None without a blocker.  The blocker is the
    first later bid denied whose overlap with the goods granted so far lies
    inside bid j's bundle, so the walk resumes at `pos` only until it finds
    one."""
    masks, used = bid.instance.bid_masks, bid.granted[pos] | mask
    for i in bid.order[pos:]:
        overlap = used & masks[i]
        if not overlap:
            used |= masks[i]
        elif not overlap & ~mask:
            return partial(bid.crossing, i, mask.bit_count())
    return None


def greedy_bid(instance: AuctionInstance, j: int, cfg: NormConfig) -> NormBid:
    """Bid j of `instance` under `run_greedy` at cfg, answering its reruns
    without building the instances or their outcomes (`norm.NormBid`): a
    winner pays its blocker's crossing value.  It answers none when the
    exponent's denominator is above 2, where the full run prices every
    winner and may raise `ExponentNotSupported`.
    """
    return NormBid(instance, j, cfg, _blocker_price if cfg.exponent.denominator <= 2 else None)
