"""The two-phase greedy mechanism.

Phase one ranks bids by descending norm; phase two walks the ranking and
grants every bid whose bundle is disjoint from all bundles granted so far.
A granted bid pays the declared value at which its norm would exactly match
the norm of its blocker: the first bid after it in the ranking that was
denied, conflicts with it, and conflicts with no other granted bid ranked
earlier.  Bids without a blocker, and denied bids, pay nothing.

The walk takes any order: the tie-order enumeration walks each resolution
of the norm ties.

`rerun_greedy` answers a checker's reruns of one bundle, bid j replaced,
with bid j's grant and payment alone at each amount, read off the walk of
the other bids (`answer_reruns`): bid j at position p is granted exactly
when its bundle misses the goods that walk grants before p, and a winner's
blocker comes from the walk resumed at p.  The payment is priced only when
read, so a rerun that reads only the grant prices nothing.
`exact.rerun_clarke_greedy` answers Clarke-with-greedy's reruns off the
same walk.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Mapping, Optional

from .errors import InvalidArgument
from .model import Allocation, AuctionInstance, BidRerun, Outcome, assemble_outcome
from .money import Money
from .norm import NormConfig, RankedList, crossing_value, place, rank


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


def _free() -> Money:
    return Money.ZERO


#: The order of the last ranking without a bid j that `answer_reruns` was
#: given, and the goods its walk grants before each position and after the
#: last.  The checkers rerun one bid j many times in a row, so the walk is
#: made once per bid j.  Each such order is a tuple of its own, held here
#: so that its id is not reused, and holding it keeps no keys alive; only
#: the empty order is shared, and its walk grants nothing whatever the
#: bids.  The pair is replaced by one assignment, so a reader sees the old
#: pair or the new one, each correct for the order it names.
_last_walk: tuple[tuple[int, ...], list[int]] = ((), [0])


def answer_reruns(
    instance: AuctionInstance, cfg: NormConfig, j: int, bundle: frozenset,
    amounts: Sequence[Fraction],
    price: Callable[[Sequence[int], int, int], Callable[[], Money]],
) -> Optional[list[Optional[BidRerun]]]:
    """Bid j's part of a norm mechanism's run on `instance` with bid j
    moved to `bundle`, at each of `amounts`, read off the walk of the other
    bids in the instance's order, the walk greedy and Clarke-with-greedy
    both allocate by.

    Bid j goes in at its `place`, p, for each amount.  The bids before p are
    granted as in the walk without bid j, so bid j is granted exactly when
    its bundle misses the goods granted there.  A granted bid j's payment
    comes from `price(rest, used, mask)`: the bids after it, the goods
    granted before it and its own.  The amounts denied share one answer.
    Each entry is None where bid j's key ties another's (the full run
    breaks the tie or raises), and the whole answer None when the
    instance's ranking raised `TiesPresent`.
    """
    global _last_walk
    placed = place(instance, cfg, j, len(bundle), amounts)
    if placed is None:
        return None
    without, positions = placed
    order, masks, mask = without.order, instance.bid_masks, instance.mask_of(bundle)
    walked, granted = _last_walk
    if walked is not order:
        used, granted = 0, [0]
        for i in order:
            if not used & masks[i]:
                used |= masks[i]
            granted.append(used)
        _last_walk = order, granted
    denied = BidRerun(frozenset(), _free, without.ties)
    answers: list[Optional[BidRerun]] = []
    for pos in positions:
        if pos is None:
            answers.append(None)
        elif granted[pos] & mask:
            answers.append(denied)
        else:
            answers.append(BidRerun(bundle, price(order[pos:], granted[pos], mask), without.ties))
    return answers


def rerun_greedy(
    instance: AuctionInstance, j: int, bundle: frozenset, amounts: Sequence[Fraction],
    cfg: NormConfig,
) -> Optional[list[Optional[BidRerun]]]:
    """Bid j's part of `run_greedy(instance.with_bid(j, bid), cfg)` for bid
    j moved to `bundle` at each of `amounts`, without building that
    instance or its outcome (`answer_reruns`).

    A winner's blocker is the first later bid denied whose overlap with
    the goods granted so far lies inside bid j's bundle, so the walk
    resumes at bid j's place only until it finds one.  The payment is
    priced when read.  None as a whole also when the exponent's
    denominator is above 2, where the full run prices every winner and may
    raise `ExponentNotSupported`.
    """
    if cfg.exponent.denominator > 2:
        return None
    masks, size = instance.bid_masks, len(bundle)

    def price(rest: Sequence[int], used: int, mask: int) -> Callable[[], Money]:
        used |= mask
        for i in rest:
            overlap = used & masks[i]
            if not overlap:
                used |= masks[i]
            elif not overlap & ~mask:
                return partial(crossing_value, instance.bids[i], size, cfg.exponent)
        return _free

    return answer_reruns(instance, cfg, j, bundle, amounts, price)
