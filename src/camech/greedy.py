"""The two-phase greedy mechanism.

Phase one ranks bids by descending norm; phase two walks the ranking and
grants every bid whose bundle is disjoint from all bundles granted so far.
A granted bid pays the declared value at which its norm would exactly match
the norm of its blocker: the first bid after it in the ranking that was
denied, conflicts with it, and conflicts with no other granted bid ranked
earlier.  Bids without a blocker, and denied bids, pay nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional

from .errors import NotGranted
from .model import Allocation, AuctionInstance, Outcome, assemble_outcome
from .money import Money
from .norm import NormConfig, RankedList, bundle_ratio_power, rank


@dataclass(frozen=True, eq=False)
class GreedyTrace:
    """Execution record: the ranking used, grant order, and deny reasons."""

    ranking: RankedList
    granted_order: tuple[int, ...]
    blocked_by: Mapping[int, int]  # denied bid -> earliest granted conflicting bid
    blockers: Optional[Mapping[int, Optional[int]]] = None  # granted bid -> its blocker


def greedy_allocate(instance: AuctionInstance, cfg: NormConfig) -> tuple[Allocation, GreedyTrace]:
    """Rank, then grant greedily; records why each denied bid lost."""
    ranking = rank(instance, cfg)
    masks = instance.bid_masks
    used = 0
    granted: list[int] = []
    blocked: dict[int, int] = {}
    for j in ranking.order:
        m = masks[j]
        if used & m:
            for g in granted:
                if masks[g] & m:
                    blocked[j] = g
                    break
        else:
            used |= m
            granted.append(j)
    allocation = Allocation.of_indices(instance, granted)
    return allocation, GreedyTrace(ranking, tuple(granted), blocked)


def blocker(trace: GreedyTrace, instance: AuctionInstance, j: int) -> Optional[int]:
    """The first bid denied because of j alone, or None.

    Scans rank positions after j for a denied bid i whose bundle meets j's
    while meeting no other granted bid ranked before i.
    """
    granted_set = frozenset(trace.granted_order)
    if j not in granted_set:
        raise NotGranted(f"bid {j} was denied; it has no blocker")
    order = trace.ranking.order
    position = trace.ranking.position
    masks = instance.bid_masks
    mj = masks[j]
    for p in range(position[j] + 1, len(order)):
        i = order[p]
        if i in granted_set:
            continue
        mi = masks[i]
        if not mi & mj:
            continue
        clear = True
        for g in trace.granted_order:  # ascending rank positions
            if position[g] > p:
                break
            if g != j and masks[g] & mi:
                clear = False
                break
        if clear:
            return i
    return None


def run_greedy(instance: AuctionInstance, cfg: NormConfig) -> Outcome:
    """Allocate greedily and charge each winner its blocker's crossing value."""
    allocation, trace = greedy_allocate(instance, cfg)
    payments = [Money(0)] * len(instance.bids)
    blockers: dict[int, Optional[int]] = {}
    for j in trace.granted_order:
        i = blockers[j] = blocker(trace, instance, j)
        if i is not None:
            b = instance.bids[i]
            payments[j] = b.amount * bundle_ratio_power(
                len(instance.bids[j].bundle), len(b.bundle), cfg.exponent
            )
    trace = replace(trace, blockers=blockers)
    return assemble_outcome(instance, allocation, tuple(payments), trace)
