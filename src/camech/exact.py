"""Exact winner determination, Clarke payments, and the full GVA baseline.

Two independent solvers compute the value-maximising conflict-free set of
bids: a brute-force sweep over bid subsets (the oracle) and a dynamic
program over goods subsets.  Both are exactness-restricted (winners receive
exactly their declared bundles) and break ties between co-optimal solutions
by the lexicographically smallest set of granted bid indices, so payments
are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Sequence

from .errors import InstanceTooLarge
from .greedy import greedy_allocate
from .model import Allocation, AuctionInstance, Outcome, allocation_value, assemble_outcome
from .money import Money
from .norm import NormConfig


class SolverKind(Enum):
    BRUTE_FORCE_BID_SUBSETS = "brute"
    BITMASK_DP = "dp"


MAX_BRUTE_BIDS = 24
MAX_DP_GOODS = 24


@dataclass(frozen=True, eq=False)
class ExactSolution:
    allocation: Allocation
    value: Fraction
    optima_count: int

    @property
    def unique(self) -> bool:
        return self.optima_count == 1


def _solve_brute(masks: Sequence[int], weights) -> tuple[int, tuple[int, ...], int]:
    n = len(masks)
    best = 0
    best_set: tuple[int, ...] = ()
    count = 1  # the empty allocation
    for sub in range(1, 1 << n):
        goods = 0
        value = 0
        s = sub
        ok = True
        while s:
            low = s & -s
            i = low.bit_length() - 1
            s ^= low
            m = masks[i]
            if goods & m:
                ok = False
                break
            goods |= m
            value = value + weights[i]
        if not ok:
            continue
        if value > best:
            best = value
            best_set = _indices(sub)
            count = 1
        elif value == best:
            count += 1
            key = _indices(sub)
            if key < best_set:
                best_set = key
    return best, best_set, count


def _indices(sub: int) -> tuple[int, ...]:
    out = []
    while sub:
        low = sub & -sub
        out.append(low.bit_length() - 1)
        sub ^= low
    return tuple(out)


def _solve_dp(masks: Sequence[int], weights, k: int) -> tuple[int, tuple[int, ...], int]:
    n = len(masks)
    size = 1 << k
    full = size - 1
    # suffix tables: best[j][S] = max value using bids j.. with goods S free
    best = [None] * (n + 1)
    cnt = [None] * (n + 1)
    best[n] = [0] * size
    cnt[n] = [1] * size
    for j in range(n - 1, -1, -1):
        prev = best[j + 1]
        prev_cnt = cnt[j + 1]
        cur = prev.copy()
        cur_cnt = prev_cnt.copy()
        m = masks[j]
        w = weights[j]
        s = m
        while True:  # every superset of m
            take = w + prev[s ^ m]
            if take > cur[s]:
                cur[s] = take
                cur_cnt[s] = prev_cnt[s ^ m]
            elif take == cur[s]:
                cur_cnt[s] = cur_cnt[s] + prev_cnt[s ^ m]
            if s == full:
                break
            s = (s + 1) | m
        best[j] = cur
        cnt[j] = cur_cnt
    # lexicographically smallest optimal set: take a bid whenever doing so
    # still reaches the optimum; stop once the remaining optimum is zero
    chosen: list[int] = []
    s = full
    for j in range(n):
        if not best[j][s] > 0:
            break
        m = masks[j]
        if m & s == m and weights[j] + best[j + 1][s ^ m] == best[j][s]:
            chosen.append(j)
            s ^= m
    return best[0][full], tuple(chosen), cnt[0][full]


def optimal_allocation(instance: AuctionInstance, solver: SolverKind) -> ExactSolution:
    """Value-maximising conflict-free bid set, deterministically tie-broken."""
    n = len(instance.bids)
    k = len(instance.goods)
    integer = instance.integer_amounts
    masks = instance.bid_masks
    if solver is SolverKind.BRUTE_FORCE_BID_SUBSETS:
        if n > MAX_BRUTE_BIDS:
            raise InstanceTooLarge(f"brute-force solver handles at most {MAX_BRUTE_BIDS} bids")
        value, indices, count = _solve_brute(masks, integer.weights)
    else:
        if k > MAX_DP_GOODS:
            raise InstanceTooLarge(f"bitmask DP handles at most {MAX_DP_GOODS} goods")
        value, indices, count = _solve_dp(masks, integer.weights, k)
    value = Fraction(value, integer.denominator)
    return ExactSolution(Allocation.of_indices(instance, indices), value, count)


def _clarke(
    instance: AuctionInstance, allocation: Allocation, total: Fraction,
    value_without_j: Callable[[AuctionInstance], Fraction],
) -> tuple[Money, ...]:
    """Bid j pays `value_without_j` of the instance with j's amount at zero,
    minus what the other bids get of `total`, the value of `allocation`."""
    payments = []
    for j, b in enumerate(instance.bids):
        granted = j in allocation.grants
        others = total - b.amount if granted else total
        p = value_without_j(instance.with_amount(j, 0)) - others
        if not granted and p != 0:
            raise AssertionError("a losing bid computed a non-zero Clarke payment")
        payments.append(Money(p))
    return tuple(payments)


def run_gva(instance: AuctionInstance, solver: SolverKind) -> Outcome:
    """Efficient allocation plus Clarke payments."""
    actual = optimal_allocation(instance, solver)
    payments = _clarke(
        instance, actual.allocation, actual.value,
        lambda inst: optimal_allocation(inst, solver).value,
    )
    meta = {"unique_optimum": actual.unique, "solver": solver.value}
    return assemble_outcome(instance, actual.allocation, payments, None, meta)


def clarke_with_greedy(instance: AuctionInstance, cfg: NormConfig) -> Outcome:
    """Greedy allocation billed with the Clarke formula; a known-broken pairing.

    Kept as a runnable mechanism so the axiom and deviation checkers have a
    concrete failure to exhibit.  Payments can exceed the declared amount
    and are not clamped.
    """
    allocation, trace = greedy_allocate(instance, cfg)
    payments = _clarke(
        instance, allocation, allocation_value(instance, allocation),
        lambda inst: allocation_value(inst, greedy_allocate(inst, cfg)[0]),
    )
    return assemble_outcome(instance, allocation, payments, trace)
