"""Exact winner determination, Clarke payments, and the full GVA baseline.

Two independent solvers compute the value-maximising conflict-free set of
bids: a brute-force sweep over bid subsets (the oracle) and a dynamic
program over goods subsets.  Both are exactness-restricted (winners receive
exactly their declared bundles) and break ties between co-optimal solutions
by the lexicographically smallest set of granted bid indices, so payments
are deterministic.

The DP has one recurrence, `_value_tables`: the best value of bids j..
inside each goods set.  The solver reads the optimum and its winners off
those tables and counts the optima by walking forward over the optimal
choices only.  Clarke payments need the optimum without each bid j: the DP
route reads every one of them off the solve's own tables with one forward
walk over the goods sets that packings of the bids before j use, while the
brute-force oracle re-solves the instance with j's amount at zero, once per
bid.  The GVA's entry values come from the table of the bids other than j,
whatever the solver.  A DP over n bids keeps (n + 1) * 2**goods table
cells; past `MAX_DP_CELLS` it raises `InstanceTooLarge` before building any
table.  A brute-force solve visits 2**n bid subsets, a GVA run (n + 1) *
2**n; past `MAX_BRUTE_SUBSETS` either raises before the first solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import add
from typing import Sequence

from .errors import InstanceTooLarge
from .greedy import _walk, greedy_allocate
from .model import (
    MAX_GOODS, Allocation, AuctionInstance, Outcome, allocation_value, assemble_outcome,
)
from .money import Money
from .norm import NormConfig, RankedList


class SolverKind(Enum):
    BRUTE_FORCE_BID_SUBSETS = "brute"
    BITMASK_DP = "dp"


#: Most bid subsets one brute-force solve may visit, 2**bids, one GVA run,
#: (bids + 1) * 2**bids over its n + 1 solves, and the planned GVA reruns
#: of a check together (`axioms.check_planned_reruns`).  On a 2-vCPU host
#: a subset took 0.36-1.7 us, so this is at most about 7 s of work: a solve
#: of 22 bids and a run of 17 pass, and 23 and 18 bids are refused.
MAX_BRUTE_SUBSETS = 1 << 22
#: Most DP table cells, (bids + 1) * 2**goods: about 32 MB of table
#: pointers for one pass, plus at most three lists of 2**goods for the
#: GVA's forward walk.  It also bounds the goods at 22.
MAX_DP_CELLS = 1 << 22


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


def _value_tables(masks: Sequence[int], weights, k: int) -> list[list[int]]:
    """tables[j][S]: the best value of bids j.. that uses only the goods in S."""
    size = 1 << k
    full = size - 1
    tables = [[0] * size]
    for m, w in zip(reversed(masks), reversed(weights)):
        prev = tables[-1]
        cur = prev.copy()
        s = m
        while True:  # every superset of m
            take = w + prev[s ^ m]
            if take > cur[s]:
                cur[s] = take
            if s == full:
                break
            s = (s + 1) | m
        tables.append(cur)
    tables.reverse()
    return tables


def _solve_dp(
    tables: list[list[int]], masks: Sequence[int], weights,
) -> tuple[int, tuple[int, ...], int]:
    """The optimum, its lexicographically smallest winner set and the number
    of optima, read off `tables`, the `_value_tables` of the same bids."""
    full = len(tables[0]) - 1
    # lexicographically smallest optimal set: take a bid whenever doing so
    # still reaches the optimum; stop once the remaining optimum is zero
    chosen: list[int] = []
    s = full
    for j, (m, w) in enumerate(zip(masks, weights)):
        if not tables[j][s] > 0:
            break
        if m & s == m and w + tables[j + 1][s ^ m] == tables[j][s]:
            chosen.append(j)
            s ^= m
    # optima: follow only the optimal choices forward, counting the ways to
    # reach each set of goods still free after bids 0..j
    ways = {full: 1}
    for j, (m, w) in enumerate(zip(masks, weights)):
        here, after = tables[j], tables[j + 1]
        step: dict[int, int] = {}
        for s, count in ways.items():
            if after[s] == here[s]:
                step[s] = step.get(s, 0) + count
            if m & s == m and w + after[s ^ m] == here[s]:
                step[s ^ m] = step.get(s ^ m, 0) + count
        ways = step
    return tables[0][full], tuple(chosen), sum(ways.values())


def _check_cells(bids: int, k: int) -> None:
    """Raise `InstanceTooLarge` when the DP over `bids` bids and k goods
    passes `MAX_DP_CELLS`.  k is checked first, so a huge goods count is
    refused before anything is shifted or printed."""
    if k > MAX_GOODS or (bids + 1) << k > MAX_DP_CELLS:
        cells = (bids + 1) << k if k <= MAX_GOODS else f"{bids + 1} * 2**{k}"
        raise InstanceTooLarge(
            f"bitmask DP handles at most {MAX_DP_CELLS} table cells, (bids + 1) * 2**goods;"
            f" {bids} bids over {k} goods need {cells}"
        )


def _dp_tables(instance: AuctionInstance) -> list[list[int]]:
    """`_value_tables` over every bid, once `_check_cells` allows them."""
    k = len(instance.goods)
    _check_cells(len(instance.bids), k)
    return _value_tables(instance.bid_masks, instance.integer_amounts.weights, k)


def _solution(instance: AuctionInstance, value: int, indices, count: int) -> ExactSolution:
    value = Fraction(value, instance.integer_amounts.denominator)
    return ExactSolution(Allocation.of_indices(instance, indices), value, count)


def optimal_allocation(instance: AuctionInstance, solver: SolverKind) -> ExactSolution:
    """Value-maximising conflict-free bid set, deterministically tie-broken."""
    if solver is SolverKind.BRUTE_FORCE_BID_SUBSETS:
        if 1 << (n := len(instance.bids)) > MAX_BRUTE_SUBSETS:
            raise InstanceTooLarge(f"a brute-force solve of {n} bids visits 2**bids bid subsets;"
                                   f" at most {MAX_BRUTE_SUBSETS} are allowed")
        found = _solve_brute(instance.bid_masks, instance.integer_amounts.weights)
    else:
        tables = _dp_tables(instance)
        found = _solve_dp(tables, instance.bid_masks, instance.integer_amounts.weights)
    return _solution(instance, *found)


def _clarke(
    instance: AuctionInstance, allocation: Allocation, total: Fraction,
    value_without_j: Sequence[Fraction],
) -> tuple[Money, ...]:
    """Bid j pays `value_without_j[j]`, the value reached with j's amount at
    zero, minus what the other bids get of `total`, the value of `allocation`.

    A losing bid's payment must come out zero, which also checks each
    `value_without_j` entry of a losing bid against `total`.
    """
    payments = []
    for j, b in enumerate(instance.bids):
        granted = j in allocation.grants
        others = total - b.amount if granted else total
        p = value_without_j[j] - others
        if not granted and p != 0:
            raise AssertionError("a losing bid computed a non-zero Clarke payment")
        payments.append(Money(p))
    return tuple(payments)


def _dp_values_without_each(instance: AuctionInstance, tables: list[list[int]]) -> list[Fraction]:
    """OPT without bid j, for every j, from the solve's `_value_tables` and
    one forward walk over the bids.

    An allocation without j splits into a packing of bids 0..j-1 that uses
    exactly some goods u and a packing of bids j+1.. inside the rest, so OPT
    without j is the maximum over u of best[u] + tables[j + 1][full ^ u],
    `best` holding each reached u's best packing value (-1 if none reaches
    it).  Bid j then extends every reached set it is disjoint from.  A bid
    worth nothing extends nothing, since leaving it out loses no value, so
    every reached value is a sum of positive weights.
    """
    masks, weights = instance.bid_masks, instance.integer_amounts.weights
    full = len(tables[0]) - 1
    best = [-1] * (full + 1)
    best[0] = 0
    reached, free = [0], [full]  # the sets reached so far, and full ^ each
    without = []
    for j, (m, w) in enumerate(zip(masks, weights)):
        after = tables[j + 1]
        without.append(max(map(add, map(best.__getitem__, reached), map(after.__getitem__, free))))
        if w > 0:
            for u in reached[:]:
                if not u & m:
                    t, v = u | m, best[u] + w
                    if best[t] < 0:
                        reached.append(t)
                        free.append(full ^ t)
                        best[t] = v
                    elif v > best[t]:
                        best[t] = v
    d = instance.integer_amounts.denominator
    return [Fraction(v, d) for v in without]


def _entry_table(instance: AuctionInstance, j: int) -> list[int]:
    """Row 0 of `_value_tables` over every bid but j: the others' best value
    inside each goods set, in the instance's integer weights.

    Bid j with bundle B enters the optimal allocation at the value
    T[full] - T[full ^ mask(B)], the others' optimum less their best on the
    goods B leaves free; for a winning j's own bundle that is its Clarke
    payment.
    """
    k = len(instance.goods)
    _check_cells(len(instance.bids) - 1, k)
    masks, weights = instance.bid_masks, instance.integer_amounts.weights
    return _value_tables(masks[:j] + masks[j + 1:], weights[:j] + weights[j + 1:], k)[0]


def run_gva(instance: AuctionInstance, solver: SolverKind) -> Outcome:
    """Efficient allocation plus Clarke payments."""
    if solver is SolverKind.BITMASK_DP:
        tables = _dp_tables(instance)
        masks, weights = instance.bid_masks, instance.integer_amounts.weights
        actual = _solution(instance, *_solve_dp(tables, masks, weights))
        without = _dp_values_without_each(instance, tables)
    else:
        n = len(instance.bids)
        if (n + 1) << n > MAX_BRUTE_SUBSETS:
            raise InstanceTooLarge(
                f"a brute-force GVA run of {n} bids visits (bids + 1) * 2**bids bid subsets;"
                f" at most {MAX_BRUTE_SUBSETS} are allowed"
            )
        actual = optimal_allocation(instance, solver)
        without = [
            optimal_allocation(instance.with_amount(j, 0), solver).value
            for j in range(len(instance.bids))
        ]
    payments = _clarke(instance, actual.allocation, actual.value, without)
    meta = {"unique_optimum": actual.unique, "solver": solver.value}
    return assemble_outcome(instance, actual.allocation, payments, None, meta)


def clarke_with_greedy(instance: AuctionInstance, cfg: NormConfig) -> Outcome:
    """Greedy allocation billed with the Clarke formula; a known-broken pairing.

    Kept as a runnable mechanism so the axiom and deviation checkers have a
    concrete failure to exhibit.  Payments can exceed the declared amount
    and are not clamped.

    The value without bid j is the walk's along the outcome's own ranking
    with j left out: j at amount zero would leave the others' order as it
    is and rank after every bid of positive norm, where it adds no value
    and keeps out only bids of zero value.
    """
    allocation, trace = greedy_allocate(instance, cfg)
    ranking = trace.ranking
    without = []
    for j in range(len(instance.bids)):
        others = RankedList(tuple(i for i in ranking.order if i != j), ranking.had_ties)
        without.append(allocation_value(instance, _walk(instance, others)[0]))
    payments = _clarke(instance, allocation, allocation_value(instance, allocation), without)
    return assemble_outcome(instance, allocation, payments, trace)
