"""Exact solvers, Clarke payments, GVA, and the Clarke-with-greedy demonstrator."""

import itertools
from fractions import Fraction as F

import pytest

from camech.errors import InstanceTooLarge
from camech.exact import (
    SolverKind,
    clarke_with_greedy,
    optimal_allocation,
    run_gva,
)
from camech.experiments import random_instance
from camech.model import AuctionInstance, SingleMindedBid
from camech.money import Money
from camech.norm import NormConfig

DP = SolverKind.BITMASK_DP
BRUTE = SolverKind.BRUTE_FORCE_BID_SUBSETS
L1 = NormConfig(F(1))


def bid(name, bundle, amount):
    return SingleMindedBid(name, frozenset(bundle), amount)


def three_bidder_instance(truthful=False):
    inst = AuctionInstance(
        ("a", "b"),
        (bid("red", "a", 10), bid("green", "ab", 19), bid("blue", "b", 8)),
    )
    return inst.assuming_truthful() if truthful else inst


@pytest.mark.parametrize("solver", [DP, BRUTE])
def test_optimal_three_bidders(solver):
    sol = optimal_allocation(three_bidder_instance(), solver)
    assert sol.allocation.granted == {1}
    assert sol.value == Money(19)
    assert sol.unique


@pytest.mark.parametrize("solver", [DP, BRUTE])
def test_optimal_competitive(solver):
    inst = AuctionInstance(
        ("a", "b"),
        (bid("red", "a", 20), bid("green", "b", 15), bid("blue", "ab", 20)),
    )
    sol = optimal_allocation(inst, solver)
    assert sol.allocation.granted == {0, 1}
    assert sol.value == Money(35)


@pytest.mark.parametrize("solver", [DP, BRUTE])
def test_optimal_single_bid(solver):
    inst = AuctionInstance(("a",), (bid("x", "a", 7),))
    sol = optimal_allocation(inst, solver)
    assert sol.allocation.granted == {0}
    assert sol.value == Money(7)


def test_optimal_ties_choose_lexicographic():
    inst = AuctionInstance(
        ("a", "b"),
        (bid("x", "a", 5), bid("y", "b", 5), bid("z", "ab", 10)),
    )
    for solver in (DP, BRUTE):
        sol = optimal_allocation(inst, solver)
        assert sol.allocation.granted == {0, 1}  # {0,1} before {2}
        assert not sol.unique
        assert sol.optima_count == 2


def test_optimal_empty_and_zero_amounts():
    for solver in (DP, BRUTE):
        sol = optimal_allocation(AuctionInstance(("a",), ()), solver)
        assert sol.allocation.granted == frozenset()
        assert sol.value == Money(0)
        # a zero-amount bid must not be pulled in: the empty set is smaller
        inst = AuctionInstance(("a",), (bid("x", "a", 0),))
        sol = optimal_allocation(inst, solver)
        assert sol.allocation.granted == frozenset()


def test_clarke_payments_paper_values():
    # GVA on the three-bidder instance: green wins and pays 18
    payments = run_gva(three_bidder_instance(), DP).payments
    assert payments == (Money(0), Money(18), Money(0))
    # the competitive instance: red pays 5, green 0
    inst = AuctionInstance(
        ("a", "b"),
        (bid("red", "a", 20), bid("green", "b", 15), bid("blue", "ab", 20)),
    )
    payments = run_gva(inst, DP).payments
    assert payments == (Money(5), Money(0), Money(0))


def test_clarke_lone_bidder_pays_zero():
    inst = AuctionInstance(("a",), (bid("x", "a", 7),))
    assert run_gva(inst, DP).payments == (Money(0),)


def test_run_gva_revenue_examples():
    worseeff = AuctionInstance(
        ("a", "b"),
        (bid("green", "a", 20), bid("red", "ab", 37), bid("black", "b", 18)),
    )
    out = run_gva(worseeff, DP)
    assert sorted(out.allocation.grants) == [0, 2]
    assert out.payments[0] == Money(19)
    assert out.payments[2] == Money(17)
    assert out.revenue == Money(36)

    best = AuctionInstance(
        ("a", "b"),
        (bid("red", "ab", 20), bid("green", "a", 9), bid("black", "b", 1)),
    )
    out = run_gva(best, DP)
    assert sorted(out.allocation.grants) == [0]
    assert out.payments[0] == Money(10)

    worsenoteff = AuctionInstance(
        ("a", "b"), (bid("green", "a", 10), bid("red", "ab", 19))
    )
    out = run_gva(worsenoteff, DP)
    assert sorted(out.allocation.grants) == [1]
    assert out.payments[1] == Money(10)


def test_gva_truthful_utilities_nonnegative_on_paper_instances():
    out = run_gva(three_bidder_instance(truthful=True), DP)
    assert all(u >= Money(0) for u in out.utilities.values())
    assert out.meta["unique_optimum"]


def test_clarke_with_greedy_overcharges():
    inst = three_bidder_instance(truthful=True)
    out = clarke_with_greedy(inst, L1)
    assert sorted(out.allocation.grants) == [0, 2]
    assert out.payments[0] == Money(11)
    assert out.utilities[0] == Money(-1)


def test_clarke_with_greedy_lone_bidder():
    inst = AuctionInstance(("a",), (bid("x", "a", 7),))
    out = clarke_with_greedy(inst, L1)
    assert out.payments == (Money(0),)


def test_clarke_with_greedy_underbid_escapes():
    # red shading to 9 is denied, pays zero, and nets zero
    inst = AuctionInstance(
        ("a", "b"),
        (bid("red", "a", 9), bid("green", "ab", 19), bid("blue", "b", 8)),
        {"red": bid("red", "a", 10)},
    )
    out = clarke_with_greedy(inst, L1)
    assert 0 not in out.allocation.grants
    assert out.payments[0] == Money(0)
    assert out.utilities[0] == Money(0)


def test_clarke_with_greedy_can_go_negative():
    # a greedy counterfactual can shrink the others' total, so the Clarke
    # formula can come out negative; the demonstrator reports it as-is
    inst = AuctionInstance(
        ("a", "b", "c", "d", "e", "f"),
        (
            bid("top", "a", 100),
            bid("mid", "ab", 20),
            bid("wide", "bcdef", 45),
        ),
    )
    out = clarke_with_greedy(inst, L1)
    assert sorted(out.allocation.grants) == [0, 2]
    assert out.payments[0] == Money(-25)


def test_size_guards():
    goods = tuple(f"g{i}" for i in range(25))
    inst = AuctionInstance(goods, (bid("x", {"g0"}, 1),))
    with pytest.raises(InstanceTooLarge):
        optimal_allocation(inst, DP)
    many = AuctionInstance(
        ("a",), tuple(bid(f"b{i}", "a", i + 1) for i in range(25))
    )
    with pytest.raises(InstanceTooLarge):
        optimal_allocation(many, BRUTE)


def _exhaustive_oracle(inst):
    """Independent maximum over all conflict-free bid subsets via itertools."""
    best = Money(0)
    n = len(inst.bids)
    for r in range(1, n + 1):
        for combo in itertools.combinations(range(n), r):
            union = set()
            ok = True
            total = Money(0)
            for j in combo:
                bundle = inst.bids[j].bundle
                if union & bundle:
                    ok = False
                    break
                union |= bundle
                total = total + inst.bids[j].amount
            if ok and total > best:
                best = total
    return best


def test_solver_equivalence_random():
    for t in range(60):
        inst = random_instance(6, 9, seed=f"solver-eq:{t}")
        dp = optimal_allocation(inst, DP)
        brute = optimal_allocation(inst, BRUTE)
        assert dp.value == brute.value
        assert dp.allocation.granted == brute.allocation.granted
        assert dp.optima_count == brute.optima_count
        if t < 10:  # the slow third oracle on a subsample
            assert dp.value == _exhaustive_oracle(inst)


def test_gva_outcome_invariants_random():
    for t in range(25):
        inst = random_instance(6, 9, seed=f"gva-inv:{t}")
        out = run_gva(inst, DP)
        assert out.allocation.is_conflict_free()
        assert out.allocation.is_exact(inst)
        for j in range(len(inst.bids)):
            assert out.payments[j] >= Money(0)
            if not out.is_granted(j):
                assert out.payments[j] == Money(0)
            else:
                assert out.payments[j] <= inst.bids[j].amount


def test_solver_equivalence_tie_heavy():
    # tiny integer amounts force many co-optimal allocations; both solvers
    # must still pick the same lexicographically smallest winner set
    import random as _random

    rng = _random.Random("tie-heavy")
    goods = ("a", "b", "c", "d")
    for _ in range(120):
        n = rng.randint(1, 6)
        bids = tuple(
            bid(f"b{i}", rng.sample(goods, rng.randint(1, 3)), rng.randint(0, 3))
            for i in range(n)
        )
        inst = AuctionInstance(goods, bids)
        dp = optimal_allocation(inst, DP)
        brute = optimal_allocation(inst, BRUTE)
        assert dp.value == brute.value
        assert dp.allocation.granted == brute.allocation.granted
        assert dp.optima_count == brute.optima_count


def test_optimal_dominates_greedy():
    from camech.greedy import greedy_allocate
    from camech.model import allocation_value

    for t in range(30):
        inst = random_instance(7, 10, seed=f"dominate:{t}")
        opt = optimal_allocation(inst, DP).value
        for exponent in (F(0), F(1, 2), F(1)):
            allocation, _ = greedy_allocate(inst, NormConfig(exponent))
            assert opt >= allocation_value(inst, allocation)
