"""Greedy allocation, blockers, and the critical payment scheme."""

import random
from fractions import Fraction as F

import pytest

from camech.errors import ExponentNotSupported, NotGranted, TiesPresent
from camech.greedy import blocker, greedy_allocate, run_greedy
from camech.model import AuctionInstance, SingleMindedBid, allocation_value
from camech.money import Money
from camech.norm import NormConfig, TieRule, crossing_value
from camech.experiments import random_instance

L1 = NormConfig(F(1))


def bid(name, bundle, amount, reserve=False):
    return SingleMindedBid(name, frozenset(bundle), amount, reserve)


def three_bidder_instance():
    return AuctionInstance(
        ("a", "b"),
        (bid("red", "a", 10), bid("green", "ab", 19), bid("blue", "b", 8)),
    )


def competitive_instance():
    return AuctionInstance(
        ("a", "b"),
        (bid("red", "a", 20), bid("green", "b", 15), bid("blue", "ab", 20)),
    )


def test_allocation_three_bidders():
    allocation, trace = greedy_allocate(three_bidder_instance(), L1)
    assert allocation.granted == {0, 2}
    assert trace.blocked_by == {1: 0}  # the pair bid lost to red


def test_allocation_lone_bidder():
    inst = AuctionInstance(("a", "b"), (bid("solo", "ab", 3),))
    allocation, _ = greedy_allocate(inst, L1)
    assert allocation.granted == {0}


def test_allocation_competitive():
    allocation, _ = greedy_allocate(competitive_instance(), L1)
    assert allocation.granted == {0, 1}


def test_blocker_three_bidders():
    inst = three_bidder_instance()
    _, trace = greedy_allocate(inst, L1)
    assert blocker(trace, 0) == 1  # red keeps green out
    assert blocker(trace, 2) is None
    with pytest.raises(NotGranted):
        blocker(trace, 1)


def test_blocker_requires_sole_responsibility():
    # blue is denied, but green also blocks it, so red has no blocker
    inst = competitive_instance()
    _, trace = greedy_allocate(inst, L1)
    assert blocker(trace, 0) is None
    assert blocker(trace, 1) is None


def test_blocker_none_for_last():
    inst = AuctionInstance(("a",), (bid("x", "a", 2),))
    _, trace = greedy_allocate(inst, L1)
    assert blocker(trace, 0) is None


def test_payments_three_bidders():
    payments = run_greedy(three_bidder_instance(), L1).payments
    assert payments[0] == Money(F(19, 2))
    assert payments[1] == Money(0)
    assert payments[2] == Money(0)


def test_payments_competitive_all_zero():
    payments = run_greedy(competitive_instance(), L1).payments
    assert all(p == Money(0) for p in payments)


def test_payments_strong_complementarity():
    inst = AuctionInstance(
        ("a", "b"),
        (bid("red", "ab", 20), bid("green", "a", 9), bid("black", "b", 1)),
    )
    payments = run_greedy(inst, L1).payments
    assert payments[0] == Money(18)  # 2 goods at green's unit price 9


def test_run_greedy_complex_owner_truthful():
    inst = AuctionInstance(
        ("a", "b"),
        (
            bid("red", "a", 12),
            bid("green:a", "a", 10),
            bid("green:b", "b", 10),
            bid("green:ab", "ab", 30),
        ),
    )
    out = run_greedy(inst, L1)
    assert sorted(out.allocation.grants) == [3]
    assert out.payments[3] == Money(24)


def test_run_greedy_complex_owner_shaded():
    inst = AuctionInstance(
        ("a", "b"),
        (
            bid("red", "a", 12),
            bid("green:a", "a", 10),
            bid("green:b", "b", 10),
            bid("green:ab", "ab", 23),
        ),
    )
    out = run_greedy(inst, L1)
    assert sorted(out.allocation.grants) == [0, 2]
    assert out.payments[0] == Money(F(23, 2))
    assert out.payments[2] == Money(0)


def test_run_greedy_empty():
    out = run_greedy(AuctionInstance(("a",), ()), L1)
    assert out.allocation.grants == {}
    assert out.revenue == Money(0)


def test_run_greedy_ties_rejected():
    inst = AuctionInstance(("a", "b"), (bid("x", "a", 5), bid("y", "b", 5)))
    with pytest.raises(TiesPresent):
        run_greedy(inst, NormConfig(F(1), TieRule.REJECT))


def test_run_greedy_utilities_and_revenue():
    inst = three_bidder_instance().assuming_truthful()
    out = run_greedy(inst, L1)
    assert out.revenue == Money(F(19, 2))
    assert out.utilities[0] == Money(F(1, 2))  # 10 - 9.5
    assert out.utilities[1] == Money(0)
    assert out.utilities[2] == Money(8)


def test_reserve_bid_blocks_and_pays_no_revenue():
    # the auctioneer reserves the pair at 30: it outranks everyone, the goods
    # stay unsold, and revenue is zero even though the reserve bid "wins"
    # (its formal crossing payment is red's amount scaled by (2/1)**1 = 20)
    inst = AuctionInstance(
        ("a", "b"),
        (bid("red", "a", 10), bid("seller", "ab", 30, reserve=True)),
    )
    out = run_greedy(inst, L1)
    assert sorted(out.allocation.grants) == [1]
    assert blocker(out.trace, 1) == 0
    assert out.payments[1] == Money(20)
    assert out.revenue == Money(0)


def test_halfinteger_exponent_payment_is_exact_surd():
    inst = AuctionInstance(
        ("a", "b"),
        (bid("red", "a", 10), bid("green", "ab", 13), bid("blue", "b", 8)),
    )
    out = run_greedy(inst, NormConfig(F(1, 2)))
    assert sorted(out.allocation.grants) == [0, 2]
    # red pays green's norm 13/sqrt(2) = (13/2) sqrt(2)
    assert out.payments[0] == Money.root_term(F(13, 2), 2)
    assert out.payments[0].to_decimal() == "9.19238815543"


def test_unsupported_exponent_payment_raises():
    inst = AuctionInstance(
        ("a", "b", "c"),
        (bid("red", "a", 10), bid("green", "abc", 9)),
    )
    with pytest.raises(ExponentNotSupported):
        run_greedy(inst, NormConfig(F(1, 3)))


def test_unsupported_exponent_equal_sizes_still_rational():
    inst = AuctionInstance(
        ("a", "b", "c", "d"),
        (bid("red", "ab", 10), bid("green", "bc", 6), bid("blue", "cd", 4)),
    )
    out = run_greedy(inst, NormConfig(F(1, 3)))
    # all bundles have size 2, so crossing values collapse to plain amounts
    assert out.payments[0] == Money(6)


def _invariants(inst, cfg):
    out = run_greedy(inst, cfg)
    allocation, trace = out.allocation, out.trace
    masks = inst.bid_masks
    # exactness + conflict-freedom
    assert allocation.is_exact(inst)
    assert allocation.is_conflict_free()
    # order-maximality: every denied bid conflicts with an earlier granted one
    for j in range(len(inst.bids)):
        if j not in allocation.grants:
            g = trace.blocked_by[j]
            assert g in allocation.grants
            assert masks[g] & masks[j]
            assert trace.ranking.order.index(g) < trace.ranking.order.index(j)
    # individual rationality of declared amounts, participation
    for j in range(len(inst.bids)):
        if j in allocation.grants:
            assert out.payments[j] <= inst.bids[j].amount
        else:
            assert out.payments[j] == Money(0)


def test_random_invariants_both_exponents():
    for t in range(40):
        inst = random_instance(6, 9, seed=f"greedy-inv:{t}")
        _invariants(inst, NormConfig(F(1)))
        _invariants(inst, NormConfig(F(1, 2)))
        _invariants(inst, NormConfig(F(0)))


def test_greedy_value_positive_on_nonempty():
    inst = random_instance(5, 6, seed="value:1")
    allocation, _ = greedy_allocate(inst, L1)
    assert allocation_value(inst, allocation) > Money(0)


def _rescan_blocker(trace, instance, granted, j):
    """Reference blocker: scan rank positions after winner j for the first
    denied bid that meets j and meets no other bid granted before it."""
    order = trace.ranking.order
    position = {b: p for p, b in enumerate(order)}
    masks = instance.bid_masks
    for p in range(position[j] + 1, len(order)):
        i = order[p]
        if i in granted or not masks[i] & masks[j]:
            continue
        if all(g == j or position[g] > p or not masks[g] & masks[i] for g in granted):
            return i
    return None


def _check_blockers_against_rescan(inst, cfg):
    out = run_greedy(inst, cfg)
    trace, granted = out.trace, out.allocation.grants
    assert list(trace.blockers) == [j for j in trace.ranking.order if j in granted]
    for j, i in trace.blockers.items():
        assert i == blocker(trace, j) == _rescan_blocker(trace, inst, granted, j)
        if i is None:
            assert out.payments[j] == Money(0)
        else:
            size = len(inst.bids[j].bundle)
            assert out.payments[j] == crossing_value(inst.bids[i], size, cfg.exponent)
    return out


@pytest.mark.parametrize("exponent", [F(0), F(1, 2), F(1)], ids=str)
def test_blockers_match_rescan_on_random_instances(exponent):
    cfg = NormConfig(exponent)
    for t in range(200):
        _check_blockers_against_rescan(random_instance(6, 9, seed=f"blocker-ref:{t}"), cfg)


def test_blockers_match_rescan_on_tied_instances():
    # amounts from a small set on small bundles make equal norms common
    rng = random.Random("blocker-ties")
    goods = ("a", "b", "c", "d")
    tied = 0
    for _ in range(200):
        bids = tuple(
            bid(f"x{i}", rng.sample(goods, rng.randint(1, 3)), rng.randint(1, 4))
            for i in range(7)
        )
        inst = AuctionInstance(goods, bids)
        for exponent in (F(0), F(1, 2), F(1)):
            order = list(range(len(bids)))
            rng.shuffle(order)
            for cfg in (
                NormConfig(exponent),
                NormConfig(exponent, TieRule.EXPLICIT, tuple(order)),
            ):
                tied += _check_blockers_against_rescan(inst, cfg).trace.ranking.had_ties
    assert tied > 500
