"""Model types: validation, utilities, allocations and their values."""

import gc
import random
import weakref
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camech.documents import parse_instance
from camech.errors import InvalidArgument, TiesPresent
from camech.experiments import random_instance, tight_family
from camech.model import (
    Allocation,
    AuctionInstance,
    SingleMindedBid,
    allocation_value,
    assemble_outcome,
    bidder_utility,
    validate_instance,
)
from camech.money import Money
from camech.greedy import run_greedy
from camech.norm import NormConfig, TieRule, rank


def three_bidder_instance() -> AuctionInstance:
    return AuctionInstance(
        ("a", "b"),
        (
            SingleMindedBid("red", {"a"}, 10),
            SingleMindedBid("green", {"a", "b"}, 19),
            SingleMindedBid("blue", {"b"}, 8),
        ),
    )


def test_validate_clean_instance():
    assert validate_instance(three_bidder_instance()) == []


def test_validate_unknown_good():
    inst = AuctionInstance(("a",), (SingleMindedBid("x", {"z"}, 1),))
    reasons = [v.reason for v in validate_instance(inst)]
    assert any("unknown good" in r for r in reasons)


def test_validate_empty_bundle():
    inst = AuctionInstance(("a",), (SingleMindedBid("x", frozenset(), 1),))
    reasons = [v.reason for v in validate_instance(inst)]
    assert any("empty bundle" in r for r in reasons)


def test_validate_negative_amount_and_duplicate_bidder():
    inst = AuctionInstance(
        ("a", "b"),
        (
            SingleMindedBid("x", {"a"}, -1),
            SingleMindedBid("x", {"b"}, 1),
        ),
    )
    reasons = [v.reason for v in validate_instance(inst)]
    assert any("negative amount" in r for r in reasons)
    assert any("duplicate bidder" in r for r in reasons)


def test_validate_too_many_goods():
    goods = tuple(f"g{i}" for i in range(64))
    inst = AuctionInstance(goods, (SingleMindedBid("x", {"g0"}, 1),))
    assert any("63" in v.reason for v in validate_instance(inst))


def test_validate_true_types():
    inst = AuctionInstance(
        ("a",),
        (SingleMindedBid("x", {"a"}, 1),),
        {"ghost": SingleMindedBid("ghost", {"a"}, 1)},
    )
    assert any("unknown bidder" in v.reason for v in validate_instance(inst))


def test_bidder_utility_paper_values():
    # overcharged winner
    red = SingleMindedBid("red", {"a"}, 10)
    assert bidder_utility(red, {"a"}, Money(11)) == Money(-1)
    # denied bidder pays nothing and nets zero
    assert bidder_utility(red, frozenset(), Money(0)) == Money(0)
    # complex owner's pair bid
    pair = SingleMindedBid("green", {"a", "b"}, 30)
    assert bidder_utility(pair, {"a", "b"}, Money(24)) == Money(6)


def test_bidder_utility_free_disposal():
    red = SingleMindedBid("red", {"a"}, 10)
    assert bidder_utility(red, {"a", "b"}, Money(0)) == Money(10)
    assert bidder_utility(red, {"b"}, Money(0)) == Money(0)


def test_allocation_value():
    inst = three_bidder_instance()
    both = Allocation.of_indices(inst, [0, 2])
    assert allocation_value(inst, both) == Money(18)
    assert allocation_value(inst, Allocation({})) == Money(0)
    assert allocation_value(inst, Allocation.of_indices(inst, [1])) == Money(19)


def _conflict_free(allocation):
    bundles = list(allocation.grants.values())
    return sum(map(len, bundles)) == len(frozenset().union(*bundles))


def _exact(allocation, inst):
    return all(bundle == inst.bids[j].bundle for j, bundle in allocation.grants.items())


def test_allocation_flags():
    inst = three_bidder_instance()
    ok = Allocation.of_indices(inst, [0, 2])
    assert ok.granted == {0, 2} and ok.bundle_granted(1) == frozenset()
    assert _conflict_free(ok) and _exact(ok, inst)
    clash = Allocation.of_indices(inst, [0, 1])
    assert not _conflict_free(clash)
    partial = Allocation({1: frozenset({"a"})})
    assert not _exact(partial, inst)


@given(st.lists(st.integers(min_value=0, max_value=5), unique=True))
@settings(max_examples=40, deadline=None)
def test_allocation_value_additive(indices):
    goods = tuple(f"g{i}" for i in range(6))
    inst = AuctionInstance(
        goods,
        tuple(SingleMindedBid(f"b{i}", {goods[i]}, i + 1) for i in range(6)),
    )
    left = [j for j in indices if j % 2 == 0]
    right = [j for j in indices if j % 2 == 1]
    whole = allocation_value(inst, Allocation.of_indices(inst, indices))
    split = allocation_value(inst, Allocation.of_indices(inst, left)) + allocation_value(
        inst, Allocation.of_indices(inst, right)
    )
    assert whole == split


def test_with_bid_reseeds_caches():
    inst = three_bidder_instance()
    _ = inst.bid_masks
    swapped = inst.with_bid(0, SingleMindedBid("red", {"b"}, 10))
    assert swapped.bid_masks[0] == inst.bid_masks[2]
    assert swapped.bid_masks[1:] == inst.bid_masks[1:]
    assert inst.bids[0].bundle == frozenset({"a"})
    # the common denominator grows by the lcm (3, 6, 3 * 2**20) and shrinks
    # once the thirds and then the 2**20ths are gone
    _ = inst.integer_amounts
    steps = [(1, F(19, 3)), (0, F(1, 6)), (1, F(7, 2 ** 20)), (0, 4), (1, 19)]
    for j, amount in steps:
        inst = inst.with_amount(j, amount)
        fresh = AuctionInstance(inst.goods, inst.bids)
        assert inst.integer_amounts == fresh.integer_amounts
        assert inst.all_amounts_rational is True
    assert inst.integer_amounts == (1, (4, 19, 8))
    fresh = AuctionInstance(inst.goods, inst.bids[:2] + (inst.bids[2].with_amount(F(3, 4)),))
    seeded = inst.with_amount(2, F(3, 4)).integer_amounts
    assert seeded == fresh.integer_amounts == (4, (16, 76, 3))


def test_with_bid_origin_keeps_one_ancestor():
    base = three_bidder_instance()
    child = base.with_amount(0, 11)
    assert child.origin == (base, 0)
    # a copy of a copy records no origin, whichever bid it replaces
    assert child.with_amount(0, 12).origin is None
    assert child.with_amount(1, 12).origin is None
    # a long chain alternating between two bids keeps no early instance alive
    inst = three_bidder_instance()
    early = weakref.ref(inst)
    for step in range(10_000):
        inst = inst.with_amount(step % 2, F(step % 7 + 1, step % 3 + 1))
    gc.collect()
    assert early() is None
    chain = 0
    origin = inst.origin
    while origin is not None:
        chain += 1
        origin = origin[0].origin
    assert chain <= 1
    assert inst.integer_amounts == AuctionInstance(inst.goods, inst.bids).integer_amounts


@pytest.mark.parametrize(
    "amount",
    [Money(3), Money.sqrt(2) * F(19, 2), 1.5, "10", True],
    ids=["rational-money", "irrational-money", "float", "string", "bool"],
)
def test_bid_rejects_non_rational_amount_types(amount):
    with pytest.raises(InvalidArgument):
        SingleMindedBid("x", {"a"}, amount)


def test_bid_amounts_are_fractions_by_type():
    amounts = [b.amount for b in three_bidder_instance().with_amount(1, 7).bids]
    doc = {"goods": ["a"], "bids": [
        {"bidder": f"b{i}", "bundle": ["a"], "amount": raw}
        for i, raw in enumerate(("9.5", 3, "1/3"))
    ]}
    amounts += [b.amount for b in parse_instance(doc).bids]
    amounts += [b.amount for b in random_instance(3, 4, seed=1).bids]
    amounts += [b.amount for b in tight_family(4, F(1, 2)).bids]
    half = F(1, 2)
    assert SingleMindedBid("x", {"a"}, half).amount is half  # kept, not rebuilt
    assert amounts and all(type(a) is Fraction for a in amounts)


def test_assuming_truthful():
    inst = three_bidder_instance().assuming_truthful()
    assert inst.true_types["red"].amount == Money(10)


def _ranked(instance, cfg):
    try:
        ranking = rank(instance, cfg)
    except TiesPresent:
        return "ties"
    return ranking.order, ranking.had_ties


def test_with_bid_child_matches_a_fresh_instance():
    # children skip the dataclass __init__; they must hold what a fresh
    # instance normalises its fields to, and rank the same under every rule
    rng = random.Random(7)
    for t in range(30):
        inst = random_instance(5, 7, seed=f"child:{t}")
        if t % 2:
            inst = inst.assuming_truthful()
        configs = [
            NormConfig(exponent, rule) for exponent in (F(1), F(1, 2), F(2, 3)) for rule in TieRule
        ]
        for cfg in configs:
            _ranked(inst, cfg)  # the parent's rankings, which children insert into
        for _ in range(6):
            j = rng.randrange(7)
            other = inst.bids[rng.randrange(7)]
            # half the time copy another bid's bundle and amount, so norms tie
            bundle = rng.sample(inst.goods, rng.randint(1, 5))
            if rng.random() < 0.5:
                bundle = other.bundle
            amount = other.amount if rng.random() < 0.5 else F(rng.randint(1, 10 ** 6), 1000)
            child = inst.with_bid(j, SingleMindedBid(inst.bids[j].bidder, bundle, amount))
            fresh = AuctionInstance(list(child.goods), list(child.bids), child.true_types)
            assert type(child.goods) is type(fresh.goods) is tuple
            assert type(child.bids) is type(fresh.bids) is tuple
            assert type(child.true_types) is type(fresh.true_types)
            assert (child.goods, child.bids, child.true_types) == (
                fresh.goods, fresh.bids, fresh.true_types
            )
            assert child.bid_masks == fresh.bid_masks
            assert child.integer_amounts == fresh.integer_amounts
            for cfg in configs:
                assert _ranked(child, cfg) == _ranked(fresh, cfg)


def test_bid_normalises_its_fields_and_keeps_eq_and_hash():
    listed = SingleMindedBid("x", ["b", "a", "a"], 3)
    assert type(listed.bundle) is frozenset and listed.bundle == {"a", "b"}
    assert type(listed.amount) is Fraction and listed.amount == 3
    same = SingleMindedBid(bidder="x", bundle=frozenset("ab"), amount=F(3), is_reserve=False)
    assert listed == same and hash(listed) == hash(same) and len({listed, same}) == 1
    assert listed != SingleMindedBid("x", "ab", 3, True)
    assert listed != SingleMindedBid("x", "ab", F(7, 2))
    assert replace(listed, amount=4) == SingleMindedBid("x", "ab", 4)
    assert listed.with_amount(5) == SingleMindedBid("x", "ab", 5)
    assert repr(listed) == (
        f"SingleMindedBid(bidder='x', bundle={listed.bundle!r}, amount=Fraction(3, 1),"
        " is_reserve=False)"
    )


def test_records_stay_frozen():
    inst = three_bidder_instance()
    child = inst.with_amount(0, 11)
    out = run_greedy(child, NormConfig(F(1, 2)))
    records = {
        "bid": child.bids[0],
        "instance": inst,
        "child": child,
        "allocation": out.allocation,
        "outcome": out,
        "trace": out.trace,
        "ranking": out.trace.ranking,
        "assembled": assemble_outcome(child, Allocation({}), []),
    }
    for name, record in records.items():
        field = next(iter(record.__dataclass_fields__))
        with pytest.raises(FrozenInstanceError):
            setattr(record, field, None)
        with pytest.raises(FrozenInstanceError):
            setattr(record, "extra", None)
