"""Model types: validation, conflicts, utilities, allocation values."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from camech.model import (
    Allocation,
    AuctionInstance,
    SingleMindedBid,
    allocation_value,
    bidder_utility,
    conflicts,
    validate_instance,
)
from camech.money import Money


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
            SingleMindedBid("x", {"a"}, Money(F(-1))),
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


def test_conflicts():
    red = SingleMindedBid("red", {"a"}, 10)
    green = SingleMindedBid("green", {"a", "b"}, 19)
    blue = SingleMindedBid("blue", {"b"}, 8)
    assert not conflicts(red, blue)
    assert conflicts(red, green)
    assert conflicts(red, red)


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


def test_allocation_flags():
    inst = three_bidder_instance()
    ok = Allocation.of_indices(inst, [0, 2])
    assert ok.is_conflict_free() and ok.is_exact(inst)
    clash = Allocation.of_indices(inst, [0, 1])
    assert not clash.is_conflict_free()
    partial = Allocation({1: frozenset({"a"})})
    assert not partial.is_exact(inst)


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
    # the common denominator grows by the lcm (3, 6, 3 * 2**20), shrinks
    # once the thirds and then the 2**20ths are gone, and an irrational
    # amount drops the integer form
    steps = [(1, F(19, 3)), (0, F(1, 6)), (1, F(7, 2 ** 20)), (0, 4), (1, 19)]
    for j, amount in steps:
        inst = inst.with_amount(j, amount)
        assert "integer_amounts" in inst.__dict__  # seeded, not recomputed
        fresh = AuctionInstance(inst.goods, inst.bids)
        assert inst.integer_amounts == fresh.integer_amounts
        assert inst.all_amounts_rational is True
    assert inst.integer_amounts == (1, (4, 19, 8))
    probed = inst.with_amount(2, Money.sqrt(2))
    assert probed.integer_amounts is None and probed.all_amounts_rational is False
    fresh = AuctionInstance(inst.goods, inst.bids[:2] + (inst.bids[2].with_amount(F(3, 4)),))
    assert probed.with_amount(2, F(3, 4)).integer_amounts == fresh.integer_amounts == (4, (16, 76, 3))


def test_assuming_truthful():
    inst = three_bidder_instance().assuming_truthful()
    assert inst.true_types["red"].amount == Money(10)
