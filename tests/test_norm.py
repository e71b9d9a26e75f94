"""Norm comparison, ranking, tie rules, and bid-monotonicity."""

import random
from fractions import Fraction as F
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camech.errors import ExponentNotSupported, TiesPresent
from camech.model import AuctionInstance, SingleMindedBid
from camech.money import Money
from camech.norm import (
    NormConfig,
    TieRule,
    bundle_ratio_power,
    norm_text,
    rank,
)

GOODS = tuple("abcdef")


def bid(name, bundle, amount):
    return SingleMindedBid(name, frozenset(bundle), amount)


def norm_compare(b1, b2, exponent):
    """Sign of norm(b1) - norm(b2), read off `rank` of the two-bid instance."""
    ranked = rank(AuctionInstance(GOODS, (b1, b2)), NormConfig(exponent))
    if ranked.had_ties:
        return 0
    return 1 if ranked.order == (0, 1) else -1


def test_norm_compare_examples():
    # 10 for one good beats 19 for two at exponent 1 (10 > 9.5)
    assert norm_compare(bid("r", "a", 10), bid("g", "ab", 19), F(1)) == 1
    # identical bids tie
    assert norm_compare(bid("x", "ab", 20), bid("y", "ab", 20), F(1)) == 0
    # exponent 1/2: 1/sqrt(1) == 2/sqrt(4), by cross multiplication 1*1*4 == 2*2*1
    assert norm_compare(bid("x", "a", 1), bid("y", "abcd", 2), F(1, 2)) == 0


def test_norm_compare_exponent_zero_orders_by_amount():
    assert norm_compare(bid("x", "abcd", 3), bid("y", "a", 2), F(0)) == 1
    assert norm_compare(bid("x", "abcd", 2), bid("y", "a", 2), F(0)) == 0


def test_bundle_ratio_power():
    assert bundle_ratio_power(4, 2, 1, 1) == Money(2)
    assert bundle_ratio_power(2, 1, 1, 2) == Money.sqrt(2)
    assert bundle_ratio_power(1, 2, 1, 2) == Money.root_term(F(1, 2), 2)
    assert bundle_ratio_power(8, 1, 1, 3) == Money(2)  # perfect cube
    assert bundle_ratio_power(5, 5, 7, 3) == Money(1)
    with pytest.raises(ExponentNotSupported, match=r"^\(2/1\)\*\*1/3 has no exact"):
        bundle_ratio_power(2, 1, 1, 3)


def test_rank_paper_order():
    inst = AuctionInstance(
        ("a", "b"),
        (bid("red", "a", 10), bid("green", "ab", 19), bid("blue", "b", 8)),
    )
    ranked = rank(inst, NormConfig(F(1)))
    assert ranked.order == (0, 1, 2)  # averages 10, 9.5, 8
    assert not ranked.had_ties
    assert [norm_text(inst.bids[j], F(1)) for j in ranked.order] == ["10", "9.5", "8"]


def test_rank_singleton():
    inst = AuctionInstance(("a",), (bid("only", "a", 5),))
    assert rank(inst, NormConfig(F(1))).order == (0,)


def tied_instance():
    return AuctionInstance(
        ("a", "b", "c", "d"),
        (bid("green", "ab", 1), bid("red", "cd", 1), bid("black", "ac", 1)),
    )


def test_rank_reject_raises_on_ties():
    with pytest.raises(TiesPresent):
        rank(tied_instance(), NormConfig(F(1), TieRule.REJECT))


def test_rank_canonical_tie_break_documented_order():
    # equal norms -> higher amount, then smaller bundle bitset, then lower index
    inst = AuctionInstance(
        ("a", "b", "c", "d"),
        (bid("late", "cd", 1), bid("early", "ab", 1), bid("rich", "ab", 2)),
    )
    ranked = rank(inst, NormConfig(F(0)))
    # norms (amounts): rich=2 first; then tie between late/early at 1:
    # early has mask {a,b} = 0b0011 < late's {c,d} = 0b1100
    assert ranked.order == (2, 1, 0)
    assert ranked.had_ties


def test_rank_explicit_permutation():
    inst = tied_instance()
    cfg = NormConfig(F(1), TieRule.EXPLICIT, (2, 0, 1))
    ranked = rank(inst, cfg)
    assert ranked.order == (2, 0, 1)
    with pytest.raises(ValueError):
        rank(inst, NormConfig(F(1), TieRule.EXPLICIT, (0, 1)))


def test_rank_deterministic():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 8)
        bids = tuple(
            bid(f"b{i}", rng.sample(GOODS, rng.randint(1, 4)), F(rng.randint(1, 999), 10))
            for i in range(n)
        )
        inst = AuctionInstance(GOODS, bids)
        cfg = NormConfig(F(1, 2))
        first = rank(inst, cfg)
        second = rank(inst, cfg)
        assert first.order == second.order
        assert sorted(first.order) == list(range(n))


_amounts = st.integers(min_value=1, max_value=10 ** 6).map(lambda x: F(x, 1000))
_bundles = st.sets(st.sampled_from(GOODS), min_size=1, max_size=6)
_exponents = st.sampled_from([F(0), F(1, 2), F(1), F(2), F(3, 2)])


@given(_bundles, _amounts, _amounts, _exponents)
@settings(max_examples=120, deadline=None)
def test_bid_monotone_in_amount(bundle, a1, a2, exponent):
    lo, hi = sorted([a1, a2])
    if lo == hi:
        hi = hi + F(1, 1000)
    worse, better = bid("x", bundle, lo), bid("x", bundle, hi)
    assert norm_compare(better, worse, exponent) == 1


@given(_bundles, _amounts, _exponents)
@settings(max_examples=120, deadline=None)
def test_bid_monotone_in_bundle(bundle, amount, exponent):
    if len(bundle) < 2:
        bundle = bundle | {"a", "b"}
    smaller = set(sorted(bundle)[:-1])
    big, small = bid("x", bundle, amount), bid("x", smaller, amount)
    c = norm_compare(small, big, exponent)
    if exponent > 0:
        assert c == 1  # strictly larger norm on a strict subset
    else:
        assert c == 0  # exponent 0 ignores the bundle


@given(_bundles, _bundles, _bundles, _amounts, _amounts, _amounts, _exponents)
@settings(max_examples=100, deadline=None)
def test_norm_compare_is_a_total_preorder(s1, s2, s3, a1, a2, a3, exponent):
    b1, b2, b3 = bid("1", s1, a1), bid("2", s2, a2), bid("3", s3, a3)
    c12 = norm_compare(b1, b2, exponent)
    assert norm_compare(b2, b1, exponent) == -c12
    # transitivity of the weak order
    if c12 >= 0 and norm_compare(b2, b3, exponent) >= 0:
        assert norm_compare(b1, b3, exponent) >= 0


def test_norm_text_without_closed_form():
    # no closed form: rounded from integer roots, no floats (checked against
    # 50-digit decimal arithmetic)
    assert norm_text(bid("x", "abc", 5), F(1, 3)) == "3.46680637175"
    assert norm_text(bid("x", "abc", 0), F(1, 3)) == "0"
    assert norm_text(bid("x", GOODS[:5], F(123456789, 1000)), F(2, 5)) == "64852.5377902"
    ten = AuctionInstance(tuple("abcdefghij"), (bid("x", "abcdefghij", 7),))
    assert norm_text(ten.bids[0], F(1000, 3)) == "0." + "0" * 332 + "324911218353"


def reference_rank(instance, exponent, explicit_order=None):
    """Order, tie flag and tied neighbour pairs by cross-multiplying
    a1**q * s2**p against a2**q * s1**p on every comparison; ties break
    canonically, or by position in `explicit_order` when one is given."""
    p, q = exponent.numerator, exponent.denominator
    bids, masks = instance.bids, instance.bid_masks

    def norm_cmp(i, j):  # negative when bid i has the larger norm
        bi, bj = bids[i], bids[j]
        lhs = bj.amount ** q * len(bi.bundle) ** p
        rhs = bi.amount ** q * len(bj.bundle) ** p
        return (lhs > rhs) - (lhs < rhs)

    by_norm = sorted(range(len(bids)), key=cmp_to_key(norm_cmp))
    pairs = [(i, j) for i, j in zip(by_norm, by_norm[1:]) if norm_cmp(i, j) == 0]
    if explicit_order is not None:
        order = list(explicit_order)
    else:
        # stable sorts, last key first: smaller bundle mask, higher amount, larger norm
        order = sorted(range(len(bids)), key=lambda i: masks[i])
        order = sorted(order, key=lambda i: bids[i].amount, reverse=True)
    return tuple(sorted(order, key=cmp_to_key(norm_cmp))), pairs


@pytest.mark.parametrize(
    "exponent", [F(0), F(1, 2), F(1), F(2), F(7, 3)], ids=["0", "1/2", "1", "2", "7/3"]
)
def test_rank_matches_cross_multiplication_rational(exponent):
    # all-rational instances rank on integer weights; one amount is replaced
    # through `with_bid`, nudged by 1 +- 2**-20 or made whole, so the common
    # denominator grows or shrinks between parent and child
    rng = random.Random(f"rank-reference-rational:{exponent}")
    tied = 0
    for _ in range(200):
        bids = [
            bid(f"b{i}", rng.sample(GOODS, rng.randint(1, 4)),
                F(rng.randint(1, 4), rng.choice([1, 2, 3])))
            for i in range(rng.randint(2, 6))
        ]
        j = rng.randrange(len(bids))
        nudge = rng.choice([1 - F(1, 2 ** 20), 1 + F(1, 2 ** 20), None])
        amount = bids[j].amount * nudge if nudge else rng.randint(1, 4)
        inst = AuctionInstance(GOODS, tuple(bids)).with_amount(j, amount)
        explicit = tuple(rng.sample(range(len(bids)), len(bids)))
        order, pairs = reference_rank(inst, exponent)
        ranked = rank(inst, NormConfig(exponent))
        assert (ranked.order, ranked.had_ties) == (order, bool(pairs))
        order, _ = reference_rank(inst, exponent, explicit)
        ranked = rank(inst, NormConfig(exponent, TieRule.EXPLICIT, explicit))
        assert (ranked.order, ranked.had_ties) == (order, bool(pairs))
        if pairs:
            tied += 1
            with pytest.raises(TiesPresent) as err:
                rank(inst, NormConfig(exponent, TieRule.REJECT))
            assert list(err.value.pairs) == pairs
        else:
            assert rank(inst, NormConfig(exponent, TieRule.REJECT)).order == order
    assert tied > 0
