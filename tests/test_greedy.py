"""Greedy allocation, blockers, and the critical payment scheme."""

import functools
import itertools
import random
from fractions import Fraction as F

import pytest

from camech import greedy, norm
from camech.axioms import _rerun, critical_value, greedy_mechanism
from camech.errors import ExponentNotSupported, InvalidArgument, TiesPresent
from camech.greedy import blocker, greedy_allocate, run_greedy
from camech.model import AuctionInstance, SingleMindedBid, allocation_value, bidder_utility
from camech.money import Money
from camech.norm import NormConfig, RankedList, TieRule, crossing_value, rank
from camech.experiments import random_instance, revenue_compare_tie_orders, scenario

L1 = NormConfig(F(1))
LHALF = NormConfig(F(1, 2))


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
    with pytest.raises(InvalidArgument, match="^bid 1 was denied; it has no blocker$"):
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
    assert out.payments[0] == Money.sqrt(2) * F(13, 2)
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
    assert all(bundle == inst.bids[j].bundle for j, bundle in allocation.grants.items())
    granted = [masks[j] for j in allocation.grants]
    assert not any(a & b for a, b in itertools.combinations(granted, 2))
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


def _check_blockers_against_rescan(inst, cfg, order=None):
    """Blockers and payments of `run_greedy`, or of the walk along `order`
    priced as `run_greedy` prices, against the rescan reference."""
    if order is None:
        out = run_greedy(inst, cfg)
    else:
        walked = greedy._walk(inst, RankedList(order, False))
        out = greedy._priced(inst, *walked, cfg.exponent)
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
            cfg = NormConfig(exponent)
            tied += _check_blockers_against_rescan(inst, cfg).trace.ranking.had_ties
            # a random order, walked as given
            _check_blockers_against_rescan(inst, cfg, tuple(order))
    assert tied > 250


def _counting_crossing_value(monkeypatch):
    calls = []

    def counting(bid, size, exponent):
        calls.append((bid.bidder, size))
        return crossing_value(bid, size, exponent)

    monkeypatch.setattr(greedy, "crossing_value", counting)
    return calls


def test_rerun_reading_only_the_allocation_prices_nothing(monkeypatch):
    calls = _counting_crossing_value(monkeypatch)
    inst = random_instance(8, 12, seed="lazy-prices:0")
    mech = greedy_mechanism(LHALF)
    out = mech.run(inst)
    assert out.allocation.granted and not calls
    # the critical check's probes read only each rerun's allocation; a
    # winner overlapping no other bid has one region to probe
    probes = [critical_value(mech, inst, j).probes for j in sorted(out.allocation.grants)]
    assert min(probes) >= 1 and max(probes) > 1
    assert not calls
    priced = [j for j, i in out.trace.blockers.items() if i is not None]
    assert priced
    tuple(out.payments)
    assert len(calls) == len(priced)


def test_payment_read_twice_is_computed_once(monkeypatch):
    calls = _counting_crossing_value(monkeypatch)
    out = run_greedy(three_bidder_instance(), L1)
    assert out.payments[0] is out.payments[0] is out.payments[-3]
    assert out.payments[0] == Money(F(19, 2))
    assert calls == [("green", 1)]
    with pytest.raises(IndexError):
        out.payments[3]
    with pytest.raises(IndexError):
        out.payments[-4]


def _eager_reference(inst, cfg):
    """Payments, revenue and utilities computed up front from the greedy
    trace: the reference a lazily priced outcome must equal."""
    allocation, trace = greedy_allocate(inst, cfg)
    bids = inst.bids
    payments = [Money(0)] * len(bids)
    for j, i in trace.blockers.items():
        if i is not None:
            payments[j] = crossing_value(bids[i], len(bids[j].bundle), cfg.exponent)
    revenue = sum((payments[j] for j, b in enumerate(bids) if not b.is_reserve), Money(0))
    utilities = {
        j: bidder_utility(inst.true_types.get(b.bidder, b), allocation.bundle_granted(j),
                          payments[j])
        for j, b in enumerate(bids) if not b.is_reserve
    }
    return tuple(payments), revenue, utilities


@pytest.mark.parametrize("exponent", [F(1), F(1, 2)], ids=str)
def test_lazy_prices_equal_eager_reference(exponent):
    cfg = NormConfig(exponent)
    rng = random.Random(f"lazy-reference:{exponent}")
    reserves = 0
    for t in range(60):
        inst = random_instance(6, 9, seed=f"lazy-reference:{t}")
        bids = [
            SingleMindedBid(b.bidder, b.bundle, b.amount, rng.random() < 0.2)
            for b in inst.bids
        ]
        liars = rng.sample(bids, 3)
        true_types = {
            b.bidder: b.with_amount(b.amount * F(rng.randint(1, 20), 10)) for b in liars
        }
        inst = AuctionInstance(inst.goods, tuple(bids), true_types)
        out = run_greedy(inst, cfg)
        payments, revenue, utilities = _eager_reference(inst, cfg)
        assert len(out.payments) == len(payments)
        assert tuple(out.payments) == payments
        assert out.revenue == revenue
        assert out.utilities == utilities
        reserves += sum(b.is_reserve for b in bids)
    assert reserves > 0


def _tie_heavy_instance(rng, exponent):
    """Bids whose norms take a few values, zero included, on bundles of
    sizes m**q, so equal norms recur across sizes: amount v * m**p has norm v."""
    p, q = exponent.numerator, exponent.denominator
    goods = tuple("abcdefgh")
    sides = [m for m in (1, 2) if m ** q <= len(goods)]
    bids = []
    for i in range(rng.randint(2, 8)):
        m = rng.choice(sides)
        v = F(rng.choice([0, 0, 1, 2, 3]), rng.choice([1, 2]))
        bids.append(bid(f"b{i}", rng.sample(goods, m ** q), v * m ** p))
    return AuctionInstance(goods, tuple(bids))


def _moved_bid(rng, inst, j, exponent):
    """A replacement for bid j: a tie-prone amount on a size-m**q bundle, the
    old bundle at a nudged, zero or new-denominator amount, or another
    bid's exact norm carried to bid j's bundle."""
    p, q = exponent.numerator, exponent.denominator
    old = inst.bids[j]
    kind = rng.randrange(4)
    if kind == 0:
        m = rng.choice([m for m in (1, 2) if m ** q <= len(inst.goods)])
        bundle = frozenset(rng.sample(inst.goods, m ** q))
        amount = F(rng.choice([0, 1, 2, 3]), rng.choice([1, 2])) * m ** p
    elif kind == 1:
        bundle = old.bundle
        amount = rng.choice([
            0, old.amount * (1 + F(1, 2 ** 20)), old.amount * (1 - F(1, 2 ** 20)),
            F(rng.randint(1, 40), rng.choice([1, 3, 7, 2 ** 20])),
        ])
    else:
        other = inst.bids[rng.randrange(len(inst.bids))]
        bundle = other.bundle if kind == 2 else old.bundle
        amount = other.amount  # same norm when the sizes agree
    return SingleMindedBid(old.bidder, bundle, amount, old.is_reserve)


def _ranked_and_run(inst, cfg):
    """Everything `rank` and `run_greedy` report, or the tied pairs raised."""
    try:
        ranked = rank(inst, cfg)
    except TiesPresent as exc:
        with pytest.raises(TiesPresent) as again:
            run_greedy(inst, cfg)
        assert list(again.value.pairs) == list(exc.pairs)
        return "ties", list(exc.pairs)
    out = run_greedy(inst, cfg)
    trace = out.trace
    assert trace.ranking.order == ranked.order
    return (
        ranked.order, ranked.had_ties,
        out.allocation.grants, trace.blocked_by, list(trace.blockers.items()),
        list(out.payments),
    )


@pytest.mark.parametrize("rule", list(TieRule), ids=lambda r: r.value)
@pytest.mark.parametrize("exponent", [F(0), F(1, 2), F(1), F(2)], ids=str)
def test_with_bid_children_rank_like_a_full_sort(exponent, rule):
    # a `with_bid` child inserts the moved bid into its origin's ranking;
    # the same bids rebuilt without an origin are sorted in full.  Each child
    # is also ranked under another tie rule and another exponent, so the
    # origin keeps one ranking for each configuration.
    rng = random.Random(f"insertion-parity:{exponent}:{rule.value}")
    other_rule = TieRule.REJECT if rule is TieRule.CANONICAL else TieRule.CANONICAL
    other_exponent = F(1, 2) if exponent == 1 else F(1)
    inserted = fallback = 0
    for t in range(80):
        if t % 2:
            inst = random_instance(6, rng.randint(2, 8), seed=f"insertion-parity:{t}")
        else:
            inst = _tie_heavy_instance(rng, exponent)
        n = len(inst.bids)
        cfg = NormConfig(exponent, rule)
        cfgs = (cfg, NormConfig(exponent, other_rule), NormConfig(other_exponent))
        for _ in range(5):
            j = rng.randrange(n)
            child = inst.with_bid(j, _moved_bid(rng, inst, j, exponent))
            # children of the child, which have no origin: one replacing the
            # same bid again and one replacing another bid
            k = rng.randrange(n)
            family = [child, child.with_bid(j, _moved_bid(rng, child, j, exponent)),
                      child.with_bid(k, _moved_bid(rng, child, k, exponent))]
            for member in family:
                parentless = AuctionInstance(member.goods, member.bids)
                for each in cfgs[::1 if rng.random() < 0.5 else -1]:
                    assert _ranked_and_run(member, each) == _ranked_and_run(parentless, each)
                if member.origin is not None:
                    if norm._inserted(member, cfg) is None:
                        fallback += 1
                    else:
                        inserted += 1
    assert inserted > 100 and fallback > 10


def _list_scan_walk(instance, ranking):
    """Reference walk: each denied bid lists every granted bid it meets; the
    first is the bid it is blocked by, and a sole one gets it as blocker."""
    masks = instance.bid_masks
    used = 0
    blocked, blockers = {}, {}
    for j in ranking.order:
        m = masks[j]
        if used & m:
            hits = [g for g in blockers if masks[g] & m]
            g = blocked[j] = hits[0]
            if len(hits) == 1 and blockers[g] is None:
                blockers[g] = j
        else:
            used |= m
            blockers[j] = None
    return blocked, blockers, {j: instance.bids[j].bundle for j in blockers}


def _check_walk(inst, ranking):
    allocation, trace = greedy._walk(inst, ranking)
    blocked, blockers, grants = _list_scan_walk(inst, trace.ranking)
    assert trace.blocked_by == blocked
    assert list(trace.blockers.items()) == list(blockers.items())
    assert list(allocation.grants.items()) == list(grants.items())
    return trace


@pytest.mark.parametrize("source", ["canonical", "explicit", "reject"])
def test_walk_matches_list_scan_reference(source):
    # the walk stops at the first granted bid a denied bid meets and tests
    # sole overlap on masks; the reference lists every granted bid it meets.
    # The order walked is `rank`'s under a tie rule, or an explicit random one
    rng = random.Random(f"walk-parity:{source}")
    walks = several = already = 0
    for t in range(200):
        exponent = rng.choice([F(0), F(1, 2), F(1)])
        if t % 2:
            base = random_instance(6, rng.randint(1, 10), seed=f"walk-parity:{t}")
        else:
            base = _tie_heavy_instance(rng, exponent)
        bids = tuple(
            SingleMindedBid(b.bidder, b.bundle, b.amount, rng.random() < 0.2) for b in base.bids
        )
        inst = AuctionInstance(base.goods, bids)
        n = len(bids)
        if source == "explicit":
            ranking = RankedList(tuple(rng.sample(range(n), n)), False)
        else:
            try:
                ranking = rank(inst, NormConfig(exponent, TieRule(source)))
            except TiesPresent:
                continue
        trace = _check_walk(inst, ranking)
        walks += 1
        masks = inst.bid_masks
        position = {b: p for p, b in enumerate(trace.ranking.order)}
        for j, g in trace.blocked_by.items():
            several += sum(bool(masks[h] & masks[j]) for h in trace.blockers) > 1
            # g already had a blocker when j was denied
            i = trace.blockers[g]
            already += i is not None and position[i] < position[j]
    assert walks > 100 and several > 100 and already > 100


def _tie_order_reference(inst, exponent):
    """Average revenue, order count and tie-group sizes over every order
    of the equal-norm bids, norms compared by cross-multiplying and each
    order walked by the list scan."""
    p, q = exponent.numerator, exponent.denominator
    bids = inst.bids

    def norm_cmp(i, j):  # negative when bid i has the larger norm
        lhs = bids[j].amount ** q * len(bids[i].bundle) ** p
        rhs = bids[i].amount ** q * len(bids[j].bundle) ** p
        return (lhs > rhs) - (lhs < rhs)

    groups = []
    for j in sorted(range(len(bids)), key=functools.cmp_to_key(norm_cmp)):
        if groups and norm_cmp(groups[-1][0], j) == 0:
            groups[-1].append(j)
        else:
            groups.append([j])
    revenues = []
    for parts in itertools.product(*(itertools.permutations(g) for g in groups)):
        order = tuple(itertools.chain.from_iterable(parts))
        _, blockers, _ = _list_scan_walk(inst, RankedList(order, False))
        revenues.append(sum(
            (crossing_value(bids[i], len(bids[j].bundle), exponent)
             for j, i in blockers.items() if i is not None and not bids[j].is_reserve),
            Money(0),
        ))
    average = sum(revenues, Money(0)) * F(1, len(revenues))
    return average, len(revenues), tuple(len(g) for g in groups)


@pytest.mark.parametrize("exponent", [F(0), F(1, 2), F(1), F(2)], ids=str)
def test_tie_order_average_matches_list_scan_reference(exponent):
    rng = random.Random(f"tie-orders:{exponent}")
    tied = 0
    for name in ("better", "notgood"):
        inst = scenario(name).instance
        compared = revenue_compare_tie_orders(inst, NormConfig(exponent))
        expected = _tie_order_reference(inst, exponent)
        assert (compared.greedy_average, compared.orders, compared.group_sizes) == expected
    for _ in range(60):
        base = _tie_heavy_instance(rng, exponent)
        bids = tuple(
            SingleMindedBid(b.bidder, b.bundle, b.amount, rng.random() < 0.2) for b in base.bids
        )
        inst = AuctionInstance(base.goods, bids)
        compared = revenue_compare_tie_orders(inst, NormConfig(exponent))
        expected = _tie_order_reference(inst, exponent)
        assert (compared.greedy_average, compared.orders, compared.group_sizes) == expected
        tied += compared.orders > 1
    assert tied > 30


def test_walk_denied_bid_meeting_two_grants():
    # C meets both A and B: it is blocked by A, the first granted, and it
    # blocks neither, since neither alone kept it out
    inst = AuctionInstance(
        ("a", "b"), (bid("A", "a", 10), bid("B", "b", 9), bid("C", "ab", 5)),
    )
    trace = _check_walk(inst, rank(inst, L1))
    assert trace.blocked_by == {2: 0}
    assert trace.blockers == {0: None, 1: None}


def test_walk_first_grant_met_already_has_a_blocker():
    # D blocks A; E then meets A alone and F meets A and B: both are
    # blocked by A, whose blocker stays D, and B keeps none
    inst = AuctionInstance(
        ("a", "b"),
        (bid("A", "a", 10), bid("B", "b", 9), bid("D", "a", 8), bid("E", "a", 7),
         bid("F", "ab", 2)),
    )
    trace = _check_walk(inst, rank(inst, L1))
    assert trace.blocked_by == {2: 0, 3: 0, 4: 0}
    assert trace.blockers == {0: 2, 1: None}
    assert run_greedy(inst, L1).payments[0] == Money(8)


def _rerun_input(rng, inst, exponent):
    """A replacement for a random bid j: a random bundle at another bid's
    crossing value at that bundle's size when it is rational, at another
    bid's or bid j's declared amount, at zero or at a fresh rational, each
    now and then nudged just above or below."""
    j = rng.randrange(len(inst.bids))
    old, other = inst.bids[j], inst.bids[rng.randrange(len(inst.bids))]
    bundle = frozenset(rng.sample(inst.goods, rng.randint(1, min(len(inst.goods), 4))))
    amounts = [other.amount, old.amount, F(0), F(rng.randint(1, 40), rng.choice([1, 3, 1000]))]
    if exponent.denominator <= 2:
        crossing = crossing_value(other, len(bundle), exponent)
        if crossing.is_rational:
            amounts += [sum(c for _, c in crossing.terms())] * 3
    amount = rng.choice(amounts) * (1 + rng.choice([0, 0, 0, 1, -1]) * F(1, 2 ** 20))
    return j, SingleMindedBid(old.bidder, bundle, amount, old.is_reserve)


def _bid_j_of_full_run(inst, j, new_bid, cfg):
    """Bid j's grant, payment and the ranking's ties from a full run of
    `inst.with_bid(j, new_bid)`, or the type of what that run raises."""
    try:
        out = run_greedy(inst.with_bid(j, new_bid), cfg)
        return out.allocation.bundle_granted(j), out.payments[j], out.trace.ranking.had_ties
    except (TiesPresent, ExponentNotSupported) as exc:
        return type(exc)


def _rerun_instances(rng, exponent, tag):
    """Seeded instances, and tie-heavy ones with zero amounts and reserve bids."""
    instances = [random_instance(6, rng.randint(2, 8), seed=f"{tag}:{t}") for t in range(6)]
    for _ in range(14):
        inst = _tie_heavy_instance(rng, exponent)
        instances.append(AuctionInstance(inst.goods, tuple(
            bid(b.bidder, b.bundle, b.amount, rng.random() < 0.3) for b in inst.bids
        )))
    return instances


@pytest.mark.parametrize("rule", list(TieRule), ids=lambda r: r.value)
@pytest.mark.parametrize("exponent", [F(0), F(1, 2), F(1), F(2)], ids=str)
def test_rerun_answer_matches_the_full_run(exponent, rule):
    # whenever greedy answers a rerun from the walk without bid j, its grant,
    # payment and ties equal a full run's read at bid j; the checkers' helper
    # equals that run always, and raises what it raises.  Replacing random
    # bids in turn keeps moving the kept walk from one bid j to another.
    cfg = NormConfig(exponent, rule)
    mech = greedy_mechanism(cfg)
    rng = random.Random(f"rerun-oracle:{exponent}:{rule.value}")
    answered = declined = raised = 0
    for inst in _rerun_instances(rng, exponent, "rerun-oracle"):
        for _ in range(40):
            j, new_bid = _rerun_input(rng, inst, exponent)
            expected = _bid_j_of_full_run(inst, j, new_bid, cfg)
            answer = greedy.rerun_greedy(inst, j, new_bid, cfg)
            if isinstance(expected, type):
                assert answer is None
                with pytest.raises(expected):
                    _rerun(mech, inst, j, new_bid)
                raised += 1
                continue
            if answer is None:
                declined += 1
            else:
                assert (answer.bundle, answer.price(), answer.had_ties) == expected
                answered += 1
            got = _rerun(mech, inst, j, new_bid)
            assert (got.bundle, got.price(), got.had_ties) == expected
        # a `with_bid` copy's own copies are sorted in full, so it gets no answer
        j, new_bid = _rerun_input(rng, inst, exponent)
        child = inst.with_bid(j, inst.bids[j])
        assert greedy.rerun_greedy(child, j, new_bid, cfg) is None
    assert answered > 200 and declined > 10
    assert (raised > 10) == (rule is TieRule.REJECT)


@pytest.mark.parametrize("rule", list(TieRule), ids=lambda r: r.value)
def test_rerun_answer_declines_cube_roots(rule):
    # at l = 1/3 the full run looks up every winner's ratio power and may
    # raise `ExponentNotSupported`, so greedy never answers; the helper
    # gives what the full run gives
    exponent = F(1, 3)
    cfg = NormConfig(exponent, rule)
    mech = greedy_mechanism(cfg)
    rng = random.Random(f"rerun-cube:{rule.value}")
    outcomes = set()
    for inst in _rerun_instances(rng, exponent, "rerun-cube"):
        for _ in range(10):
            j, new_bid = _rerun_input(rng, inst, exponent)
            assert greedy.rerun_greedy(inst, j, new_bid, cfg) is None
            expected = _bid_j_of_full_run(inst, j, new_bid, cfg)
            if isinstance(expected, type):
                with pytest.raises(expected):
                    _rerun(mech, inst, j, new_bid)
            else:
                got = _rerun(mech, inst, j, new_bid)
                assert (got.bundle, got.price(), got.had_ties) == expected
            outcomes.add(expected if isinstance(expected, type) else "ran")
    assert ExponentNotSupported in outcomes and "ran" in outcomes
