"""Greedy allocation, blockers, and the critical payment scheme."""

import functools
import itertools
import random
from fractions import Fraction as F

import pytest

from camech import exact, greedy, norm
from camech.axioms import _reruns, clarke_greedy_mechanism, critical_value, greedy_mechanism
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
    """Counts each payment priced: by a run, and by a rerun answer, which
    reads its blocker's crossing value off bid j's per-bid object."""
    calls = []
    crossing = norm.NormBid.crossing

    def counting(bid, size, exponent):
        calls.append((bid.bidder, size))
        return crossing_value(bid, size, exponent)

    def counting_crossing(replaced, i, size):
        calls.append((replaced.instance.bids[i].bidder, size))
        return crossing(replaced, i, size)

    monkeypatch.setattr(greedy, "crossing_value", counting)
    monkeypatch.setattr(norm.NormBid, "crossing", counting_crossing)
    return calls


def test_rerun_reading_only_the_allocation_prices_nothing(monkeypatch):
    calls = _counting_crossing_value(monkeypatch)
    inst = random_instance(8, 12, seed="lazy-prices:0")
    mech = greedy_mechanism(LHALF)
    out = mech.run(inst)
    # the run prices each winner that has a blocker, once, in grant order
    bids = inst.bids
    priced = [(bids[i].bidder, len(bids[j].bundle))
              for j, i in out.trace.blockers.items() if i is not None]
    assert out.allocation.granted and priced and calls == priced
    calls.clear()
    # the critical check's probes read only each rerun's allocation; a
    # winner overlapping no other bid has one region to probe
    probes = [critical_value(mech, inst, j).probes for j in sorted(out.allocation.grants)]
    assert min(probes) >= 1 and max(probes) > 1
    assert not calls


def test_run_greedy_prices_each_winner_once(monkeypatch):
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
    trace: the reference a run's outcome must equal."""
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
def test_run_greedy_prices_equal_eager_reference(exponent):
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
    """A replacement for a random bid j: a random bundle and 1-8 amounts in
    random order.  Each amount is another bid's crossing value at that
    bundle's size when it is rational, another bid's or bid j's declared
    amount, zero or a fresh rational, now and then nudged just above or
    below.  Now and then an amount repeats, and zero or an unnudged
    crossing value, which ties that bid, goes in the middle of the list."""
    n = len(inst.bids)
    j = rng.randrange(n)
    old = inst.bids[j]
    bundle = frozenset(rng.sample(inst.goods, rng.randint(1, min(len(inst.goods), 4))))

    def crossing():
        try:
            value = crossing_value(inst.bids[rng.randrange(n)], len(bundle), exponent)
        except ExponentNotSupported:
            return None
        return sum(c for _, c in value.terms()) if value.is_rational else None

    def amount():
        amounts = [inst.bids[rng.randrange(n)].amount, old.amount, F(0),
                   F(rng.randint(1, 40), rng.choice([1, 3, 1000]))]
        if (c := crossing()) is not None:
            amounts += [c] * 3
        return rng.choice(amounts) * (1 + rng.choice([0, 0, 0, 1, -1]) * F(1, 2 ** 20))

    amounts = [amount() for _ in range(rng.randint(1, 8))]
    for planted in (rng.choice(amounts), F(0), crossing()):
        if planted is not None and len(amounts) < 8 and rng.random() < 0.3:
            amounts.insert(rng.randint(1, len(amounts)), planted)
    return j, bundle, amounts


def _bid_j_of_full_run(run, inst, j, new_bid, cfg):
    """Bid j's grant, payment and the ranking's ties from a full run of
    `inst.with_bid(j, new_bid)`, or the type of what that run raises."""
    try:
        out = run(inst.with_bid(j, new_bid), cfg)
        return out.allocation.bundle_granted(j), out.payments[j], out.trace.ranking.had_ties
    except (TiesPresent, ExponentNotSupported) as exc:
        return type(exc)


def _rerun_instances(rng, exponent, tag):
    """Seeded instances, tie-heavy ones with zero amounts and reserve bids,
    and a one-bid instance."""
    instances = [random_instance(6, rng.randint(2, 8), seed=f"{tag}:{t}") for t in range(6)]
    for _ in range(14):
        inst = _tie_heavy_instance(rng, exponent)
        instances.append(AuctionInstance(inst.goods, tuple(
            bid(b.bidder, b.bundle, b.amount, rng.random() < 0.3) for b in inst.bids
        )))
    instances.append(random_instance(6, 1, seed=f"{tag}:one"))
    return instances


def _full_runs(run, inst, j, bundle, amounts, cfg):
    """`_bid_j_of_full_run` for bid j moved to `bundle` at each amount."""
    old = inst.bids[j]
    return [_bid_j_of_full_run(run, inst, j, SingleMindedBid(old.bidder, bundle, a, old.is_reserve),
                               cfg) for a in amounts]


def _assert_reruns_match(mech, replaced, inst, j, bundle, amounts, expected):
    """`_reruns` off bid j's per-bid object `replaced` gives, amount by
    amount, what the full run gives, yields the `TiesPresent` it raises and
    raises anything else it raises."""
    results = _reruns(mech, replaced, inst, j, bundle, amounts)
    for e in expected:
        if e is TiesPresent:
            assert isinstance(next(results), TiesPresent)
        elif isinstance(e, type):
            with pytest.raises(e):
                next(results)
            return
        else:
            got = next(results)
            assert (got.bundle, got.price(), got.had_ties) == e
    assert next(results, None) is None


def _assert_answers_match(run, mech, cfg, rng, exponent, tag):
    """Whenever `mech`'s per-bid object answers an amount, its grant,
    payment and ties equal the full `run`'s read at bid j; the checkers'
    helper equals that run always, and raises what it raises.  One per-bid
    object answers every call for its bid j on an instance, so what it
    keeps from one call serves the next.  The amounts one call grants
    share one answer.  A `with_bid` copy, and a copy of it, answer like any
    instance.  Returns how many amounts were answered, declined and raised
    in the full run, how many of them came in a call declined as a whole,
    how many calls declined an amount between two answered, and how many
    calls granted more than one amount."""
    counts = {"answered": 0, "declined": 0, "raised": 0, "whole": 0, "middle": 0, "shared": 0}

    def check(inst, replaced):
        j, bundle, amounts = _rerun_input(rng, inst, exponent)
        if j not in replaced:
            replaced[j] = mech.bid(inst, j)
        expected = _full_runs(run, inst, j, bundle, amounts, cfg)
        got = replaced[j].rerun(bundle, amounts)
        if got is None:
            counts["whole"] += len(amounts)
            got = [None] * len(amounts)
        assert len(got) == len(amounts)
        answered = [i for i, g in enumerate(got) if g is not None]
        counts["middle"] += bool(answered) and None in got[answered[0]:answered[-1]]
        won = [g for g in got if g is not None and g.bundle]
        assert all(g is won[0] for g in won)
        counts["shared"] += len(won) > 1
        for g, e in zip(got, expected):
            if isinstance(e, type):
                assert g is None
                counts["raised"] += 1
            elif g is None:
                counts["declined"] += 1
            else:
                assert (g.bundle, g.price(), g.had_ties) == e
                counts["answered"] += 1
        _assert_reruns_match(mech, replaced[j], inst, j, bundle, amounts, expected)

    for inst in _rerun_instances(rng, exponent, tag):
        replaced = {}
        for _ in range(15):
            check(inst, replaced)
        j, bundle, amounts = _rerun_input(rng, inst, exponent)
        old = inst.bids[j]
        child = inst.with_bid(j, SingleMindedBid(old.bidder, bundle, amounts[0], old.is_reserve))
        k, moved, moved_amounts = _rerun_input(rng, child, exponent)
        grandchild = child.with_bid(k, SingleMindedBid(
            child.bids[k].bidder, moved, moved_amounts[0], child.bids[k].is_reserve
        ))
        for member in (child, grandchild):
            replaced = {}
            for _ in range(3):
                check(member, replaced)
    return counts


@pytest.mark.parametrize("rule", list(TieRule), ids=lambda r: r.value)
@pytest.mark.parametrize("exponent", [F(0), F(1, 2), F(1), F(2)], ids=str)
def test_rerun_answer_matches_the_full_run(exponent, rule):
    cfg = NormConfig(exponent, rule)
    rng = random.Random(f"rerun-oracle:{exponent}:{rule.value}")
    counts = _assert_answers_match(
        run_greedy, greedy_mechanism(cfg), cfg, rng, exponent, "rerun-oracle"
    )
    assert counts["answered"] > 500 and counts["declined"] > 20 and counts["middle"] > 10, counts
    assert counts["shared"] > 20, counts
    assert (counts["raised"] > 10) == (rule is TieRule.REJECT) == (counts["whole"] > 10), counts


@pytest.mark.parametrize("rule", list(TieRule), ids=lambda r: r.value)
@pytest.mark.parametrize("exponent", [F(0), F(1, 3), F(1, 2), F(1), F(2)], ids=str)
def test_clarke_rerun_answer_matches_the_full_run(exponent, rule):
    # Clarke-with-greedy prices no crossing value, so it answers at l = 1/3
    # too, and declines only on ties
    cfg = NormConfig(exponent, rule)
    rng = random.Random(f"clarke-oracle:{exponent}:{rule.value}")
    counts = _assert_answers_match(
        exact.clarke_with_greedy, clarke_greedy_mechanism(cfg), cfg, rng, exponent,
        "clarke-oracle",
    )
    assert counts["answered"] > 500 and counts["declined"] > 20 and counts["middle"] > 10, counts
    assert counts["shared"] > 20, counts
    assert (counts["raised"] > 10) == (rule is TieRule.REJECT) == (counts["whole"] > 10), counts


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
            j, bundle, amounts = _rerun_input(rng, inst, exponent)
            replaced = mech.bid(inst, j)
            assert replaced.rerun(bundle, amounts) is None
            expected = _full_runs(run_greedy, inst, j, bundle, amounts, cfg)
            _assert_reruns_match(mech, replaced, inst, j, bundle, amounts, expected)
            outcomes.update(e if isinstance(e, type) else "ran" for e in expected)
    assert ExponentNotSupported in outcomes and "ran" in outcomes
