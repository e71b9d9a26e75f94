"""Exact solvers, Clarke payments, GVA, and the Clarke-with-greedy demonstrator."""

import itertools
import random
from fractions import Fraction as F

import pytest

from camech import exact
from camech.errors import InstanceTooLarge, TiesPresent
from camech.exact import (
    MAX_BRUTE_SUBSETS,
    MAX_DP_CELLS,
    SolverKind,
    clarke_with_greedy,
    optimal_allocation,
    run_gva,
)
from camech.experiments import random_instance
from camech.greedy import greedy_allocate
from camech.model import AuctionInstance, SingleMindedBid, allocation_value, assemble_outcome
from camech.money import Money
from camech.norm import NormConfig, TieRule

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


def test_clarke_with_greedy_zeroed_reruns_do_not_reject_ties():
    # the input is tie-free, but bid a at zero would tie b @ 0; the value
    # without a is read off the ranking with a left out, so REJECT prices
    # as CANONICAL does instead of raising
    inst = AuctionInstance(
        ("x", "y", "z"), (bid("a", "x", 5), bid("b", "y", 0), bid("c", "z", 3))
    )
    for exponent in (F(1), F(1, 2)):
        canonical = clarke_with_greedy(inst, NormConfig(exponent))
        rejecting = clarke_with_greedy(inst, NormConfig(exponent, TieRule.REJECT))
        assert rejecting.allocation.grants == canonical.allocation.grants
        assert list(rejecting.payments) == list(canonical.payments)


def _zeroed_rerun_payments(inst, cfg):
    """Clarke-with-greedy's payments with each value without bid j taken
    from a greedy rerun with j's amount at zero, under the canonical tie
    rule: the reference the walk with j left out must equal."""
    allocation, _ = greedy_allocate(inst, cfg)
    total = allocation_value(inst, allocation)
    payments = []
    for j, b in enumerate(inst.bids):
        zeroed = inst.with_amount(j, 0)
        without = allocation_value(zeroed, greedy_allocate(zeroed, NormConfig(cfg.exponent))[0])
        others = total - b.amount if j in allocation.grants else total
        payments.append(Money(without - others))
    return payments


@pytest.mark.parametrize("rule", list(TieRule), ids=lambda r: r.value)
@pytest.mark.parametrize("exponent", [F(0), F(1, 2), F(1), F(2)], ids=str)
def test_clarke_with_greedy_matches_zeroed_reruns(exponent, rule):
    # tie-heavy draws: norms v on bundles of sizes m**q (amount v * m**p),
    # v often zero; and tie-free draws with one amount set to zero, which
    # bid j at zero ties under REJECT
    p, q = exponent.numerator, exponent.denominator
    rng = random.Random(f"clarke-greedy-parity:{exponent}:{rule.value}")
    cfg = NormConfig(exponent, rule)
    checked = zero = reserve = 0
    for t in range(300):
        if t % 2:
            base = random_instance(6, rng.randint(1, 7), seed=f"clarke-greedy-parity:{t}")
            goods = base.goods
            zeroed = rng.randrange(len(base.bids))
            drawn = [(b.bundle, 0 if i == zeroed else b.amount) for i, b in enumerate(base.bids)]
        else:
            goods = tuple("abcdef")
            drawn = []
            for _ in range(rng.randint(1, 7)):
                m = rng.choice([m for m in (1, 2) if m ** q <= len(goods)])
                v = F(rng.choice([0, 0, 1, 2, 3]), rng.choice([1, 2]))
                drawn.append((rng.sample(goods, m ** q), v * m ** p))
        bids = tuple(
            SingleMindedBid(f"b{i}", bundle, amount, rng.random() < 0.2)
            for i, (bundle, amount) in enumerate(drawn)
        )
        inst = AuctionInstance(goods, bids)
        try:
            expected = _zeroed_rerun_payments(inst, cfg)
        except TiesPresent:
            with pytest.raises(TiesPresent):
                clarke_with_greedy(inst, cfg)
            continue
        out = clarke_with_greedy(inst, cfg)
        assert list(out.payments) == expected
        checked += 1
        zero += any(b.amount == 0 for b in bids)
        reserve += any(b.is_reserve for b in bids)
    assert checked > 150 and zero > 150 and reserve > 75


def test_size_guards():
    goods = tuple(f"g{i}" for i in range(25))
    inst = AuctionInstance(goods, (bid("x", {"g0"}, 1),))
    with pytest.raises(InstanceTooLarge):
        optimal_allocation(inst, DP)
    # one bid past the DP's table-cell bound: (bids + 1) * 2**20 cells
    goods = tuple(f"g{i}" for i in range(20))
    n = MAX_DP_CELLS >> 20
    over = AuctionInstance(goods, tuple(bid(f"b{i}", {f"g{i}"}, i + 1) for i in range(n)))
    with pytest.raises(InstanceTooLarge, match="table cells"):
        optimal_allocation(over, DP)
    with pytest.raises(InstanceTooLarge, match="table cells"):
        run_gva(over, DP)
    many = AuctionInstance(
        ("a",), tuple(bid(f"b{i}", "a", i + 1) for i in range(25))
    )
    with pytest.raises(InstanceTooLarge):
        optimal_allocation(many, BRUTE)
    # a goods count far past the bound is refused on k alone: no bundle
    # masks are built and the cell count is never printed in full
    huge = AuctionInstance(tuple(f"g{i}" for i in range(20000)), (bid("x", {"g0"}, 1),))
    with pytest.raises(InstanceTooLarge, match=r"need 2 \* 2\*\*20000"):
        optimal_allocation(huge, DP)
    assert "bid_masks" not in huge.__dict__


def test_brute_force_gva_run_refused_past_subset_bound(monkeypatch):
    # a brute-force GVA run makes n + 1 solves of 2**n bid subsets each:
    # three bids visit 4 * 2**3 = 32
    three = AuctionInstance(("a", "b"), (bid("x", "a", 3), bid("y", "ab", 5), bid("z", "b", 4)))
    monkeypatch.setattr(exact, "MAX_BRUTE_SUBSETS", 32)
    assert run_gva(three, BRUTE).payments == run_gva(three, DP).payments
    monkeypatch.setattr(exact, "MAX_BRUTE_SUBSETS", 31)
    with pytest.raises(InstanceTooLarge, match="bid subsets"):
        run_gva(three, BRUTE)
    monkeypatch.undo()
    # at the real bound, 18 bids (19 * 2**18 subsets) are refused before
    # the first solve, where 17 (18 * 2**17) would run; the DP runs them
    eighteen = AuctionInstance(("a",), tuple(bid(f"b{i}", "a", i + 1) for i in range(18)))
    solved = []
    monkeypatch.setattr(exact, "_solve_brute", lambda *args: solved.append(args))
    with pytest.raises(InstanceTooLarge, match="18 bids"):
        run_gva(eighteen, BRUTE)
    assert solved == [] and (18 << 17) <= MAX_BRUTE_SUBSETS < (19 << 18)
    assert run_gva(eighteen, DP).allocation.granted == {17}


def test_brute_force_solve_refused_past_subset_bound(monkeypatch):
    # one brute-force solve visits 2**n bid subsets, charged against the
    # bound a GVA run shares: three bids visit 8
    three = AuctionInstance(("a", "b"), (bid("x", "a", 3), bid("y", "ab", 5), bid("z", "b", 4)))
    monkeypatch.setattr(exact, "MAX_BRUTE_SUBSETS", 8)
    assert optimal_allocation(three, BRUTE).value == optimal_allocation(three, DP).value == 7
    monkeypatch.setattr(exact, "MAX_BRUTE_SUBSETS", 7)
    with pytest.raises(InstanceTooLarge, match="3 bids visits 2\\*\\*bids bid subsets"):
        optimal_allocation(three, BRUTE)
    monkeypatch.undo()
    # at the real bound, 23 bids are refused before the sweep, where 22 would run
    many = AuctionInstance(("a",), tuple(bid(f"b{i}", "a", i + 1) for i in range(23)))
    solved = []
    monkeypatch.setattr(exact, "_solve_brute", lambda *args: solved.append(args))
    with pytest.raises(InstanceTooLarge, match="23 bids"):
        optimal_allocation(many, BRUTE)
    assert solved == [] and 1 << 22 <= MAX_BRUTE_SUBSETS < 1 << 23


def _gva_by_per_bid_solves(inst):
    """GVA outcome with each "without j" optimum from its own DP solve."""
    actual = optimal_allocation(inst, DP)
    payments = []
    for j, b in enumerate(inst.bids):
        others = actual.value - b.amount if j in actual.allocation.grants else actual.value
        payments.append(Money(optimal_allocation(inst.with_amount(j, 0), DP).value - others))
    meta = {"unique_optimum": actual.unique, "solver": DP.value}
    return assemble_outcome(inst, actual.allocation, tuple(payments), None, meta)


def _gva_dump(out):
    meta = {key: value for key, value in out.meta.items() if key != "solver"}
    return out.allocation.grants, out.payments, out.revenue, meta


def _tie_heavy_instances(count, seed):
    rng = random.Random(seed)
    goods = ("a", "b", "c", "d")
    for _ in range(count):
        yield AuctionInstance(goods, tuple(
            SingleMindedBid(
                f"b{i}", frozenset(rng.sample(goods, rng.randint(1, 3))),
                rng.randint(0, 3), is_reserve=rng.random() < 0.2,
            )
            for i in range(rng.randint(0, 7))
        ))


def test_gva_leave_one_out_parity():
    # the forward walk against per-bid DP re-solves and the brute-force oracle
    twelve = tuple(f"g{i}" for i in range(12))
    four = ("a", "b", "c", "d")
    instances = [
        AuctionInstance(("a",), ()),
        AuctionInstance(("a",), (bid("x", "a", 7),)),
        # disjoint bids: the walk reaches every one of the 2**12 goods sets
        AuctionInstance(twelve, tuple(bid(f"b{i}", {g}, i + 1) for i, g in enumerate(twelve))),
        # every bid on the full bundle
        AuctionInstance(four, tuple(bid(f"b{i}", four, a) for i, a in enumerate((5, 9, 2, 9, 7)))),
        # repeated identical bundles at equal amounts
        AuctionInstance(four, tuple(bid(f"b{i}", "ab" if i % 2 else "cd", 4) for i in range(6))),
        # bids worth zero, which the walk never extends by
        AuctionInstance(four, (
            bid("z0", "a", 0), bid("x", "ab", 3), bid("z1", "cd", 0),
            bid("y", "c", 2), bid("z2", four, 0), bid("w", "d", 1),
        )),
        # three one-good bids on each good
        AuctionInstance(four, tuple(bid(f"b{i}", four[i % 4], 1 + i % 3) for i in range(12))),
        *(random_instance(6, 9, seed=f"loo-parity:{t}") for t in range(20)),
        *_tie_heavy_instances(150, "loo-ties"),
        *(random_instance(12, 16, seed=f"loo-parity-large:{t}") for t in range(3)),
    ]
    for inst in instances:
        dp = run_gva(inst, DP)
        assert dp.meta["solver"] == DP.value
        assert _gva_dump(dp) == _gva_dump(_gva_by_per_bid_solves(inst))
        assert _gva_dump(dp) == _gva_dump(run_gva(inst, BRUTE))


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(exact, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(exact, name, counted)
    return calls


def test_gva_work_pinned(monkeypatch):
    # the DP route reads the allocation and every "without j" optimum off
    # one value-table pass; the brute-force oracle re-solves once per bid
    inst = random_instance(6, 9, seed="gva-work")
    solves = _count_calls(monkeypatch, "optimal_allocation")
    passes = _count_calls(monkeypatch, "_value_tables")
    run_gva(inst, DP)
    assert (len(solves), len(passes)) == (0, 1)
    solves.clear()
    passes.clear()
    run_gva(inst, BRUTE)
    assert (len(solves), len(passes)) == (len(inst.bids) + 1, 0)


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
        granted = [inst.bid_masks[j] for j in out.allocation.grants]
        assert not any(a & b for a, b in itertools.combinations(granted, 2))
        assert all(out.allocation.grants[j] == inst.bids[j].bundle for j in out.allocation.grants)
        for j in range(len(inst.bids)):
            assert out.payments[j] >= Money(0)
            if not out.is_granted(j):
                assert out.payments[j] == Money(0)
            else:
                assert out.payments[j] <= inst.bids[j].amount


def test_solver_equivalence_tie_heavy():
    # tiny integer amounts force many co-optimal allocations; both solvers
    # must still pick the same lexicographically smallest winner set and
    # count the same optima
    rng = random.Random("tie-heavy")
    goods = ("a", "b", "c", "d")
    instances = []
    for _ in range(120):
        n = rng.randint(1, 6)
        bids = tuple(
            bid(f"b{i}", rng.sample(goods, rng.randint(1, 3)), rng.randint(0, 3))
            for i in range(n)
        )
        instances.append(AuctionInstance(goods, bids))
    # all amounts zero: every conflict-free subset, the empty one included, is optimal
    zeros = AuctionInstance(goods, tuple(bid(f"z{i}", m, 0) for i, m in enumerate(
        ["a", "b", "ab", "cd", "c", "abcd", "d", "bc"]
    )))
    # two equal bids on each of six goods: 2**6 optima
    six = tuple("abcdef")
    pairs = AuctionInstance(six, tuple(bid(f"{g}{i}", g, 1) for g in six for i in range(2)))
    for inst in [*instances, zeros, pairs]:
        dp = optimal_allocation(inst, DP)
        brute = optimal_allocation(inst, BRUTE)
        assert dp.value == brute.value
        assert dp.allocation.granted == brute.allocation.granted
        assert dp.optima_count == brute.optima_count
    assert optimal_allocation(zeros, DP).optima_count == sum(
        not any(a & b for a, b in itertools.combinations(sub, 2))
        for r in range(len(zeros.bids) + 1)
        for sub in itertools.combinations(zeros.bid_masks, r)
    )
    assert optimal_allocation(pairs, DP).optima_count == 2 ** 6


def test_optimal_dominates_greedy():
    from camech.greedy import greedy_allocate
    from camech.model import allocation_value

    for t in range(30):
        inst = random_instance(7, 10, seed=f"dominate:{t}")
        opt = optimal_allocation(inst, DP).value
        for exponent in (F(0), F(1, 2), F(1)):
            allocation, _ = greedy_allocate(inst, NormConfig(exponent))
            assert opt >= allocation_value(inst, allocation)
