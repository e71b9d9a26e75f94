"""Scenario registry, reproduction rows, tie-order revenue, ratio suites."""

from fractions import Fraction as F
from math import factorial

import pytest

from camech import experiments
from camech.errors import TiesPresent, TooManyTieOrders, UnknownScenario, ValuationUndefined
from camech.exact import SolverKind, optimal_allocation
from camech.experiments import (
    complex_player_utility,
    random_instance,
    ratio_bound,
    ratio_experiment,
    reproduce_all,
    revenue_compare_tie_orders,
    scenario,
    scenario_names,
    tight_experiment,
    tight_family,
)
from camech.greedy import greedy_allocate, run_greedy
from camech.model import AuctionInstance, SingleMindedBid, allocation_value, validate_instance
from camech.money import Money
from camech.norm import NormConfig, TieRule, rank


def test_registry_contents():
    names = set(scenario_names())
    assert names == {
        "greedyall", "clarke-fail", "greedyp", "greedycomp", "complex-green",
        "impossibility-setup", "better", "notgood", "best", "worseeff",
        "worsenoteff",
    }
    with pytest.raises(UnknownScenario):
        scenario("nonesuch")


def test_scenario_instances_spot_checks():
    best = scenario("best").instance
    assert [(b.bidder, sorted(b.bundle), b.amount) for b in best.bids] == [
        ("red", ["a", "b"], Money(20)),
        ("green", ["a"], Money(9)),
        ("black", ["b"], Money(1)),
    ]
    better = scenario("better").instance
    assert len(better.goods) == 4
    assert all(b.amount == Money(1) for b in better.bids)
    greedyall = scenario("greedyall").instance
    assert len(greedyall.bids) == 3
    assert all(not validate_instance(scenario(n).instance) for n in scenario_names())


def test_reproduce_all_passes():
    rows = reproduce_all()
    assert rows, "no expectation rows produced"
    failures = [r for r in rows if not r.passed]
    assert not failures, failures
    assert {r.provenance for r in rows} <= {"paper", "derived", "trivial"}
    # every scenario contributes at least one row
    assert {r.scenario for r in rows} == set(scenario_names())


def test_tie_orders_better():
    sc = scenario("better")
    comparison = revenue_compare_tie_orders(sc.instance, NormConfig(F(1)))
    assert comparison.greedy_average == Money(F(2, 3))
    assert comparison.gva_revenue == Money(0)
    assert comparison.orders == factorial(3)
    assert comparison.group_sizes == (3,)


def test_tie_orders_notgood():
    sc = scenario("notgood")
    comparison = revenue_compare_tie_orders(sc.instance, NormConfig(F(1)))
    assert comparison.greedy_average == Money(F(2, 3))
    assert comparison.gva_revenue == Money(2)
    assert comparison.orders == factorial(4)


def test_tie_orders_tie_free_instance():
    inst = scenario("greedyp").instance
    comparison = revenue_compare_tie_orders(inst, NormConfig(F(1)))
    assert comparison.orders == 1
    assert comparison.greedy_average == run_greedy(inst, NormConfig(F(1))).revenue


def test_tie_orders_guard():
    goods = tuple(f"g{i}" for i in range(20))
    bids = tuple(
        SingleMindedBid(f"b{i}", {goods[i]}, 1) for i in range(20)
    )
    with pytest.raises(TooManyTieOrders):
        revenue_compare_tie_orders(AuctionInstance(goods, bids), NormConfig(F(1)))


def test_random_instance_properties():
    inst = random_instance(6, 9, seed="gen:0")
    assert validate_instance(inst) == []
    assert len(inst.goods) == 6 and len(inst.bids) == 9
    # tie-free under the three default exponents
    for exponent in (F(0), F(1, 2), F(1)):
        rank(inst, NormConfig(exponent, TieRule.REJECT))
    # deterministic
    again = random_instance(6, 9, seed="gen:0")
    assert [(b.bidder, sorted(b.bundle), b.amount) for b in again.bids] == [
        (b.bidder, sorted(b.bundle), b.amount) for b in inst.bids
    ]
    different = random_instance(6, 9, seed="gen:1")
    assert [b.amount for b in different.bids] != [b.amount for b in inst.bids]


def test_ratio_experiment_small():
    stats = ratio_experiment(5, 7, 40, F(1, 2), "ratio-small")
    assert stats.violations == ()
    assert stats.trials == 40
    assert 1.0 <= stats.max_ratio <= 5 ** 0.5 + 1e-9
    assert stats.bound_label == "sqrt(5)"


def test_ratio_experiment_single_bid_is_exactly_optimal():
    stats = ratio_experiment(4, 1, 10, F(1), "ratio-single")
    assert stats.max_ratio == 1.0
    assert stats.bound_label == "4"


def test_ratio_bound_sides_and_labels():
    # ratio**2 against k at l = 1/2, ratio against k at l = 1, no bound elsewhere
    assert ratio_bound(F(2), 4, F(1, 2)) == (0, "sqrt(4)")
    assert ratio_bound(F(21, 10), 4, F(1, 2)) == (1, "sqrt(4)")
    assert ratio_bound(F(399, 100), 4, F(1)) == (-1, "4")
    assert ratio_bound(F(4), 4, F(1)) == (0, "4")
    assert ratio_bound(F(9), 4, F(2)) == (None, "none")


def test_tight_experiment_rows():
    (row,) = tight_experiment(F(1), (2,))
    assert (row.goods_count, row.bound_label) == (2, "2")
    assert (row.greedy, row.optimal, row.ratio) == (F(1001, 1000), F(2), F(2000, 1001))
    assert row.reaches_bound  # 2000/1001 >= 19/20 * 2
    assert [r.goods_count for r in tight_experiment(F(1, 2))] == [4, 9, 16]


def test_tight_family_l1():
    inst = tight_family(4, F(1))
    cfg = NormConfig(F(1))
    allocation, _ = greedy_allocate(inst, cfg)
    greedy_value = allocation_value(inst, allocation)
    opt = optimal_allocation(inst, SolverKind.BITMASK_DP).value
    assert greedy_value == Money(F(1001, 1000))
    assert opt == Money(4)
    ratio = opt / greedy_value
    assert ratio == F(4000, 1001)  # about 3.996
    assert ratio >= F(19, 20) * 4


def test_tight_family_lhalf():
    inst = tight_family(4, F(1, 2))
    cfg = NormConfig(F(1, 2))
    allocation, _ = greedy_allocate(inst, cfg)
    greedy_value = allocation_value(inst, allocation)
    opt = optimal_allocation(inst, SolverKind.BITMASK_DP).value
    assert greedy_value == Money(F(1001, 1000))
    assert opt == Money(2)  # sqrt(4) exactly, 4 being a perfect square
    ratio = opt / greedy_value
    assert ratio == F(2000, 1001)  # about 1.998
    assert ratio * ratio >= (F(19, 20) ** 2) * 4


def test_tight_family_l1_k2():
    inst = tight_family(2, F(1))
    allocation, _ = greedy_allocate(inst, NormConfig(F(1)))
    ratio = (
        optimal_allocation(inst, SolverKind.BITMASK_DP).value
        / allocation_value(inst, allocation)
    )
    assert ratio == F(2000, 1001)


def test_tight_family_non_square_k():
    inst = tight_family(8, F(1, 2))
    cfg = NormConfig(F(1, 2))
    allocation, _ = greedy_allocate(inst, cfg)
    greedy_value = allocation_value(inst, allocation)
    # the point bid must still win the ranking
    assert allocation.granted == {0}
    opt = optimal_allocation(inst, SolverKind.BITMASK_DP).value
    ratio = opt / greedy_value
    assert ratio * ratio >= (F(19, 20) ** 2) * 8


def test_complex_player_utility_values():
    sc = scenario("complex-green")
    cfg = NormConfig(F(1))
    truthful = run_greedy(sc.instance, cfg)
    assert complex_player_utility(
        sc.instance, "green", sc.complex_table, truthful
    ) == Money(6)
    shaded = run_greedy(sc.variants["deviating"], cfg)
    assert complex_player_utility(
        sc.variants["deviating"], "green", sc.complex_table, shaded
    ) == Money(10)


def test_complex_player_utility_empty():
    sc = scenario("complex-green")
    inst = sc.instance
    from camech.model import Allocation, Outcome

    nothing = Outcome(Allocation({}), (Money(0),) * 4, Money(0))
    assert complex_player_utility(inst, "green", sc.complex_table, nothing) == Money(0)


def test_complex_player_utility_undefined():
    sc = scenario("complex-green")
    inst = sc.instance
    from camech.model import Allocation, Outcome

    # grant red only; red is not green's agent, so query the table with {a}
    # granted to green via a fake grant of a bundle outside the table
    table = {frozenset({"a", "b"}): Money(30)}
    out = Outcome(Allocation({2: frozenset({"b"})}), (Money(0),) * 4, Money(0))
    with pytest.raises(ValuationUndefined):
        complex_player_utility(inst, "green", table, out)


def test_impossibility_regimes():
    sc = scenario("impossibility-setup")
    cfg = NormConfig(F(1))
    high = run_greedy(sc.instance, cfg)
    assert sorted(high.allocation.grants) == [2]  # pair bid takes both goods
    low = run_greedy(sc.variants["low"], cfg)
    granted = sorted(sc.variants["low"].bids[j].bidder for j in low.allocation.grants)
    assert granted == ["green:b", "red"]


def test_random_instance_redraws_on_ties(monkeypatch):
    calls = []

    def tie_once(inst, cfg):
        calls.append(cfg)
        if len(calls) == 1:
            raise TiesPresent("forced tie")
        return rank(inst, cfg)

    monkeypatch.setattr(experiments, "rank", tie_once)
    inst = random_instance(4, 5, seed="redraw")
    assert len(inst.bids) == 5
    assert len(calls) > 1
