"""Axiom checks, critical values, and the misreport search."""

from dataclasses import replace
from fractions import Fraction as F

import pytest

from camech.axioms import (
    Mechanism,
    clarke_greedy_mechanism,
    critical_value,
    find_profitable_deviation,
    greedy_mechanism,
    gva_mechanism,
    run_axiom_suite,
)
from camech.errors import BundleSpaceTooLarge, InvalidArgument, NonMonotoneDetected
from camech.exact import SolverKind, run_gva
from camech.experiments import random_instance
from camech.greedy import run_greedy
from camech.model import Allocation, AuctionInstance, Outcome, SingleMindedBid
from camech.money import Money
from camech.norm import NormConfig

L1 = NormConfig(F(1))
LHALF = NormConfig(F(1, 2))


def bid(name, bundle, amount):
    return SingleMindedBid(name, frozenset(bundle), amount)


def three_bidder_instance(truthful=False):
    inst = AuctionInstance(
        ("a", "b"),
        (bid("red", "a", 10), bid("green", "ab", 19), bid("blue", "b", 8)),
    )
    return inst.assuming_truthful() if truthful else inst


def competitive_instance():
    return AuctionInstance(
        ("a", "b"),
        (bid("red", "a", 20), bid("green", "b", 15), bid("blue", "ab", 20)),
    )


# -- critical values --------------------------------------------------------


def no_thresholds(instance, j, bundle):
    return []


#: The reference prober stops once its bracket is this narrow.
BRACKET_WIDTH = F(1, 10 ** 9)


def probe_bracket(mech, instance, j):
    """Reference oracle: grow, then bisect, a bracket (lo, hi] around bid j's
    critical value by re-running `mech`; None when j never wins."""
    bundle = instance.bids[j].bundle

    def granted_at(v):
        return mech.run(instance.with_amount(j, v)).allocation.bundle_granted(j) == bundle

    ceiling = (sum(b.amount for b in instance.bids) + 1) * 2
    lo, hi, v = F(0), None, F(1)
    while v <= ceiling:
        if granted_at(v):
            hi = v
            break
        lo, v = v, v * 2
    if hi is None:
        return None
    for check in (hi * 2, hi * 4):  # spot-check monotonicity above the bracket
        if check <= ceiling and not granted_at(check):
            raise NonMonotoneDetected(f"bid {j}: granted at {hi} but denied at {check}")
    while hi - lo > BRACKET_WIDTH:
        mid = (lo + hi) / 2
        if granted_at(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def test_critical_value_matches_payment():
    mech = greedy_mechanism(L1)
    cv = critical_value(mech, three_bidder_instance(), 0)
    assert cv.value == Money(F(19, 2))


def test_critical_value_zero_when_unthreatened():
    mech = greedy_mechanism(L1)
    cv = critical_value(mech, competitive_instance(), 0)
    assert cv.value == Money(0)


def test_critical_value_lone_bidder():
    inst = AuctionInstance(("a",), (bid("solo", "a", 3),))
    cv = critical_value(greedy_mechanism(L1), inst, 0)
    assert cv.value == Money(0)
    gva = gva_mechanism(SolverKind.BITMASK_DP)
    assert critical_value(gva, inst, 0).value == Money(0)
    lo, hi = probe_bracket(gva, inst, 0)
    assert lo <= Money(0) <= hi and hi <= Money(F(1, 10 ** 8))


def test_critical_value_infinite():
    # a reserve-style blocker so large the bid can never win
    inst = AuctionInstance(
        ("a", "b"),
        (bid("red", "ab", 5), bid("wall", "a", 10 ** 9)),
    )

    def denies_red(instance):
        allocation = Allocation.of_indices(instance, [1])
        return Outcome(allocation, (Money(0), Money(0)), Money(0))

    walled = Mechanism("wall", denies_red, no_thresholds)
    cv = critical_value(walled, inst, 0)
    assert cv.value is None
    assert probe_bracket(walled, inst, 0) is None


def test_critical_value_probing_agrees_with_thresholds():
    mechanisms = (
        greedy_mechanism(L1), greedy_mechanism(LHALF),
        gva_mechanism(SolverKind.BITMASK_DP), gva_mechanism(SolverKind.BRUTE_FORCE_BID_SUBSETS),
    )
    for mech in mechanisms:
        for t in range(6):
            inst = random_instance(5, 7, seed=f"cv-agree:{t}")
            for j in sorted(mech.run(inst).allocation.grants):
                lo, hi = probe_bracket(mech, inst, j)
                assert lo <= critical_value(mech, inst, j).value <= hi


def test_critical_value_gva_brackets_clarke_payment():
    mech = gva_mechanism(SolverKind.BITMASK_DP)
    cv = critical_value(mech, three_bidder_instance(), 1)
    assert cv.value == Money(18)
    lo, hi = probe_bracket(mech, three_bidder_instance(), 1)
    assert lo <= Money(18) <= hi


def test_gva_critical_value_equals_clarke_payment():
    # every fourth instance gains an auctioneer's reserve bid on two goods,
    # at 1/2, 1 or 3/2 times the top amount, so that it sometimes wins
    winners = reserve_winners = 0
    for t in range(120):
        inst = random_instance(4, 5, seed=f"gva-threshold:{t}")
        if t % 4 == 0:
            amount = max(b.amount for b in inst.bids) * F(t % 3 + 1, 2)
            reserve = SingleMindedBid("seller", frozenset(inst.goods[:2]), amount, True)
            inst = AuctionInstance(inst.goods, inst.bids + (reserve,))
        solver = (SolverKind.BITMASK_DP, SolverKind.BRUTE_FORCE_BID_SUBSETS)[t % 2]
        mech = gva_mechanism(solver)
        out = run_gva(inst, solver)
        for j in sorted(out.allocation.grants):
            winners += 1
            reserve_winners += inst.bids[j].is_reserve
            assert critical_value(mech, inst, j).value == out.payments[j]
    assert winners >= 200 and reserve_winners > 0


def _window(instance):
    # grants red only while its amount stays in (9.5, 15): not monotone
    a = instance.bids[0].amount
    granted = [0] if Money(F(19, 2)) < a < Money(15) else []
    allocation = Allocation.of_indices(instance, granted)
    return Outcome(allocation, (Money(0),) * 3, Money(0))


WINDOW = Mechanism("window", _window, lambda i, j, bundle: [Money(F(19, 2)), Money(15)])


def test_nonmonotone_detected_threshold_route():
    with pytest.raises(NonMonotoneDetected):
        critical_value(WINDOW, three_bidder_instance(), 0)


def test_nonmonotone_is_a_violated_critical_check():
    inst = three_bidder_instance().with_amount(0, 12)  # red wins inside its window
    with pytest.raises(NonMonotoneDetected) as raised:
        critical_value(WINDOW, inst, 0)
    (check,) = run_axiom_suite(WINDOW, [inst], ["critical"]).checks
    assert (check.axiom, check.verdict, check.samples) == ("critical", "violated", 1)
    assert check.detail == str(raised.value) and check.witness is None


def test_nonmonotone_detected_probing_route():
    # the threshold scan and the reference prober both catch a lone bidder's window
    inst = AuctionInstance(("a",), (bid("x", "a", 2),))

    def window(instance):
        a = instance.bids[0].amount
        granted = [0] if Money(F(1, 2)) < a < Money(3) else []
        return Outcome(Allocation.of_indices(instance, granted), (Money(0),), Money(0))

    broken = Mechanism("window", window, lambda i, j, bundle: [Money(F(1, 2)), Money(3)])
    with pytest.raises(NonMonotoneDetected):
        critical_value(broken, inst, 0)
    with pytest.raises(NonMonotoneDetected):
        probe_bracket(broken, inst, 0)


# -- the four checks --------------------------------------------------------


def _sample(count, k=5, n=7, tag="axiom"):
    return [random_instance(k, n, seed=f"{tag}:{t}") for t in range(count)]


def test_greedy_passes_all_axioms_small_suite():
    for cfg in (L1, LHALF):
        report = run_axiom_suite(greedy_mechanism(cfg), _sample(25), seed=3)
        assert report.all_hold, [c for c in report.checks if not c.holds]


def test_gva_passes_exactness_participation():
    mech = gva_mechanism(SolverKind.BITMASK_DP)
    instances = _sample(15, tag="gva-ax")
    report = run_axiom_suite(mech, instances, ["exactness", "participation"])
    assert [c.axiom for c in report.checks] == ["exactness", "participation"]
    assert all(c.holds for c in report.checks)


def test_gva_critical_exact():
    mech = gva_mechanism(SolverKind.BITMASK_DP)
    instances = _sample(4, k=4, n=5, tag="gva-crit")
    (check,) = run_axiom_suite(mech, instances, ["critical"]).checks
    assert check.holds


def test_monotonicity_paper_perturbations():
    # raising red keeps it granted; shrinking green's pair to one good wins it
    inst = three_bidder_instance()
    raised = inst.with_amount(0, 12)
    out = run_greedy(raised, L1)
    assert 0 in out.allocation.grants
    shrunk = inst.with_bid(1, bid("green", "a", 19))
    out = run_greedy(shrunk, L1)
    assert 1 in out.allocation.grants


def test_planted_partial_grant_fails_exactness():
    def partial(instance):
        bundle = sorted(instance.bids[1].bundle)[:1]
        allocation = Allocation({1: frozenset(bundle)})
        return Outcome(allocation, (Money(0),) * len(instance.bids), Money(0))

    (check,) = run_axiom_suite(
        Mechanism("partial", partial, no_thresholds), [three_bidder_instance()], ["exactness"]
    ).checks
    assert check.verdict == "violated"
    assert check.witness is not None and check.witness.bid_index == 1


def test_planted_loser_charge_fails_participation():
    def charge(instance):
        out = run_greedy(instance, L1)
        payments = list(out.payments)
        for j in range(len(instance.bids)):
            if j not in out.allocation.grants:
                payments[j] = Money(1)
        return Outcome(out.allocation, tuple(payments), out.revenue, trace=out.trace)

    (check,) = run_axiom_suite(
        Mechanism("charge", charge, no_thresholds), [three_bidder_instance()], ["participation"]
    ).checks
    assert check.verdict == "violated"


def test_clarke_with_greedy_fails_critical_with_witness():
    mech = clarke_greedy_mechanism(L1)
    inst = three_bidder_instance(truthful=True)
    (check,) = run_axiom_suite(mech, [inst], ["critical"]).checks
    assert check.verdict == "violated"
    assert check.witness.bid_index == 0
    assert "11" in check.witness.description and "9.5" in check.witness.description


def test_greedy_critical_exact_on_paper_examples():
    mech = greedy_mechanism(L1)
    strong = AuctionInstance(
        ("a", "b"),
        (bid("red", "ab", 20), bid("green", "a", 9), bid("black", "b", 1)),
    )
    (check,) = run_axiom_suite(mech, [three_bidder_instance(), strong], ["critical"]).checks
    assert check.holds and check.samples == 2


def test_suite_runs_each_instance_once():
    runs = []

    def counting_run(instance, run=greedy_mechanism(L1).run):
        runs.append(instance)
        return run(instance)

    mech = replace(greedy_mechanism(L1), run=counting_run)
    instances = _sample(5, tag="run-once")
    report = run_axiom_suite(mech, instances, ["participation", "exactness"])
    assert [c.axiom for c in report.checks] == ["exactness", "participation"]
    assert runs == instances
    runs.clear()
    assert run_axiom_suite(mech, instances, []).checks == () and runs == []


def test_suite_rejects_unknown_axiom():
    with pytest.raises(InvalidArgument, match="unknown axiom name: bogus"):
        run_axiom_suite(greedy_mechanism(L1), [three_bidder_instance()], ["exactness", "bogus"])


# -- deviation search -------------------------------------------------------


def test_truthful_greedy_has_no_profitable_deviation():
    mech = greedy_mechanism(L1)
    inst = three_bidder_instance(truthful=True)
    for j in range(3):
        assert find_profitable_deviation(mech, inst, j) is None


def test_clarke_with_greedy_deviation_found():
    mech = clarke_greedy_mechanism(L1)
    inst = three_bidder_instance(truthful=True)
    report = find_profitable_deviation(mech, inst, 0)
    assert report is not None
    assert report.truthful_utility == Money(-1)
    assert report.deviating_utility == Money(0)
    assert report.bundles_searched == 3
    # the report is replayable: re-run the misreport and get the same utility
    replay = mech.run(inst.with_bid(0, report.misreport))
    granted = replay.allocation.bundle_granted(0)
    value = Money(10) if frozenset({"a"}) <= granted else Money(0)
    assert value - replay.payments[0] == report.deviating_utility


def test_lone_bidder_no_deviation():
    inst = AuctionInstance(("a",), (bid("solo", "a", 3),))
    assert find_profitable_deviation(greedy_mechanism(L1), inst, 0) is None


def test_gva_no_deviation_small():
    mech = gva_mechanism(SolverKind.BITMASK_DP)
    for t in range(4):
        inst = random_instance(4, 5, seed=f"gva-dev:{t}")
        for j in range(len(inst.bids)):
            assert find_profitable_deviation(mech, inst, j) is None


def test_deviation_search_runs_every_candidate_once():
    # candidate lists are shared by bundles with equal thresholds, but each
    # candidate is still one mechanism run, plus one for the truthful report
    found = 0
    for t in range(6):
        inst = random_instance(4, 6, seed=f"count-runs:{t}").assuming_truthful()
        mech = clarke_greedy_mechanism(L1)
        runs = []

        def counting_run(instance, run=mech.run):
            runs.append(instance)
            return run(instance)

        counting = replace(mech, run=counting_run)
        for j in range(len(inst.bids)):
            runs.clear()
            report = find_profitable_deviation(counting, inst, j)
            if report is not None:
                found += 1
                assert len(runs) == report.candidates_tested + 1
    assert found > 0


def test_checkers_run_mechanisms_on_rational_instances_only():
    # at l = 1/2 most crossings are radicals; the probes around them are not
    for base in (greedy_mechanism(LHALF), clarke_greedy_mechanism(LHALF)):
        ran = []

        def recording_run(instance, run=base.run):
            ran.append(instance)
            return run(instance)

        mech = replace(base, run=recording_run)
        for t in range(3):
            inst = random_instance(3, 4, seed=t + 1)
            assert any(not v.is_rational for v in mech.thresholds(inst, 0, inst.bids[0].bundle))
            for j in sorted(base.run(inst).allocation.grants):
                critical_value(mech, inst, j)
            for j in range(len(inst.bids)):
                find_profitable_deviation(mech, inst, j)
        assert ran and all(i.integer_amounts is not None for i in ran)
        assert all(type(b.amount) is F for i in ran for b in i.bids)


def test_deviation_guard():
    goods = tuple(f"g{i}" for i in range(17))
    inst = AuctionInstance(goods, (bid("x", {"g0"}, 1),))
    with pytest.raises(BundleSpaceTooLarge):
        find_profitable_deviation(greedy_mechanism(L1), inst, 0)


def test_sufficiency_pipeline_small():
    """Where all four axioms hold, no bidder can profit from any misreport."""
    for cfg in (L1, LHALF):
        mech = greedy_mechanism(cfg)
        for t in range(6):
            inst = random_instance(4, 5, seed=f"pipeline:{t}")
            report = run_axiom_suite(mech, [inst], seed=t)
            assert report.all_hold
            for j in range(len(inst.bids)):
                assert find_profitable_deviation(mech, inst, j) is None


def test_truthful_utilities_nonnegative_greedy():
    for t in range(20):
        inst = random_instance(6, 8, seed=f"nonneg:{t}").assuming_truthful()
        out = run_greedy(inst, L1)
        assert all(u >= Money(0) for u in out.utilities.values())
