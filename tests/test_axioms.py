"""Axiom checks, critical values, and the misreport search."""

import gc
import hashlib
import itertools
import random
import threading
import weakref
from bisect import bisect_left
from types import SimpleNamespace
from unittest import mock
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camech import axioms, documents, exact, greedy, norm
from camech.axioms import (
    MECHANISMS,
    PROBE_SCALE,
    CriticalValue,
    Mechanism,
    _brackets,
    _candidate_values,
    _grid,
    _probe_above,
    _toward,
    check_planned_reruns,
    clarke_greedy_mechanism,
    critical_value,
    find_profitable_deviation,
    greedy_mechanism,
    gva_mechanism,
    run_axiom_suite,
)
from camech.errors import InstanceTooLarge, InvalidArgument, TiesPresent
from camech.exact import SolverKind, run_gva
from camech.experiments import random_instance
from camech.greedy import run_greedy
from camech.model import (
    Allocation, AuctionInstance, IntegerAmounts, SingleMindedBid, assemble_outcome,
)
from camech.money import Money
from camech.norm import NormConfig, TieRule, crossing_value

L1 = NormConfig(F(1))
LHALF = NormConfig(F(1, 2))
DP = SolverKind.BITMASK_DP


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


def per_bid(thresholds, rerun=lambda bundle, amounts: None):
    """A per-bid object of the given `thresholds` and `rerun` functions;
    by default it answers no rerun."""
    return SimpleNamespace(thresholds=thresholds, rerun=rerun)


def full_runs(mech):
    """`mech` whose per-bid objects keep its thresholds and answer no
    rerun, so the checkers run every rerun in full."""
    return replace(mech, bid=lambda instance, j: per_bid(mech.bid(instance, j).thresholds))


def recording(mech, record):
    """`mech` passing each of its evaluations to `record` once, as the
    instance it ran on: every full run, and every amount that a per-bid
    object's `rerun` answers, as `instance.with_bid(j, bid)`; an amount it
    declines is recorded by the full run that follows.  The checkers read
    a rerun's answers once and in order, so each answer is recorded as it
    is read, and the evaluations keep the amounts' order."""
    def run(instance):
        record(instance)
        return mech.run(instance)

    def bid(instance, j):
        replaced = mech.bid(instance, j)
        bidder, is_reserve = instance.bids[j].bidder, instance.bids[j].is_reserve

        def rerun(bundle, amounts):
            answers = replaced.rerun(bundle, amounts)
            if answers is None:
                return None

            def read():
                for amount, answer in zip(amounts, answers):
                    if answer is not None:
                        record(instance.with_bid(
                            j, SingleMindedBid(bidder, bundle, amount, is_reserve)
                        ))
                    yield answer

            return read()

        return per_bid(replaced.thresholds, rerun)

    return replace(mech, run=run, bid=bid)


# -- critical values --------------------------------------------------------


def _fixed(*values):
    """A planted per-bid factory whose objects list `values` for every
    bundle, as both the kept values and the grid, and answer no rerun."""
    return lambda instance, j: per_bid(lambda bundle: (list(values), list(values)))


no_thresholds = _fixed()


#: The reference prober stops once its bracket is this narrow.
BRACKET_WIDTH = F(1, 10 ** 9)


class ProbedNonMonotone(Exception):
    """The reference prober found a denial above a grant."""


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
            raise ProbedNonMonotone(f"bid {j}: granted at {hi} but denied at {check}")
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
        return assemble_outcome(instance, allocation, (Money(0), Money(0)))

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
    return assemble_outcome(instance, allocation, (Money(0),) * 3)


WINDOW = Mechanism("window", _window, _fixed(Money(F(19, 2)), Money(15)))


def test_nonmonotone_detected_threshold_route():
    cv = critical_value(WINDOW, three_bidder_instance(), 0)
    assert cv.value is None and cv.witness.bid_index == 0
    assert cv.witness.description.startswith("bid 0: granted at ")


def test_nonmonotone_is_a_violated_critical_check():
    # the denial above a grant violates both checks that read the scan, each
    # with the same witness: red at the denied probe, which replays the loss
    inst = three_bidder_instance().with_amount(0, 12)  # red wins inside its window
    scanned = critical_value(WINDOW, inst, 0).witness
    report = run_axiom_suite(WINDOW, [inst], ["critical", "monotonicity"])
    assert [(c.axiom, c.verdict, c.samples) for c in report.checks] == [
        ("monotonicity", "violated", 1), ("critical", "violated", 1),
    ]
    for check in report.checks:
        witness = check.witness
        assert witness.description == scanned.description and witness.bid_index == 0
        assert witness.instance.bids[0].amount > 15
        assert WINDOW.run(witness.instance).allocation.bundle_granted(0) == frozenset()
    doc = documents.check_report_document(report, None)
    assert [c["witness"]["description"] for c in doc["checks"]] == [scanned.description] * 2
    assert documents.parse_instance_text(
        documents.to_json(doc["checks"][1]["witness"]["instance"])
    ).bids[0].amount == witness.instance.bids[0].amount


def test_nonmonotone_detected_probing_route():
    # the threshold scan and the reference prober both catch a lone bidder's window
    inst = AuctionInstance(("a",), (bid("x", "a", 2),))

    def window(instance):
        a = instance.bids[0].amount
        granted = [0] if Money(F(1, 2)) < a < Money(3) else []
        return assemble_outcome(instance, Allocation.of_indices(instance, granted), (Money(0),))

    broken = Mechanism("window", window, _fixed(Money(F(1, 2)), Money(3)))
    cv = critical_value(broken, inst, 0)
    assert cv.value is None and cv.witness.instance.bids[0].amount >= 3
    with pytest.raises(ProbedNonMonotone):
        probe_bracket(broken, inst, 0)


# -- the four checks --------------------------------------------------------


def _sample(count, k=5, n=7, tag="axiom"):
    return [random_instance(k, n, seed=f"{tag}:{t}") for t in range(count)]


def test_greedy_passes_all_axioms_small_suite():
    for cfg in (L1, LHALF):
        report = run_axiom_suite(greedy_mechanism(cfg), _sample(25))
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
        return assemble_outcome(instance, allocation, (Money(0),) * len(instance.bids))

    (check,) = run_axiom_suite(
        Mechanism("partial", partial, no_thresholds), [three_bidder_instance()], ["exactness"]
    ).checks
    assert check.verdict == "violated"
    assert check.witness is not None and check.witness.bid_index == 1


def test_planted_loser_charge_fails_participation():
    # a loser charged one unit, a bare `Fraction`, a negative amount or a
    # positive radical below 1e-8 is flagged alike
    tiny = Money.sqrt(2) - Money(F(141421356, 10 ** 8))
    assert 0 < tiny < Money(F(1, 10 ** 8))
    for fee in (Money(1), F(1, 3), Money(-2), tiny):
        def charge(instance, fee=fee):
            out = run_greedy(instance, L1)
            payments = list(out.payments)
            for j in range(len(instance.bids)):
                if j not in out.allocation.grants:
                    payments[j] = fee
            return assemble_outcome(instance, out.allocation, tuple(payments), out.trace)

        (check,) = run_axiom_suite(
            Mechanism("charge", charge, no_thresholds), [three_bidder_instance()],
            ["participation"],
        ).checks
        assert check.verdict == "violated", fee
        assert check.witness.bid_index == 1
        assert check.witness.description.startswith("denied bid 1 pays ")


def _grants_while(instance, keep):
    """An outcome granting, for free, every bid j for which keep(j, bid) holds."""
    granted = [j for j, b in enumerate(instance.bids) if keep(j, b)]
    return assemble_outcome(
        instance, Allocation.of_indices(instance, granted), (Money(0),) * len(instance.bids)
    )


def test_planted_loss_on_a_raise_fails_monotonicity():
    # each bid wins only up to its declared amount, so the first raised
    # perturbation of a winner loses, and the witness instance replays it
    inst = AuctionInstance(("a", "b"), (bid("x", "a", 10), bid("y", "b", 8)))
    declared = [b.amount for b in inst.bids]
    capped = Mechanism(
        "capped", lambda i: _grants_while(i, lambda j, b: b.amount <= declared[j]), no_thresholds
    )
    (check,) = run_axiom_suite(capped, [inst], ["monotonicity"]).checks
    assert (check.verdict, check.samples, check.witness.bid_index) == ("violated", 1, 0)
    witness = check.witness.instance
    assert witness.bids[0].amount > declared[0]
    assert capped.run(witness).allocation.bundle_granted(0) == frozenset()
    assert "lost after moving to ['a']@" in check.witness.description


def test_planted_loss_at_twice_the_amount_fails_monotonicity():
    # each bid wins below twice its declared amount and declares that
    # threshold, so the critical scan's probe just above it finds the loss,
    # which no raise of at most double the amount reaches
    inst = AuctionInstance(("a", "b"), (bid("x", "a", 10), bid("y", "b", 8)))
    declared = [b.amount for b in inst.bids]
    doubled = Mechanism(
        "doubled", lambda i: _grants_while(i, lambda j, b: b.amount < 2 * declared[j]),
        lambda instance, j: per_bid(lambda bundle: ([Money(2 * declared[j])],) * 2),
    )
    (check,) = run_axiom_suite(doubled, [inst], ["monotonicity"]).checks
    assert (check.verdict, check.samples, check.witness.bid_index) == ("violated", 1, 0)
    witness = check.witness.instance
    assert 20 < witness.bids[0].amount < F(201, 10)
    assert doubled.run(witness).allocation.bundle_granted(0) == frozenset()
    assert check.witness.description.startswith("bid 0: granted at 19.99")


def test_planted_loss_on_a_smaller_bundle_fails_monotonicity():
    # x wins {a, b, c} and loses every proper sub-bundle at its amount; {a}
    # and {b}, which y does not overlap, form one class, so its least member
    # {a} is the first sub-bundle rerun, and the witness replays its loss
    inst = AuctionInstance(("a", "b", "c"), (bid("x", "abc", 10), bid("y", "c", 8)))
    sizes = [len(b.bundle) for b in inst.bids]
    whole = Mechanism(
        "whole", lambda i: _grants_while(i, lambda j, b: len(b.bundle) == sizes[j]), no_thresholds
    )
    (check,) = run_axiom_suite(whole, [inst], ["monotonicity"]).checks
    assert (check.verdict, check.samples, check.witness.bid_index) == ("violated", 1, 0)
    witness = check.witness.instance
    assert (witness.bids[0].bundle, witness.bids[0].amount) == (frozenset("a"), 10)
    assert whole.run(witness).allocation.bundle_granted(0) == frozenset()
    assert check.witness.description == (
        "bid 0 was granted as ['a', 'b', 'c']@10 but lost after moving to ['a']@10"
    )


def _classes_by_submask(instance, j):
    """Every non-empty proper sub-mask of bid j's mask grouped by size and
    the set of other bids it meets, each group's least member, in order."""
    masks = instance.bid_masks
    mask, least = masks[j], {}
    for sub in range(1, masks[j]):
        if sub & mask == sub:
            met = frozenset(i for i, m in enumerate(masks) if i != j and m & sub)
            least.setdefault((sub.bit_count(), met), sub)
    return sorted(least.values())


def _classes_by_counts(instance, j):
    """The same groups from how many goods a sub-bundle takes from each set
    of goods that meet the same other bids: a least member takes each set's
    lowest goods, so only those choices are tried."""
    masks = instance.bid_masks
    mask = masks[j]
    alike = {}
    for g in range(mask.bit_length()):
        if mask >> g & 1:
            meets = frozenset(i for i, m in enumerate(masks) if i != j and m >> g & 1)
            alike.setdefault(meets, []).append(g)
    least = {}
    for counts in itertools.product(*(range(len(gs) + 1) for gs in alike.values())):
        sub = sum(1 << g for gs, c in zip(alike.values(), counts) for g in gs[:c])
        if 0 < sub < mask:
            meets = frozenset().union(*(m for m, c in zip(alike, counts) if c))
            key = (sub.bit_count(), meets)
            least[key] = min(least.get(key, sub), sub)
    return sorted(least.values())


def _classes(instance, j, most=None):
    """`axioms._sub_bundle_classes` of bid j."""
    return axioms._sub_bundle_classes(instance.bid_masks[j], axioms._holders(instance), most)


def test_sub_bundle_classes_match_every_sub_bundle():
    rng = random.Random("sub-bundle-classes")
    for t in range(12):
        k, n = (16, 6) if t < 2 else (rng.randint(1, 12), rng.randint(1, 9))
        goods = tuple(f"g{i}" for i in range(k))
        bundles = [goods] if t < 2 else []
        bundles += [rng.sample(goods, rng.randint(1, k)) for _ in range(n - len(bundles))]
        inst = AuctionInstance(goods, tuple(bid(f"b{i}", b, 1) for i, b in enumerate(bundles)))
        for j in range(n):
            expected = _classes_by_submask(inst, j)
            assert _classes(inst, j) == expected == _classes_by_counts(inst, j)
            # the DP stops once it holds more classes than allowed
            assert _classes(inst, j, len(expected)) == expected
            if expected:
                assert _classes(inst, j, len(expected) - 1) is None
    # a 30-good bundle, 2**30 - 2 sub-bundles, met by three other bids
    goods = tuple(f"g{i}" for i in range(32))
    others = [rng.sample(goods, 6) for _ in range(3)]
    inst = AuctionInstance(goods, tuple(
        bid(f"b{i}", b, 1) for i, b in enumerate([goods[:30], *others])
    ))
    classes = _classes(inst, 0)
    assert classes == _classes_by_counts(inst, 0) and len(classes) > 100


def test_planted_grant_at_one_amount_has_infinite_critical_value():
    # bid x wins only at exactly its declared amount, which no probe hits
    inst = AuctionInstance(("a", "b"), (bid("x", "a", 10), bid("y", "b", 8)))
    pinned = Mechanism(
        "pinned", lambda i: _grants_while(i, lambda j, b: j == 0 and b.amount == 10),
        _fixed(Money(10)),
    )
    (check,) = run_axiom_suite(pinned, [inst], ["critical"]).checks
    assert (check.verdict, check.witness.bid_index) == ("violated", 0)
    assert check.witness.description == "granted bid 0 has an infinite critical value"


def test_monotonicity_skips_tied_perturbations():
    # at l = 1, shrinking x's {a, b} at 10 to one good ties y's {c} at 10;
    # {a} and {b} overlap no other bid, so they form one class, rerun once
    # at {a}; under REJECT that rerun raises and is skipped, and only the
    # two raises are compared
    inst = AuctionInstance(("a", "b", "c"), (bid("x", "ab", 10), bid("y", "c", 10)))
    mech = greedy_mechanism(NormConfig(F(1), TieRule.REJECT))
    tied = []

    def run(instance):
        try:
            return mech.run(instance)
        except TiesPresent:
            tied.append(instance)
            raise

    # greedy's rerun answer declines the tie, so the full run raises on both paths
    for counted in (replace(mech, run=run), full_runs(replace(mech, run=run))):
        tied.clear()
        (check,) = run_axiom_suite(counted, [inst], ["monotonicity"]).checks
        assert check.holds and check.detail == "2 moves rerun, 1 skipped on ties"
        assert [i.bids[0].bundle for i in tied] == [frozenset("a")]


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


def test_suite_ranks_each_perturbation_once(monkeypatch):
    # a monotonicity rerun's tie test reads the mechanism's own ranking, so
    # an l = 1/2 suite ranks exactly once per mechanism run; a rerun with
    # tied norms still runs the mechanism once and is then skipped
    ranks = []
    rank = norm.rank

    def counting_rank(instance, cfg):
        ranks.append(instance)
        return rank(instance, cfg)

    for module in (norm, greedy, axioms, exact):
        if vars(module).get("rank") is rank:
            monkeypatch.setattr(module, "rank", counting_rank)
    runs = []

    def counting_run(instance, run=greedy_mechanism(LHALF).run):
        runs.append(instance)
        return run(instance)

    mech = full_runs(replace(greedy_mechanism(LHALF), run=counting_run))
    tied = AuctionInstance(("a", "b", "c"), (
        bid("red", "ab", 4), bid("green", "c", 2), bid("blue", "a", 2), bid("black", "bc", 3),
    ))
    report = run_axiom_suite(mech, [*_sample(6, tag="rank-once"), tied])
    assert any(rank(inst, LHALF).had_ties for inst in runs)
    assert report.checks[1].detail.endswith(" skipped on ties")
    assert not report.checks[1].detail.endswith(" 0 skipped on ties")
    assert ranks == runs


#: Per norm exponent, over `random_instance(8, 12, seed=f"suite-pin:{t}")`
#: for t < 8 in one suite: the number of mechanism runs, and a sha256
#: prefix over each rerun's replaced bid (index, sorted bundle, amount; the
#: suite's own runs replace none) and every check's axiom, verdict, samples
#: and detail.  Recorded from the suite whose critical and monotonicity
#: checks share one scan per winner and whose monotonicity check reruns one
#: raise and one sub-bundle per class (98 moves); the sampled check it
#: replaced made 396 runs, the same verdicts.
_SUITE_PINS = {
    "1/2": (264, "7d4641f6be97f7b5"),
    "1": (264, "a26d92f98eb81737"),
}


@pytest.mark.parametrize("exponent", list(_SUITE_PINS))
def test_axiom_suite_reruns_pinned(exponent):
    mech = greedy_mechanism(NormConfig(F(exponent)))
    h, runs = hashlib.sha256(), []
    instances = [random_instance(8, 12, seed=f"suite-pin:{t}") for t in range(8)]

    def record(instance):
        # a rerun's copy shares every bid object with its suite instance but
        # the replaced one; the suite's own runs replace none
        for base in instances:
            moved = [j for j, (a, b) in enumerate(zip(base.bids, instance.bids)) if a is not b]
            if len(moved) <= 1:
                break
        if not moved:
            runs.append(None)
        else:
            j = moved[0]
            b = instance.bids[j]
            runs.append((j, sorted(b.bundle), b.amount))

    report = run_axiom_suite(recording(mech, record), instances)
    h.update(repr(runs).encode())
    for c in report.checks:
        h.update(repr((c.axiom, c.verdict, c.samples, c.detail)).encode())
    assert (len(runs), h.hexdigest()[:16]) == _SUITE_PINS[exponent]


def test_suite_rejects_unknown_axiom():
    with pytest.raises(InvalidArgument, match="unknown axiom name: bogus"):
        run_axiom_suite(greedy_mechanism(L1), [three_bidder_instance()], ["exactness", "bogus"])


def test_suite_plans_before_rejecting_unknown_axiom(monkeypatch):
    # as `check` orders its refusals: a plan past a budget wins over a bad name
    monkeypatch.setattr(axioms, "MAX_PLANNED_RERUNS", 3)
    with pytest.raises(InstanceTooLarge, match="mechanism reruns"):
        run_axiom_suite(greedy_mechanism(L1), [three_bidder_instance()], ["critical", "bogus"])


def test_suite_counts_each_bids_sub_bundle_classes_once(monkeypatch):
    # the planner's one pass per bid is the list the monotonicity check
    # reruns: no second count for the winners
    passes = []
    count = axioms._sub_bundle_classes

    def counting(mask, holders, most=None):
        passes.append(mask)
        return count(mask, holders, most)

    monkeypatch.setattr(axioms, "_sub_bundle_classes", counting)
    mech = greedy_mechanism(L1)
    instances = [random_instance(8, 12, seed=f"suite-pin:{t}") for t in range(3)]
    for inst in instances:
        passes.clear()
        classes = check_planned_reruns(mech, inst, ["monotonicity"])
        assert passes == list(inst.bid_masks)
        assert classes == [count(m, axioms._holders(inst)) for m in inst.bid_masks]
        assert check_planned_reruns(mech, inst, ["critical"], deviations=True) == []
    passes.clear()
    report = run_axiom_suite(mech, instances)
    assert report.all_hold and passes == [m for inst in instances for m in inst.bid_masks]


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


def _forced_bid_entry(instance, j):
    """Bid j's GVA entry value by re-solving, as a per-bid object's
    thresholds: OPT without j, less the value of the optimum once j is
    forced in with a bundle at a winning amount.  It answers no rerun."""
    opt_without = exact.optimal_allocation(instance.with_amount(j, 0), DP).value
    big = opt_without + 1
    old = instance.bids[j]

    def entry(bundle):
        forced = instance.with_bid(j, SingleMindedBid(old.bidder, bundle, big, old.is_reserve))
        compatible = exact.optimal_allocation(forced, DP).value - big
        value = [Money(max(opt_without - compatible, 0))]
        return value, value

    return per_bid(entry)


def test_gva_search_builds_one_table_per_bidder(monkeypatch):
    # every bundle of one search reads one value table of the other bids,
    # and no threshold re-solves the instance
    inst = random_instance(4, 5, seed="gva-solves:0")
    mech = gva_mechanism(SolverKind.BITMASK_DP)
    inside, solves, tables = [], [], []

    def counted(name, calls):
        original = getattr(exact, name)

        def count(*args):
            if inside:
                calls.append(args)
            return original(*args)

        monkeypatch.setattr(exact, name, count)

    counted("optimal_allocation", solves)
    counted("_value_tables", tables)

    def inside_thresholds(call, *args):
        inside.append(args)
        try:
            return call(*args)
        finally:
            inside.pop()

    def counting_bid(instance, j):
        replaced = inside_thresholds(mech.bid, instance, j)
        forced = _forced_bid_entry(instance, j)

        def checked(bundle):
            entry = inside_thresholds(replaced.thresholds, bundle)
            assert entry == forced.thresholds(bundle)
            return entry

        return per_bid(checked, replaced.rerun)

    counting = replace(mech, bid=counting_bid)
    for j in range(len(inst.bids)):
        tables.clear()
        report = find_profitable_deviation(counting, inst, j)
        assert (len(tables), len(solves)) == (1, 0)
        expected = find_profitable_deviation(replace(mech, bid=_forced_bid_entry), inst, j)
        assert report is None and expected is None


def test_gva_thresholds_match_forced_bid_entry():
    # seeded and tie-heavy instances, reserve bids and zero amounts included
    rng = random.Random("gva-entry")
    goods = ("a", "b", "c", "d")
    ties = [
        AuctionInstance(goods, tuple(
            SingleMindedBid(f"b{i}", frozenset(rng.sample(goods, rng.randint(1, 3))),
                            F(rng.randint(0, 3), rng.choice([1, 2])), rng.random() < 0.2)
            for i in range(rng.randint(1, 6))
        ))
        for _ in range(30)
    ]
    seeded = [random_instance(5, 7, seed=f"gva-entry:{t}") for t in range(5)]
    for inst in [*seeded, *ties]:
        mech = gva_mechanism(SolverKind.BRUTE_FORCE_BID_SUBSETS)
        bundles = [
            frozenset(c) for r in range(1, len(inst.goods) + 1)
            for c in itertools.combinations(inst.goods, r)
        ]
        for j in range(len(inst.bids)):
            of_bundle, forced = mech.bid(inst, j).thresholds, _forced_bid_entry(inst, j).thresholds
            for bundle in bundles:
                assert of_bundle(bundle) == forced(bundle)


def test_gva_brute_critical_refused_past_table_bound(monkeypatch):
    # 17 bids over 18 goods: the brute-force solver could run them, but the
    # thresholds' table of the other 16 bids needs 17 * 2**18 cells
    goods = tuple(f"g{i}" for i in range(18))
    inst = AuctionInstance(goods, tuple(bid(f"b{i}", {goods[i]}, i + 1) for i in range(17)))
    built = []
    monkeypatch.setattr(exact, "_value_tables", lambda *args: built.append(args))
    with pytest.raises(InstanceTooLarge, match="table cells"):
        critical_value(gva_mechanism(SolverKind.BRUTE_FORCE_BID_SUBSETS), inst, 0)
    assert built == []


def test_gva_critical_suite_refused_before_first_run(monkeypatch):
    # the same 17 bids over 18 goods: a suite with the critical check refuses
    # them before the brute-force GVA runs at all
    goods = tuple(f"g{i}" for i in range(18))
    inst = AuctionInstance(goods, tuple(bid(f"b{i}", {goods[i]}, i + 1) for i in range(17)))
    ran, built = [], []
    monkeypatch.setattr(exact, "run_gva", lambda *args: ran.append(args))
    monkeypatch.setattr(exact, "_value_tables", lambda *args: built.append(args))
    mech = gva_mechanism(SolverKind.BRUTE_FORCE_BID_SUBSETS)
    with pytest.raises(InstanceTooLarge, match="table cells"):
        run_axiom_suite(mech, [three_bidder_instance(), inst], ["exactness", "critical"])
    assert ran == [] and built == []
    # in bound, the plan builds no table
    check_planned_reruns(mech, three_bidder_instance(), ["critical"])
    assert built == []


@st.composite
def _radical(draw):
    """c * sqrt(m) + r with c > 0 and m square-free."""
    m = draw(st.sampled_from([2, 3, 5, 6, 7, 10, 11]))
    c = F(draw(st.integers(1, 10 ** 6)), draw(st.integers(1, 10 ** 3)))
    r = F(draw(st.integers(-10 ** 6, 10 ** 6)), draw(st.integers(1, 10 ** 3)))
    return Money.sqrt(m) * c + r


@st.composite
def _thresholds(draw):
    """Rationals and radicals, with near-equal pairs that agree to more than
    64 bits, and tiny positive radicals whose 64-bit lower bound is <= 0."""
    ts = []
    for kind in draw(st.lists(st.sampled_from(["rational", "radical", "near", "tiny"]),
                              min_size=1, max_size=8)):
        if kind == "rational":
            ts.append(Money(F(draw(st.integers(-10 ** 6, 10 ** 6)), draw(st.integers(1, 99)))))
            continue
        x = draw(_radical())
        ts.append(x)
        lo, hi, d = x._integer_bounds(draw(st.integers(65, 300)))
        if kind == "near":
            ts.append(Money(F(draw(st.sampled_from([lo, hi])), d)))
        elif kind == "tiny":
            ts.append(x - F(lo, d))
    return ts


@given(_thresholds())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_brackets_order_thresholds(ts):
    # duplicates, some equal values built by other routes, keep one each
    ts = [*ts, *(t * 3 * F(1, 3) + 1 - 1 for t in ts[::2]), Money.sqrt(8) * F(1, 2), Money.sqrt(2)]
    ordered, d, brackets, _ = _brackets(ts)
    assert ordered == sorted(set(ts))
    assert len(brackets) == len(ordered) and d > 0
    for t, (lo, hi) in zip(ordered, brackets):
        assert Money(F(lo, d)) <= t <= Money(F(hi, d))
        assert (lo == hi) == t.is_rational
    assert all(hi < lo for (_, hi), (lo, _) in zip(brackets, brackets[1:]))


def test_brackets_separate_tiny_radical_from_zero():
    x = Money.sqrt(2)
    lo, _, d = x._integer_bounds(200)
    tiny = x - Money(F(lo, d))
    assert tiny.sign() > 0 and tiny._integer_bounds(64)[0] <= 0
    ordered, d, brackets, rows = _brackets([tiny, Money(0)])
    assert ordered == [Money(0), tiny]
    assert brackets[0] == (0, 0) and brackets[1][0] > 0
    assert rows == [1, 0]
    assert _brackets([]) == ([], 1, [], [])


@given(st.integers(), st.integers(), st.integers(1, 2 ** 200))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_toward_is_the_probe_expression(a, b, d):
    probe = _toward(a, b, d)
    assert type(probe) is F and probe == F(a, d) + (F(b, d) - F(a, d)) * PROBE_SCALE


#: Per (norm exponent, seed) of `random_instance(6, 8, seed=f"pin:{seed}")`
#: under the greedy mechanism: a sha256 prefix over every bid's critical value,
#: probe count and probed amounts; one over its `_candidate_values` at bundle
#: sizes 1 to 6, with every grid value kept; then each bid's critical value.
#: The scan half was recorded from the scan that probes only above the
#: thresholds of the bids a bundle overlaps, whose critical values are those
#: of the scan that probed above every threshold; the candidate half from
#: the search that keeps one value per region between thresholds, the true
#: amount included.
_SCAN_PINS = {
    ("1/2", 0): ("45db3d496376bfc0", "133f611b48756b82", [
        "Money<(188161/1000)*sqrt(3)>", "Money<(714601/1000)*sqrt(3)>",
        "Money<(852409/3000)*sqrt(3)>", "Money('852409/1000')", "Money<(852409/3000)*sqrt(6)>",
        "Money(0)", "Money<(852409/3000)*sqrt(3)>", "Money<(714601/1000)*sqrt(3)>",
    ]),
    ("1/2", 1): ("ea00703ffcbb7b10", "b58e62edb3e8f807", [
        "Money(0)", "Money<(192761/400)*sqrt(2)>", "Money<(24506/25)*sqrt(2)>", "Money(0)",
        "Money<(102251/200)*sqrt(2)>", "Money<(152639/400)*sqrt(2)>", "Money('192761/200')",
        "Money<(401841/500)*sqrt(3)>",
    ]),
    ("1/2", 2): ("309f22e98323ac25", "47d246c331e80fb0", [
        "Money(0)", "Money<(805861/3000)*sqrt(6)>", "Money<(10939/25)*sqrt(3)>",
        "Money<(805861/1500)*sqrt(3)>", "Money<(805861/3000)*sqrt(6)>",
        "Money<(805861/3000)*sqrt(6)>", "Money('805861/1000')", "Money<(805861/3000)*sqrt(6)>",
    ]),
    ("1/2", 3): ("5e1a9e8effed8f41", "12ad5bd57e9a8bce", [
        "Money<(12347/1000)*sqrt(2)>", "Money<(447057/500)*sqrt(3)>",
        "Money<(447057/500)*sqrt(3)>", "Money<(17569/60)*sqrt(3)>",
        "Money<(90647/250)*sqrt(3)>", "Money(0)", "Money<(447057/500)*sqrt(3)>",
        "Money<(34439/125)*sqrt(2)>",
    ]),
    ("1/2", 4): ("0bd92f953a691f63", "d759f81fb55e67ee", [
        "Money<(846301/1000)*sqrt(2)>", "Money<(42577/500)*sqrt(2)>",
        "Money<(846301/1000)*sqrt(3)>", "Money<(846301/1000)*sqrt(2)>",
        "Money<(85273/125)*sqrt(2)>", "Money<(392329/1000)*sqrt(2)>",
        "Money<(846301/1000)*sqrt(3)>", "Money('170546/125')",
    ]),
    ("1", 0): ("c90d69bdf638fbdc", "9c32fcd6a121cb41", [
        "Money('564483/1000')", "Money('2143803/1000')", "Money('852409/3000')",
        "Money('852409/1000')", "Money('852409/1500')", "Money(0)", "Money('852409/3000')",
        "Money('2143803/1000')",
    ]),
    ("1", 1): ("ed37da819b22d479", "0ef25b75b9bac1f6", [
        "Money(0)", "Money('192761/400')", "Money('49012/25')", "Money(0)",
        "Money('102251/100')", "Money(0)", "Money('133794/125')", "Money('1205523/500')",
    ]),
    ("1", 2): ("ac5f25c624e112a0", "9e06a5941545ee35", [
        "Money(0)", "Money('171897/500')", "Money('1814793/2000')", "Money('604931/500')",
        "Money('604931/1000')", "Money('283143/500')", "Money('114039/250')",
        "Money('35071/500')",
    ]),
    ("1", 3): ("8fbbdd8ff54d7f3d", "9741d42671942246", [
        "Money('12347/1000')", "Money('1341171/500')", "Money('1341171/500')",
        "Money('17569/60')", "Money('271941/250')", "Money('579893/3000')",
        "Money('1341171/500')", "Money('68878/125')",
    ]),
    ("1", 4): ("884c8ac372cd6430", "df55529fc71666de", [
        "Money('846301/500')", "Money('42577/500')", "Money('2538903/1000')",
        "Money('846301/500')", "Money('170546/125')", "Money('392329/1000')",
        "Money('2538903/1000')", "Money('341092/125')",
    ]),
}


@pytest.mark.parametrize("exponent, seed", list(_SCAN_PINS))
def test_critical_scan_outputs_pinned(exponent, seed):
    mech = greedy_mechanism(NormConfig(F(exponent)))
    inst = random_instance(6, 8, seed=f"pin:{seed}")
    scan, candidates = hashlib.sha256(), hashlib.sha256()
    values = []
    for j in range(len(inst.bids)):
        probed = []

        def run(instance, j=j, probed=probed):
            probed.append(instance.bids[j].amount)
            return mech.run(instance)

        cv = critical_value(full_runs(replace(mech, run=run)), inst, j)
        assert cv.probes == len(probed) <= 8
        values.append(repr(cv.value))
        scan.update(repr((cv.value, cv.probes, probed)).encode())
        of_bundle = mech.bid(inst, j).thresholds
        for size in range(1, len(inst.goods) + 1):
            _, grid = of_bundle(frozenset(inst.goods[:size]))
            searched, _ = _candidate_values(grid, _grid(grid, inst.bids[j].amount))
            candidates.update(repr(searched).encode())
    got = (scan.hexdigest()[:16], candidates.hexdigest()[:16], values)
    assert got == _SCAN_PINS[exponent, seed]


def _reference_grid(thresholds):
    """The search's grid as it was built before the true amount was placed
    on it: each distinct threshold mapped to its row, the common
    denominator d, the rows' integer brackets over d and the probes."""
    ordered, d, brackets, _ = _brackets(thresholds)
    above = [_probe_above(brackets, r, d) for r in range(len(brackets))]
    return {t: r for r, t in enumerate(ordered)}, d, brackets, above


def _reference_candidate_values(kept, grid, true_amount):
    """The per-class candidate table that walked the brackets and compared
    `Fraction`s for every class: the oracle for `_candidate_values`."""
    row, d, brackets, above = grid
    rows = sorted({row[t] for t in kept if t in row})
    values = [F(0), *(above[r] for r in rows)]
    tied = [values[0]] if rows and brackets[rows[0]] == (0, 0) else []
    a, r = true_amount, 0
    ad, scaled = a.denominator, a.numerator * d
    while r < len(brackets) and brackets[r][1] * ad < scaled:
        r += 1
    i = bisect_left(rows, r)
    if i < len(rows) and rows[i] == r and brackets[r][0] * ad <= scaled:
        if values[i] < a:
            values.insert(i + 1, a)
            if brackets[r][0] == brackets[r][1]:
                tied.append(a)
    elif a < values[i]:
        values[i] = a
    return values, tied


def _planted_amounts(grid, declared):
    """True amounts to place on a reference grid, tagged: the declared
    amount, zero, each rational threshold, a point inside each radical's
    bracket, one between each bracket and the probe above it, one below
    the first bracket and one above the last."""
    _, d, brackets, above = grid
    amounts = [("declared", declared), ("zero", F(0))]
    for (lo, hi), probe in zip(brackets, above):
        if lo == hi:
            amounts.append(("on-rational", F(lo, d)))
        else:
            amounts.append(("inside-radical", F(lo + hi, 2 * d)))
        amounts.append(("below-probe", (F(hi, d) + probe) / 2))
    if brackets and brackets[0][0] > 0:
        amounts.append(("below-first", F(brackets[0][0], 2 * d)))
    if brackets:
        amounts.append(("above-last", F(2 * brackets[-1][1] + d, d)))
    return amounts


@pytest.mark.parametrize("rule", list(TieRule), ids=lambda r: r.value)
@pytest.mark.parametrize("exponent", [F(0), F(1, 2), F(1)], ids=["l0", "lhalf", "l1"])
def test_candidate_table_matches_the_per_class_bracket_walk(exponent, rule):
    # the grid places the true amount once; every class's candidates and
    # tied values then equal those of the walk that placed it per class,
    # for every bidder and class of seeded and tie-heavy instances, at the
    # declared amount and at amounts planted on, inside, below and above
    # the grid's brackets
    mech = greedy_mechanism(NormConfig(exponent, rule))
    rng = random.Random(f"candidate-oracle:{exponent}:{rule.value}")
    instances = [random_instance(5, 6, seed=f"candidate-oracle:{t}") for t in range(3)]
    instances += [_tie_heavy(rng, 4, 5) for _ in range(3)]
    # how the true amount entered: replacing its region's value, or as a
    # value of its own on a rational threshold or inside a radical's bracket
    seen = {"replaced": 0, "on-threshold": 0, "inside-radical": 0}
    planted = set()
    for inst in instances:
        for j in range(len(inst.bids)):
            of_bundle = mech.bid(inst, j).thresholds
            grids = {}
            for members in _bundle_classes(inst, j):
                kept, grid = of_bundle(members[0])
                non_negative = [t for t in grid if t.sign() >= 0]
                reference = _reference_grid(non_negative)
                for tag, amount in _planted_amounts(reference, inst.bids[j].amount):
                    placed = grids.get((id(grid), amount))
                    if placed is None:
                        placed = grids[id(grid), amount] = _grid(non_negative, amount)
                    got = _candidate_values(kept, placed)
                    want = _reference_candidate_values(kept, reference, amount)
                    assert got == want, (tag, amount)
                    planted.add(tag)
                    values, tied = got
                    rows = {reference[0][t] for t in kept if t in reference[0]}
                    if len(values) == len(rows) + 2:
                        seen["on-threshold" if amount in tied else "inside-radical"] += 1
                    elif amount and amount in values:
                        seen["replaced"] += 1
    assert planted >= {"declared", "zero", "on-rational", "below-probe", "below-first",
                       "above-last"}
    assert ("inside-radical" in planted) == (exponent == F(1, 2))
    assert seen["replaced"] and seen["on-threshold"], seen
    assert bool(seen["inside-radical"]) == (exponent == F(1, 2)), seen


def test_deviation_search_runs_every_candidate_once():
    # candidate lists are shared by bundles with equal thresholds, but each
    # candidate tested is one mechanism run, plus one for the truthful report
    found = 0
    for t in range(6):
        inst = random_instance(4, 6, seed=f"count-runs:{t}").assuming_truthful()
        mech = clarke_greedy_mechanism(L1)
        runs = []

        def counting_run(instance, run=mech.run):
            runs.append(instance)
            return run(instance)

        counting = full_runs(replace(mech, run=counting_run))
        for j in range(len(inst.bids)):
            runs.clear()
            report = find_profitable_deviation(counting, inst, j)
            if report is not None:
                found += 1
                assert len(runs) == report.candidates_tested + 1
    assert found > 0


def test_deviation_search_skips_candidates_that_tie():
    # under REJECT a candidate at 0 ties the zero bid; it is skipped and
    # not counted, while a tie in the input itself still raises
    reject = NormConfig(F(1), TieRule.REJECT)
    inst = AuctionInstance(("x", "y", "z"), (bid("a", "x", 5), bid("b", "y", 0), bid("c", "z", 3)))
    assert find_profitable_deviation(greedy_mechanism(reject), inst, 0) is None
    inst = AuctionInstance(
        ("a", "b", "c"),
        (bid("red", "a", 10), bid("green", "ab", 19), bid("blue", "b", 8), bid("zero", "c", 0)),
    ).assuming_truthful()
    mech = clarke_greedy_mechanism(reject)
    completed, tied = [], []

    def recording_run(instance, run=mech.run):
        try:
            out = run(instance)
        except TiesPresent:
            tied.append(instance)
            raise
        completed.append(instance)
        return out

    report = find_profitable_deviation(full_runs(replace(mech, run=recording_run)), inst, 0)
    assert report is not None and tied
    assert report.candidates_tested == len(completed) - 1  # less the truthful run
    tied_input = AuctionInstance(("a", "b"), (bid("red", "a", 4), bid("blue", "b", 4)))
    with pytest.raises(TiesPresent):
        find_profitable_deviation(greedy_mechanism(reject), tied_input, 0)


def test_greedy_deviation_search_builds_integer_amounts_once():
    # every rerun inserts its moved bid into the searched instance's
    # ranking, so only that instance's own sort builds the integer amounts
    inst = random_instance(6, 8, seed="integer-amounts-once")
    inst = AuctionInstance(inst.goods, inst.bids)  # nothing cached yet
    with mock.patch.object(IntegerAmounts, "of", wraps=IntegerAmounts.of) as built:
        find_profitable_deviation(greedy_mechanism(L1), inst, 0)
    assert built.call_count == 1
    assert built.call_args.args == ([b.amount for b in inst.bids],)


def test_checkers_run_mechanisms_on_rational_instances_only():
    # at l = 1/2 most crossings are radicals; the probes around them are not
    for base in (greedy_mechanism(LHALF), clarke_greedy_mechanism(LHALF)):
        ran = []
        mech = recording(base, ran.append)
        for t in range(3):
            inst = random_instance(3, 4, seed=t + 1)
            _, grid = mech.bid(inst, 0).thresholds(inst.bids[0].bundle)
            assert any(not v.is_rational for v in grid)
            for j in sorted(base.run(inst).allocation.grants):
                critical_value(mech, inst, j)
            for j in range(len(inst.bids)):
                find_profitable_deviation(mech, inst, j)
        assert ran and all(i.integer_amounts is not None for i in ran)
        assert all(type(b.amount) is F for i in ran for b in i.bids)


def _bundle_classes(inst, j):
    """Bid j's misreport bundles in bit order, grouped by size, the other
    bids they meet and whether they cover j's true bundle."""
    declared = inst.bids[j]
    true_bundle = (inst.true_types or {}).get(declared.bidder, declared).bundle
    classes = {}
    for bits in range(1, 1 << len(inst.goods)):
        bundle = frozenset(g for i, g in enumerate(inst.goods) if bits >> i & 1)
        met = frozenset(i for i, b in enumerate(inst.bids) if i != j and b.bundle & bundle)
        classes.setdefault((len(bundle), met, true_bundle <= bundle), []).append(bundle)
    return list(classes.values())


def test_norm_thresholds_computed_once_per_size(monkeypatch):
    # a norm mechanism's grid depends on the bundle's size alone, so a
    # search prices each other bid's crossing once per size and hands every
    # bundle of a size one grid; it asks once per class of bundles, for the
    # class's first bundle, and keeps the crossings of the bids it overlaps
    calls = []

    def counting(b, size, exponent):
        calls.append((b.bidder, size))
        return crossing_value(b, size, exponent)

    monkeypatch.setattr(norm, "crossing_value", counting)
    mech = greedy_mechanism(L1)
    asked = []

    def recording(instance, j):
        replaced = mech.bid(instance, j)

        def record(bundle):
            thresholds = replaced.thresholds(bundle)
            asked.append((bundle, thresholds))
            return thresholds

        return per_bid(record, replaced.rerun)

    inst = random_instance(6, 8, seed="per-size:0").assuming_truthful()
    for j in (3, 5, 3):  # bidders searched in turn on one instance
        calls.clear()
        asked.clear()
        find_profitable_deviation(replace(mech, bid=recording), inst, j)
        assert [bundle for bundle, _ in asked] == [c[0] for c in _bundle_classes(inst, j)]
        assert 0 < len(calls) <= 6 * 7
        assert len(set(calls)) == len(calls)
        by_size = {}
        for bundle, (kept, grid) in asked:
            assert by_size.setdefault(len(bundle), grid) is grid
            crossings = [
                (b.bundle & bundle, crossing_value(b, len(bundle), L1.exponent))
                for i, b in enumerate(inst.bids) if i != j
            ]
            assert list(grid) == [t for _, t in crossings]
            assert list(kept) == [t for met, t in crossings if met]
    # the mechanism keeps none of them once the searches return
    first = weakref.ref(inst)
    del inst, asked, by_size
    gc.collect()
    assert first() is None


#: Every `MECHANISMS` entry: greedy and clarke-greedy at l in {0, 1/2, 1}
#: under both tie rules, and the GVA under both solvers.
EVERY_MECHANISM = pytest.mark.parametrize("name, cfg, solver", [
    pytest.param(name, NormConfig(l, rule), DP, id=f"{name}-{tag}-{rule.value}")
    for name in ("greedy", "clarke-greedy")
    for l, tag in ((F(0), "l0"), (F(1, 2), "lhalf"), (F(1), "l1"))
    for rule in TieRule
] + [pytest.param("gva", L1, solver, id=f"gva-{solver.value}") for solver in SolverKind])


def _tie_heavy(rng, k, n):
    """k goods and n bids with zero amounts, reserve bids and amounts of one
    or two per good, so norms coincide at l = 0 and at l = 1."""
    goods = tuple("abcdefgh"[:k])
    bids = []
    for i in range(n):
        bundle = frozenset(rng.sample(goods, rng.randint(1, k)))
        amount = rng.choice([0, 1, 2, len(bundle), 2 * len(bundle)])
        bids.append(SingleMindedBid(f"b{i}", bundle, amount, rng.random() < 0.2))
    return AuctionInstance(goods, tuple(bids))


def _searched(of_bundle, bundle, true_amount):
    """The search's candidates for `bundle` and those that may sit on a kept
    threshold, from `of_bundle`, the `thresholds` of bid j's per-bid object."""
    kept, grid = of_bundle(bundle)
    return _candidate_values(kept, _grid([t for t in grid if t.sign() >= 0], true_amount))


def _full_grid(mech, inst, j):
    """Bid j's thresholds on a bundle for a reference search: for a norm
    mechanism every other bid's crossing value at the bundle's size, from
    `crossing_value` rather than the mechanism; for the GVA its one entry
    value."""
    if mech.norm is None:
        of_bundle = mech.bid(inst, j).thresholds
        return lambda bundle: of_bundle(bundle)[1]
    others = [b for i, b in enumerate(inst.bids) if i != j]
    return lambda bundle: [crossing_value(b, len(bundle), mech.norm.exponent) for b in others]


def _bid_j_outcome(mech, inst, j, bundle, v):
    """Bid j moved to `bundle` at v: whether it wins, whether what it wins
    covers its true bundle, and its payment; "ties" when the rerun raises
    `TiesPresent`."""
    old = inst.bids[j]
    true_bundle = (inst.true_types or {}).get(old.bidder, old).bundle
    try:
        out = mech.run(inst.with_bid(j, SingleMindedBid(old.bidder, bundle, v, old.is_reserve)))
    except TiesPresent:
        return "ties"
    granted = out.allocation.bundle_granted(j)
    return bool(granted), true_bundle <= granted, out.payments[j]


@EVERY_MECHANISM
def test_outcome_is_the_same_across_a_bundle_class(name, cfg, solver):
    # every bundle of a class has the first one's thresholds and, at every
    # candidate off the kept ones, bid j's grant and payment: what lets the
    # search rerun only a class's first bundle; only zero and the true
    # amount can sit on a kept threshold
    mech = MECHANISMS[name](cfg, solver)
    rng = random.Random(f"classes:{name}")
    instances = [random_instance(4, 5, seed=f"classes:{t}") for t in range(3)]
    instances += [_tie_heavy(rng, 4, 5) for _ in range(4)]
    compared = 0
    for inst in instances:
        for j in range(len(inst.bids)):
            of_bundle = mech.bid(inst, j).thresholds
            amount = inst.bids[j].amount
            for first, *rest in _bundle_classes(inst, j):
                kept, grid = of_bundle(first)
                candidates, tied = _searched(of_bundle, first, amount)
                on = [v for v in candidates if any(t == v for t in kept)]
                assert tied == on
                off = [v for v in candidates if v not in on]
                expected = [_bid_j_outcome(mech, inst, j, first, v) for v in off]
                for bundle in rest:
                    assert of_bundle(bundle) == (kept, grid)
                    assert [_bid_j_outcome(mech, inst, j, bundle, v) for v in off] == expected
                    compared += len(off)
    assert compared > 0


@pytest.mark.parametrize("name", ["greedy", "clarke-greedy"])
@pytest.mark.parametrize("exponent", [F(0), F(1, 2), F(1)], ids=["l0", "lhalf", "l1"])
def test_crossing_a_bid_the_bundle_misses_changes_nothing(name, exponent):
    # under CANONICAL, bid j moved to a bundle has one grant and payment
    # just below, on and just above the crossing value of each other bid
    # the bundle does not overlap, unless an overlapped bid crosses there
    # too: what lets bid j's per-bid object keep only overlapped bids'
    # crossings.  Under REJECT a tie with any bid raises, so it keeps all
    mech = MECHANISMS[name](NormConfig(exponent), DP)
    reject = MECHANISMS[name](NormConfig(exponent, TieRule.REJECT), DP)
    rng = random.Random(f"misses:{name}:{exponent}")
    instances = [random_instance(4, 5, seed=f"misses:{t}") for t in range(3)]
    instances += [_tie_heavy(rng, 4, 5) for _ in range(4)]
    compared = 0
    for inst in instances:
        for j in range(len(inst.bids)):
            of_bundle = reject.bid(inst, j).thresholds
            for bits in range(1, 1 << len(inst.goods)):
                bundle = frozenset(g for i, g in enumerate(inst.goods) if bits >> i & 1)
                crossings = [
                    (b.bundle & bundle, crossing_value(b, len(bundle), exponent))
                    for i, b in enumerate(inst.bids) if i != j
                ]
                every = [t for _, t in crossings]
                assert [list(ts) for ts in of_bundle(bundle)] == [every, every]
                met = [t for overlap, t in crossings if overlap]
                ordered, d, brackets, _ = _brackets(every)
                for overlap, t in crossings:
                    if overlap or t in met:
                        continue
                    r = ordered.index(t)
                    lo, hi = brackets[r]
                    right = brackets[r + 1][0] if r + 1 < len(brackets) else 2 * hi + d
                    values = [_toward(hi, right, d)]
                    if lo == hi:  # a rational crossing, which bid j can declare
                        values.append(F(lo, d))
                    if lo > 0:
                        values.append(_toward(lo, brackets[r - 1][1] if r else 0, d))
                    outcomes = {_bid_j_outcome(mech, inst, j, bundle, v) for v in values}
                    assert len(outcomes) == 1, (j, sorted(bundle), t, values)
                    compared += len(values)
    assert compared > 0


def test_canonical_tie_breaks_a_class_apart_on_its_threshold():
    # j = e@7 and i = bc@5 at l = 1: ab and cd are one class for j (two
    # goods, meeting bc, not covering e), but at its threshold 5 j's norm
    # ties bc's and the tie breaks by bundle: ab ranks before bc and wins
    # paying 5, cd ranks after it and loses
    inst = AuctionInstance(tuple("abcde"), (bid("j", "e", 7), bid("i", "bc", 5)))
    mech = greedy_mechanism(L1)
    (members,) = [c for c in _bundle_classes(inst, 0) if frozenset("ab") in c]
    assert members[0] == frozenset("ab") and frozenset("cd") in members
    assert _bid_j_outcome(mech, inst, 0, frozenset("ab"), F(5)) == (True, False, Money(5))
    assert _bid_j_outcome(mech, inst, 0, frozenset("cd"), F(5)) == (False, False, Money(0))
    # when a candidate sits there, as a true amount of 5 does, the search
    # reruns every bundle of the class at 5, and at no other value
    lying = AuctionInstance(inst.goods, inst.bids, {"j": bid("j", "e", 5)})
    ran = []
    assert find_profitable_deviation(
        recording(mech, lambda instance: ran.append(instance.bids[0])), lying, 0
    ) is None
    tried = {}
    for b in ran[1:]:  # less the truthful run
        tried.setdefault(b.bundle, []).append(b.amount)
    assert F(5) in tried[members[0]] and len(tried[members[0]]) > 1
    assert all(tried[b] == [F(5)] for b in members[1:])


def _every_bundle_search(mech, inst, j, candidates_of):
    """A reference misreport search: bid j reruns every bundle at every value
    `candidates_of(bundle, true_amount)` lists, keeping the first pair
    strictly beating the best so far.  Returns (misreport, truthful utility,
    deviating utility) when that beats the truthful report, else a falsy
    value; a tie on the truthful rerun raises `TiesPresent`."""
    declared = inst.bids[j]
    true_type = (inst.true_types or {}).get(declared.bidder, declared)

    def utility(attempt):
        out = mech.run(inst.with_bid(j, attempt))
        granted = out.allocation.bundle_granted(j)
        value = true_type.amount if true_type.bundle <= granted else 0
        return value - out.payments[j]

    truthful = utility(replace(declared, bundle=true_type.bundle, amount=true_type.amount))
    best = None
    for bits in range(1, 1 << len(inst.goods)):
        bundle = frozenset(g for i, g in enumerate(inst.goods) if bits >> i & 1)
        for v in candidates_of(bundle, true_type.amount):
            attempt = replace(declared, bundle=bundle, amount=v)
            try:
                u = utility(attempt)
            except TiesPresent:
                continue
            if best is None or u > best[0]:
                best = (u, attempt)
    return best and best[0] > truthful and (best[1], truthful, best[0])


def _assert_search_matches(mech, inst, j, expected_of):
    """`find_profitable_deviation` reports what `expected_of()` does, and
    raises `TiesPresent` where it does; returns whether it found a lie."""
    try:
        expected = expected_of()
    except TiesPresent:
        with pytest.raises(TiesPresent):
            find_profitable_deviation(mech, inst, j)
        return False
    report = find_profitable_deviation(mech, inst, j)
    got = report and (report.misreport, report.truthful_utility, report.deviating_utility)
    assert got == (expected or None)
    return report is not None


@EVERY_MECHANISM
def test_deviation_search_reports_what_every_bundle_would(name, cfg, solver):
    # the search agrees with one rerunning every candidate of every bundle,
    # on seeded and tie-heavy instances; clarke-greedy at l = 0 and l = 1
    # finds lies here
    mech = MECHANISMS[name](cfg, solver)
    rng = random.Random(f"every-bundle:{name}")
    instances = [three_bidder_instance(truthful=True)]
    instances += [random_instance(4, 5, seed=f"every-bundle:{t}").assuming_truthful()
                  for t in range(2)]
    instances += [_tie_heavy(rng, 4, 4) for _ in range(3)]
    for inst in instances:
        for j in range(len(inst.bids)):
            of_bundle = mech.bid(inst, j).thresholds
            _assert_search_matches(mech, inst, j, lambda: _every_bundle_search(
                mech, inst, j, lambda bundle, a: _searched(of_bundle, bundle, a)[0]
            ))


def _probes_on_both_sides(thresholds, true_amount):
    """Zero, the true amount and a probe on each side of every non-negative
    threshold, in increasing order."""
    candidates = {F(0), true_amount}
    _, d, brackets, _ = _brackets(t for t in thresholds if t.sign() >= 0)
    for i, (lo, hi) in enumerate(brackets):
        left = brackets[i - 1][1] if i else 0
        right = brackets[i + 1][0] if i + 1 < len(brackets) else (2 * hi if hi > 0 else hi + d)
        if lo > 0:  # else a zero threshold's, which is zero itself
            candidates.add(_toward(lo, left, d))
        candidates.add(_toward(hi, right, d))
    return sorted(candidates)


def _assert_searched_or_repeated(seen, bundle, searched, kept, values):
    """On `bundle`, every value of a reference search is searched, or gives
    bid j (per `seen`, the reference's reruns) the grant and payment of the
    highest searched value at or below it; a value on a `kept` threshold is
    searched itself, and every searched value is a reference value.
    Returns the number of values compared."""
    assert set(searched) <= set(values)
    compared = 0
    for v in values:
        if v in searched:
            continue
        assert not any(t == v for t in kept)
        below = max(c for c in searched if c <= v)
        assert seen.get((bundle, v)) == seen.get((bundle, below))
        compared += 1
    return compared


@EVERY_MECHANISM
def test_deviation_search_matches_probing_both_sides_of_every_threshold(name, cfg, solver):
    # a reference search rerunning every bundle at zero, the true amount and
    # a probe on each side of every other bid's threshold, all n - 1 of them
    # for a norm mechanism, reports the same misreport and utilities as the
    # search, which probes each region between kept thresholds once; and on
    # every bundle, each probe the search skips gives bid j the grant and
    # payment of the value the search keeps in its region
    mech = MECHANISMS[name](cfg, solver)
    rng = random.Random(f"both-sides:{name}:{cfg.exponent}:{cfg.tie_rule.value}")
    instances = [random_instance(4, 5, seed=f"both-sides:{t}").assuming_truthful()
                 for t in range(2)]
    instances += [_tie_heavy(rng, 4, 4) for _ in range(2)]
    found = compared = 0
    for inst in instances:
        for j in range(len(inst.bids)):
            seen = {}  # (bundle, amount) -> bid j's grant and payment
            full = _full_grid(mech, inst, j)

            def recording_run(instance, j=j, seen=seen):
                out = mech.run(instance)
                b = instance.bids[j]
                seen[b.bundle, b.amount] = out.allocation.bundle_granted(j), out.payments[j]
                return out

            reference = replace(mech, run=recording_run)
            found += _assert_search_matches(mech, inst, j, lambda: _every_bundle_search(
                reference, inst, j, lambda bundle, a: _probes_on_both_sides(full(bundle), a)
            ))
            if not seen:  # the truthful rerun tied
                continue
            of_bundle = mech.bid(inst, j).thresholds
            for bits in range(1, 1 << len(inst.goods)):
                bundle = frozenset(g for i, g in enumerate(inst.goods) if bits >> i & 1)
                amount = inst.bids[j].amount
                compared += _assert_searched_or_repeated(
                    seen, bundle, _searched(of_bundle, bundle, amount)[0], of_bundle(bundle)[0],
                    _probes_on_both_sides(full(bundle), amount),
                )
    assert compared > 0 and (found > 0) == (name == "clarke-greedy")


def _lying(rng, inst):
    """`inst` with a true type for every bidder: its declared or another
    bundle, at another bid's amount, just above it (1e-9 more), well above
    it (half as much more), zero or its declared amount, in turn, so true
    amounts land on thresholds, just above one, and further up."""
    true_types = {}
    for i, b in enumerate(inst.bids):
        other = inst.bids[i - 1].amount
        amount = [other, other + F(1, 10 ** 9), other * F(3, 2), F(0), b.amount][i % 5]
        bundle = rng.choice([b.bundle, frozenset(rng.sample(inst.goods, 2))])
        true_types[b.bidder] = SingleMindedBid(b.bidder, bundle, amount)
    return AuctionInstance(inst.goods, inst.bids, true_types)


@EVERY_MECHANISM
def test_deviation_search_matches_rerunning_the_true_amount(name, cfg, solver):
    # a reference search rerunning every bundle at zero, the true amount and
    # the probe above every other bid's threshold, all n - 1 of them for a
    # norm mechanism, reports the same misreport and utilities as the
    # search, which keeps one value per region between kept thresholds; and
    # on every bundle, each of those values the search skips, the true
    # amount included, gives bid j the grant and payment of the one value
    # the search keeps in its region, which comes no later; a value on a
    # kept threshold is searched itself
    mech = MECHANISMS[name](cfg, solver)
    rng = random.Random(f"true-amount:{name}:{cfg.exponent}:{cfg.tie_rule.value}")
    seeded = random_instance(4, 5, seed="true-amount")
    instances = [seeded.assuming_truthful(), _lying(rng, seeded), _tie_heavy(rng, 4, 4)]

    def every_value(thresholds, true_amount):
        above = _grid([t for t in thresholds if t.sign() >= 0], true_amount).above
        return sorted({F(0), true_amount, *above})

    true_amounts = {"kept": 0, "dropped": 0}  # off every threshold
    for inst in instances:
        for j in range(len(inst.bids)):
            seen = {}  # (bundle, amount) -> bid j's grant and payment
            true_amount = (inst.true_types or {}).get(inst.bids[j].bidder, inst.bids[j]).amount
            full = _full_grid(mech, inst, j)

            def recording_run(instance, j=j, seen=seen):
                out = mech.run(instance)
                b = instance.bids[j]
                seen[b.bundle, b.amount] = out.allocation.bundle_granted(j), out.payments[j]
                return out

            reference = replace(mech, run=recording_run)
            _assert_search_matches(mech, inst, j, lambda: _every_bundle_search(
                reference, inst, j, lambda bundle, a: every_value(full(bundle), a)
            ))
            if not seen:  # the truthful rerun tied
                continue
            of_bundle = mech.bid(inst, j).thresholds
            for bits in range(1, 1 << len(inst.goods)):
                bundle = frozenset(g for i, g in enumerate(inst.goods) if bits >> i & 1)
                thresholds = full(bundle)
                searched = _searched(of_bundle, bundle, true_amount)[0]
                _assert_searched_or_repeated(
                    seen, bundle, searched, of_bundle(bundle)[0],
                    every_value(thresholds, true_amount),
                )
                if not any(t == true_amount for t in thresholds):
                    true_amounts["kept" if true_amount in searched else "dropped"] += 1
    assert all(true_amounts.values()), true_amounts


def test_deviation_search_work_pinned():
    # criterion 3's first instance: the 8 greedy searches at l = 1 make
    # 2,032 mechanism runs in all, a truthful run each and one rerun per
    # candidate of each class's first bundle (plus any candidate on a kept
    # threshold); a probe above the threshold of every other bid, not only
    # of those the bundle overlaps, made 2,704, rerunning a true amount
    # that repeats its region 3,041, a probe on each side of every
    # threshold 5,400, and rerunning every bundle with those
    # 8 + 63 * 16 * 8 = 8,072
    inst = random_instance(6, 8, seed="deviation-accept:0")
    runs = []
    mech = recording(greedy_mechanism(L1), runs.append)
    for j in range(len(inst.bids)):
        assert find_profitable_deviation(mech, inst, j) is None
    assert len(runs) == 2032


@pytest.mark.parametrize("name", ["greedy", "clarke-greedy"])
def test_reruns_batched_one_call_per_class_and_per_scan(name):
    # criterion 3's first instance: a search hands bid j's per-bid object
    # each bundle it reruns once, with all of that bundle's candidates, so it
    # makes one call per class's first bundle and per later bundle with a
    # candidate on a kept threshold; a critical scan hands it all of its
    # probes at once
    mech = MECHANISMS[name](L1, DP)
    calls = []

    def bid(instance, j):
        replaced = mech.bid(instance, j)

        def rerun(bundle, amounts):
            calls.append((bundle, len(amounts)))
            return replaced.rerun(bundle, amounts)

        return per_bid(replaced.thresholds, rerun)

    batched = replace(mech, bid=bid)
    inst = random_instance(6, 8, seed="deviation-accept:0")
    bundles = [frozenset(c) for r in range(1, 7) for c in itertools.combinations(inst.goods, r)]
    for j, declared in enumerate(inst.bids):
        def key(bundle):
            mask = inst.mask_of(bundle)
            overlapped = {i for i, m in enumerate(inst.bid_masks) if i != j and m & mask}
            return len(bundle), frozenset(overlapped), declared.bundle <= bundle

        calls.clear()
        find_profitable_deviation(batched, inst, j)
        rerun_bundles = [bundle for bundle, _ in calls]
        assert len(set(rerun_bundles)) == len(rerun_bundles)
        assert {key(b) for b in rerun_bundles} == {key(b) for b in bundles}
        # every candidate is answered within its bundle's one call
        evaluated = _deviation_result(full_runs(mech), inst, j)[1]
        assert sum(n for _, n in calls) == len(evaluated) - 1  # less the truthful run
        calls.clear()
        cv = critical_value(batched, inst, j)
        assert calls == [(declared.bundle, cv.probes)]


def test_deviation_search_reads_a_shared_answer_paying_losers():
    # greedy paying each loser 1,000, more than any bid's amount, its reruns
    # answered off greedy's, where the amounts a call denies share one
    # answer: the search reads that answer's payment, so every winner finds
    # that losing pays, as it does when every rerun runs in full
    base = greedy_mechanism(L1)
    paid = Money(-1000)

    def run(instance):
        out = base.run(instance)
        payments = [p if j in out.allocation.grants else paid for j, p in enumerate(out.payments)]
        return assemble_outcome(instance, out.allocation, tuple(payments), out.trace)

    def bid(instance, j):
        replaced = base.bid(instance, j)

        def rerun(bundle, amounts):
            answers = replaced.rerun(bundle, amounts)
            shared = {}
            for a in answers or ():
                if a is not None and not a.bundle and id(a) not in shared:
                    shared[id(a)] = a._replace(price=lambda: paid)
            return answers and [shared.get(id(a), a) for a in answers]

        return per_bid(replaced.thresholds, rerun)

    mech = replace(base, run=run, bid=bid)
    inst = random_instance(6, 8, seed="deviation-accept:0")
    winners = base.run(inst).allocation.grants
    for j in range(len(inst.bids)):
        report = find_profitable_deviation(mech, inst, j)
        full = find_profitable_deviation(full_runs(mech), inst, j)
        assert (report and vars(report)) == (full and vars(full))
        assert (report is not None) == (j in winners)
        assert not report or report.deviating_utility == 1000


EXPONENTS = pytest.mark.parametrize("exponent", [F(1, 2), F(1)], ids=["lhalf", "l1"])


@pytest.mark.parametrize("name", sorted(MECHANISMS))
@EXPONENTS
def test_threshold_function_matches_a_fresh_one_on_every_bundle(name, exponent):
    # what bid j's per-bid object keeps from one bundle never changes its
    # thresholds for another: bundles are asked in a shuffled order, so
    # sizes come back
    mech = MECHANISMS[name](NormConfig(exponent), DP)
    inst = random_instance(4, 6, seed=f"fresh:{name}")
    bundles = [
        frozenset(c) for r in range(1, 5) for c in itertools.combinations(inst.goods, r)
    ]
    random.Random(name).shuffle(bundles)
    for j in range(len(inst.bids)):
        of_bundle = mech.bid(inst, j).thresholds
        for bundle in bundles + bundles[:5]:
            assert list(of_bundle(bundle)) == list(mech.bid(inst, j).thresholds(bundle))


def _interleaved_searches(mech, searches):
    """`find_profitable_deviation` for each of two (instance, j) in two
    threads that take turns, one mechanism run or rerun answer each;
    returns the reports."""
    turns = [threading.Semaphore(1), threading.Semaphore(0)]
    done = [False, False]
    reports = [None, None]

    def search(k):
        def taking_turns(call):
            def turn(*args):
                if not done[1 - k]:
                    turns[k].acquire()
                try:
                    return call(*args)
                finally:
                    turns[1 - k].release()

            return turn

        def bid(instance, j):
            replaced = mech.bid(instance, j)
            return per_bid(replaced.thresholds, taking_turns(replaced.rerun))

        try:
            reports[k] = find_profitable_deviation(
                replace(mech, run=taking_turns(mech.run), bid=bid), *searches[k]
            )
        finally:
            done[k] = True
            turns[1 - k].release()

    threads = [threading.Thread(target=search, args=(k,), name=f"search-{k}") for k in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    return reports


def _found(report):
    return report and (report.misreport, report.deviating_utility, report.candidates_tested)


@pytest.mark.parametrize("name", sorted(MECHANISMS))
@EXPONENTS
def test_interleaved_searches_share_no_thresholds(monkeypatch, name, exponent):
    # two searches taking turns on one mechanism each keep their own
    # thresholds: one GVA value table, and one crossing value per other bid
    # and bundle size, per search; each walks the other bids once; the
    # instances die once the searches return (the brute-force GVA runs build
    # no value table of their own)
    mech = MECHANISMS[name](NormConfig(exponent), SolverKind.BRUTE_FORCE_BID_SUBSETS)
    k, n = 4, 5
    instances = [
        random_instance(k, n, seed=f"interleaved:{t}").assuming_truthful() for t in range(2)
    ]
    searches = [(instances[0], 1), (instances[1], 3)]
    expected = [_found(find_profitable_deviation(mech, *s)) for s in searches]
    tables, crossings, walks = [], [], []
    original_tables, original_walk = exact._value_tables, norm._walk_prefix

    def counting_tables(*args):
        tables.append(args)
        return original_tables(*args)

    def counting_crossings(b, size, exponent):
        crossings.append((threading.current_thread().name, b.bidder, size))
        return crossing_value(b, size, exponent)

    def counting_walks(*args):
        walks.append(threading.current_thread().name)
        return original_walk(*args)

    monkeypatch.setattr(exact, "_value_tables", counting_tables)
    monkeypatch.setattr(norm, "crossing_value", counting_crossings)
    monkeypatch.setattr(norm, "_walk_prefix", counting_walks)
    reports = _interleaved_searches(mech, searches)
    assert [_found(r) for r in reports] == expected
    if mech.norm is None:
        assert (len(tables), len(crossings), walks) == (2, 0, [])
    else:
        assert len(tables) == 0 and len(crossings) == len(set(crossings)) == 2 * k * (n - 1)
        assert sorted(walks) == ["search-0", "search-1"]
    refs = [weakref.ref(inst) for inst in instances]
    del instances, searches, reports
    gc.collect()
    assert [r() for r in refs] == [None, None]


#: A mechanism charged reruns only: it ranks no keys and solves no DP.
PLAIN = replace(greedy_mechanism(L1), name="plain", norm=None)


def test_planned_reruns_bound(monkeypatch):
    inst = random_instance(6, 8, seed="planned:0")
    # 63 bundles x 9 candidates (zero, the true amount and one probe above
    # each of 7 thresholds) plus the truthful rerun, for each of 8 bidders
    search = (63 * 9 + 1) * 8
    # the suite's own run, at most 8 scan probes for each of 8 bids, 8
    # raises and one rerun per sub-bundle class of each bid
    classes = [len(_classes(inst, j)) for j in range(8)]
    assert classes == [0, 2, 0, 10, 6, 5, 2, 10]
    monotonicity = 1 + 8 * 8 + 8 + 35
    monkeypatch.setattr(axioms, "MAX_PLANNED_RERUNS", search + monotonicity)
    check_planned_reruns(PLAIN, inst, ["monotonicity"], deviations=True)
    # the critical check reads the same scan, so it adds nothing
    check_planned_reruns(PLAIN, inst, ["monotonicity", "critical"], deviations=True)
    # the classes are counted last, bid by bid, and bid 7's pass the budget
    monkeypatch.setattr(axioms, "MAX_PLANNED_RERUNS", search + monotonicity - 1)
    with pytest.raises(InstanceTooLarge, match="bid 7's sub-bundle classes take the check past"):
        check_planned_reruns(PLAIN, inst, ["monotonicity"], deviations=True)
    check_planned_reruns(PLAIN, inst, ["critical"], deviations=True)
    # reserve bidders are not searched
    reserve = inst.with_bid(0, SingleMindedBid("b1", inst.bids[0].bundle, 1, True))
    check_planned_reruns(PLAIN, reserve, ["monotonicity"], deviations=True)
    # the axiom suite's own run is charged too
    monkeypatch.setattr(axioms, "MAX_PLANNED_RERUNS", search + 64)
    check_planned_reruns(PLAIN, inst, deviations=True)
    with pytest.raises(InstanceTooLarge, match=f"{search + 65} mechanism reruns"):
        check_planned_reruns(PLAIN, inst, ["critical"], deviations=True)
    wide = AuctionInstance(tuple(f"g{i}" for i in range(17)), (bid("x", {"g0"}, 1),))
    check_planned_reruns(PLAIN, wide, ["monotonicity"])
    with pytest.raises(InstanceTooLarge, match="^cannot enumerate bundles over 17 goods$"):
        check_planned_reruns(PLAIN, wide, deviations=True)


def test_planned_rerun_key_bits_bound(monkeypatch):
    # each planned rerun is charged the instance's largest order key: x's
    # weight 2**99 has 100 bits, so at l = 2/3 with L / s = 2 it holds about
    # 3 * 100 + 2 * 2 = 304 bits
    inst = AuctionInstance(("a", "b"), (bid("x", "a", 2 ** 99), bid("y", "ab", 3)))
    mech = greedy_mechanism(NormConfig(F(2, 3)))
    monkeypatch.setattr(axioms, "MAX_RERUN_KEY_BITS", 5 * 304)
    # the suite's run and the critical check's 2 * max(2, 2) = 4 reruns
    check_planned_reruns(mech, inst, ["critical"])
    # monotonicity adds 2 raises and y's 2 sub-bundle classes, {a} and {b}
    with pytest.raises(InstanceTooLarge, match="9 reruns .* 2736 bits"):
        check_planned_reruns(mech, inst, ["critical", "monotonicity"])
    # a mechanism that ranks no keys is not charged
    check_planned_reruns(PLAIN, inst, ["critical", "monotonicity"])
    check_planned_reruns(mech, AuctionInstance(("a",), ()), ["critical"])


def test_planned_gva_solve_work_bound(monkeypatch):
    # three bids over two goods: the suite's run and the critical check's 2
    # probes per bid, and one entry-value table of 3 * 2**2 cells per bid;
    # each DP rerun fills 4 * 2**2 cells: (3 * 3 + 7 * 4) * 4 = 148 cells
    inst = three_bidder_instance()
    dp = gva_mechanism(DP)
    monkeypatch.setattr(axioms, "MAX_RERUN_DP_CELLS", 148)
    check_planned_reruns(dp, inst, ["critical"])
    # monotonicity shares the scan and its tables, and adds 3 raises and
    # green's 2 sub-bundle classes
    with pytest.raises(InstanceTooLarge, match="12 GVA reruns and 3 entry-value tables"):
        check_planned_reruns(dp, inst, ["critical", "monotonicity"])
    # the search plans 3 bundles x 4 candidates and the truthful rerun per
    # bidder, and one table each
    monkeypatch.setattr(axioms, "MAX_RERUN_DP_CELLS", (3 * 3 + 39 * 4) * 4)
    check_planned_reruns(dp, inst, deviations=True)
    with pytest.raises(InstanceTooLarge, match="DP table cells"):
        check_planned_reruns(dp, inst, ["monotonicity"], deviations=True)
    # a brute-force rerun visits 4 * 2**3 bid subsets; the tables stay DP cells
    brute = gva_mechanism(SolverKind.BRUTE_FORCE_BID_SUBSETS)
    monkeypatch.setattr(exact, "MAX_BRUTE_SUBSETS", 7 * 32)
    monkeypatch.setattr(axioms, "MAX_RERUN_DP_CELLS", 3 * 3 * 4)
    check_planned_reruns(brute, inst, ["critical"])
    with pytest.raises(InstanceTooLarge, match="224 brute-force bid subsets"):
        check_planned_reruns(brute, inst, ["critical", "monotonicity"])
    monkeypatch.setattr(axioms, "MAX_RERUN_DP_CELLS", 3 * 3 * 4 - 1)
    with pytest.raises(InstanceTooLarge, match="DP table cells"):
        check_planned_reruns(brute, inst, ["critical"])
    # last, the entry-value table of the other bids meets the DP's own bound
    monkeypatch.setattr(axioms, "MAX_RERUN_DP_CELLS", 148)
    monkeypatch.setattr(exact, "MAX_DP_CELLS", 3 << 2)
    check_planned_reruns(dp, inst, ["critical"])
    monkeypatch.setattr(exact, "MAX_DP_CELLS", (3 << 2) - 1)
    with pytest.raises(InstanceTooLarge, match="2 bids over 2 goods need 12"):
        check_planned_reruns(dp, inst, ["critical"])
    check_planned_reruns(dp, inst, ["exactness"])
    # without a solver nothing is charged for solving
    check_planned_reruns(PLAIN, inst, axioms.AXIOMS, deviations=True)


def test_deviation_guard():
    goods = tuple(f"g{i}" for i in range(17))
    inst = AuctionInstance(goods, (bid("x", {"g0"}, 1),))
    with pytest.raises(InstanceTooLarge, match="^cannot enumerate bundles over 17 goods$"):
        find_profitable_deviation(greedy_mechanism(L1), inst, 0)


def test_sufficiency_pipeline_small():
    """Where all four axioms hold, no bidder can profit from any misreport."""
    for cfg in (L1, LHALF):
        mech = greedy_mechanism(cfg)
        for t in range(6):
            inst = random_instance(4, 5, seed=f"pipeline:{t}")
            report = run_axiom_suite(mech, [inst])
            assert report.all_hold
            for j in range(len(inst.bids)):
                assert find_profitable_deviation(mech, inst, j) is None


def test_truthful_utilities_nonnegative_greedy():
    for t in range(20):
        inst = random_instance(6, 8, seed=f"nonneg:{t}").assuming_truthful()
        out = run_greedy(inst, L1)
        assert all(u >= Money(0) for u in out.utilities.values())


def test_kept_duplicate_of_a_bracketed_threshold_keeps_its_row():
    # two equal thresholds in distinct objects: `_brackets` keeps the first,
    # and the kept list holds the second, which still finds the row
    first, second = Money(5), Money(F(10, 2))
    assert first == second and first is not second
    inst = AuctionInstance(("a",), (bid("x", "a", 8),))
    above_five = Mechanism(
        "above-5", lambda i: _grants_while(i, lambda j, b: b.amount > 5),
        lambda instance, j: per_bid(lambda bundle: ([second], [first, second])),
    )
    assert critical_value(above_five, inst, 0) == CriticalValue(Money(5), 2)
    values, tied = _candidate_values([second], _grid([first, second], F(8)))
    assert values == [F(0), _probe_above([(5, 5)], 0, 1)] and tied == []


def _deviation_result(mech, inst, j):
    """The search's report, or the tie it raises, and bid j's bid in every
    mechanism evaluation it made."""
    evaluated = []
    try:
        report = find_profitable_deviation(
            recording(mech, lambda i: evaluated.append(i.bids[j])), inst, j
        )
    except TiesPresent:
        return TiesPresent, evaluated
    return report and vars(report), evaluated


def _critical_result(mech, inst, j):
    try:
        cv = critical_value(mech, inst, j)
    except TiesPresent:
        return TiesPresent
    w = cv.witness
    return cv.value, cv.probes, w and (w.bid_index, w.description, w.instance.bids)


def _suite_result(mech, inst):
    try:
        report = run_axiom_suite(mech, [inst])
    except TiesPresent:
        return TiesPresent
    return [(c.axiom, c.verdict, c.samples, c.detail, c.witness and c.witness.description)
            for c in report.checks]


@pytest.mark.parametrize("name, exponent, rule", [
    pytest.param(name, exponent, rule, id=f"{prefix}{tag}-{rule.value}")
    for name, prefix in (("greedy", ""), ("clarke-greedy", "clarke-greedy-"))
    for exponent, tag in ((F(1, 2), "lhalf"), (F(1), "l1"))
    for rule in TieRule
])
def test_rerun_answers_change_no_check(name, exponent, rule):
    # a mechanism answering its reruns from the walk without bid j, and the
    # same mechanism rerunning in full, give the same misreport reports
    # after the same candidates, the same critical values, probes and
    # witnesses, and the same suite reports
    mech = MECHANISMS[name](NormConfig(exponent, rule), DP)
    full = full_runs(mech)
    rng = random.Random(f"answers:{exponent}:{rule.value}")
    seeded = [random_instance(5, 6, seed=f"answers:{t}").assuming_truthful() for t in range(3)]
    instances = [*seeded, _lying(rng, seeded[0]), _tie_heavy(rng, 4, 5), _tie_heavy(rng, 4, 5)]
    evaluations = 0
    for inst in instances:
        for j in range(len(inst.bids)):
            deviation = _deviation_result(mech, inst, j)
            assert deviation == _deviation_result(full, inst, j)
            assert _critical_result(mech, inst, j) == _critical_result(full, inst, j)
            evaluations += len(deviation[1])
        assert _suite_result(mech, inst) == _suite_result(full, inst)
    assert evaluations > 1000


def _canonical(value):
    """`value` with every bundle sorted, so its repr does not depend on the
    string hash seed."""
    if isinstance(value, SingleMindedBid):
        return (value.bidder, sorted(value.bundle), value.amount, value.is_reserve)
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, dict):
        return [(k, _canonical(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


#: Per (norm exponent, tie rule), over three seeded truthful instances and
#: one with lying true types: the number of mechanism evaluations, and a
#: sha256 prefix over clarke-greedy's misreport reports with the bid j of
#: every evaluation they made, its critical values, probes and witnesses,
#: and its suite reports.  Recorded while clarke-greedy reran in full.
_CLARKE_PINS = {
    ("1/2", "canonical"): (2683, "23261e283957b37a"),
    ("1/2", "reject"): (3460, "6dd1b9667e856caa"),
    ("1", "canonical"): (2679, "3425907d719bec31"),
    ("1", "reject"): (3460, "ddffa87fe3698d68"),
}


@pytest.mark.parametrize("exponent, rule", list(_CLARKE_PINS))
def test_clarke_greedy_checks_pinned(exponent, rule):
    mech = clarke_greedy_mechanism(NormConfig(F(exponent), TieRule(rule)))
    rng = random.Random(f"clarke-pin:{exponent}:{rule}")
    seeded = [random_instance(5, 6, seed=f"clarke-pin:{t}").assuming_truthful() for t in range(3)]
    h, evaluations = hashlib.sha256(), 0
    for inst in [*seeded, _lying(rng, seeded[0])]:
        for j in range(len(inst.bids)):
            report, evaluated = _deviation_result(mech, inst, j)
            evaluations += len(evaluated)
            critical = _critical_result(mech, inst, j)
            h.update(repr(_canonical([report, evaluated, critical])).encode())
        h.update(repr(_suite_result(mech, inst)).encode())
    assert (evaluations, h.hexdigest()[:16]) == _CLARKE_PINS[exponent, rule]
