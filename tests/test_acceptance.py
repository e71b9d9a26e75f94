"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every numeric expectation
is exact (rational or radical arithmetic); the approximation bounds are
asserted with zero tolerance.
"""

import json
import time
from dataclasses import replace
from fractions import Fraction as F
from types import SimpleNamespace

from camech.axioms import (
    clarke_greedy_mechanism,
    find_profitable_deviation,
    greedy_mechanism,
    run_axiom_suite,
)
from camech.cli import main
from camech.exact import SolverKind, optimal_allocation, run_gva
from camech.experiments import (
    random_instance,
    ratio_experiment,
    reproduce_all,
    scenario,
    tight_family,
)
from camech.greedy import greedy_allocate
from camech.model import allocation_value
from camech.money import Money
from camech.norm import NormConfig

L1 = NormConfig(F(1))


def _report(name, elapsed, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: PASS in {elapsed:.1f}s{suffix}")


def test_criterion_1_paper_examples():
    """Every published example reproduces exactly, in under a second."""
    start = time.perf_counter()
    rows = reproduce_all()
    elapsed = time.perf_counter() - start
    failures = [r for r in rows if not r.passed]
    assert not failures, failures
    by_key = {(r.scenario, r.mechanism, r.quantity): r.actual for r in rows}
    assert by_key[("greedyall", "greedy", "grants")] == "blue,red"
    assert by_key[("greedyall", "optimal", "value")] == "19"
    assert by_key[("clarke-fail", "clarke-greedy", "payment:red")] == "11"
    assert by_key[("clarke-fail", "clarke-greedy", "utility:red")] == "-1"
    assert by_key[("clarke-fail", "deviation", "deviation_utility:red")] == "0"
    assert by_key[("greedyp", "greedy", "payment:red")] == "9.5"
    assert by_key[("greedyp", "gva", "payment:green")] == "18"
    assert by_key[("greedycomp", "greedy", "payment:red")] == "0"
    assert by_key[("greedycomp", "gva", "payment:red")] == "5"
    assert by_key[("complex-green", "greedy", "owner_utility")] == "6"
    assert by_key[("complex-green", "greedy", "payment:red@deviating")] == "11.5"
    assert by_key[("complex-green", "greedy", "owner_utility@deviating")] == "10"
    assert by_key[("better", "tie-orders", "avg_revenue")] == "0.666666666667"
    assert by_key[("better", "gva", "revenue")] == "0"
    assert by_key[("notgood", "tie-orders", "avg_revenue")] == "0.666666666667"
    assert by_key[("notgood", "gva", "revenue")] == "2"
    assert by_key[("best", "greedy", "payment:red")] == "18"
    assert by_key[("best", "gva", "payment:red")] == "10"
    assert by_key[("worseeff", "greedy", "revenue")] == "18.5"
    assert by_key[("worseeff", "gva", "revenue")] == "36"
    assert by_key[("worsenoteff", "greedy", "revenue")] == "9.5"
    assert by_key[("worsenoteff", "gva", "revenue")] == "10"
    assert elapsed < 1.0, f"reproduction took {elapsed:.2f}s"
    _report("1 paper-example reproduction", elapsed, f"{len(rows)} rows")


def _counting(mech, runs):
    """`mech` adding one to runs[0] for each evaluation: every full run, and
    every amount that a per-bid object's `rerun` answers; an amount it
    declines is counted by the full run that follows."""
    def run(instance):
        runs[0] += 1
        return mech.run(instance)

    def bid(instance, j):
        replaced = mech.bid(instance, j)

        def rerun(bundle, amounts):
            answers = replaced.rerun(bundle, amounts)
            if answers is not None:
                runs[0] += sum(answer is not None for answer in answers)
            return answers

        return SimpleNamespace(thresholds=replaced.thresholds, rerun=rerun)

    return replace(mech, run=run, bid=bid)


def test_criterion_2_axiom_suite():
    """Greedy passes all four axioms on 500 tie-free instances, k<=8 n<=12."""
    start = time.perf_counter()
    runs = [0]
    greedy = _counting(greedy_mechanism(L1), runs)
    instances = [random_instance(8, 12, seed=f"axiom-accept:{t}") for t in range(500)]
    report = run_axiom_suite(greedy, instances)
    elapsed = time.perf_counter() - start
    violated = [c for c in report.checks if c.verdict != "holds"]
    assert not violated, violated
    assert {c.axiom for c in report.checks} == {
        "exactness", "monotonicity", "participation", "critical",
    }
    assert elapsed < 60.0, f"axiom suite took {elapsed:.1f}s"
    _report(
        "2 axiom suite", elapsed,
        f"500 instances x 4 axioms, exact critical, {runs[0]} greedy mechanism runs",
    )


def test_criterion_3_truthfulness_at_desk_scale():
    """No profitable misreport exists for greedy on 200 instances; one does
    exist for Clarke-with-greedy on the known counterexample."""
    start = time.perf_counter()
    runs = [0]
    mech = _counting(greedy_mechanism(L1), runs)
    searched = 0
    for t in range(200):
        inst = random_instance(6, 8, seed=f"deviation-accept:{t}")
        for j in range(len(inst.bids)):
            searched += 1
            found = find_profitable_deviation(mech, inst, j)
            assert found is None, (t, j, found)
    counterexample = scenario("clarke-fail").instance
    found = find_profitable_deviation(clarke_greedy_mechanism(L1), counterexample, 0)
    assert found is not None
    assert found.deviating_utility == Money(0)
    assert found.truthful_utility == Money(-1)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"deviation search took {elapsed:.1f}s"
    _report(
        "3 truthfulness at desk scale", elapsed,
        f"{searched} bidder searches, {runs[0]} greedy mechanism runs",
    )


def test_criterion_4_approximation_bounds():
    """optimal/greedy <= sqrt(8) at l=1/2 and <= 8 at l=1 on 1000 instances,
    zero tolerance; tight families reach 95 percent of each bound."""
    start = time.perf_counter()
    half = ratio_experiment(8, 12, 1000, F(1, 2), "ratio-accept")
    assert half.violations == ()
    assert half.trials == 1000
    one = ratio_experiment(8, 12, 1000, F(1), "ratio-accept")
    assert one.violations == ()
    for k in (4, 9, 16):
        for exponent in (F(1, 2), F(1)):
            inst = tight_family(k, exponent)
            allocation, _ = greedy_allocate(inst, NormConfig(exponent))
            greedy_value = allocation_value(inst, allocation)
            opt = optimal_allocation(inst, SolverKind.BITMASK_DP).value
            ratio = opt / greedy_value
            if exponent == F(1):
                assert ratio >= F(19, 20) * k, (k, exponent, ratio)
            else:
                assert ratio * ratio >= F(19, 20) ** 2 * k, (k, exponent, ratio)
    elapsed = time.perf_counter() - start
    _report(
        "4 approximation bounds", elapsed,
        f"max ratios {half.max_ratio:.3f}<=sqrt(8), {one.max_ratio:.3f}<=8",
    )


def test_criterion_5_oracle_equivalence():
    """Both exact solvers agree on 500 instances; GVA utilities stay >= 0."""
    start = time.perf_counter()
    for t in range(500):
        inst = random_instance(8, 12, seed=f"oracle-accept:{t}")
        dp = optimal_allocation(inst, SolverKind.BITMASK_DP)
        brute = optimal_allocation(inst, SolverKind.BRUTE_FORCE_BID_SUBSETS)
        assert dp.value == brute.value, t
        assert dp.allocation.granted == brute.allocation.granted, t
        out = run_gva(inst.assuming_truthful(), SolverKind.BITMASK_DP)
        assert all(u >= Money(0) for u in out.utilities.values()), t
    elapsed = time.perf_counter() - start
    _report("5 oracle equivalence", elapsed, "500 instances, exact equality")


def test_criterion_6_determinism(tmp_path, capsys):
    """Fixed seeds make every command byte-identical across runs."""
    start = time.perf_counter()
    three = tmp_path / "three.json"
    three.write_text(json.dumps({
        "goods": ["a", "b"],
        "bids": [
            {"bidder": "red", "bundle": ["a"], "amount": "10"},
            {"bidder": "green", "bundle": ["a", "b"], "amount": "19"},
            {"bidder": "blue", "bundle": ["b"], "amount": "8"},
        ],
    }))
    commands = [
        ["gen", "--goods", "6", "--bids", "8", "--seed", "13"],
        ["run", str(three), "--mechanism", "greedy"],
        ["run", str(three), "--mechanism", "gva"],
        ["check", str(three)],
        ["experiment", "--suite", "ratio", "--k", "4", "--n", "6",
         "--trials", "20", "--l", "1/2", "--seed", "13"],
        ["experiment", "--suite", "revenue", "--scenario", "better", "--l", "1"],
        ["experiment", "--suite", "reproduce"],
        ["experiment", "--suite", "tight", "--l", "1"],
    ]
    for argv in commands:
        code1 = main(argv)
        out1 = capsys.readouterr().out
        code2 = main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0, argv
        assert out1 == out2, argv
    elapsed = time.perf_counter() - start
    _report("6 determinism", elapsed, f"{len(commands)} commands, byte-identical")
