"""Mechanisms for combinatorial auctions among single-bundle bidders.

The package bundles a greedy allocation with critical-value payments, an
exact winner-determination/Clarke baseline, executable axiom and
truthfulness checkers, and reproducible experiment suites, all on exact
arithmetic.
"""

from .axioms import (
    AXIOMS,
    AxiomCheck,
    AxiomReport,
    CriticalValue,
    DeviationReport,
    Mechanism,
    clarke_greedy_mechanism,
    critical_value,
    find_profitable_deviation,
    greedy_mechanism,
    gva_mechanism,
    run_axiom_suite,
)
from .exact import (
    ExactSolution,
    SolverKind,
    clarke_with_greedy,
    optimal_allocation,
    run_gva,
)
from .experiments import (
    RatioStats,
    Scenario,
    complex_player_utility,
    random_instance,
    ratio_experiment,
    reproduce_all,
    revenue_compare_tie_orders,
    scenario,
    scenario_names,
    tight_experiment,
    tight_family,
)
from .greedy import GreedyTrace, blocker, greedy_allocate, run_greedy
from .model import (
    Allocation,
    AuctionInstance,
    Good,
    Outcome,
    SingleMindedBid,
    Violation,
    allocation_value,
    bidder_utility,
    validate_instance,
)
from .money import Money
from .norm import NormConfig, RankedList, TieRule, rank

__version__ = "0.1.0"

__all__ = [
    "AXIOMS",
    "Allocation",
    "AuctionInstance",
    "AxiomCheck",
    "AxiomReport",
    "CriticalValue",
    "DeviationReport",
    "ExactSolution",
    "Good",
    "GreedyTrace",
    "Mechanism",
    "Money",
    "NormConfig",
    "Outcome",
    "RankedList",
    "RatioStats",
    "Scenario",
    "SingleMindedBid",
    "SolverKind",
    "TieRule",
    "Violation",
    "allocation_value",
    "bidder_utility",
    "blocker",
    "clarke_greedy_mechanism",
    "clarke_with_greedy",
    "complex_player_utility",
    "critical_value",
    "find_profitable_deviation",
    "greedy_allocate",
    "greedy_mechanism",
    "gva_mechanism",
    "optimal_allocation",
    "random_instance",
    "rank",
    "ratio_experiment",
    "reproduce_all",
    "revenue_compare_tie_orders",
    "run_greedy",
    "run_gva",
    "run_axiom_suite",
    "scenario",
    "scenario_names",
    "tight_experiment",
    "tight_family",
    "validate_instance",
]
