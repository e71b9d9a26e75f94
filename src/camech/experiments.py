"""Worked scenarios, reproduction harness, and experiment suites.

The scenario registry holds the small instances used throughout the test
suite and the expected numbers for each, tagged with their provenance
("paper" for published figures, "derived" for values computed by an
independent oracle, "trivial" for direct consequences of a definition).
`reproduce_all` replays every expectation exactly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import expm1, factorial, isqrt, log1p
from typing import Mapping, Optional

from .axioms import MECHANISMS, clarke_greedy_mechanism, find_profitable_deviation
from .errors import InstanceTooLarge, InvalidArgument, UnknownScenario
from .exact import SolverKind, _check_cells, optimal_allocation, run_gva
from .greedy import _priced, _walk, greedy_allocate
from .model import (
    MAX_GOODS,
    AuctionInstance,
    Outcome,
    SingleMindedBid,
    allocation_value,
    validate_instance,
)
from .money import Money
from .norm import NormConfig, RankedList, _sorted, keys_tie

F = Fraction

MAX_TIE_ORDERS = 10 ** 6


# --------------------------------------------------------------------------
# scenario registry
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Expectation:
    mechanism: str  # greedy | gva | optimal | clarke-greedy | tie-orders | deviation
    quantity: str   # e.g. "grants", "payment:red", "revenue", "value"; "@variant" suffix
    expected: str   # exact literal ("9.5", "2/3") or sorted name list ("blue,red")
    provenance: str  # paper | derived | trivial

    def met_by(self, actual: Money) -> bool:
        return actual == Money(F(self.expected))


@dataclass(frozen=True, eq=False)
class Scenario:
    name: str
    summary: str
    instance: AuctionInstance
    variants: Mapping[str, AuctionInstance] = field(default_factory=dict)
    complex_owner: Optional[str] = None
    complex_table: Optional[Mapping[frozenset, Fraction]] = None
    expectations: tuple[Expectation, ...] = ()


def _inst(goods, bids, truthful=False) -> AuctionInstance:
    built = tuple(SingleMindedBid(name, frozenset(bundle), amount) for name, bundle, amount in bids)
    inst = AuctionInstance(tuple(goods), built)
    assert not validate_instance(inst)
    return inst.assuming_truthful() if truthful else inst


def _three_bidder_instance(truthful=False) -> AuctionInstance:
    return _inst(
        ["a", "b"],
        [("red", {"a"}, 10), ("green", {"a", "b"}, 19), ("blue", {"b"}, 8)],
        truthful=truthful,
    )


def _scenario_greedyall() -> Scenario:
    return Scenario(
        name="greedyall",
        summary="three bids on two goods; greedy picks the two singles, the "
                "efficient allocation picks the pair bid",
        instance=_three_bidder_instance(),
        expectations=(
            Expectation("greedy", "grants", "blue,red", "paper"),
            Expectation("optimal", "grants", "green", "paper"),
            Expectation("optimal", "value", "19", "paper"),
        ),
    )


def _scenario_clarke_fail() -> Scenario:
    return Scenario(
        name="clarke-fail",
        summary="greedy allocation billed with Clarke payments overcharges the "
                "top single-good bidder, who profits from under-bidding",
        instance=_three_bidder_instance(truthful=True),
        expectations=(
            Expectation("clarke-greedy", "payment:red", "11", "paper"),
            Expectation("clarke-greedy", "utility:red", "-1", "paper"),
            Expectation("deviation", "deviation_utility:red", "0", "paper"),
        ),
    )


def _scenario_greedyp() -> Scenario:
    return Scenario(
        name="greedyp",
        summary="critical payments on the three-bidder instance",
        instance=_three_bidder_instance(),
        expectations=(
            Expectation("greedy", "payment:red", "9.5", "paper"),
            Expectation("greedy", "payment:green", "0", "paper"),
            Expectation("greedy", "payment:blue", "0", "paper"),
            Expectation("gva", "grants", "green", "paper"),
            Expectation("gva", "payment:green", "18", "paper"),
        ),
    )


def _scenario_greedycomp() -> Scenario:
    return Scenario(
        name="greedycomp",
        summary="greedy happens to find the efficient allocation but charges "
                "nothing; the GVA charges the top bidder",
        instance=_inst(
            ["a", "b"],
            [("red", {"a"}, 20), ("green", {"b"}, 15), ("blue", {"a", "b"}, 20)],
        ),
        expectations=(
            Expectation("greedy", "grants", "green,red", "paper"),
            Expectation("greedy", "payment:red", "0", "paper"),
            Expectation("greedy", "payment:green", "0", "paper"),
            Expectation("greedy", "payment:blue", "0", "trivial"),
            Expectation("gva", "payment:red", "5", "paper"),
            Expectation("gva", "payment:green", "0", "paper"),
        ),
    )


def _complex_green_instance(pair_amount) -> AuctionInstance:
    inst = _inst(
        ["a", "b"],
        [
            ("red", {"a"}, 12),
            ("green:a", {"a"}, 10),
            ("green:b", {"b"}, 10),
            ("green:ab", {"a", "b"}, pair_amount),
        ],
    )
    return inst


def _scenario_complex_green() -> Scenario:
    table = {
        frozenset({"a"}): 10,
        frozenset({"b"}): 10,
        frozenset({"a", "b"}): 30,
    }
    return Scenario(
        name="complex-green",
        summary="a complementarity-valuing owner splits into three agents; "
                "truth-telling loses to shading the pair bid",
        instance=_complex_green_instance(30),
        variants={"deviating": _complex_green_instance(23)},
        complex_owner="green",
        complex_table=table,
        expectations=(
            Expectation("greedy", "grants", "green:ab", "paper"),
            Expectation("greedy", "payment:green:ab", "24", "paper"),
            Expectation("greedy", "owner_utility", "6", "paper"),
            Expectation("greedy", "grants@deviating", "green:b,red", "paper"),
            Expectation("greedy", "payment:red@deviating", "11.5", "paper"),
            Expectation("greedy", "owner_utility@deviating", "10", "paper"),
        ),
    )


def _impossibility_instance(pair_amount) -> AuctionInstance:
    return _inst(
        ["a", "b"],
        [
            ("red", {"a"}, 10),
            ("green:b", {"b"}, 5),
            ("green:ab", {"a", "b"}, pair_amount),
        ],
    )


def _scenario_impossibility() -> Scenario:
    return Scenario(
        name="impossibility-setup",
        summary="two-bidder family behind the no-payment-scheme argument for "
                "double-minded players; the pair bid flips the allocation at 20",
        instance=_impossibility_instance(25),
        variants={"low": _impossibility_instance(15)},
        expectations=(
            Expectation("greedy", "grants", "green:ab", "paper"),
            Expectation("greedy", "grants@low", "green:b,red", "paper"),
        ),
    )


def _scenario_better() -> Scenario:
    return Scenario(
        name="better",
        summary="three tied pair bids; greedy earns 2/3 on average over tie "
                "orders while the GVA earns nothing",
        instance=_inst(
            ["a", "b", "c", "d"],
            [("green", {"a", "b"}, 1), ("red", {"c", "d"}, 1), ("black", {"a", "c"}, 1)],
        ),
        expectations=(
            Expectation("tie-orders", "avg_revenue", "2/3", "paper"),
            Expectation("gva", "revenue", "0", "paper"),
        ),
    )


def _scenario_notgood() -> Scenario:
    return Scenario(
        name="notgood",
        summary="four tied pair bids; the GVA extracts the full surplus",
        instance=_inst(
            ["a", "b", "c", "d"],
            [
                ("green", {"a", "b"}, 1),
                ("red", {"c", "d"}, 1),
                ("black", {"a", "c"}, 1),
                ("blue", {"b", "d"}, 1),
            ],
        ),
        expectations=(
            Expectation("tie-orders", "avg_revenue", "2/3", "paper"),
            Expectation("gva", "revenue", "2", "paper"),
        ),
    )


def _scenario_best() -> Scenario:
    return Scenario(
        name="best",
        summary="strong complementarity: the critical payment beats the GVA's",
        instance=_inst(
            ["a", "b"],
            [("red", {"a", "b"}, 20), ("green", {"a"}, 9), ("black", {"b"}, 1)],
        ),
        expectations=(
            Expectation("greedy", "payment:red", "18", "paper"),
            Expectation("greedy", "revenue", "18", "trivial"),
            Expectation("gva", "payment:red", "10", "paper"),
            Expectation("gva", "revenue", "10", "trivial"),
        ),
    )


def _scenario_worseeff() -> Scenario:
    return Scenario(
        name="worseeff",
        summary="same efficient allocation, but the GVA collects from both winners",
        instance=_inst(
            ["a", "b"],
            [("green", {"a"}, 20), ("red", {"a", "b"}, 37), ("black", {"b"}, 18)],
        ),
        expectations=(
            Expectation("greedy", "payment:green", "18.5", "paper"),
            Expectation("greedy", "payment:black", "0", "paper"),
            Expectation("greedy", "revenue", "18.5", "paper"),
            Expectation("gva", "payment:green", "19", "paper"),
            Expectation("gva", "payment:black", "17", "paper"),
            Expectation("gva", "revenue", "36", "paper"),
        ),
    )


def _scenario_worsenoteff() -> Scenario:
    return Scenario(
        name="worsenoteff",
        summary="greedy sells one good for nearly the GVA's whole revenue",
        instance=_inst(
            ["a", "b"],
            [("green", {"a"}, 10), ("red", {"a", "b"}, 19)],
        ),
        expectations=(
            Expectation("greedy", "payment:green", "9.5", "paper"),
            Expectation("greedy", "revenue", "9.5", "paper"),
            Expectation("gva", "payment:red", "10", "paper"),
            Expectation("gva", "revenue", "10", "paper"),
        ),
    )


_BUILDERS = {
    "greedyall": _scenario_greedyall,
    "clarke-fail": _scenario_clarke_fail,
    "greedyp": _scenario_greedyp,
    "greedycomp": _scenario_greedycomp,
    "complex-green": _scenario_complex_green,
    "impossibility-setup": _scenario_impossibility,
    "better": _scenario_better,
    "notgood": _scenario_notgood,
    "best": _scenario_best,
    "worseeff": _scenario_worseeff,
    "worsenoteff": _scenario_worsenoteff,
}


def scenario_names() -> tuple[str, ...]:
    return tuple(_BUILDERS)


def scenario(name: str) -> Scenario:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownScenario(f"no scenario named {name!r}; "
                              f"known: {', '.join(_BUILDERS)}") from None
    return builder()


# --------------------------------------------------------------------------
# reproduction harness
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ReproRow:
    scenario: str
    mechanism: str
    quantity: str
    expected: str
    actual: str
    passed: bool
    provenance: str


def _bid_index(inst: AuctionInstance, bidder: str) -> int:
    for j, b in enumerate(inst.bids):
        if b.bidder == bidder:
            return j
    raise KeyError(bidder)


def _granted_names(inst: AuctionInstance, grants) -> str:
    return ",".join(sorted(inst.bids[j].bidder for j in grants))


def _evaluate(sc: Scenario, exp: Expectation) -> tuple[str, bool]:
    quantity, _, variant = exp.quantity.partition("@")
    inst = sc.variants[variant] if variant else sc.instance
    cfg = NormConfig(F(1))

    def numeric(actual: Money) -> tuple[str, bool]:
        return actual.to_decimal(), exp.met_by(actual)

    if exp.mechanism in MECHANISMS:
        out = MECHANISMS[exp.mechanism](cfg, SolverKind.BITMASK_DP).run(inst)
        if quantity == "grants":
            names = _granted_names(inst, out.allocation.grants)
            return names, names == exp.expected
        if quantity.startswith("payment:"):
            return numeric(out.payments[_bid_index(inst, quantity.split(":", 1)[1])])
        if quantity.startswith("utility:"):
            return numeric(out.utilities[_bid_index(inst, quantity.split(":", 1)[1])])
        if quantity == "revenue":
            return numeric(out.revenue)
        if quantity == "owner_utility":
            value = complex_player_utility(inst, sc.complex_owner, sc.complex_table, out)
            return numeric(value)
    elif exp.mechanism == "optimal":
        solution = optimal_allocation(inst, SolverKind.BITMASK_DP)
        if quantity == "grants":
            names = _granted_names(inst, solution.allocation.grants)
            return names, names == exp.expected
        if quantity == "value":
            return numeric(Money(solution.value))
    elif exp.mechanism == "tie-orders":
        comparison = revenue_compare_tie_orders(inst, cfg)
        if quantity == "avg_revenue":
            return numeric(comparison.greedy_average)
    elif exp.mechanism == "deviation":
        bidder = quantity.split(":", 1)[1]
        j = _bid_index(inst, bidder)
        report = find_profitable_deviation(clarke_greedy_mechanism(cfg), inst, j)
        if report is None:
            return "none", False
        return numeric(report.deviating_utility)
    raise ValueError(f"unhandled expectation {exp.mechanism}/{exp.quantity}")


def reproduce_all() -> list[ReproRow]:
    """Replay every registered expectation; failures come back as rows, not errors."""
    rows = []
    for name in scenario_names():
        sc = scenario(name)
        for exp in sc.expectations:
            actual, passed = _evaluate(sc, exp)
            rows.append(
                ReproRow(name, exp.mechanism, exp.quantity, exp.expected, actual, passed, exp.provenance)
            )
    return rows


# --------------------------------------------------------------------------
# tie-order revenue enumeration
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TieOrderComparison:
    greedy_average: Money
    gva_revenue: Money
    orders: int
    group_sizes: tuple[int, ...]


def revenue_compare_tie_orders(instance: AuctionInstance, cfg: NormConfig) -> TieOrderComparison:
    """Average greedy revenue over every resolution of the norm ties.

    Enumerates all permutations within each group of equal-norm bids (their
    count is the product of the groups' factorials), walks and prices each
    resulting order as `run_greedy` does, and compares against the GVA's
    single revenue figure.
    """
    order, keys, _, ties = _sorted(instance, NormConfig(cfg.exponent))
    groups = [list(g) for _, g in itertools.groupby(order, key=keys.__getitem__)]
    total_orders = 1
    for g in groups:
        total_orders *= factorial(len(g))
        if total_orders > MAX_TIE_ORDERS:
            raise InstanceTooLarge(f"tie groups admit more than {MAX_TIE_ORDERS} orders")
    revenue_sum = Money(0)
    for perm_groups in itertools.product(*(itertools.permutations(g) for g in groups)):
        order = tuple(itertools.chain.from_iterable(perm_groups))
        out = _priced(instance, *_walk(instance, RankedList(order, ties)), cfg.exponent)
        revenue_sum += out.revenue
    gva = run_gva(instance, SolverKind.BITMASK_DP)
    return TieOrderComparison(
        revenue_sum * F(1, total_orders), gva.revenue, total_orders, tuple(len(g) for g in groups)
    )


@dataclass(frozen=True, eq=False)
class RevenueCheck:
    """A scenario's tie-order comparison and its expected average revenue, if any."""

    scenario: str
    comparison: TieOrderComparison
    expected: Optional[str] = None
    passed: bool = True


def revenue_experiment(name: str, exponent: Fraction) -> RevenueCheck:
    """Tie-order revenue of a registered scenario, checked against the registry."""
    sc = scenario(name)
    compared = revenue_compare_tie_orders(sc.instance, NormConfig(exponent))
    for e in sc.expectations:
        if (e.mechanism, e.quantity) == ("tie-orders", "avg_revenue"):
            return RevenueCheck(sc.name, compared, e.expected, e.met_by(compared.greedy_average))
    return RevenueCheck(sc.name, compared)


# --------------------------------------------------------------------------
# random instances and the approximation-ratio suite
# --------------------------------------------------------------------------

#: Random instances are tie-free under each of these norm exponents.
TIE_FREE_EXPONENTS = (F(0), F(1, 2), F(1))
#: Whole redraws of a random instance allowed before giving up on ties.
MAX_DRAW_ATTEMPTS = 200
#: Most bids drawn over all redraws of one random instance, and so the most
#: bids it may have: large bid counts, which almost never come out tie-free,
#: give up after a few redraws.
MAX_DRAWN_BIDS = 200_000
#: Most goods times bids drawn over all redraws of one random instance, one
#: random number per good of each bundle; a single draw past it is refused
#: before any draw.  At 63 goods, 8,500 bids draw tie-free at seeds 1 to 5
#: within 21 draws and may make 22 (8,750 still tie at seed 4), and 200,000
#: bids, 12.6 million numbers for one draw (5.6 s on a 2-vCPU host), are refused.
MAX_DRAWN_GOODS = 12_000_000
#: Most bundle draws (empty bundles are redrawn) a random instance may expect to need.
MAX_BUNDLE_DRAWS = 10 ** 7


def _check_draw(goods_count: int, bids_count: int, bundle_prob: float) -> int:
    """Raise what `random_instance` raises for these arguments, before any
    draw; return how many whole draws it may make."""
    if goods_count > MAX_GOODS:
        raise InstanceTooLarge(f"at most {MAX_GOODS} goods are supported")
    if goods_count < 1 or not 0 <= bids_count <= MAX_DRAWN_BIDS or not 0 < bundle_prob <= 1:
        raise InvalidArgument(
            f"random instances need at least one good, 0 to {MAX_DRAWN_BIDS} bids "
            "and a bundle probability in (0, 1]"
        )
    # chance that one draw gives a non-empty bundle
    nonempty = 1.0 if bundle_prob == 1 else -expm1(goods_count * log1p(-bundle_prob))
    if bids_count > MAX_BUNDLE_DRAWS * nonempty:
        raise InvalidArgument(f"bundle probability too small for {MAX_BUNDLE_DRAWS} bundle draws")
    per_draw = goods_count * max(bids_count, 1)
    if per_draw > MAX_DRAWN_GOODS:
        raise InstanceTooLarge(
            f"{goods_count} goods times {bids_count} bids is {per_draw} draws;"
            f" at most {MAX_DRAWN_GOODS} are allowed"
        )
    return min(
        MAX_DRAW_ATTEMPTS, MAX_DRAWN_BIDS // max(bids_count, 1), MAX_DRAWN_GOODS // per_draw
    )


def random_instance(
    goods_count: int, bids_count: int, *, seed, bundle_prob: float = 0.4
) -> AuctionInstance:
    """Seeded instance with distinct norms under each of `TIE_FREE_EXPONENTS`.

    Bundles include each good independently with `bundle_prob` (empty bundles
    are redrawn); amounts are distinct integers up to 10**6 thousandths, so
    they serialise exactly.  The whole draw is retried on a norm collision,
    which keeps every suite tie-free by construction.
    """
    attempts = _check_draw(goods_count, bids_count, bundle_prob)
    rng = random.Random(f"camech-instance:{seed}")
    goods = tuple(f"g{i + 1}" for i in range(goods_count))
    for _ in range(attempts):
        bundles = []
        for _ in range(bids_count):
            bundle = frozenset(g for g in goods if rng.random() < bundle_prob)
            while not bundle:
                bundle = frozenset(g for g in goods if rng.random() < bundle_prob)
            bundles.append(bundle)
        amounts = rng.sample(range(1, 10 ** 6 + 1), bids_count)
        bids = tuple(
            SingleMindedBid(f"b{i + 1}", bundle, F(amount, 1000))
            for i, (bundle, amount) in enumerate(zip(bundles, amounts))
        )
        inst = AuctionInstance(goods, bids)
        if not any(keys_tie(inst, e) for e in TIE_FREE_EXPONENTS):
            return inst
    raise InvalidArgument("could not draw a tie-free instance; lower the bid count")


#: Most DP cells the ratio suite may plan over all its trials, checked before
#: the first one as `axioms.MAX_PLANNED_RERUNS` is before the first rerun:
#: on a 2-vCPU host, 3.4 s of trials at 8 goods and 12 bids, 6.4 s at one
#: good and one bid.
MAX_RATIO_CELLS = 1 << 25
#: A trial's table counts as at least this many goods wide: drawing, ranking
#: and solving cost about 2**8 DP cells a bid on small tables, so a suite of
#: tiny instances is bounded too.
RATIO_MIN_TABLE_GOODS = 8


@dataclass(frozen=True, eq=False)
class RatioStats:
    trials: int
    goods_count: int
    bids_count: int
    exponent: Fraction
    bound_label: str
    max_ratio: float
    violations: tuple[int, ...]  # trial indices breaking the bound; must be empty


def greedy_and_optimal_values(
    instance: AuctionInstance, cfg: NormConfig, solver: SolverKind = SolverKind.BITMASK_DP
) -> tuple[Fraction, Fraction]:
    """A rational instance's greedy value under `cfg` and its optimal value by `solver`."""
    allocation, _ = greedy_allocate(instance, cfg)
    greedy = allocation_value(instance, allocation)
    return greedy, optimal_allocation(instance, solver).value


def ratio_bound(ratio: Fraction, goods_count: int, exponent: Fraction) -> tuple[Optional[int], str]:
    """Where an optimal-to-greedy ratio sits against the paper's bound, and the bound's label.

    Over k goods the bound is sqrt(k) at l = 1/2 and k at l = 1, so ratio**2 or
    ratio is compared with k: -1, 0 or 1 for below, at or above the bound.  At
    any other exponent no bound is claimed: None, labelled "none".
    """
    if exponent == F(1, 2):
        power, label = 2, f"sqrt({goods_count})"
    elif exponent == F(1):
        power, label = 1, str(goods_count)
    else:
        return None, "none"
    powered = ratio ** power
    return (powered > goods_count) - (powered < goods_count), label


def ratio_experiment(
    goods_count: int,
    bids_count: int,
    trials: int,
    exponent: Fraction,
    seed,
    *,
    bundle_prob: float = 0.4,
) -> RatioStats:
    """Optimal-to-greedy value ratios over seeded random instances.

    Each ratio is checked exactly against `ratio_bound`: the square root of
    the number of goods for exponent 1/2, the number of goods for exponent 1.
    Before the first trial the arguments pass `random_instance`'s checks
    and the DP's table bound, and the planned work, trials * (n + 1) *
    2**max(k, `RATIO_MIN_TABLE_GOODS`) cells, must stay within
    `MAX_RATIO_CELLS`; past it the suite raises `InstanceTooLarge`.
    """
    if goods_count < 1 or bids_count < 1 or trials < 1:
        raise InvalidArgument("the ratio suite needs at least one good, one bid and one trial")
    _check_draw(goods_count, bids_count, bundle_prob)
    _check_cells(bids_count, goods_count)
    cells = trials * ((bids_count + 1) << max(goods_count, RATIO_MIN_TABLE_GOODS))
    if cells > MAX_RATIO_CELLS:
        raise InstanceTooLarge(
            f"the ratio suite plans {cells} DP cells over {trials} trials;"
            f" at most {MAX_RATIO_CELLS} are allowed"
        )
    exponent = F(exponent)
    cfg = NormConfig(exponent)
    violations = []
    max_ratio = F(0)
    for t in range(trials):
        inst = random_instance(
            goods_count, bids_count, seed=f"{seed}:{t}", bundle_prob=bundle_prob
        )
        greedy, opt = greedy_and_optimal_values(inst, cfg)
        ratio = opt / greedy
        max_ratio = max(max_ratio, ratio)
        side, bound_label = ratio_bound(ratio, goods_count, exponent)
        if side == 1:
            violations.append(t)
    return RatioStats(
        trials, goods_count, bids_count, exponent, bound_label,
        float(max_ratio), tuple(violations),
    )


#: Share of the bound each tight family's ratio must reach.
TIGHT_SHARE = F(19, 20)
#: Goods counts of the tight families the tight suite runs by default.
TIGHT_GOODS_COUNTS = (4, 9, 16)


@dataclass(frozen=True)
class TightRow:
    goods_count: int
    bound_label: str
    greedy: Fraction
    optimal: Fraction
    ratio: Fraction
    reaches_bound: bool  # ratio is at least TIGHT_SHARE of the bound


def tight_experiment(exponent: Fraction, goods_counts=TIGHT_GOODS_COUNTS) -> list[TightRow]:
    """Each tight family's optimal-to-greedy ratio against `TIGHT_SHARE` of its bound.

    A family has two bids, so it is solved over its 4 bid subsets: the bitmask
    DP's (bids + 1) * 2**goods cells would refuse 22 goods or more.
    """
    rows = []
    for k in goods_counts:
        inst = tight_family(k, exponent)
        greedy, opt = greedy_and_optimal_values(
            inst, NormConfig(exponent), SolverKind.BRUTE_FORCE_BID_SUBSETS
        )
        ratio = opt / greedy
        side, label = ratio_bound(ratio / TIGHT_SHARE, k, exponent)
        rows.append(TightRow(k, label, greedy, opt, ratio, side >= 0))
    return rows


def tight_family(goods_count: int, exponent: Fraction) -> AuctionInstance:
    """Two-bid instance driving the greedy-versus-optimal ratio to its bound.

    A point bid slightly above norm 1 wins the ranking; the sweep bid for all
    goods is worth nearly the bound times more.
    """
    if goods_count < 2:
        raise InvalidArgument("the family needs at least two goods")
    if goods_count > MAX_GOODS:
        raise InstanceTooLarge(f"at most {MAX_GOODS} goods are supported")
    exponent = F(exponent)
    goods = tuple(f"g{i + 1}" for i in range(goods_count))
    epsilon = F(1, 1000)
    if exponent == F(1):
        sweep_amount = F(goods_count)
    elif exponent == F(1, 2):
        # largest 6-decimal value whose norm stays below the point bid's
        sweep_amount = F(isqrt(goods_count * 10 ** 12), 10 ** 6)
    else:
        raise InvalidArgument("tight families are defined for exponents 1 and 1/2")
    return AuctionInstance(
        goods,
        (
            SingleMindedBid("point", frozenset({goods[0]}), 1 + epsilon),
            SingleMindedBid("sweep", frozenset(goods), sweep_amount),
        ),
    )


# --------------------------------------------------------------------------
# complex players
# --------------------------------------------------------------------------


def owned_bid_indices(instance: AuctionInstance, owner: str) -> list[int]:
    """Bids belonging to an owner: exact id match or an `owner:` prefix."""
    prefix = owner + ":"
    return [
        j
        for j, b in enumerate(instance.bids)
        if b.bidder == owner or b.bidder.startswith(prefix)
    ]


def complex_player_utility(
    instance: AuctionInstance,
    owner: str,
    valuation_table: Mapping[frozenset, Fraction],
    outcome: Outcome,
) -> Money:
    """Value of everything the owner's agents won, minus everything they paid.

    The table is read with free disposal: a union of granted bundles is worth
    the best table entry it covers.  A non-empty union covering no entry is
    an error rather than silently zero.
    """
    indices = owned_bid_indices(instance, owner)
    union: frozenset = frozenset()
    paid = Money(0)
    for j in indices:
        union |= outcome.allocation.bundle_granted(j)
        paid = paid + outcome.payments[j]
    if not union:
        return Money(0) - paid
    covered = [v for bundle, v in valuation_table.items() if bundle <= union]
    if not covered:
        raise InvalidArgument(
            f"no valuation entry covers the union {sorted(union)} for owner {owner!r}"
        )
    return max(covered) - paid
