"""Executable axioms, critical-value computation, and misreport search.

Four properties are checked against a runnable mechanism: exactness (full
bundle or nothing), monotonicity (more money for fewer goods never loses),
participation (denied bids pay zero), and critical pricing (winners pay the
threshold below which they would have lost).  A mechanism passing all four
on an instance family should admit no profitable single-bundle misreport;
`find_profitable_deviation` tests exactly that by exhaustive re-runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .errors import BundleSpaceTooLarge, InvalidArgument, NonMonotoneDetected, TiesPresent
from .model import AuctionInstance, Outcome, SingleMindedBid, bidder_utility
from .money import Money
from .norm import NormConfig, TieRule, crossing_value, rank
from . import exact as _exact
from .greedy import run_greedy

#: Probes sit this fraction of the local gap off a threshold's rational bracket.
PROBE_SCALE = Fraction(1, 2 ** 20)
#: Draws tried for one tie-free monotonicity perturbation before giving up.
PERTURBATION_ATTEMPTS = 20
#: The four properties, in the order a suite reports them.
AXIOMS = ("exactness", "monotonicity", "participation", "critical")


@dataclass(frozen=True, eq=False)
class Mechanism:
    """A deterministic runnable mechanism: instance -> Outcome.

    `thresholds(instance, j, bundle)` lists the declared values at which bid
    j, moved to `bundle`, may change its outcome: the exact critical values
    and the misreport search probe around them.  `norm` is the ranking norm
    of a norm-based mechanism.
    """

    name: str
    run: Callable[[AuctionInstance], Outcome]
    thresholds: Callable[[AuctionInstance, int, frozenset], Sequence[Money]]
    norm: Optional[NormConfig] = None


def _norm_mechanism(
    name: str, run: Callable[[AuctionInstance], Outcome], cfg: NormConfig
) -> Mechanism:
    """A mechanism allocating greedily by cfg's norm, so its thresholds are
    the values at which the bundle's norm crosses each other bid's."""

    def thresholds(inst: AuctionInstance, j: int, bundle: frozenset):
        size = len(bundle)
        return [crossing_value(b, size, cfg.exponent) for i, b in enumerate(inst.bids) if i != j]

    return Mechanism(name, run, thresholds, cfg)


def greedy_mechanism(cfg: NormConfig) -> Mechanism:
    return _norm_mechanism("greedy", lambda inst: run_greedy(inst, cfg), cfg)


def clarke_greedy_mechanism(cfg: NormConfig) -> Mechanism:
    return _norm_mechanism("clarke-greedy", lambda inst: _exact.clarke_with_greedy(inst, cfg), cfg)


def gva_mechanism(solver: _exact.SolverKind) -> Mechanism:
    def thresholds(inst: AuctionInstance, j: int, bundle: frozenset):
        # the one value where j (with this bundle) enters the optimal
        # allocation; for j's own bundle it is j's Clarke payment
        opt_without = _exact.optimal_allocation(inst.with_amount(j, 0), solver).value
        big = opt_without + 1
        forced = inst.with_bid(
            j, SingleMindedBid(inst.bids[j].bidder, bundle, big, inst.bids[j].is_reserve)
        )
        compatible = _exact.optimal_allocation(forced, solver).value - big
        return [Money(max(opt_without - compatible, 0))]

    return Mechanism("gva", lambda inst: _exact.run_gva(inst, solver), thresholds)


#: Mechanism name -> constructor taking the norm and the exact solver; a
#: constructor ignores the one its mechanism does not use.
MECHANISMS: dict[str, Callable[[NormConfig, _exact.SolverKind], Mechanism]] = {
    "greedy": lambda cfg, solver: greedy_mechanism(cfg),
    "gva": lambda cfg, solver: gva_mechanism(solver),
    "clarke-greedy": lambda cfg, solver: clarke_greedy_mechanism(cfg),
}


@dataclass(frozen=True)
class CriticalValue:
    """Threshold below which a bid loses and above which it wins.

    `value` is None for +infinity; `probes` counts the mechanism runs.
    """

    value: Optional[Money]
    probes: int = 0


def _brackets(thresholds: Sequence[Money]) -> list[tuple[Fraction, Fraction]]:
    """Rational bounds (lo, hi) around sorted, distinct thresholds, at doubling
    precision until no two overlap; a rational threshold is its own bracket."""
    bits = 64  # the precision `Money.to_decimal` starts at
    while True:
        brackets = [t.bounds(bits) for t in thresholds]
        if all(hi < lo for (_, hi), (lo, _) in zip(brackets, brackets[1:])):
            return brackets
        bits *= 2


def critical_value(mech: Mechanism, instance: AuctionInstance, j: int) -> CriticalValue:
    """Bid j's grant threshold: the mechanism's first threshold above which,
    probed once inside each region between thresholds, j wins its bundle.

    Probes are `Fraction`s, between the brackets of consecutive thresholds
    and zero.  Raises `NonMonotoneDetected` when a probe finds a denial above a
    grant, i.e. when no single threshold exists.
    """
    bundle = instance.bids[j].bundle
    thresholds = sorted({t for t in mech.thresholds(instance, j, bundle) if t.sign() > 0})
    # one probe inside each region between consecutive thresholds
    if not thresholds:
        probes = [PROBE_SCALE]
    else:
        brackets = _brackets([Money(0), *thresholds])[1:]
        probes = [brackets[0][0] * (1 - PROBE_SCALE)]
        probes += [a + (b - a) * PROBE_SCALE for (_, a), (b, _) in zip(brackets, brackets[1:])]
        probes.append(brackets[-1][1] * (1 + PROBE_SCALE))
    status = [
        mech.run(instance.with_amount(j, v)).allocation.bundle_granted(j) == bundle
        for v in probes
    ]
    first = next((i for i, s in enumerate(status) if s), None)
    if first is None:
        return CriticalValue(None, len(probes))
    for i in range(first + 1, len(status)):
        if not status[i]:
            raise NonMonotoneDetected(
                f"bid {j}: granted at {Money(probes[first]).to_decimal()} "
                f"but denied at {Money(probes[i]).to_decimal()}",
                witness={"instance": instance, "bid": j,
                         "granted_at": probes[first], "denied_at": probes[i]},
            )
    return CriticalValue(Money(0) if first == 0 else thresholds[first - 1], len(probes))


@dataclass(frozen=True, eq=False)
class Witness:
    """Replayable evidence for a violated axiom."""

    instance: AuctionInstance
    bid_index: Optional[int]
    description: str


@dataclass(frozen=True, eq=False)
class AxiomCheck:
    axiom: str
    verdict: str  # "holds" | "violated" | "skipped"
    samples: int
    witness: Optional[Witness] = None
    detail: str = ""

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


@dataclass(frozen=True, eq=False)
class AxiomReport:
    mechanism: str
    seed: Optional[int]
    instances: int
    checks: tuple[AxiomCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.verdict != "violated" for c in self.checks)


def _exactness_witness(mech, inst, out) -> Optional[Witness]:
    """Every bid receives exactly its declared bundle or nothing at all."""
    for j, granted in out.allocation.grants.items():
        if granted and granted != inst.bids[j].bundle:
            return Witness(inst, j, f"bid {j} got {sorted(granted)} "
                                    f"instead of {sorted(inst.bids[j].bundle)}")
    return None


def _participation_witness(mech, inst, out) -> Optional[Witness]:
    """Denied bids pay exactly zero."""
    for j in range(len(inst.bids)):
        if not out.is_granted(j) and out.payments[j] != 0:
            return Witness(inst, j, f"denied bid {j} pays {out.payments[j].to_decimal()}")
    return None


def _critical_witness(mech, inst, out) -> Optional[Witness]:
    """Winners pay exactly their critical value.

    Propagates `NonMonotoneDetected` from the critical-value search.
    """
    for j in sorted(out.allocation.grants):
        cv = critical_value(mech, inst, j)
        pay = out.payments[j]
        if cv.value is None:
            return Witness(inst, j, f"granted bid {j} has an infinite critical value")
        if pay != cv.value:
            return Witness(inst, j, f"bid {j} pays {pay.to_decimal()} but its "
                                    f"critical value is {cv.value.to_decimal()}")
    return None


def _monotonicity_witness(rng, perturbations, mech, inst, out) -> tuple[Optional[Witness], int]:
    """Raising a winner's amount, or shrinking its bundle, keeps it winning.

    Perturbations are sampled (the space is infinite) and kept tie-free when
    the mechanism ranks by a norm, since the tie-free assumption is what the
    property is stated under.  Also returns the perturbations tried.
    """
    tried = 0
    for j in sorted(out.allocation.grants):
        bid = inst.bids[j]
        for _ in range(perturbations):
            perturbed = _tie_free_perturbation(rng, mech, inst, j)
            if perturbed is None:
                continue
            tried += 1
            new_inst, new_bid = perturbed
            result = mech.run(new_inst)
            if result.allocation.bundle_granted(j) != new_bid.bundle:
                return Witness(
                    new_inst, j,
                    f"bid {j} was granted as {sorted(bid.bundle)}@"
                    f"{Money(bid.amount).to_decimal()} but lost after moving to "
                    f"{sorted(new_bid.bundle)}@{Money(new_bid.amount).to_decimal()}",
                ), tried
    return None, tried


def _tie_free_perturbation(rng, mech, inst, j):
    bid = inst.bids[j]
    for _ in range(PERTURBATION_ATTEMPTS):
        if len(bid.bundle) > 1 and rng.random() < 0.5:
            keep = rng.randint(1, len(bid.bundle) - 1)
            goods = sorted(bid.bundle)
            new_bundle = frozenset(rng.sample(goods, keep))
            new_bid = SingleMindedBid(bid.bidder, new_bundle, bid.amount, bid.is_reserve)
        else:
            bump = 1 + Fraction(rng.randint(1, 10 ** 6), 10 ** 6)
            new_bid = bid.with_amount(bid.amount * bump)
        new_inst = inst.with_bid(j, new_bid)
        if mech.norm is not None:
            try:
                rank(new_inst, NormConfig(mech.norm.exponent, TieRule.REJECT))
            except TiesPresent:
                continue
        return new_inst, new_bid
    return None


_WITNESSES = {
    "exactness": _exactness_witness,
    "participation": _participation_witness,
    "critical": _critical_witness,
}


def run_axiom_suite(
    mech: Mechanism,
    instances: Iterable[AuctionInstance],
    axioms: Iterable[str] = AXIOMS,
    *,
    seed: int = 0,
    perturbations: int = 10,
) -> AxiomReport:
    """Check the named axioms over the instances, reported in `AXIOMS` order.

    The mechanism runs once per instance and every selected check reads that
    outcome; a check stops at its first violation, and a `NonMonotoneDetected`
    from the critical-value search is a violated critical check.
    """
    selected = set(axioms)
    unknown = sorted(selected - set(AXIOMS))
    if unknown:
        raise InvalidArgument(f"unknown axiom name: {unknown[0]}")
    if "monotonicity" in selected and perturbations < 1:
        raise InvalidArgument("monotonicity needs at least one perturbation per granted bid")
    instances = list(instances)
    rng = random.Random(f"monotonicity:{seed}")
    tried = 0
    pending = [name for name in AXIOMS if name in selected]
    violated: dict[str, AxiomCheck] = {}
    for samples, inst in enumerate(instances, 1):
        if not pending:
            break
        out = mech.run(inst)
        for name in list(pending):
            try:
                if name == "monotonicity":
                    witness, count = _monotonicity_witness(rng, perturbations, mech, inst, out)
                    tried += count
                else:
                    witness = _WITNESSES[name](mech, inst, out)
                check = witness and AxiomCheck(name, "violated", samples, witness)
            except NonMonotoneDetected as exc:
                check = AxiomCheck(name, "violated", samples, detail=str(exc))
            if check:
                violated[name] = check
                pending.remove(name)
    checks = tuple(
        violated.get(name)
        or AxiomCheck(name, "holds", len(instances),
                      detail=f"{tried} perturbations" if name == "monotonicity" else "")
        for name in AXIOMS if name in selected
    )
    return AxiomReport(mech.name, seed, len(instances), checks)


@dataclass(frozen=True, eq=False)
class DeviationReport:
    """A strictly profitable misreport found by exhaustive search."""

    bidder: str
    bid_index: int
    true_type: SingleMindedBid
    misreport: SingleMindedBid
    truthful_utility: Money
    deviating_utility: Money
    bundles_searched: int
    candidates_tested: int
    note: str = (
        "complete for mechanisms whose outcome is piecewise-constant in the "
        "declared value between norm crossings; sound for any mechanism"
    )


def _candidate_values(thresholds: Sequence[Money], true_amount: Fraction) -> list[Fraction]:
    """Zero, the true amount, and a rational probe on each side of each threshold."""
    candidates = {Fraction(0), true_amount}
    brackets = _brackets(sorted({t for t in thresholds if t.sign() >= 0}))
    for i, (lo, hi) in enumerate(brackets):
        left_gap = lo - brackets[i - 1][1] if i > 0 else lo
        right_gap = brackets[i + 1][0] - hi if i + 1 < len(brackets) else (hi if hi > 0 else 1)
        below = lo - left_gap * PROBE_SCALE
        if below >= 0:
            candidates.add(below)
        candidates.add(hi + right_gap * PROBE_SCALE)
    return sorted(candidates)


def find_profitable_deviation(
    mech: Mechanism, instance: AuctionInstance, j: int
) -> Optional[DeviationReport]:
    """Search every bundle and every norm-crossing value for a profitable lie.

    The bidder's true type comes from `instance.true_types` (falling back to
    the declared bid).  Any report returned is genuinely profitable: the
    deviating utility was computed by re-running the mechanism.
    """
    k = len(instance.goods)
    if k > 16:
        raise BundleSpaceTooLarge(f"cannot enumerate bundles over {k} goods")
    declared = instance.bids[j]
    true_type = (instance.true_types or {}).get(declared.bidder, declared)
    base = instance.without_true_types()

    def utility(out: Outcome) -> Money:
        return bidder_utility(true_type, out.allocation.bundle_granted(j), out.payments[j])

    truthful_bid = SingleMindedBid(
        declared.bidder, true_type.bundle, true_type.amount, declared.is_reserve
    )
    truthful_utility = utility(mech.run(base.with_bid(j, truthful_bid)))

    goods = base.goods
    best: Optional[tuple[Money, SingleMindedBid]] = None
    tested = 0
    # a norm mechanism's thresholds depend on the bundle's size alone
    candidates: dict[tuple[Money, ...], list[Fraction]] = {}
    for bundle_bits in range(1, 1 << k):
        bundle = frozenset(goods[i] for i in range(k) if bundle_bits >> i & 1)
        thresholds = tuple(mech.thresholds(base, j, bundle))
        values = candidates.get(thresholds)
        if values is None:
            values = candidates[thresholds] = _candidate_values(thresholds, true_type.amount)
        for v in values:
            tested += 1
            attempt = SingleMindedBid(declared.bidder, bundle, v, declared.is_reserve)
            u = utility(mech.run(base.with_bid(j, attempt)))
            if best is None or u > best[0]:
                best = (u, attempt)
    if best is not None and best[0] > truthful_utility:
        return DeviationReport(
            bidder=declared.bidder,
            bid_index=j,
            true_type=true_type,
            misreport=best[1],
            truthful_utility=truthful_utility,
            deviating_utility=best[0],
            bundles_searched=(1 << k) - 1,
            candidates_tested=tested,
        )
    return None
