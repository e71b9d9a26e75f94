"""Executable axioms, critical-value computation, and misreport search.

Four properties are checked against a runnable mechanism, each decided by
reruns: exactness (full bundle or nothing), monotonicity (more money, or
fewer goods, never loses), participation (denied bids pay zero), and
critical pricing (winners pay the threshold below which they would have
lost).  A mechanism passing all four on an instance family should admit no
profitable single-bundle misreport; `find_profitable_deviation` tests
exactly that by re-runs over every bundle, one per class of bundles the
mechanisms cannot tell apart.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import lcm
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import InstanceTooLarge, InvalidArgument, TiesPresent
from .model import AuctionInstance, BidRerun, Outcome, SingleMindedBid, bidder_utility
from .money import Money
from .norm import NormConfig, TieRule, crossing_value
from . import exact as _exact
from .greedy import rerun_greedy, run_greedy

#: Probes sit this fraction of the local gap off a threshold's rational bracket.
PROBE_SCALE = Fraction(1, 2 ** 20)
_ZERO = Fraction(0)
#: The four properties, in the order a suite reports them.
AXIOMS = ("exactness", "monotonicity", "participation", "critical")
#: Most goods whose bundles the misreport search enumerates.
MAX_SEARCH_GOODS = 16
#: Most mechanism reruns a check may plan, checked before the first one runs
#: as `exact.MAX_DP_CELLS` is before a table is built.  On a 2-vCPU host a
#: misreport search at 6 goods and 8 bids spends 7.0 us a greedy rerun that
#: greedy answers from its walk, and 13.9 us one run in full, so the budget
#: is about 7 s of such reruns, or 15 s run in full.
MAX_PLANNED_RERUNS = 1 << 20
#: Most order-key bits the planned reruns of a norm mechanism may build.
#: On a 2-vCPU host, `check --axioms critical` at l = 999/1000 on four
#: two-good bids of 990 digits (16 reruns of 3.3 million bits) takes 6 s.
MAX_RERUN_KEY_BITS = 1 << 26
#: Most DP table cells the planned reruns and entry-value tables of a GVA
#: check may fill; its brute-force reruns share `exact.MAX_BRUTE_SUBSETS`,
#: the bound on one run.  On a 2-vCPU host a GVA run took 9-200 ns a cell
#: (the most with one-good bids, whose bundles have the most supersets and
#: whose packings reach every goods set), so the budget is at most about
#: 7 s of work.
MAX_RERUN_DP_CELLS = 1 << 25


@dataclass(frozen=True, eq=False)
class Mechanism:
    """A deterministic runnable mechanism: instance -> Outcome.

    `thresholds(instance, j)` is bid j's threshold function: given a bundle,
    it returns the declared values at which bid j, moved to that bundle, may
    change its outcome, and the grid of values they are drawn from.  The
    exact critical values and the misreport search bracket the whole grid
    and probe each region between kept values once, at a probe they would
    make with every grid value kept: just above a kept value, toward the
    next grid value.  A mechanism that keeps every value, as a norm
    mechanism under `REJECT` and the GVA do, returns one list for both.
    They ask for the function once and call it for every
    bundle they try, so what it computes for one bundle it may keep for the
    next; nothing outlives the function.  The misreport search builds the
    brackets of each grid object it is handed once, so a function handing
    one object to every bundle with that grid saves the rebuild.  It calls it
    only for the first bundle of each class (same size, same other bids
    overlapped, true bundle covered or not) and reruns later members only
    on a kept value, so it is complete only for a mechanism whose kept
    values, and whose outcome for bid j off them, are the same across a
    class, as the registered mechanisms' are.  It need not run the
    mechanism: the GVA's thresholds are read off one DP value table of the
    other bids, whichever solver `run` uses.  The kept values are found on
    the grid by identity, so each is one of the grid's own objects.  `norm`
    is the ranking norm of a norm-based mechanism, whose outcomes carry a
    `GreedyTrace`, and `solver` the exact solver of the GVA.
    `check_planned_reruns` reads both to price a check's reruns before the
    first one runs.

    The checkers read a rerun only at the replaced bid j: its grant, its
    payment and, for a norm mechanism, whether the ranking tied.
    `rerun(instance, j, bid)`, when given, answers that part of
    `run(instance.with_bid(j, bid))` as a `BidRerun`, or returns None when
    only the full run can say; `_rerun` then runs it.  Greedy answers from
    the walk without bid j (`greedy.rerun_greedy`); the other mechanisms
    give none.  A mechanism that replaces `run` replaces or drops `rerun`
    too, or the checkers keep reading the old answers.
    """

    name: str
    run: Callable[[AuctionInstance], Outcome]
    thresholds: Callable[
        [AuctionInstance, int], Callable[[frozenset], tuple[Sequence[Money], Sequence[Money]]]
    ]
    norm: Optional[NormConfig] = None
    solver: Optional[_exact.SolverKind] = None
    rerun: Optional[Callable[[AuctionInstance, int, SingleMindedBid], Optional[BidRerun]]] = None


def _rerun(mech: Mechanism, instance: AuctionInstance, j: int, bid: SingleMindedBid) -> BidRerun:
    """Bid j's part of `mech.run(instance.with_bid(j, bid))`: from
    `mech.rerun` when it answers, else from that run, which raises what it
    raises.  Every search candidate, critical probe and monotonicity move
    goes through here."""
    if mech.rerun is not None:
        answer = mech.rerun(instance, j, bid)
        if answer is not None:
            return answer
    out = mech.run(instance.with_bid(j, bid))
    return BidRerun(
        out.allocation.bundle_granted(j), partial(out.payments.__getitem__, j),
        mech.norm is not None and out.trace.ranking.had_ties,
    )


def _norm_mechanism(
    name: str, run: Callable[[AuctionInstance], Outcome], cfg: NormConfig, rerun=None
) -> Mechanism:
    """A mechanism allocating greedily by cfg's norm, so its grid is the
    values at which the bundle's norm crosses each other bid's.

    Those depend on the bundle's size alone, so bid j's function computes
    each size's crossing values once, k * (n - 1) in a whole misreport
    search, and returns one grid tuple for every bundle of a size.  Under
    `CANONICAL` it keeps only the crossing values of the other bids the
    bundle overlaps.  The walk grants a bid when no earlier granted bid
    overlaps it, so the allocation depends only on the order within each
    overlapping pair; a winner's blocker overlaps it, and clarke-greedy's
    payment is the difference of two such allocations' values.  Moving bid
    j across, or onto, the crossing value of a bid it does not overlap
    reorders two independent bids and leaves j's grant and payment as they
    are.  Under `REJECT` a tie with any bid raises `TiesPresent`, so every
    crossing value is kept.
    """
    canonical = cfg.tie_rule is TieRule.CANONICAL

    def thresholds(inst: AuctionInstance, j: int):
        others = inst.bids[:j] + inst.bids[j + 1:]
        masks = inst.bid_masks[:j] + inst.bid_masks[j + 1:]
        by_size: dict[int, tuple[Money, ...]] = {}

        def of_bundle(bundle: frozenset) -> tuple[Sequence[Money], tuple[Money, ...]]:
            size = len(bundle)
            grid = by_size.get(size)
            # no tuple built from a generator: CPython resizes it rather than
            # taking it from the tuple free list of its size, but frees it
            # onto that list, which then fills to 2000 dead tuples
            if grid is None:
                grid = tuple([crossing_value(b, size, cfg.exponent) for b in others])
                by_size[size] = grid
            if not canonical:
                return grid, grid
            mask = inst.mask_of(bundle)
            return [t for t, m in zip(grid, masks) if m & mask], grid

        return of_bundle

    return Mechanism(name, run, thresholds, cfg, rerun=rerun)


def greedy_mechanism(cfg: NormConfig) -> Mechanism:
    return _norm_mechanism(
        "greedy", lambda inst: run_greedy(inst, cfg), cfg,
        lambda inst, j, bid: rerun_greedy(inst, j, bid, cfg),
    )


def clarke_greedy_mechanism(cfg: NormConfig) -> Mechanism:
    return _norm_mechanism("clarke-greedy", lambda inst: _exact.clarke_with_greedy(inst, cfg), cfg)


def gva_mechanism(solver: _exact.SolverKind) -> Mechanism:
    """The GVA run by `solver`.  Its thresholds come from the DP's value
    table whatever the solver, so brute-force payments are checked against
    values the DP derived."""
    def thresholds(inst: AuctionInstance, j: int):
        # the one value where j, with a given bundle, enters the optimal allocation
        best = _exact._entry_table(inst, j)
        full, d = len(best) - 1, inst.integer_amounts.denominator

        def of_bundle(bundle: frozenset) -> tuple[list[Money], list[Money]]:
            entry = [Money(Fraction(best[full] - best[full ^ inst.mask_of(bundle)], d))]
            return entry, entry

        return of_bundle

    return Mechanism("gva", lambda inst: _exact.run_gva(inst, solver), thresholds, solver=solver)


#: Mechanism name -> constructor taking the norm and the exact solver; a
#: constructor ignores the one its mechanism does not use.
MECHANISMS: dict[str, Callable[[NormConfig, _exact.SolverKind], Mechanism]] = {
    "greedy": lambda cfg, solver: greedy_mechanism(cfg),
    "gva": lambda cfg, solver: gva_mechanism(solver),
    "clarke-greedy": lambda cfg, solver: clarke_greedy_mechanism(cfg),
}


@dataclass(frozen=True, eq=False)
class Witness:
    """Replayable evidence for a violated axiom."""

    instance: AuctionInstance
    bid_index: Optional[int]
    description: str


@dataclass(frozen=True)
class CriticalValue:
    """Threshold below which a bid loses and above which it wins.

    `value` is None for +infinity, or when no threshold exists: then
    `witness` replays a denial above a grant.  `probes` counts the
    mechanism runs.
    """

    value: Optional[Money]
    probes: int = 0
    witness: Optional[Witness] = None


def _brackets(
    thresholds: Iterable[Money],
) -> tuple[list[Money], int, list[tuple[int, int]], list[int]]:
    """The distinct thresholds in increasing order, one common denominator d,
    for each distinct threshold t integers (lo, hi) with lo / d <= t <= hi / d
    (a rational threshold is its own bracket, lo == hi), and for each input
    its row: the place of its value in that order.

    Equal thresholds may be given more than once, and one of them is kept;
    each input keeps its row, so callers map values to rows by position,
    hashing no `Money`.  The thresholds are sorted by their brackets, taken
    at doubling precision until each two neighbours have disjoint brackets
    or are equal (equal values have equal brackets), so no two are ever
    subtracted.
    """
    thresholds = list(thresholds)
    bits = 64  # the precision `Money.to_decimal` starts at
    while True:
        bounds = [t._integer_bounds(bits) for t in thresholds]
        # pairwise: lcm(*generator) builds an argument tuple per call, and
        # CPython's tuple free list keeps thousands of them alive
        common = 1
        for _, _, d in bounds:
            common = lcm(common, d)
        scaled = [(lo * (f := common // d), hi * f) for lo, hi, d in bounds]
        # equal lower bounds overlap, so ordering by lo alone is enough
        order = sorted(range(len(thresholds)), key=lambda i: scaled[i][0])
        kept, rows = order[:1], [0] * len(thresholds)
        for i in order[1:]:
            k = kept[-1]
            if scaled[k][1] < scaled[i][0]:
                kept.append(i)
            elif scaled[k] != scaled[i] or thresholds[k] != thresholds[i]:
                break
            rows[i] = len(kept) - 1
        else:
            return [thresholds[i] for i in kept], common, [scaled[i] for i in kept], rows
        bits *= 2


def _toward(a: int, b: int, d: int) -> Fraction:
    """(a + (b - a) * PROBE_SCALE) / d for integers a and b over d > 0,
    built as one `Fraction` rather than three `Fraction` operations."""
    s, t = PROBE_SCALE.numerator, PROBE_SCALE.denominator
    return Fraction(a * (t - s) + b * s, d * t)


def _probe_above(brackets: Sequence[tuple[int, int]], r: int, d: int) -> Fraction:
    """The probe above row r of `_brackets`' integer brackets over d: just
    above its bracket, toward the next one or, past the last, toward twice
    its upper bound (toward one above a zero threshold)."""
    top = brackets[r][1]
    if r + 1 < len(brackets):
        return _toward(top, brackets[r + 1][0], d)
    return _toward(top, 2 * top if top > 0 else top + d, d)


class _Grid(NamedTuple):
    """A grid of non-negative thresholds, bracketed by `_brackets`, with a
    misreport search's true amount placed on it once for every class of
    bundles that shares the grid."""

    #: the id of each threshold the grid was built from -> its row, the
    #: place of its value in increasing order
    row: dict[int, int]
    #: `_probe_above` each row
    above: list[Fraction]
    #: whether row 0 is zero's bracket, (0, 0)
    zero: bool
    #: the true amount a, never negative
    amount: Fraction
    #: the first row whose bracket's upper bound is not below a, or the
    #: number of rows when every bracket lies below a
    at: int
    #: whether a lies inside row `at`'s bracket
    inside: bool
    #: whether a is row `at`'s threshold itself, a rational one
    on_threshold: bool
    #: per row, whether a lies below its probe
    below: list[bool]


def _grid(thresholds: Sequence[Money], true_amount: Fraction) -> _Grid:
    """The `_Grid` of non-negative `thresholds` and `true_amount`.

    A bound x / d of the common denominator d lies below a = an / ad
    exactly when x * ad < an * d, so the true amount is placed on the
    integer brackets; only its place against each probe takes a
    `Fraction` comparison, one per row and grid.  Rows are keyed by the
    thresholds' ids, so the caller keeps the thresholds alive while it
    reads the grid.
    """
    _, d, brackets, rows = _brackets(thresholds)
    above = [_probe_above(brackets, r, d) for r in range(len(brackets))]
    a = true_amount
    ad, scaled = a.denominator, a.numerator * d
    r = 0
    while r < len(brackets) and brackets[r][1] * ad < scaled:
        r += 1
    inside = r < len(brackets) and brackets[r][0] * ad <= scaled
    return _Grid(
        {id(t): r for t, r in zip(thresholds, rows)}, above,
        bool(brackets) and brackets[0] == (0, 0),
        a, r, inside, inside and brackets[r][0] == brackets[r][1], [a < p for p in above],
    )


def critical_value(mech: Mechanism, instance: AuctionInstance, j: int) -> CriticalValue:
    """Bid j's grant threshold: the mechanism's first kept threshold above
    which, probed once inside each region between kept thresholds, j wins
    its bundle.

    Probes are `Fraction`s placed on the grid: one just below its lowest
    positive value and one just above each kept threshold's bracket,
    toward the next grid value, so each is a probe the scan would make
    with every grid value kept.  Each probe reads only bid j's grant,
    through `_rerun`, so greedy's probes price nothing.  Kept thresholds
    find their rows by identity among the grid values `_brackets` placed,
    duplicates of an equal value included.  When a probe finds a denial
    above a grant, no single threshold exists: `value` is then None and
    `witness` the instance with bid j at the denied probe.
    """
    declared = instance.bids[j]
    bundle = declared.bundle
    kept, grid = mech.thresholds(instance, j)(bundle)
    # zero is bracketed too, so the first probe stays above it
    values = [Money.ZERO, *(t for t in grid if t.sign() > 0)]
    ordered, d, brackets, rows_of = _brackets(values)
    row = {id(t): r for t, r in zip(values, rows_of)}
    # zero's row is 0, so `row.get` drops kept values at or below zero
    rows = sorted({r for t in kept if (r := row.get(id(t)))})
    first_probe = _toward(brackets[1][0], 0, d) if len(brackets) > 1 else PROBE_SCALE
    probes = [first_probe, *(_probe_above(brackets, r, d) for r in rows)]
    status = [_rerun(mech, instance, j, declared.with_amount(v)).bundle == bundle for v in probes]
    first = next((i for i, s in enumerate(status) if s), None)
    if first is None:
        return CriticalValue(None, len(probes))
    for i in range(first + 1, len(status)):
        if not status[i]:
            message = (f"bid {j}: granted at {Money(probes[first]).to_decimal()} "
                       f"but denied at {Money(probes[i]).to_decimal()}")
            return CriticalValue(None, len(probes),
                                 Witness(instance.with_amount(j, probes[i]), j, message))
    value = Money(0) if first == 0 else ordered[rows[first - 1]]
    return CriticalValue(value, len(probes))


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
    instances: int
    checks: tuple[AxiomCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.verdict != "violated" for c in self.checks)


def _exactness_witness(mech, inst, out, scan, counts, classes) -> Optional[Witness]:
    """Every bid receives exactly its declared bundle or nothing at all."""
    for j, granted in out.allocation.grants.items():
        if granted and granted != inst.bids[j].bundle:
            return Witness(inst, j, f"bid {j} got {sorted(granted)} "
                                    f"instead of {sorted(inst.bids[j].bundle)}")
    return None


def _participation_witness(mech, inst, out, scan, counts, classes) -> Optional[Witness]:
    """Denied bids pay exactly zero."""
    for j in range(len(inst.bids)):
        if not out.is_granted(j) and out.payments[j]:
            return Witness(inst, j, f"denied bid {j} pays {Money(out.payments[j]).to_decimal()}")
    return None


def _critical_witness(mech, inst, out, scan, counts, classes) -> Optional[Witness]:
    """Winners pay exactly their critical value, which their scan finds."""
    for j in sorted(out.allocation.grants):
        cv = scan(j)
        if cv.witness:
            return cv.witness
        pay = out.payments[j]
        if cv.value is None:
            return Witness(inst, j, f"granted bid {j} has an infinite critical value")
        if pay != cv.value:
            return Witness(inst, j, f"bid {j} pays {pay.to_decimal()} but its "
                                    f"critical value is {cv.value.to_decimal()}")
    return None


def _holders(instance: AuctionInstance) -> list[int]:
    """Per good, the mask over bid indices of the bids holding it."""
    masks = instance.bid_masks
    return [sum(1 << i for i, m in enumerate(masks) if m >> g & 1)
            for g in range(len(instance.goods))]


def _sub_bundle_classes(mask: int, holders: Sequence[int],
                        most: Optional[int] = None) -> Optional[list[int]]:
    """The least member of each class of a bid mask's non-empty proper
    sub-masks, in increasing order, a class being one size and one union of
    `_holders` (for a bid's own mask: the other bids overlapped, as the bid
    holds each of its goods); None once there are more than `most` classes.

    A DP over the goods keeps per state (size, overlap) the least partial
    mask reaching it: masks in one state have the same extensions, each
    disjoint from them, so the least one left is its class's least member.
    No state leaves a later level, so the DP stops at the first level of
    more than `most` + 2 states, the empty and the whole bundle among them.
    """
    # a state is its overlap shifted above its size
    shift = mask.bit_count().bit_length()
    level, top = {0: 0}, mask + 1
    for bit in [1 << g for g in range(mask.bit_length()) if mask >> g & 1]:
        meet = holders[bit.bit_length() - 1] << shift
        grown = dict(level)
        for state, least in level.items():
            state, least = (state | meet) + 1, least | bit
            if least < grown.get(state, top):
                grown[state] = least
        if most is not None and len(grown) > most + 2:
            return None
        level = grown
    return sorted(m for m in level.values() if 0 < m < mask)


def _monotonicity_witness(mech, inst, out, scan, counts, classes) -> Optional[Witness]:
    """A winner keeps winning when its amount rises or its bundle shrinks.

    For a mechanism constant between its declared thresholds, the critical
    scan decides every raise; one rerun just above the amount (toward twice
    it, as the scan's top probe) catches thresholds that leave out a loss
    there.  A shrink at the amount reruns the least member of each of bid
    j's sub-bundle classes, classes[j] as `check_planned_reruns` counted
    them: the registered mechanisms read a bundle only through its size and
    the other bids it overlaps.  A rerun that ties (`TiesPresent`, or a
    ranking that `had_ties`) is skipped, as the property is stated
    tie-free.  counts[0] adds the reruns compared, counts[1] those skipped.
    """
    for j in sorted(out.allocation.grants):
        cv = scan(j)
        if cv.witness:
            return cv.witness
        bid, (p, q) = inst.bids[j], inst.bids[j].amount.as_integer_ratio()
        moves = [bid.with_amount(_toward(p, 2 * p or q, q))]
        moves += [SingleMindedBid(bid.bidder, [g for i, g in enumerate(inst.goods) if m >> i & 1],
                                  bid.amount, bid.is_reserve) for m in classes[j]]
        for moved in moves:
            try:
                result = _rerun(mech, inst, j, moved)
                tied = result.had_ties
            except TiesPresent:
                tied = True
            counts[tied] += 1
            if not tied and result.bundle != moved.bundle:
                return Witness(inst.with_bid(j, moved), j,
                               f"bid {j} was granted as {sorted(bid.bundle)}@"
                               f"{Money(bid.amount).to_decimal()} but lost after moving to "
                               f"{sorted(moved.bundle)}@{Money(moved.amount).to_decimal()}")
    return None


_WITNESSES = {
    "exactness": _exactness_witness,
    "monotonicity": _monotonicity_witness,
    "participation": _participation_witness,
    "critical": _critical_witness,
}


def run_axiom_suite(
    mech: Mechanism, instances: Iterable[AuctionInstance], axioms: Iterable[str] = AXIOMS,
    *, deviations: bool = False,
) -> AxiomReport:
    """Check the named axioms over the instances, reported in `AXIOMS` order.

    The mechanism runs once per instance and every selected check reads that
    outcome; a check stops at its first violation.  The critical and
    monotonicity checks share each winner's `critical_value` scan, made at
    most once per instance and bid; a scan's witness of a denial above a
    grant violates both.  `check_planned_reruns` plans every instance
    before the first run and the name check; monotonicity reruns the
    classes it counts.  With `deviations` each plan also charges every
    bidder's misreport search, which the caller runs after the suite, so
    the two share one budget and one count of the classes.
    """
    selected = set(axioms)
    instances = list(instances)
    plans = [check_planned_reruns(mech, inst, selected, deviations=deviations)
             for inst in instances]
    unknown = sorted(selected - set(AXIOMS))
    if unknown:
        raise InvalidArgument(f"unknown axiom name: {unknown[0]}")
    counts = [0, 0]
    checks: dict[str, Optional[AxiomCheck]] = {name: None for name in AXIOMS if name in selected}
    for samples, (inst, classes) in enumerate(zip(instances, plans), 1):
        pending = [name for name, check in checks.items() if check is None]
        if not pending:
            break
        out = mech.run(inst)
        scans: dict[int, CriticalValue] = {}

        def scan(j):
            # the module's own `critical_value`, looked up at each call
            if j not in scans:
                scans[j] = critical_value(mech, inst, j)
            return scans[j]

        for name in pending:
            witness = _WITNESSES[name](mech, inst, out, scan, counts, classes)
            if witness:
                checks[name] = AxiomCheck(name, "violated", samples, witness)
    moves = f"{counts[0]} moves rerun, {counts[1]} skipped on ties"
    return AxiomReport(mech.name, len(instances), tuple(
        check or AxiomCheck(name, "holds", len(instances),
                            detail=moves if name == "monotonicity" else "")
        for name, check in checks.items()
    ))


@dataclass(frozen=True, eq=False)
class DeviationReport:
    """A strictly profitable misreport found by exhaustive search.

    The search is complete for a mechanism whose outcome for bid j is
    piecewise-constant in the declared value between its thresholds and,
    off them, reads the bundle only through its size, the other bids it
    overlaps and whether it covers the true bundle; it is sound for any
    mechanism.  `note` states both conditions in the `check` JSON.
    """

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
        "declared value between thresholds and, off them, the same for any two "
        "bundles of one size that overlap the same other bids and both cover or "
        "both miss the true bundle; sound for any mechanism"
    )


def _candidate_values(kept: Iterable[Money], grid: _Grid) -> tuple[list[Fraction], list[Fraction]]:
    """One value inside each open region between the kept non-negative
    thresholds and above the last, in increasing order, and those of them
    that may sit on a kept threshold.  `grid` is `_grid` of the
    non-negative grid the kept thresholds are drawn from and the true
    amount.  A region's value is zero below the lowest kept threshold,
    else the grid's probe just above the kept bracket below, the lowest
    grid value above it.

    The true amount, never negative, takes its region's value's place when
    it lies below it and is dropped otherwise; inside a kept threshold's
    bracket, which a rational threshold is itself, it is a value of its
    own.  A mechanism whose outcome is constant inside a region gives
    every value there one outcome, and the search keeps the first pair
    strictly beating the best so far, so the later of two values in a
    region could never be reported.  Over m kept thresholds that leaves
    zero, m region values and the true amount in a bracket: m + 2 at most.
    Only zero, when the lowest kept bracket is zero's, and a positive true
    amount in a kept rational bracket can sit on a kept threshold; every
    probe lies strictly between brackets.  The lists are built in order,
    with no sort, and the grid has placed the true amount already, so a
    class costs list and integer work alone.
    """
    row, above, zero, a, r, inside, on_threshold, below = grid
    get = row.get
    rows = sorted({x for t in kept if (x := get(id(t))) is not None})
    values = [_ZERO]
    values += [above[x] for x in rows]
    tied = [_ZERO] if zero and rows and not rows[0] else []
    # the true amount lies below grid row r and above the i kept rows below r
    i = bisect_left(rows, r)
    if inside and i < len(rows) and rows[i] == r:
        # the value below a kept bracket holding a is zero, or a probe below
        # the bracket: below a unless a is zero, in a bracket reaching down to it
        if i or a:
            values.insert(i + 1, a)
            if on_threshold:
                tied.append(a)
    elif i and below[rows[i - 1]]:  # zero, values[0], is never above a
        values[i] = a
    return values, tied


def _bundle_count(k: int) -> int:
    """The non-empty bundles over k goods; raises `InstanceTooLarge` past
    `MAX_SEARCH_GOODS`."""
    if k > MAX_SEARCH_GOODS:
        raise InstanceTooLarge(f"cannot enumerate bundles over {k} goods")
    return (1 << k) - 1


def check_planned_reruns(
    mech: Mechanism, instance: AuctionInstance, axioms: Iterable[str] = (), *,
    deviations: bool = False,
) -> list[list[int]]:
    """Raise `InstanceTooLarge` when checking the named axioms of `mech` on
    `instance`, with every bidder's misreport search when `deviations` is
    set, plans more work than a budget allows, before any rerun.  The
    costs come from the mechanism: its `norm` and its `solver`.  Returns,
    with monotonicity, each bid's `_sub_bundle_classes`, which the check
    reruns; else an empty list.

    At most `MAX_PLANNED_RERUNS` reruns.  Names outside `AXIOMS` are
    charged nothing; `run_axiom_suite` rejects them.  With any name, the
    suite runs the mechanism once.  With "critical" or "monotonicity",
    each of the n bids may win, and the `critical_value` scan the two
    share probes a winner once more than its distinct positive thresholds,
    at most n - 1 for a norm mechanism and one for the GVA: n * max(n, 2)
    reruns, or 2 * n with a `solver`.  Monotonicity adds, per bid, its
    raise and one rerun per sub-bundle class, which `_sub_bundle_classes`
    counts last, stopping once the plan passes the budget.  With
    `deviations`, each non-reserve bidder's search plans its truthful rerun
    and, per bundle, zero, a value inside each region above one of the at
    most n - 1 other bids' thresholds and the true amount in a bracket:
    (2**k - 1) * (n + 1) + 1 reruns, an upper bound on the search, which
    reruns one bundle per class.  Past `MAX_SEARCH_GOODS` goods the search
    raises `InstanceTooLarge` here.  Under `CANONICAL` a norm mechanism
    keeps only the thresholds of the bids a bundle overlaps, so both scans
    usually rerun fewer values than these n-based upper bounds.

    At most `MAX_RERUN_KEY_BITS` key bits: a rerun ranking by `mech.norm`
    builds a key of about q * bits(largest weight) + p * bits(lcm of
    sizes) bits.  At most `MAX_RERUN_DP_CELLS` cells and
    `exact.MAX_BRUTE_SUBSETS` subsets: a GVA rerun by `mech.solver` fills
    (n + 1) * 2**k DP cells or visits (n + 1) * 2**n bid subsets, and the
    GVA's thresholds build one entry-value table of n * 2**k cells per
    scanned bid and per searched bidder.  Last, with a scan, such a table
    of the other n - 1 bids must pass the DP's own table bound, as `exact`
    checks it before building one.
    """
    axioms = set(axioms)
    n, k = len(instance.bids), len(instance.goods)
    cfg, solver = mech.norm, mech.solver
    monotone = "monotonicity" in axioms
    scanned = monotone or "critical" in axioms
    # the suite's own run and, for monotonicity, each bid's raise
    runs, tables = int(bool(axioms)) + n * monotone, 0
    if scanned:
        runs += n * (2 if solver else max(n, 2))
        tables += n
    if deviations:
        bidders = sum(not b.is_reserve for b in instance.bids)
        runs += (_bundle_count(k) * (n + 1) + 1) * bidders
        tables += bidders
    if runs > MAX_PLANNED_RERUNS:
        raise InstanceTooLarge(
            f"the check plans {runs} mechanism reruns; at most {MAX_PLANNED_RERUNS} are allowed"
        )
    holders, classes = _holders(instance) if monotone else [], []
    for j, mask in enumerate(instance.bid_masks if monotone else ()):
        # counted last, so the DP stops once the whole plan passes the budget
        classes.append(_sub_bundle_classes(mask, holders, MAX_PLANNED_RERUNS - runs))
        if classes[j] is None:
            raise InstanceTooLarge(f"bid {j}'s sub-bundle classes take the check past "
                                   f"{MAX_PLANNED_RERUNS} mechanism reruns, the most allowed")
        runs += len(classes[j])
    if cfg is not None and runs:
        p, q = cfg.exponent.numerator, cfg.exponent.denominator
        top = lcm(*(len(b.bundle) for b in instance.bids))
        weight = max(instance.integer_amounts.weights, default=0)
        bits = runs * (q * weight.bit_length() + p * top.bit_length())
        if bits > MAX_RERUN_KEY_BITS:
            raise InstanceTooLarge(
                f"the check's {runs} reruns at norm exponent {cfg.exponent} build order keys"
                f" of about {bits} bits; at most {MAX_RERUN_KEY_BITS} are allowed"
            )
    if solver is not None:
        if solver is _exact.SolverKind.BITMASK_DP:
            cells, subsets = (tables * n + runs * (n + 1)) << k, 0
        else:
            cells, subsets = tables * n << k, runs * (n + 1) << n
        for planned, most, unit in (
            (cells, MAX_RERUN_DP_CELLS, "DP table cells"),
            (subsets, _exact.MAX_BRUTE_SUBSETS, "brute-force bid subsets"),
        ):
            if planned > most:
                raise InstanceTooLarge(
                    f"the check's {runs} GVA reruns and {tables} entry-value tables need more"
                    f" than {most} {unit}, the most allowed"
                )
        if scanned:
            _exact._check_cells(n - 1, k)
    return classes


def find_profitable_deviation(
    mech: Mechanism, instance: AuctionInstance, j: int
) -> Optional[DeviationReport]:
    """Search every bundle, at zero and one value inside each open region
    between thresholds, for a profitable lie; the true amount is that value
    in its region when it lies below the region's probe, and a value of its
    own when it lies in a threshold's bracket (see `_candidate_values`).

    The bidder's true type comes from `instance.true_types` (falling back to
    the declared bid).  Any report returned is genuinely profitable: the
    deviating utility was computed by re-running the mechanism.  The
    truthful report runs it in full, once per search, so each search runs
    `mech.run` itself at least once; every candidate goes through
    `_rerun`, which reads bid j's grant and payment off `mech.rerun` when
    the mechanism answers there.  A candidate whose rerun raises
    `TiesPresent` is skipped and not counted as tested; a tie on the
    truthful rerun comes from the input and propagates.

    The mechanisms read a misreported bundle through its size, the other
    bids it overlaps and whether it covers the true bundle, so bundles
    agreeing on all three form a class with one grid and kept thresholds
    and, off the kept thresholds, one grant and payment for bid j.  Bundles
    are tried in bit order; the first of a class reruns every candidate,
    and a later one only the candidates sitting on a kept threshold, where
    a `CANONICAL` tie breaks by bundle.  A skipped pair repeats an earlier one, so the report
    is the first pair reaching the best utility, as without classes.
    `bundles_searched` counts every bundle, `candidates_tested` the reruns
    made.
    """
    k = len(instance.goods)
    bundles = _bundle_count(k)
    declared = instance.bids[j]
    true_type = (instance.true_types or {}).get(declared.bidder, declared)

    truthful_bid = SingleMindedBid(
        declared.bidder, true_type.bundle, true_type.amount, declared.is_reserve
    )
    out = mech.run(instance.with_bid(j, truthful_bid))
    truthful_utility = bidder_utility(true_type, out.allocation.bundle_granted(j), out.payments[j])

    goods, amount = instance.goods, true_type.amount
    best: Optional[Money] = None
    best_bid: Optional[SingleMindedBid] = None
    tested = 0
    thresholds_of = mech.thresholds(instance, j)
    # a norm mechanism hands every bundle of a size one grid object, so each
    # size's brackets, probes and place of the true amount are built once;
    # keyed by identity, hashing no `Money`, and holding each grid so that
    # no id is reused while the search runs
    grids: dict[int, tuple[Sequence[Money], _Grid]] = {}
    # per class of bundles, the candidates its later members still rerun
    classes: dict[tuple[int, int, bool], list[Fraction]] = {}
    # the other bids each good meets, as a mask over bid indices
    meets = [h & ~(1 << j) for h in _holders(instance)]
    overlaps = [0] * (bundles + 1)
    # a true good outside the instance is covered by no bundle; leaving it
    # out of the mask only splits classes further
    index = instance.good_index
    true_mask = instance.mask_of(g for g in true_type.bundle if g in index)
    bidder, is_reserve = declared.bidder, declared.is_reserve
    for bundle_bits in range(1, bundles + 1):
        low = bundle_bits & -bundle_bits
        overlap = overlaps[bundle_bits] = overlaps[bundle_bits ^ low] | meets[low.bit_length() - 1]
        key = (bundle_bits.bit_count(), overlap, bundle_bits & true_mask == true_mask)
        values = classes.get(key)
        if values is not None and not values:
            continue
        bundle = frozenset(goods[i] for i in range(k) if bundle_bits >> i & 1)
        if values is None:
            kept, grid = thresholds_of(bundle)
            found = grids.get(id(grid))
            if found is None:
                found = grids[id(grid)] = (grid, _grid([t for t in grid if t.sign() >= 0], amount))
            values, classes[key] = _candidate_values(kept, found[1])
        for v in values:
            attempt = SingleMindedBid(bidder, bundle, v, is_reserve)
            try:
                result = _rerun(mech, instance, j, attempt)
            except TiesPresent:
                continue
            tested += 1
            u = bidder_utility(true_type, result.bundle, result.price())
            if best is None or u > best:
                best, best_bid = u, attempt
    if best is not None and best > truthful_utility:
        return DeviationReport(
            bidder=bidder,
            bid_index=j,
            true_type=true_type,
            misreport=best_bid,
            truthful_utility=truthful_utility,
            deviating_utility=best,
            bundles_searched=bundles,
            candidates_tested=tested,
        )
    return None
