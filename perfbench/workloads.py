"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed in its constructor
(the set-up the benchmark times), then runs one unit of work per call to
``run``.  ``make_units`` builds the unit pool afresh: equal inputs in new
objects, so a unit that is run again sees none of the caches an earlier
run filled on its instance.  Library calls go through module attributes,
never names bound here, so that the tracer's wrappers see them.

Each workload also defines its correctness gate, all of it run outside the
timed phase: ``check`` judges one unit's result, ``render`` gives the
canonical text whose sha256 is the unit's output digest, and ``gate`` runs
any workload-wide check that is not tied to one unit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from fractions import Fraction
from pathlib import Path

from camech import axioms, cli, exact, experiments, model, norm

HERE = Path(__file__).resolve().parent
CLI_DIGESTS = HERE / "cli_digests.txt"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    """What every workload provides; subclasses define ``make_units``."""

    name: str
    #: the Mechanism the units run, which a traced run swaps for a counting one
    mechanism = None

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.units = self.make_units()

    def make_units(self) -> list:
        raise NotImplementedError

    def run(self, unit, mechanism):
        raise NotImplementedError

    def check(self, unit, result) -> bool:
        raise NotImplementedError

    def render(self, unit, result) -> str:
        raise NotImplementedError

    def gate(self) -> bool:
        return True


class DeviationL1(Workload):
    """Exhaustive misreport search for one bidder, greedy mechanism at l = 1.

    Criterion 3's traffic: about a thousand greedy reruns per search, all on
    rational amounts, so ``norm.rank``, ``greedy``, ``model.with_bid`` and
    Fraction arithmetic dominate and ``exact`` is never touched.
    """

    name = "deviation-l1"
    pool = 128  # instances, about as many as a run has units
    mechanism = axioms.greedy_mechanism(norm.NormConfig(Fraction(1)))

    def make_units(self) -> list:
        instances = [
            experiments.random_instance(6, 8, seed=f"perfbench/{self.name}:{self.seed}:{t}")
            for t in range(self.pool)
        ]
        # bidder-major, so a run's units spread over every instance rather
        # than exhausting a few, which keeps the per-unit mean steady across seeds
        return [(inst, j) for j in range(8) for inst in instances]

    def run(self, unit, mechanism):
        instance, j = unit
        return axioms.find_profitable_deviation(mechanism, instance, j)

    def check(self, unit, result) -> bool:
        return result is None

    def render(self, unit, result) -> str:
        if result is None:
            return "none"
        return "|".join((
            result.bidder,
            ",".join(sorted(result.misreport.bundle)),
            result.misreport.amount.to_decimal(),
            result.truthful_utility.to_decimal(),
            result.deviating_utility.to_decimal(),
            str(result.candidates_tested),
        ))

    def gate(self) -> bool:
        """The searcher still finds the Clarke-with-greedy counterexample."""
        instance = experiments.scenario("clarke-fail").instance
        found = axioms.find_profitable_deviation(
            axioms.clarke_greedy_mechanism(norm.NormConfig(Fraction(1))), instance, 0
        )
        return (
            found is not None
            and found.deviating_utility == 0
            and found.truthful_utility == -1
        )


class AxiomsLHalf(Workload):
    """The four axiom checks on one instance, greedy mechanism at l = 1/2.

    Crossing values and payments are irrational at l = 1/2, so radical
    ``Money`` arithmetic and the general ranking path dominate; the critical
    check is a threshold scan and monotonicity a set of perturbations.
    """

    name = "axioms-lhalf"
    pool = 256
    mechanism = axioms.greedy_mechanism(norm.NormConfig(Fraction(1, 2)))

    def make_units(self) -> list:
        return [
            experiments.random_instance(8, 12, seed=f"perfbench/{self.name}:{self.seed}:{t}")
            for t in range(self.pool)
        ]

    def run(self, unit, mechanism):
        return axioms.run_axiom_suite(mechanism, [unit])

    def check(self, unit, report) -> bool:
        return len(report.checks) == 4 and all(c.verdict == "holds" for c in report.checks)

    def render(self, unit, report) -> str:
        return ";".join(f"{c.axiom}:{c.verdict}:{c.samples}:{c.detail}" for c in report.checks)


class GvaDp(Workload):
    """Efficient allocation plus Clarke payments by the bitmask DP.

    n + 1 solves over 4096-state tables per unit.  No ranking, greedy or
    axiom code runs, so a change on the greedy side predicts no change here.
    """

    name = "gva-dp"
    pool = 32  # distinct instances; each gets one brute-force reference solve

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.reference = {}  # pool index -> brute-force solution, filled by check

    def make_units(self) -> list:
        return [
            (t, experiments.random_instance(12, 16, seed=f"perfbench/{self.name}:{self.seed}:{t}"))
            for t in range(self.pool)
        ]

    def run(self, unit, mechanism):
        return exact.run_gva(unit[1], exact.SolverKind.BITMASK_DP)

    def check(self, unit, outcome) -> bool:
        """Allocation and value equal the brute-force solver's."""
        t, instance = unit
        if t not in self.reference:
            self.reference[t] = exact.optimal_allocation(
                instance, exact.SolverKind.BRUTE_FORCE_BID_SUBSETS
            )
        brute = self.reference[t]
        return (
            outcome.allocation.grants == brute.allocation.grants
            and model.allocation_value(instance, outcome.allocation) == brute.value
        )

    def render(self, unit, outcome) -> str:
        granted = ",".join(str(j) for j in sorted(outcome.allocation.grants))
        payments = ",".join(p.to_decimal() for p in outcome.payments)
        return f"{granted}|{payments}|{outcome.revenue.to_decimal()}|{outcome.meta}"


class CliGenRun(Workload):
    """In-process ``camech gen`` followed by ``camech run`` on its output.

    Puts a write beside a read and is the only workload that loads ``cli``
    and ``documents``.  Each output must match, byte for byte, the sha256
    recorded in ``cli_digests.txt`` for its generator seed.  A unit is a
    generator seed, so it holds no objects that could carry a cache.
    """

    name = "cli-gen-run"

    def __init__(self, seed: int, workdir: Path):
        self.expected = load_cli_digests()
        self.path = str(workdir / "cli-instance.json")
        super().__init__(seed, workdir)

    def make_units(self) -> list:
        seeds = sorted(self.expected)
        return random.Random(f"perfbench/{self.name}:{self.seed}").sample(seeds, len(seeds))

    def run(self, unit, mechanism):
        return cli_unit(unit, self.path)

    def check(self, unit, result) -> bool:
        gen_code, run_code, written, printed = result
        return (
            gen_code == 0 and run_code == 0
            and (digest(written), digest(printed)) == self.expected[unit]
        )

    def render(self, unit, result) -> str:
        gen_code, run_code, written, printed = result
        return f"{gen_code}|{run_code}|{digest(written)}|{digest(printed)}"


def cli_unit(seed: int, path: str):
    """Run ``gen`` then ``run``; returns both exit codes and both outputs."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        gen_code = cli.main(
            ["gen", "--goods", "8", "--bids", "12", "--seed", str(seed), "--output", path]
        )
        run_code = cli.main(["run", path, "--mechanism", "greedy", "--norm-exponent", "1/2"])
    with open(path, encoding="utf-8") as fh:
        written = fh.read()
    return gen_code, run_code, written, out.getvalue()


def load_cli_digests() -> dict[int, tuple[str, str]]:
    """Generator seed -> (sha256 of the ``gen`` file, sha256 of ``run``'s stdout)."""
    table = {}
    for line in CLI_DIGESTS.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            seed, gen_sha, run_sha = line.split()
            table[int(seed)] = (gen_sha, run_sha)
    return table


WORKLOADS = {w.name: w for w in (DeviationL1, AxiomsLHalf, GvaDp, CliGenRun)}
