"""Command-line interface.

Verbs: `run` a mechanism over an instance file, `check` axioms and
misreports, `gen` seeded random instances, `experiment` for the bundled
suites.  Every command writes one JSON document; exit codes are the only
success channel (0 ok, 1 failed check, 2 parse/validation, 3 ties rejected,
4 size guard).  Only `gen` and the ratio suite draw at random, through
--seed (default: the CAMECH_SEED environment variable, then 0).

The argument parser is built once per process, on the first `main` call,
and every call parses with it into a fresh namespace.  Building it (four
subparsers, then 29 arguments) took about 1.3 ms, more than half of an
in-process `gen` plus `run` pair on an 8-good, 12-bid instance; with one
parser per process such pairs went from 189 to 530 a second (2-vCPU host,
Python 3.11).  A one-shot `camech` process builds one parser either way,
so its run time does not change.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from . import documents
from .axioms import (
    AXIOMS,
    MECHANISMS,
    Mechanism,
    find_profitable_deviation,
    run_axiom_suite,
)
from .errors import (
    CamechError,
    InstanceTooLarge,
    ParseError,
    TiesPresent,
    UnknownScenario,
)
from .exact import SolverKind
from .experiments import (
    TIGHT_GOODS_COUNTS,
    ratio_experiment,
    random_instance,
    reproduce_all,
    revenue_experiment,
    tight_experiment,
)
from .model import validate_instance
from .money import parse_decimal
from .norm import NormConfig, TieRule

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_TIES = 3
EXIT_TOO_LARGE = 4


def _default_seed() -> int:
    raw = os.environ.get("CAMECH_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"CAMECH_SEED must be an integer, not {raw!r}") from None


def _fraction(text: str) -> Fraction:
    try:
        return parse_decimal(text)
    except ParseError:
        raise argparse.ArgumentTypeError(f"not a rational literal: {text!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one argument parser, built on the first call.

    Parsing keeps no state in the parser: defaults such as the seed's
    environment fallback are read by the commands, not at build time.
    Callers must not add to or change the returned parser.
    """
    parser = argparse.ArgumentParser(
        prog="camech",
        description="Mechanisms for single-bundle combinatorial auctions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True):
        if with_input:
            p.add_argument("input", help="instance file, or - for stdin")
        p.add_argument("--output", default=None, help="output file (default: stdout)")

    run_p = sub.add_parser("run", help="run one mechanism over an instance")
    check_p = sub.add_parser("check", help="check axioms and search for misreports")
    for p in (run_p, check_p):
        add_common(p)
        p.add_argument("--mechanism", choices=tuple(MECHANISMS), default="greedy")
        p.add_argument("--norm-exponent", type=_fraction, default=Fraction(1))
        p.add_argument("--tie-rule", choices=tuple(r.value for r in TieRule), default="canonical")
        p.add_argument("--solver", choices=("dp", "brute"), default="dp")
    check_p.add_argument(
        "--axioms",
        default="all",
        help="comma-separated subset of exactness,monotonicity,participation,critical "
             "(or 'all', or 'none')",
    )
    check_p.add_argument("--deviations", action="store_true",
                         help="exhaustive misreport search for every bidder")

    gen_p = sub.add_parser("gen", help="generate a seeded tie-free instance")
    add_common(gen_p, with_input=False)
    gen_p.add_argument("--goods", type=int, required=True)
    gen_p.add_argument("--bids", type=int, required=True)
    gen_p.add_argument("--bundle-prob", type=float, default=0.4)
    gen_p.add_argument("--seed", type=int, default=None)

    exp_p = sub.add_parser("experiment", help="run a bundled suite")
    add_common(exp_p, with_input=False)
    exp_p.add_argument("--suite", choices=("reproduce", "ratio", "revenue", "tight"),
                       required=True)
    exp_p.add_argument("--k", type=int, default=None, help="goods (ratio/tight suites)")
    exp_p.add_argument("--n", type=int, default=None, help="bids (ratio suite)")
    exp_p.add_argument("--trials", type=int, default=200)
    exp_p.add_argument("--l", type=_fraction, default=Fraction(1, 2),
                       help="norm exponent for the suite")
    exp_p.add_argument("--bundle-prob", type=float, default=0.4)
    exp_p.add_argument("--seed", type=int, default=None)
    exp_p.add_argument("--scenario", default=None, help="scenario name (revenue suite)")
    exp_p.add_argument("--format", choices=("json", "text"), default="json",
                       help="text gives a plain report (reproduce suite only)")
    return parser


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text: {exc}") from None


def _write_output(doc, path) -> None:
    text = doc if isinstance(doc, str) else documents.to_json(doc)
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_valid_instance(args):
    instance = documents.parse_instance_text(_read_input(args.input))
    violations = validate_instance(instance)
    if violations:
        raise _Invalid(violations)
    return instance


class _Invalid(Exception):
    def __init__(self, violations):
        self.violations = violations


def _flag_mechanism(args) -> Mechanism:
    cfg = NormConfig(args.norm_exponent, TieRule(args.tie_rule))
    return MECHANISMS[args.mechanism](cfg, SolverKind(args.solver))


def _cmd_run(args) -> tuple[dict, int]:
    instance = _load_valid_instance(args)
    mech = _flag_mechanism(args)
    return documents.outcome_document(mech.run(instance), mech), EXIT_OK


def _cmd_check(args) -> tuple[dict, int]:
    instance = _load_valid_instance(args)
    mech = _flag_mechanism(args)
    selected = {"all": AXIOMS, "none": ()}.get(args.axioms)
    if selected is None:
        selected = [a.strip() for a in args.axioms.split(",") if a.strip()]
    # the search shares one budget with the axioms, which the suite plans
    report = run_axiom_suite(mech, [instance], selected, deviations=args.deviations)
    deviations = None
    if args.deviations:
        deviations = [
            (b.bidder, find_profitable_deviation(mech, instance, j))
            for j, b in enumerate(instance.bids)
            if not b.is_reserve
        ]
    doc = documents.check_report_document(report, deviations)
    return doc, EXIT_OK if doc["all_hold"] else EXIT_CHECK_FAILED


def _cmd_gen(args) -> tuple[dict, int]:
    seed = args.seed if args.seed is not None else _default_seed()
    instance = random_instance(
        args.goods, args.bids, seed=seed, bundle_prob=args.bundle_prob
    )
    return documents.instance_document(instance), EXIT_OK


def _cmd_experiment(args) -> tuple[dict, int]:
    if args.suite == "reproduce":
        rows = reproduce_all()
        ok = all(r.passed for r in rows)
        code = EXIT_OK if ok else EXIT_CHECK_FAILED
        if args.format == "text":
            return documents.repro_text(rows), code
        return documents.repro_document(rows), code
    if args.suite == "ratio":
        seed = args.seed if args.seed is not None else _default_seed()
        stats = ratio_experiment(
            8 if args.k is None else args.k, 12 if args.n is None else args.n,
            args.trials, args.l, seed, bundle_prob=args.bundle_prob,
        )
        doc = documents.ratio_document(stats)
        return doc, EXIT_OK if not stats.violations else EXIT_CHECK_FAILED
    if args.suite == "revenue":
        if not args.scenario:
            raise ParseError("the revenue suite needs --scenario")
        check = revenue_experiment(args.scenario, args.l)
        return documents.tie_orders_document(check), EXIT_OK if check.passed else EXIT_CHECK_FAILED
    rows = tight_experiment(args.l, TIGHT_GOODS_COUNTS if args.k is None else (args.k,))
    doc = documents.tight_document(args.l, rows)
    return doc, EXIT_OK if doc["all_pass"] else EXIT_CHECK_FAILED


_HANDLERS = {
    "run": _cmd_run,
    "check": _cmd_check,
    "gen": _cmd_gen,
    "experiment": _cmd_experiment,
}


def _handle(args) -> tuple[dict, int]:
    """The command's document and exit code, or the error document and its code."""
    try:
        return _HANDLERS[args.command](args)
    except _Invalid as exc:
        return documents.violations_document(exc.violations), EXIT_INVALID
    except ParseError as exc:
        return documents.error_document("parse", str(exc)), EXIT_INVALID
    except TiesPresent as exc:
        return documents.error_document("ties", str(exc)), EXIT_TIES
    except InstanceTooLarge as exc:
        return documents.error_document("too-large", str(exc)), EXIT_TOO_LARGE
    except UnknownScenario as exc:
        return documents.error_document("unknown-scenario", str(exc)), EXIT_INVALID
    except CamechError as exc:
        return documents.error_document("error", str(exc)), EXIT_INVALID


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, code = _handle(args)
        _write_output(doc, args.output)
    except OSError as exc:
        # reading the input or writing the output failed; the output file
        # may be what failed, so this document always goes to stdout
        _write_output(documents.error_document("error", str(exc)), None)
        return EXIT_INVALID
    return code


if __name__ == "__main__":
    sys.exit(main())
