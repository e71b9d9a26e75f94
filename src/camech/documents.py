"""JSON documents: instances in, outcomes and reports out.

One tree format everywhere.  Amounts travel as decimal strings (or "p/q"
literals when a denominator is not 10-smooth) so the exact rationals
round-trip; computed money is rendered at 12 significant digits.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Mapping, Optional

from .axioms import AxiomCheck, AxiomReport, DeviationReport, Mechanism
from .errors import ParseError
from .experiments import RatioStats, ReproRow, RevenueCheck, TightRow
from .model import AuctionInstance, Outcome, SingleMindedBid, Violation
from .money import MAX_LITERAL_DIGITS, Money, fraction_to_decimal, parse_decimal
from .norm import RankedList, norm_text


# --------------------------------------------------------------------------
# instances
# --------------------------------------------------------------------------


def _parse_amount(raw: Any, where: str) -> Fraction:
    if isinstance(raw, bool) or not isinstance(raw, (str, int)):
        raise ParseError(f"{where}: amount must be a decimal string or integer")
    try:
        return parse_decimal(str(raw))
    except ParseError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _parse_bid(entry: Any, where: str, *, allow_reserve: bool) -> SingleMindedBid:
    if not isinstance(entry, Mapping):
        raise ParseError(f"{where}: expected an object")
    unknown = set(entry) - {"bidder", "bundle", "amount", "reserve"}
    if unknown or (not allow_reserve and "reserve" in entry):
        raise ParseError(f"{where}: unknown field {sorted(unknown or {'reserve'})[0]!r}")
    bidder = entry.get("bidder")
    bundle = entry.get("bundle")
    if not isinstance(bidder, str) or not bidder:
        raise ParseError(f"{where}: bidder must be a non-empty string")
    if not isinstance(bundle, list) or not all(isinstance(g, str) for g in bundle):
        raise ParseError(f"{where}: bundle must be a list of good ids")
    reserve = entry.get("reserve", False)
    if not isinstance(reserve, bool):
        raise ParseError(f"{where}: reserve must be a boolean")
    return SingleMindedBid(
        bidder, frozenset(bundle), _parse_amount(entry.get("amount"), where), reserve
    )


def parse_instance(doc: Any) -> AuctionInstance:
    if not isinstance(doc, Mapping):
        raise ParseError("instance document must be an object")
    unknown = set(doc) - {"goods", "bids", "true_types"}
    if unknown:
        raise ParseError(f"unknown top-level field {sorted(unknown)[0]!r}")
    goods = doc.get("goods")
    if not isinstance(goods, list) or not all(isinstance(g, str) for g in goods):
        raise ParseError("goods must be a list of strings")
    bids_raw = doc.get("bids")
    if not isinstance(bids_raw, list):
        raise ParseError("bids must be a list")
    bids = tuple(
        _parse_bid(entry, f"bids[{i}]", allow_reserve=True)
        for i, entry in enumerate(bids_raw)
    )
    true_types = None
    if "true_types" in doc:
        raw = doc["true_types"]
        if not isinstance(raw, list):
            raise ParseError("true_types must be a list")
        parsed = [
            _parse_bid(entry, f"true_types[{i}]", allow_reserve=False)
            for i, entry in enumerate(raw)
        ]
        true_types = {}
        for i, t in enumerate(parsed):
            if t.bidder in true_types:
                raise ParseError(f"true_types[{i}]: second true type for bidder {t.bidder!r}")
            true_types[t.bidder] = t
    return AuctionInstance(tuple(goods), bids, true_types)


def parse_instance_text(text: str) -> AuctionInstance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    except ValueError:  # an integer past Python's int-from-string digit limit
        raise ParseError(f"numeric literal longer than {MAX_LITERAL_DIGITS} digits") from None
    except RecursionError:
        raise ParseError("not valid JSON: nested too deeply") from None
    return parse_instance(doc)


def instance_document(instance: AuctionInstance) -> dict:
    doc: dict[str, Any] = {
        "goods": list(instance.goods),
        "bids": [
            {
                "bidder": b.bidder,
                "bundle": sorted(b.bundle),
                "amount": fraction_to_decimal(b.amount),
                **({"reserve": True} if b.is_reserve else {}),
            }
            for b in instance.bids
        ],
    }
    if instance.true_types is not None:
        doc["true_types"] = [
            {
                "bidder": t.bidder,
                "bundle": sorted(t.bundle),
                "amount": fraction_to_decimal(t.amount),
            }
            for t in sorted(instance.true_types.values(), key=lambda t: t.bidder)
        ]
    return doc


# --------------------------------------------------------------------------
# outcomes and reports
# --------------------------------------------------------------------------


def outcome_document(instance: AuctionInstance, outcome: Outcome, mech: Mechanism) -> dict:
    """What `mech` granted, charged and denied; its norm or its solver from `outcome.meta`."""
    cfg = mech.norm
    meta = outcome.meta or {}
    trace = outcome.trace
    ranking: Optional[RankedList] = getattr(trace, "ranking", None)
    blocked_by = getattr(trace, "blocked_by", {}) or {}
    granted = []
    denied = []
    for j, b in enumerate(instance.bids):
        if outcome.is_granted(j):
            entry = {
                "bidder": b.bidder,
                "bundle": sorted(outcome.allocation.bundle_granted(j)),
                "payment": outcome.payments[j].to_decimal(),
                "norm": norm_text(b, ranking.exponent) if ranking else None,
            }
            granted.append(entry)
        else:
            blocker = blocked_by.get(j)
            denied.append(
                {
                    "bidder": b.bidder,
                    "blocked_by": instance.bids[blocker].bidder if blocker is not None else None,
                }
            )
    doc: dict[str, Any] = {
        "mechanism": mech.name,
        "norm_exponent": str(cfg.exponent) if cfg else None,
        "tie_rule": cfg.tie_rule.value if cfg else None,
        "granted": granted,
        "denied": denied,
        "revenue": outcome.revenue.to_decimal(),
    }
    if "solver" in meta:
        doc["solver"] = meta["solver"]
    if ranking is not None:
        doc["had_ties"] = ranking.had_ties
    doc.update({k: v for k, v in meta.items() if k != "solver"})
    if outcome.utilities is not None:
        doc["utilities"] = {
            instance.bids[j].bidder: u.to_decimal()
            for j, u in sorted(outcome.utilities.items())
        }
    return doc


def violations_document(violations: list[Violation]) -> dict:
    return {
        "error": {
            "kind": "validation",
            "violations": [
                {"bid": v.bid_index, "reason": v.reason} for v in violations
            ],
        }
    }


def error_document(kind: str, message: str) -> dict:
    return {"error": {"kind": kind, "message": message}}


def check_document(check: AxiomCheck) -> dict:
    entry: dict[str, Any] = {
        "axiom": check.axiom, "verdict": check.verdict, "samples": check.samples
    }
    if check.detail:
        entry["detail"] = check.detail
    if check.witness is not None:
        entry["witness"] = {
            "description": check.witness.description,
            "bid": check.witness.bid_index,
            "instance": instance_document(check.witness.instance),
        }
    return entry


def deviation_document(bidder: str, report: Optional[DeviationReport]) -> dict:
    if report is None:
        return {"bidder": bidder, "profitable_deviation": None}
    return {
        "bidder": bidder,
        "profitable_deviation": {
            "bundle": sorted(report.misreport.bundle),
            "amount": Money(report.misreport.amount).to_decimal(),
            "truthful_utility": report.truthful_utility.to_decimal(),
            "deviating_utility": report.deviating_utility.to_decimal(),
            "bundles_searched": report.bundles_searched,
            "candidates_tested": report.candidates_tested,
            "note": report.note,
        },
    }


def check_report_document(
    report: AxiomReport, deviations: Optional[list[tuple[str, Optional[DeviationReport]]]]
) -> dict:
    """The `check` report: every axiom check, then, when searched, each
    bidder's profitable deviation or None; all hold when nothing turned up."""
    doc: dict[str, Any] = {
        "mechanism": report.mechanism,
        "seed": report.seed,
        "checks": [check_document(c) for c in report.checks],
    }
    ok = report.all_hold
    if deviations is not None:
        doc["deviations"] = [deviation_document(bidder, found) for bidder, found in deviations]
        ok = ok and all(found is None for _, found in deviations)
    doc["all_hold"] = ok
    return doc


def repro_text(rows: list[ReproRow]) -> str:
    """Plain-text reproduction report, one aligned row per expectation."""
    header = (
        f"{'status':6} {'scenario':20} {'mechanism':13} {'quantity':28} "
        f"{'expected':16} {'actual':16} provenance"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{status:6} {r.scenario:20} {r.mechanism:13} {r.quantity:28} "
            f"{r.expected:16} {r.actual:16} {r.provenance}"
        )
    total = sum(r.passed for r in rows)
    lines.append(f"{total}/{len(rows)} expectations reproduced")
    return "\n".join(lines) + "\n"


def repro_document(rows: list[ReproRow]) -> dict:
    return {
        "rows": [
            {
                "scenario": r.scenario,
                "mechanism": r.mechanism,
                "quantity": r.quantity,
                "expected": r.expected,
                "actual": r.actual,
                "pass": r.passed,
                "provenance": r.provenance,
            }
            for r in rows
        ],
        "all_pass": all(r.passed for r in rows),
    }


def ratio_document(stats: RatioStats) -> dict:
    return {
        "trials": stats.trials,
        "goods": stats.goods_count,
        "bids": stats.bids_count,
        "norm_exponent": str(stats.exponent),
        "bound": stats.bound_label,
        "max_ratio": stats.max_ratio,
        "violations": list(stats.violations),
    }


def tight_document(exponent, rows: list[TightRow]) -> dict:
    return {
        "suite": "tight",
        "norm_exponent": str(exponent),
        "rows": [
            {
                "goods": r.goods_count,
                "bound": r.bound_label,
                "greedy": float(r.greedy),
                "optimal": float(r.optimal),
                "ratio": float(r.ratio),
                "reaches_bound": r.reaches_bound,
            }
            for r in rows
        ],
        "all_pass": all(r.reaches_bound for r in rows),
    }


def tie_orders_document(check: RevenueCheck) -> dict:
    doc = {
        "scenario": check.scenario,
        "orders": check.comparison.orders,
        "tie_group_sizes": list(check.comparison.group_sizes),
        "greedy_average_revenue": check.comparison.greedy_average.to_decimal(),
        "gva_revenue": check.comparison.gva_revenue.to_decimal(),
    }
    if check.expected is not None:
        doc["expected_greedy_average"] = check.expected
        doc["pass"] = check.passed
    return doc


def to_json(doc: Mapping) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
