"""Document round-trips and rendering."""

import json
from fractions import Fraction as F

import pytest

from camech.axioms import greedy_mechanism, gva_mechanism
from camech.documents import (
    instance_document,
    outcome_document,
    parse_instance,
    parse_instance_text,
    to_json,
)
from camech.errors import ParseError
from camech.exact import SolverKind, run_gva
from camech.greedy import run_greedy
from camech.model import AuctionInstance, SingleMindedBid, validate_instance
from camech.money import Money
from camech.norm import NormConfig

THREE = {
    "goods": ["a", "b"],
    "bids": [
        {"bidder": "red", "bundle": ["a"], "amount": "10"},
        {"bidder": "green", "bundle": ["a", "b"], "amount": "19"},
        {"bidder": "blue", "bundle": ["b"], "amount": "8"},
    ],
}


def test_parse_instance_basic():
    inst = parse_instance(THREE)
    assert inst.goods == ("a", "b")
    assert inst.bids[1].amount == Money(19)
    assert validate_instance(inst) == []


def test_parse_decimal_amounts_exact():
    doc = dict(THREE)
    doc["bids"] = [{"bidder": "x", "bundle": ["a"], "amount": "9.5"}]
    inst = parse_instance(doc)
    assert inst.bids[0].amount == Money(F(19, 2))


def test_roundtrip_identity():
    inst = parse_instance(THREE)
    doc = instance_document(inst)
    assert parse_instance(doc) is not None
    assert instance_document(parse_instance(doc)) == doc
    # byte-level stability through JSON
    assert to_json(doc) == to_json(json.loads(to_json(doc)))


def test_roundtrip_with_true_types_and_reserve():
    inst = AuctionInstance(
        ("a", "b"),
        (
            SingleMindedBid("red", {"a"}, F(101, 1000)),
            SingleMindedBid("seller", {"a", "b"}, 30, is_reserve=True),
        ),
        {"red": SingleMindedBid("red", {"a"}, F(1, 3))},
    )
    doc = instance_document(inst)
    assert doc["bids"][0]["amount"] == "0.101"
    assert doc["bids"][1]["reserve"] is True
    assert doc["true_types"][0]["amount"] == "1/3"  # non-terminating: exact literal
    back = parse_instance(doc)
    assert back.bids[0].amount == Money(F(101, 1000))
    assert back.bids[1].is_reserve
    assert back.true_types["red"].amount == Money(F(1, 3))
    assert instance_document(back) == doc


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(goods="ab"),
        lambda d: d.update(bids="nope"),
        lambda d: d["bids"].append({"bidder": "x"}),
        lambda d: d["bids"].append({"bidder": "x", "bundle": ["a"], "amount": "1.2.3"}),
        lambda d: d["bids"].append({"bidder": "x", "bundle": ["a"], "amount": 1.5}),
        lambda d: d["bids"].append(
            {"bidder": "x", "bundle": ["a"], "amount": "1", "extra": 1}
        ),
        lambda d: d.update(unexpected=True),
    ],
)
def test_parse_errors(mutate):
    doc = json.loads(json.dumps(THREE))
    mutate(doc)
    with pytest.raises(ParseError):
        parse_instance(doc)


def test_parse_text_error():
    with pytest.raises(ParseError):
        parse_instance_text("{not json")


def test_outcome_document_greedy():
    inst = parse_instance(THREE)
    cfg = NormConfig(F(1))
    out = run_greedy(inst, cfg)
    doc = outcome_document(out, greedy_mechanism(cfg))
    assert doc["mechanism"] == "greedy"
    assert doc["norm_exponent"] == "1"
    assert doc["tie_rule"] == "canonical"
    granted = {e["bidder"]: e for e in doc["granted"]}
    assert set(granted) == {"red", "blue"}
    assert granted["red"]["payment"] == "9.5"
    assert granted["red"]["norm"] == "10"
    assert doc["denied"] == [{"bidder": "green", "blocked_by": "red"}]
    assert doc["revenue"] == "9.5"
    assert doc["had_ties"] is False


def test_outcome_document_gva_with_utilities():
    inst = parse_instance(THREE).assuming_truthful()
    out = run_gva(inst, SolverKind.BITMASK_DP)
    doc = outcome_document(out, gva_mechanism(SolverKind.BITMASK_DP))
    assert doc["norm_exponent"] is None
    assert doc["solver"] == "dp"
    assert doc["unique_optimum"] is True
    assert doc["granted"][0]["bidder"] == "green"
    assert doc["granted"][0]["payment"] == "18"
    assert doc["granted"][0]["norm"] is None
    assert doc["utilities"] == {"red": "0", "green": "1", "blue": "0"}
    assert {d["bidder"]: d["blocked_by"] for d in doc["denied"]} == {
        "red": None,
        "blue": None,
    }
