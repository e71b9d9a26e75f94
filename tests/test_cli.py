"""Command-line interface: verbs, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from camech import axioms, cli, errors
from camech.axioms import AXIOMS, MECHANISMS
from camech.cli import build_parser, main
from camech.norm import TieRule

THREE = {
    "goods": ["a", "b"],
    "bids": [
        {"bidder": "red", "bundle": ["a"], "amount": "10"},
        {"bidder": "green", "bundle": ["a", "b"], "amount": "19"},
        {"bidder": "blue", "bundle": ["b"], "amount": "8"},
    ],
}

#: What `camech gen --goods 3 --bids 4 --seed 1` writes: at l = 1/2, bid
#: b2's best misreport under clarke-greedy sits next to an irrational crossing.
GEN_3_4_SEED_1 = {
    "goods": ["g1", "g2", "g3"],
    "bids": [
        {"bidder": "b1", "bundle": ["g1"], "amount": "620.136"},
        {"bidder": "b2", "bundle": ["g1", "g3"], "amount": "876.631"},
        {"bidder": "b3", "bundle": ["g1", "g2", "g3"], "amount": "769.8"},
        {"bidder": "b4", "bundle": ["g2"], "amount": "667.428"},
    ],
}

TIED = {
    "goods": ["a", "b", "c", "d"],
    "bids": [
        {"bidder": "green", "bundle": ["a", "b"], "amount": "1"},
        {"bidder": "red", "bundle": ["c", "d"], "amount": "1"},
        {"bidder": "black", "bundle": ["a", "c"], "amount": "1"},
    ],
}

#: Tie-free, but bid a at 0, as the misreport search sets it, ties b.
ZERO_BID = {
    "goods": ["x", "y", "z"],
    "bids": [
        {"bidder": "a", "bundle": ["x"], "amount": "5"},
        {"bidder": "b", "bundle": ["y"], "amount": "0"},
        {"bidder": "c", "bundle": ["z"], "amount": "3"},
    ],
}


@pytest.fixture()
def three_path(tmp_path):
    path = tmp_path / "three.json"
    path.write_text(json.dumps(THREE))
    return str(path)


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_module(*argv, timeout=None):
    """`python -m camech.cli *argv` in a child process that imports camech
    from this checkout's `src`, ahead of any other `PYTHONPATH` entry."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-m", "camech.cli", *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_run_greedy(capsys, three_path):
    code, out = run_cli(capsys, "run", three_path, "--mechanism", "greedy")
    assert code == 0
    doc = json.loads(out)
    assert {e["bidder"] for e in doc["granted"]} == {"red", "blue"}
    assert doc["revenue"] == "9.5"


def test_run_gva(capsys, three_path):
    code, out = run_cli(capsys, "run", three_path, "--mechanism", "gva")
    assert code == 0
    doc = json.loads(out)
    assert doc["granted"] == [
        {"bidder": "green", "bundle": ["a", "b"], "payment": "18", "norm": None}
    ]


def test_run_clarke_greedy(capsys, three_path):
    code, out = run_cli(capsys, "run", three_path, "--mechanism", "clarke-greedy")
    assert code == 0
    doc = json.loads(out)
    payments = {e["bidder"]: e["payment"] for e in doc["granted"]}
    assert payments["red"] == "11"


def test_run_norm_exponent_flag(capsys, tmp_path):
    doc = {
        "goods": ["a", "b"],
        "bids": [
            {"bidder": "red", "bundle": ["a"], "amount": "10"},
            {"bidder": "green", "bundle": ["a", "b"], "amount": "13"},
        ],
    }
    path = tmp_path / "surd.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "run", str(path), "--norm-exponent", "1/2")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["norm_exponent"] == "1/2"
    assert parsed["granted"][0]["payment"] == "9.19238815543"


def test_run_gva_brute_solver_agrees(capsys, three_path):
    _, dp_out = run_cli(capsys, "run", three_path, "--mechanism", "gva", "--solver", "dp")
    code, brute_out = run_cli(
        capsys, "run", three_path, "--mechanism", "gva", "--solver", "brute"
    )
    assert code == 0
    dp_doc, brute_doc = json.loads(dp_out), json.loads(brute_out)
    assert dp_doc["granted"] == brute_doc["granted"]
    assert dp_doc["revenue"] == brute_doc["revenue"]


def test_check_gva_probed_critical(capsys, three_path):
    code, out = run_cli(
        capsys, "check", three_path, "--mechanism", "gva",
        "--axioms", "exactness,participation,critical",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_hold"] is True


def test_run_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(THREE)))
    code, out = run_cli(capsys, "run", "-")
    assert code == 0
    assert json.loads(out)["revenue"] == "9.5"


def test_run_validation_error_exit_2(capsys, tmp_path):
    bad = {"goods": ["a"], "bids": [{"bidder": "x", "bundle": ["z"], "amount": "1"}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out = run_cli(capsys, "run", str(path))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "validation"


_ONE_BID = {"goods": ["a"], "bids": [{"bidder": "x", "bundle": ["a"], "amount": "1"}]}


@pytest.mark.parametrize("doc, reason", [
    ({**_ONE_BID, "goods": ["a", "a"]}, "duplicate good ids"),
    ({**_ONE_BID, "true_types": [{"bidder": "x", "bundle": ["z"], "amount": "1"}]},
     "true type for x uses an invalid bundle"),
    ({**_ONE_BID, "true_types": [{"bidder": "x", "bundle": ["a"], "amount": "-1"}]},
     "true type for x has a negative amount"),
], ids=["duplicate-goods", "true-type-unknown-good", "true-type-negative"])
def test_run_validation_reason_exit_2(capsys, tmp_path, doc, reason):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "run", str(path))
    assert code == 2
    assert json.loads(out) == {"error": {"kind": "validation", "violations": [
        {"bid": None, "reason": reason},
    ]}}


def test_run_parse_error_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    code, out = run_cli(capsys, "run", str(path))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "parse"


@pytest.mark.parametrize("doc, message", [
    ({"goods": ["a"], "bids": [1]}, "bids[0]: expected an object"),
    ([], "instance document must be an object"),
    ({**_ONE_BID, "true_types": {}}, "true_types must be a list"),
], ids=["bid-not-object", "top-level-list", "true-types-not-list"])
def test_run_parse_message_exit_2(capsys, tmp_path, doc, message):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "run", str(path))
    assert code == 2
    assert _one_error(out, "parse") == message


def test_run_bad_norm_exponent_exit_2(capsys, three_path):
    # argparse refuses the literal: usage on stderr, nothing on stdout
    with pytest.raises(SystemExit) as exited:
        main(["run", three_path, "--norm-exponent", "abc"])
    captured = capsys.readouterr()
    assert exited.value.code == 2 and captured.out == ""
    assert "not a rational literal: 'abc'" in captured.err


def _one_error(out, kind):
    doc = json.loads(out)
    assert list(doc) == ["error"] and doc["error"]["kind"] == kind
    return doc["error"]["message"]


def test_run_missing_file_exit_2(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    code, out = run_cli(capsys, "run", missing)
    assert code == 2
    assert missing in _one_error(out, "error")


def test_run_directory_exit_2(capsys, tmp_path):
    code, out = run_cli(capsys, "run", str(tmp_path))
    assert code == 2
    _one_error(out, "error")


def test_run_undecodable_bytes_exit_2(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(THREE).replace("green", "gr\u00fcn").encode("latin-1"))
    code, out = run_cli(capsys, "run", str(path))
    assert code == 2
    assert "UTF-8" in _one_error(out, "parse")


def test_gen_unwritable_output_exit_2(capsys, tmp_path):
    target = str(tmp_path / "nodir" / "x.json")
    code, out = run_cli(capsys, "gen", "--goods", "2", "--bids", "2", "--output", target)
    assert code == 2
    assert target in _one_error(out, "error")


def test_run_ties_rejected_exit_3(capsys, tmp_path):
    path = tmp_path / "tied.json"
    path.write_text(json.dumps(TIED))
    code, out = run_cli(capsys, "run", str(path), "--tie-rule", "reject")
    assert code == 3
    assert json.loads(out)["error"]["kind"] == "ties"


def test_run_clarke_greedy_reject_prices_zeroed_reruns_exit_0(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(ZERO_BID))
    argv = ("run", str(path), "--mechanism", "clarke-greedy", "--tie-rule")
    code, out = run_cli(capsys, *argv, "reject")
    assert code == 0
    _, canonical = run_cli(capsys, *argv, "canonical")
    doc, expected = json.loads(out), json.loads(canonical)
    assert doc.pop("tie_rule") == "reject" and expected.pop("tie_rule") == "canonical"
    assert doc == expected


def test_every_tie_rule_is_a_cli_choice(capsys, three_path):
    # the choices come from `TieRule`, in its order, so no rule is library-only
    assert [r.value for r in TieRule] == ["canonical", "reject"]
    for rule in TieRule:
        code, out = run_cli(capsys, "run", three_path, "--tie-rule", rule.value)
        assert code == 0 and json.loads(out)["tie_rule"] == rule.value
    with pytest.raises(SystemExit):
        main(["run", three_path, "--tie-rule", "explicit"])
    assert "choose from 'canonical', 'reject'" in capsys.readouterr().err


def test_check_deviations_reject_skips_tied_candidates_exit_0(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(ZERO_BID))
    code, out = run_cli(
        capsys, "check", str(path), "--tie-rule", "reject", "--deviations", "--axioms", "none"
    )
    assert code == 0
    assert [d["profitable_deviation"] for d in json.loads(out)["deviations"]] == [None] * 3


def test_gen_too_large_exit_4(capsys):
    code, out = run_cli(capsys, "gen", "--goods", "64", "--bids", "2")
    assert code == 4
    assert json.loads(out)["error"]["kind"] == "too-large"


def test_dp_cell_bound_exit_4(capsys):
    # 12 bids over 24 goods need 13 * 2**24 DP cells: refused before any table is built
    code, out = run_cli(capsys, "experiment", "--suite", "ratio", "--k", "24", "--trials", "1")
    assert code == 4
    error = json.loads(out)["error"]
    assert error["kind"] == "too-large"
    assert "table cells" in error["message"]


@pytest.mark.parametrize("k", ["20000", "1000000"])
def test_tight_suite_goods_past_bound_exit_4(k):
    # refused on the goods count before any bundle mask or cell count is built
    result = run_module("experiment", "--suite", "tight", "--k", k, "--l", "1", timeout=5)
    assert result.returncode == 4, result.stderr
    assert json.loads(result.stdout)["error"]["kind"] == "too-large"


def test_gen_deterministic_and_valid(capsys):
    code1, out1 = run_cli(capsys, "gen", "--goods", "4", "--bids", "6", "--seed", "7")
    code2, out2 = run_cli(capsys, "gen", "--goods", "4", "--bids", "6", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    doc = json.loads(out1)
    assert len(doc["bids"]) == 6
    code3, out3 = run_cli(capsys, "gen", "--goods", "4", "--bids", "6", "--seed", "8")
    assert out3 != out1


def test_gen_output_validates_and_ranks_tie_free(capsys, tmp_path):
    path = tmp_path / "gen.json"
    code, _ = run_cli(capsys, "gen", "--goods", "5", "--bids", "7",
                      "--seed", "11", "--output", str(path))
    assert code == 0
    code, out = run_cli(capsys, "run", str(path), "--tie-rule", "reject")
    assert code == 0


def test_env_seed_default(capsys, monkeypatch):
    monkeypatch.setenv("CAMECH_SEED", "42")
    _, with_env = run_cli(capsys, "gen", "--goods", "4", "--bids", "5")
    _, explicit = run_cli(capsys, "gen", "--goods", "4", "--bids", "5", "--seed", "42")
    assert with_env == explicit


@pytest.mark.parametrize("raw", ["abc", "12x"])
def test_malformed_env_seed_exit_2(capsys, monkeypatch, three_path, raw):
    # an unreadable seed is an error wherever it is read, never a silent 0
    monkeypatch.setenv("CAMECH_SEED", raw)
    for argv in (["gen", "--goods", "2", "--bids", "2"],
                 ["experiment", "--suite", "ratio", "--trials", "1"]):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "parse" and "CAMECH_SEED" in error["message"]
    # an explicit --seed, `run` and `check`, which draws nothing, never read it
    assert run_cli(capsys, "gen", "--goods", "2", "--bids", "2", "--seed", "0")[0] == 0
    assert run_cli(capsys, "check", three_path)[0] == 0
    assert run_cli(capsys, "run", three_path)[0] == 0


@pytest.mark.parametrize(
    "argv", [["run"], ["check", "--deviations"], ["run", "--mechanism", "gva"]], ids=" ".join
)
def test_duplicate_true_type_exit_2(capsys, tmp_path, argv):
    doc = dict(THREE, true_types=[
        {"bidder": "red", "bundle": ["a"], "amount": "5"},
        {"bidder": "red", "bundle": ["a"], "amount": "12"},
    ])
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "parse" and "'red'" in error["message"]


def test_check_greedy_all_axioms_exit_0(capsys, three_path):
    code, out = run_cli(capsys, "check", three_path, "--mechanism", "greedy")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_hold"] is True
    assert {c["axiom"] for c in doc["checks"]} == {
        "exactness", "monotonicity", "participation", "critical",
    }


def test_check_subset_of_axioms(capsys, three_path):
    code, out = run_cli(
        capsys, "check", three_path, "--axioms", "exactness,participation"
    )
    assert code == 0
    doc = json.loads(out)
    assert [c["axiom"] for c in doc["checks"]] == ["exactness", "participation"]


def test_check_clarke_greedy_deviations_exit_1(capsys, three_path):
    code, out = run_cli(
        capsys, "check", three_path, "--mechanism", "clarke-greedy",
        "--axioms", "none", "--deviations",
    )
    assert code == 1
    doc = json.loads(out)
    found = {d["bidder"]: d["profitable_deviation"] for d in doc["deviations"]}
    assert found["red"] is not None
    assert found["red"]["deviating_utility"] == "0"
    assert found["red"]["truthful_utility"] == "-1"


def test_check_greedy_deviations_none(capsys, three_path):
    code, out = run_cli(
        capsys, "check", three_path, "--axioms", "none", "--deviations"
    )
    assert code == 0
    doc = json.loads(out)
    assert all(d["profitable_deviation"] is None for d in doc["deviations"])


def test_check_critical_violated_for_clarke_greedy(capsys, three_path):
    code, out = run_cli(
        capsys, "check", three_path, "--mechanism", "clarke-greedy",
        "--axioms", "critical",
    )
    assert code == 1
    doc = json.loads(out)
    entry = doc["checks"][0]
    assert entry["verdict"] == "violated"
    assert entry["witness"]["instance"]["bids"]  # replayable witness embedded


def test_check_unknown_axiom_exit_2(capsys, three_path):
    code, out = run_cli(capsys, "check", three_path, "--axioms", "exactness,bogus")
    assert code == 2
    assert json.loads(out) == {
        "error": {"kind": "error", "message": "unknown axiom name: bogus"}
    }


def test_check_ties_rejected_exit_3(capsys, tmp_path):
    path = tmp_path / "tied.json"
    path.write_text(json.dumps(TIED))
    code, out = run_cli(capsys, "check", str(path), "--tie-rule", "reject")
    assert code == 3
    assert json.loads(out)["error"]["kind"] == "ties"


def test_check_deterministic(capsys, three_path):
    args = ("check", three_path, "--deviations")
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_experiment_reproduce(capsys):
    code, out = run_cli(capsys, "experiment", "--suite", "reproduce")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert len(doc["rows"]) >= 40


def test_experiment_reproduce_text(capsys):
    code, out = run_cli(capsys, "experiment", "--suite", "reproduce",
                        "--format", "text")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert out.splitlines()[-1].endswith("expectations reproduced")


def test_experiment_ratio(capsys):
    args = ("experiment", "--suite", "ratio", "--k", "5", "--n", "6",
            "--trials", "25", "--l", "1/2", "--seed", "3")
    code, out1 = run_cli(capsys, *args)
    assert code == 0
    doc = json.loads(out1)
    assert doc["violations"] == []
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_experiment_revenue(capsys):
    code, out = run_cli(
        capsys, "experiment", "--suite", "revenue", "--scenario", "better", "--l", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["greedy_average_revenue"] == "0.666666666667"
    assert doc["gva_revenue"] == "0"
    assert doc["orders"] == 6
    assert doc["pass"] is True


def test_experiment_revenue_needs_scenario(capsys):
    code, out = run_cli(capsys, "experiment", "--suite", "revenue")
    assert code == 2


def test_experiment_unknown_scenario(capsys):
    code, out = run_cli(
        capsys, "experiment", "--suite", "revenue", "--scenario", "nonesuch"
    )
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "unknown-scenario"


def test_experiment_tight(capsys):
    code, out = run_cli(capsys, "experiment", "--suite", "tight", "--l", "1/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert [row["goods"] for row in doc["rows"]] == [4, 9, 16]


@pytest.mark.parametrize("l, optimal", [("1", 63.0), ("1/2", 7.937253)])
def test_experiment_tight_runs_63_goods(capsys, l, optimal):
    # a family has two bids: solved over 4 bid subsets, past the DP's cell bound
    code, out = run_cli(capsys, "experiment", "--suite", "tight", "--k", "63", "--l", l)
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert (row["goods"], row["optimal"], row["reaches_bound"]) == (63, optimal, True)


def test_entry_point_subprocess(three_path):
    result = run_module("run", three_path)
    assert result.returncode == 0
    assert json.loads(result.stdout)["revenue"] == "9.5"


# -- one parser per process: no call sees another's arguments ----------------


def test_parser_built_once_per_process():
    assert build_parser() is build_parser()


def test_cached_parser_takes_env_seed_after_explicit_seed(capsys, monkeypatch):
    gen = ("gen", "--goods", "4", "--bids", "5")
    code, explicit = run_cli(capsys, *gen, "--seed", "7")
    assert code == 0
    monkeypatch.setenv("CAMECH_SEED", "42")
    code, out = run_cli(capsys, *gen)
    assert code == 0 and out != explicit and out == run_cli(capsys, *gen, "--seed", "42")[1]


def test_cached_parser_run_after_gen_output_writes_stdout(capsys, tmp_path):
    path = tmp_path / "gen.json"
    code, out = run_cli(capsys, "gen", "--goods", "4", "--bids", "5", "--seed", "3",
                        "--output", str(path))
    assert code == 0 and out == ""
    written = path.read_text()
    code, out = run_cli(capsys, "run", str(path))
    assert code == 0 and "granted" in json.loads(out)
    assert path.read_text() == written


def test_cached_parser_recovers_after_usage_error(capsys, three_path):
    _, before = run_cli(capsys, "run", three_path)
    with pytest.raises(SystemExit) as exc:
        main(["run", three_path, "--mechanism", "bogus", "--norm-exponent", "1/2"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    code, after = run_cli(capsys, "run", three_path)
    assert code == 0 and after == before


def test_cached_parser_help_is_stable(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] and texts[0].startswith("usage: camech run")


# (argv, exit code, sha256 of stdout): any change to the bytes a command
# prints fails here.  THREE_PATH stands for the three-bid file.
GOLDEN = [
    (["gen", "--goods", "6", "--bids", "8", "--seed", "13"], 0,
     "e01f80ecd329393cd9586017e628c72011b503ffeadbfcfe5fedcf5b252ed040"),
    (["run", "THREE_PATH", "--mechanism", "greedy"], 0,
     "161ea60fc80c172a6d2b5bc4ac8c9f6066a3977c32892d95716803c4be893a37"),
    (["run", "THREE_PATH", "--mechanism", "gva"], 0,
     "1d485e09a87c54797e573a58587804a2ae68a86b0e27371fa74a2ea3735857d0"),
    (["check", "THREE_PATH"], 0,
     "b49c1e73ad1bf07b2a72f70708576228340a6e54a4d124062b76806fdbc0b4cc"),
    (["experiment", "--suite", "ratio", "--k", "4", "--n", "6", "--trials", "20",
      "--l", "1/2", "--seed", "13"], 0,
     "6c7ca1cff1bb744dc9649c0581d5a0d4eb43063752f1f1adb75e55619657ef7c"),
    (["experiment", "--suite", "revenue", "--scenario", "better", "--l", "1"], 0,
     "a97804b727a7c50eca1d839ad504ba403a314ae459f797f3ad09ce93bf50a72d"),
    (["experiment", "--suite", "reproduce"], 0,
     "61ef87aa86c0897e722a5679d9b0d0dac80e393ba9e3f9b398e429b15a8904b5"),
    (["experiment", "--suite", "tight", "--l", "1"], 0,
     "65ddacf8a853fe7ef59f13e15a94a5f9b02b6002d18841550d926be6882a7afd"),
    (["run", "THREE_PATH", "--mechanism", "clarke-greedy"], 0,
     "a82175c318f717956a8121fe0839534646184e85e021fe72b55435968fa7f65f"),
    (["run", "THREE_PATH", "--norm-exponent", "1/2"], 0,
     "468a8997fe21ab0e7e9e7f86fc1d67b4b90090a20f08e222461026fe65698088"),
    (["check", "THREE_PATH", "--mechanism", "gva"], 0,
     "44a25c46c91be1f647c74c8002b9578d34f7253f7a19f035470eeac6533e73a4"),
    (["check", "THREE_PATH", "--mechanism", "clarke-greedy", "--deviations"], 1,
     "1459b84cfb136fc4ffa2af09777de198e11a635a7764350902957cabae2d79d3"),
    (["experiment", "--suite", "tight", "--l", "1/2"], 0,
     "3d9897e6e669db663373894bb010d21c0332c43fbc77a2d526d4d0d7ceedf26a"),
    (["experiment", "--suite", "tight", "--l", "1", "--k", "5"], 0,
     "7b6e23d4d486a99bf49bd38f16165db8244a17c2ebed2bdc750ecd83b928ca7f"),
    (["check", "THREE_PATH", "--mechanism", "clarke-greedy", "--axioms", "exactness,critical"], 1,
     "aa48d2a9fa7a1bcd83d7b959255bade242286071ed0077620024d3d1d4e920d8"),
    (["check", "THREE_PATH", "--axioms", "none", "--deviations"], 0,
     "33b3373dda763844861997959b137bf3f5a7a885e8b7e0ac35226aba44b9c452"),
    (["check", "THREE_PATH", "--norm-exponent", "1/2"], 0,
     "07d3b9bf006ea033425d856d99692d2185331c8c4b068cf31d99fcee98396f13"),
    (["check", "GEN_PATH", "--mechanism", "clarke-greedy", "--norm-exponent", "1/2",
      "--deviations"], 1,
     "0c089fa4cfc568c91bb1ec83e8c1b2ee9b87e1581facbbfed649556f7c363587"),
]


@pytest.mark.parametrize(
    "argv, code, sha", GOLDEN, ids=[" ".join(argv) for argv, _, _ in GOLDEN]
)
def test_golden_stdout(capsys, monkeypatch, tmp_path, three_path, argv, code, sha):
    monkeypatch.delenv("CAMECH_SEED", raising=False)
    gen_path = tmp_path / "gen.json"
    gen_path.write_text(json.dumps(GEN_3_4_SEED_1))
    paths = {"THREE_PATH": three_path, "GEN_PATH": str(gen_path)}
    argv = [paths.get(a, a) for a in argv]
    got_code, out = run_cli(capsys, *argv)
    assert (got_code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (code, sha)


def _instance_doc(goods, bids):
    """An instance document from goods and (bidder, bundle, amount) triples."""
    return {"goods": list(goods), "bids": [
        {"bidder": name, "bundle": list(bundle), "amount": amount} for name, bundle, amount in bids
    ]}


_GEN_16_40 = ["gen", "--goods", "16", "--bids", "40", "--seed", "1"]
_ONE_GOOD_20 = _instance_doc("abcd", [(f"b{i}", "abcd"[i % 4], str(i + 1)) for i in range(20)])
_GOODS_21 = [f"g{i}" for i in range(21)]
_KEYS_990 = _instance_doc(
    ["g0", "g1"], [(f"b{i}", [f"g{i % 2}"], f"{i + 11}{'0' * 987}7") for i in range(10)]
)

# (instance, check flags, exit code, sha256 of stdout) for each way `check`
# refuses work, or lets it through just short of a refusal.  An instance is
# a `gen` command line or a document.
REFUSALS = [
    ("deviations-16-goods", _GEN_16_40, ["--deviations", "--axioms", "none"], 4,
     "760b38c0150e279fb30094d300c787539372296bb82a0a9f9e024de41af95897"),
    # the planned reruns are counted before the axiom names are checked
    ("deviations-before-unknown-axiom", _GEN_16_40, ["--deviations", "--axioms", "bogus"], 4,
     "84acf0723172600386a3267f8677fa77feeacba3664d5f88055bb561f3de9ab1"),
    ("unknown-axiom", _GEN_16_40, ["--axioms", "bogus"], 2,
     "2d4959de8a6248cdcd3b8b82ecf2c5bff286bc012aaf19bc5c4ec59cbd75b06a"),
    ("no-axioms", _GEN_16_40, ["--axioms", "none"], 0,
     "82899ac42e6498e86b82fd6d9df4df138eaf84e97e3bd360bf4116b74171ef8b"),
    # the sub-bundle classes of 50 bids over 63 goods number 4,365,466; the
    # count stops once it passes the budget, at bid 13
    ("monotonicity-classes-63-goods", ["gen", "--goods", "63", "--bids", "50", "--seed", "1"],
     ["--axioms", "monotonicity"], 4,
     "35b35d0546bfdda2fe8cfaa3d6b5c946c5b20627f0e0ae43224f66f74a40eabc"),
    ("critical-990-digit-keys", _KEYS_990, ["--norm-exponent", "999/1000", "--axioms", "critical"],
     4, "0af6e9c5cff1494f5db18b20363f121c6695ed962daf5f0c091ed64d31d5d087"),
    # the axiom suite plans before it checks the names, so the key bits
    # refuse the check first, as when `check` planned the command itself
    ("critical-990-digit-keys-before-unknown-axiom", _KEYS_990,
     ["--norm-exponent", "999/1000", "--axioms", "critical,bogus"], 4,
     "0af6e9c5cff1494f5db18b20363f121c6695ed962daf5f0c091ed64d31d5d087"),
    ("gva-dp-16-goods", _instance_doc(
        "abcdefghijklmnop", [("x", "abcdefgh", "5"), ("y", "ijklmnop", "3")]
    ), ["--mechanism", "gva", "--deviations"], 4,
     "aa137dba592e5b4b3cce75eef6a520d51e5daedd38dd6c9d8fe640397564103f"),
    ("gva-brute-20-bids", _ONE_GOOD_20,
     ["--mechanism", "gva", "--solver", "brute", "--axioms", "exactness"], 4,
     "ccad0df62f216d3d0edbfbca75897d513caaf06426f5010c5451c4a7164e9dee"),
    # the critical check's entry-value table of 3 bids over 21 goods passes
    # the DP bound although the planned reruns' budgets do not
    ("gva-entry-table-21-goods", _instance_doc(
        _GOODS_21, [(f"b{i}", [_GOODS_21[i]], str(i + 1)) for i in range(4)]
    ), ["--mechanism", "gva", "--solver", "brute", "--axioms", "critical"], 4,
     "efd06803996e6f12ee4246d3ad1762d8678784a6050792aee25fbb89c4e14e8d"),
]


@pytest.mark.parametrize(
    "instance, flags, code, sha", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS]
)
def test_check_refusals_pinned(capsys, monkeypatch, tmp_path, instance, flags, code, sha):
    monkeypatch.delenv("CAMECH_SEED", raising=False)
    path = tmp_path / "instance.json"
    if isinstance(instance, list):
        assert main([*instance, "--output", str(path)]) == 0
    else:
        path.write_text(json.dumps(instance))
    got_code, out = run_cli(capsys, "check", str(path), *flags)
    assert (got_code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (code, sha), out


@pytest.mark.parametrize("flags, passes", [([], 12), (["--deviations"], 12)])
def test_check_counts_sub_bundle_classes_once_per_plan(capsys, monkeypatch, tmp_path, flags,
                                                       passes):
    # the axiom suite plans the check and its monotonicity check reruns the
    # classes that plan counted, one pass per bid; with `--deviations` the
    # same plan also charges the search, so the command plans once either way
    path = tmp_path / "gen.json"
    assert main(["gen", "--goods", "8", "--bids", "12", "--seed", "3", "--output", str(path)]) == 0
    masks = []
    count = axioms._sub_bundle_classes

    def counting(mask, holders, most=None):
        masks.append(mask)
        return count(mask, holders, most)

    monkeypatch.setattr(axioms, "_sub_bundle_classes", counting)
    code, out = run_cli(capsys, "check", str(path), "--norm-exponent", "1/2", *flags)
    assert code == 0 and json.loads(out)["all_hold"]
    assert len(masks) == passes and len(set(masks)) == 12


def _camech_errors():
    return sorted((c for c in vars(errors).values()
                   if isinstance(c, type) and issubclass(c, errors.CamechError)),
                  key=lambda c: c.__name__)


@pytest.mark.parametrize("error", _camech_errors(), ids=lambda c: c.__name__)
def test_every_error_inside_check_exits_with_one_error_document(capsys, monkeypatch, three_path,
                                                                 error):
    # whatever package error a handler raises, `main` writes one JSON error
    # document and exits 2, 3 or 4, never a traceback
    def failing(*args, **kwargs):
        raise error("raised inside check")

    monkeypatch.setattr(cli, "run_axiom_suite", failing)
    code = main(["check", three_path])
    captured = capsys.readouterr()
    if issubclass(error, errors.InstanceTooLarge):
        expected = (4, "too-large")
    elif issubclass(error, errors.TiesPresent):
        expected = (3, "ties")
    else:
        kinds = {errors.ParseError: "parse", errors.UnknownScenario: "unknown-scenario"}
        expected = (2, kinds.get(error, "error"))
    doc = json.loads(captured.out)
    assert (code, doc["error"]["kind"]) == expected and captured.err == ""
    assert doc == {"error": {"kind": expected[1], "message": "raised inside check"}}


#: The benchmark's record of `gen --goods 8 --bids 12 --seed SEED` then
#: `run --mechanism greedy --norm-exponent 1/2`, as sha256 digests per seed.
CLI_DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "cli_digests.txt"


def test_recorded_cli_digests_replay(capsys, tmp_path):
    # every recorded seed's `gen` file and `run` stdout stay byte-identical
    def sha(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    path = tmp_path / "gen.json"
    recorded = [
        line.split() for line in CLI_DIGESTS.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]
    assert len(recorded) == 1024
    for seed, gen_sha, run_sha in recorded:
        gen_code = main(["gen", "--goods", "8", "--bids", "12", "--seed", seed,
                         "--output", str(path)])
        run_code, printed = run_cli(
            capsys, "run", str(path), "--mechanism", "greedy", "--norm-exponent", "1/2"
        )
        written = path.read_text(encoding="utf-8")
        assert (gen_code, run_code, sha(written), sha(printed)) == (0, 0, gen_sha, run_sha), seed


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--goods", "0", "--bids", "3"],
        ["gen", "--goods", "3", "--bids", "3", "--bundle-prob", "0"],
        ["gen", "--goods", "3", "--bids", "3", "--bundle-prob", "nan"],
        ["gen", "--goods", "3", "--bids", "-1"],
        ["run", "THREE_PATH", "--norm-exponent", "-1"],
        ["experiment", "--suite", "tight", "--k", "1"],
        ["experiment", "--suite", "tight", "--l", "0"],
        ["experiment", "--suite", "ratio", "--k", "0", "--trials", "2"],
        ["experiment", "--suite", "ratio", "--n", "0", "--trials", "2"],
        ["experiment", "--suite", "ratio", "--trials", "-1"],
        ["run", "THREE_PATH", "--norm-exponent", "5000"],
        ["run", "THREE_PATH", "--norm-exponent", "1/10000000"],
        ["run", "THREE_PATH", "--norm-exponent", "10000000000000"],
        ["gen", "--goods", "3", "--bids", "2", "--bundle-prob", "1e-300"],
    ],
    ids=" ".join,
)
def test_out_of_range_flag_exit_2(three_path, argv):
    argv = [three_path if a == "THREE_PATH" else a for a in argv]
    result = run_module(*argv, timeout=5)
    assert result.returncode == 2, result.stderr
    assert set(json.loads(result.stdout)) == {"error"}


@pytest.mark.parametrize("flag", ["--samples", "--seed"])
def test_removed_check_flags_exit_2(three_path, flag):
    # `check` decides monotonicity without drawing, so it takes neither a
    # sample count nor a seed
    result = run_module("check", three_path, flag, "5", timeout=5)
    assert result.returncode == 2 and "unrecognized arguments" in result.stderr


def test_gva_critical_check_past_table_bound_exit_4(tmp_path):
    # 17 one-good bids over 18 goods: the critical check's value table of the
    # other 16 bids would pass the DP bound, so the check is refused at once
    # rather than after the brute-force GVA run
    goods = [f"g{i}" for i in range(18)]
    path = tmp_path / "b17.json"
    path.write_text(json.dumps({"goods": goods, "bids": [
        {"bidder": f"b{i}", "bundle": [goods[i]], "amount": str(i + 1)} for i in range(17)
    ]}))
    result = run_module(
        "check", str(path), "--mechanism", "gva", "--solver", "brute", "--axioms", "critical",
        timeout=3,
    )
    assert result.returncode == 4, result.stderr
    assert json.loads(result.stdout)["error"]["kind"] == "too-large"


def test_gva_brute_run_past_subset_bound_exit_4(tmp_path):
    # `gen --goods 12 --seed 1` with 18 bids: one brute-force GVA run makes
    # 19 solves of 2**18 bid subsets, which took 2.0 s on a 2-vCPU host
    # (2**24 subsets at 24 bids would take minutes), so the run is refused
    # before the first solve
    path = str(tmp_path / "gen.json")
    assert main(["gen", "--goods", "12", "--bids", "18", "--seed", "1", "--output", path]) == 0
    result = run_module("run", path, "--mechanism", "gva", "--solver", "brute", timeout=3)
    assert result.returncode == 4, result.stderr
    error = json.loads(result.stdout)["error"]
    assert error["kind"] == "too-large" and "bid subsets" in error["message"]


@pytest.mark.parametrize(
    "goods, bids, check",
    [
        # 65,535 bundles x 41 candidates x 40 bidders: about 10**8 reruns
        (16, 40, ["--deviations", "--axioms", "none"]),
        # 4,365,466 sub-bundle classes, counted until they pass the budget
        (63, 50, ["--axioms", "monotonicity"]),
        # 2,000 possible winners x up to 2,000 critical-value probes each
        (20, 2000, ["--axioms", "critical"]),
        # the scan, the raises and 454 sub-bundle classes: 503 GVA reruns of
        # 17 * 2**12 DP cells each, where the critical check alone passes
        (12, 16, ["--mechanism", "gva", "--axioms", "monotonicity"]),
    ],
    ids=["deviations-16-goods", "monotonicity-classes-63-goods", "critical-2000-bids",
         "gva-monotonicity-12-goods"],
)
def test_check_past_rerun_bound_exit_4(tmp_path, goods, bids, check):
    # the planned reruns are counted before the first one, so the check is
    # refused at once instead of running for hours
    path = str(tmp_path / "gen.json")
    assert main(["gen", "--goods", str(goods), "--bids", str(bids), "--seed", "1",
                 "--output", path]) == 0
    result = run_module("check", path, *check, timeout=5)
    assert result.returncode == 4, result.stderr
    assert json.loads(result.stdout)["error"]["kind"] == "too-large"


@pytest.mark.parametrize(
    "goods, bids, check",
    [
        # two bids over 16 goods: 393,212 reruns of a 3 * 2**16-cell DP, about 45 minutes
        ("abcdefghijklmnop", [("x", "a", "5"), ("y", "bc", "3")],
         ["--deviations", "--axioms", "none"]),
        # 20 one-good bids: one brute-force GVA run alone took 17 s
        ("abcd", [(f"b{i}", "abcd"[i % 4], str(i + 1)) for i in range(20)],
         ["--solver", "brute", "--deviations"]),
        # the same bids with one cheap axiom: the suite's own run took 13.6 s
        ("abcd", [(f"b{i}", "abcd"[i % 4], str(i + 1)) for i in range(20)],
         ["--solver", "brute", "--axioms", "exactness"]),
    ],
    ids=["dp-16-goods", "brute-20-bids", "brute-20-bids-suite-run"],
)
def test_check_past_gva_solve_budget_exit_4(tmp_path, goods, bids, check):
    # each planned GVA rerun is charged one run's solve, so a check that
    # plans few reruns of a large solve is refused at once
    path = tmp_path / "gva.json"
    path.write_text(json.dumps(_instance_doc(goods, bids)))
    result = run_module("check", str(path), "--mechanism", "gva", *check, timeout=5)
    assert result.returncode == 4, result.stderr
    error = json.loads(result.stdout)["error"]
    assert error["kind"] == "too-large" and "GVA reruns" in error["message"]


@pytest.mark.parametrize(
    "extra",
    [["--trials", "100000000"], ["--k", "1", "--n", "1", "--trials", "100000000"],
     ["--k", "8", "--n", "12", "--trials", "20000"]],
    ids=["1e8-trials", "1e8-trials-1-good", "20000-trials"],
)
def test_ratio_suite_past_planned_cells_exit_4(extra):
    # the suite's DP cells over all trials are counted before the first
    # trial, so an out-of-range --trials is refused at once
    result = run_module("experiment", "--suite", "ratio", *extra, timeout=5)
    assert result.returncode == 4, result.stderr
    error = json.loads(result.stdout)["error"]
    assert error["kind"] == "too-large" and "ratio suite plans" in error["message"]


@pytest.mark.parametrize(
    "amount", ["1e999999999", "1e-999999999", "1e5000", "1" * 1001],
    ids=["1e999999999", "1e-999999999", "1e5000", "1001-digits"],
)
def test_oversized_amount_literal_exit_2(tmp_path, amount):
    doc = json.loads(json.dumps(THREE))
    doc["bids"][0]["amount"] = amount
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    result = run_module("run", str(path), timeout=5)
    assert result.returncode == 2, result.stderr
    assert json.loads(result.stdout)["error"]["kind"] == "parse"


@pytest.mark.parametrize(
    "text",
    [
        '{"goods": ["a"], "bids": [{"bidder": "x", "bundle": ["a"], "amount": '
        + "1" * 5000 + "}]}",
        "[" * 100_000 + "]" * 100_000,
    ],
    ids=["5000-digit-json-integer", "100000-nested-arrays"],
)
def test_pathological_json_exit_2(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    result = run_module("run", str(path), timeout=10)
    assert result.returncode == 2, result.stderr
    assert json.loads(result.stdout)["error"]["kind"] == "parse"


@pytest.mark.parametrize("goods, bids", [("8", "20000"), ("8", "100000"), ("2", "6000")],
                         ids=["20000", "100000", "2-goods-6000"])
def test_gen_gives_up_on_ties_quickly(goods, bids):
    # so many bids almost never come out tie-free; the redraws stop early
    result = run_module("gen", "--goods", goods, "--bids", bids, "--seed", "1", timeout=10)
    assert result.returncode == 2, result.stderr
    assert json.loads(result.stdout) == {"error": {
        "kind": "error", "message": "could not draw a tie-free instance; lower the bid count",
    }}


@pytest.mark.parametrize("goods, bids", [("63", "1000000"), ("8", "200001")])
def test_gen_rejects_bid_counts_past_the_draw_limit(goods, bids):
    # no instance over 200,000 bids is drawn, however many goods it has
    result = run_module("gen", "--goods", goods, "--bids", bids, "--seed", "1", timeout=5)
    assert result.returncode == 2, result.stderr
    (error,) = json.loads(result.stdout).values()
    assert "0 to 200000 bids" in error["message"]


def test_gen_refuses_draws_past_the_goods_times_bids_budget():
    # one draw of 63 goods times 200,000 bids took seconds only to tie
    result = run_module("gen", "--goods", "63", "--bids", "200000", "--seed", "1", timeout=5)
    assert result.returncode == 4, result.stderr
    (error,) = json.loads(result.stdout).values()
    assert error["kind"] == "too-large"


def test_run_refuses_rank_keys_past_the_bit_budget(tmp_path):
    # twenty 990-digit amounts at l = 999/1000: each order key w**1000 has
    # 3.3 million bits, and building them all took seconds
    goods = [f"g{i}" for i in range(40)]
    bids = [
        {"bidder": f"b{i}", "bundle": goods[2 * i:2 * i + 2], "amount": f"{i + 1}{'0' * 988}7"}
        for i in range(20)
    ]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"goods": goods, "bids": bids}))
    result = run_module("run", str(path), "--norm-exponent", "999/1000", timeout=5)
    assert result.returncode == 4, result.stderr
    assert json.loads(result.stdout)["error"]["kind"] == "too-large"


def test_check_refuses_rerun_keys_past_the_bit_budget(tmp_path):
    # ten 990-digit amounts at l = 999/1000: each critical-value rerun raises
    # a probe amount to the 1000th power, and the check took 13-18 s
    goods = [f"g{i}" for i in range(6)]
    bids = [
        {"bidder": f"b{i}", "bundle": [goods[i % 6], goods[(i + 1 + i // 6) % 6]],
         "amount": f"{i + 1}{'0' * 988}7"}
        for i in range(10)
    ]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"goods": goods, "bids": bids}))
    result = run_module(
        "check", str(path), "--norm-exponent", "999/1000", "--axioms", "critical", timeout=5
    )
    assert result.returncode == 4, result.stderr
    error = json.loads(result.stdout)["error"]
    assert error["kind"] == "too-large" and "order keys" in error["message"]


def test_run_largest_norm_exponent(capsys, tmp_path):
    # narrow pays wide's crossing value, 5 / 8**1000, which must render without a float
    goods = [f"g{i}" for i in range(8)]
    doc = {
        "goods": goods,
        "bids": [
            {"bidder": "wide", "bundle": goods, "amount": "5"},
            {"bidder": "narrow", "bundle": ["g0"], "amount": "1"},
        ],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "run", str(path), "--norm-exponent", "1000")
    assert code == 0
    assert json.loads(out)["granted"][0]["norm"] == "1"


def test_run_smallest_norm_exponent_renders_quickly(tmp_path):
    # each norm divides by size**(1/1000), an integer 1000th root taken at
    # doubling precision; starting Newton at a power of two took 4 s (2-vCPU host)
    goods, bids = [], []
    for i, size in enumerate((2, 3, 4, 5, 2, 3, 4, 5)):
        bundle = [f"g{len(goods) + t}" for t in range(size)]
        goods += bundle
        bids.append({"bidder": f"b{i}", "bundle": bundle, "amount": f"{123456789 + 1000 * i}/1000"})
    path = tmp_path / "eight.json"
    path.write_text(json.dumps({"goods": goods, "bids": bids}))
    result = run_module("run", str(path), "--norm-exponent", "1/1000", timeout=5)
    assert result.returncode == 0, result.stderr
    granted = json.loads(result.stdout)["granted"]
    assert [g["norm"] for g in granted[:2]] == ["123371.244926", "123322.231232"]


@pytest.mark.parametrize(
    "goods, amount, exponent, norm",
    [
        (10, "7", "1000/3", "0." + "0" * 332 + "324911218353"),
        (3, "1e400", "1/3", "693361274351" + "0" * 388),
        (3, "9" * 999, "1/1000", "998901990965" + "0" * 987),
    ],
    ids=["ten-goods-1000/3", "1e400-1/3", "999-nines-1/1000"],
)
def test_run_norm_without_closed_form_renders_without_float(capsys, tmp_path, goods, amount, exponent, norm):
    # float(amount) / size ** float(l) overflowed on each of these
    bundle = [f"g{i}" for i in range(goods)]
    doc = {"goods": bundle, "bids": [{"bidder": "wide", "bundle": bundle, "amount": amount}]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "run", str(path), "--norm-exponent", exponent)
    assert code == 0
    assert json.loads(out)["granted"][0]["norm"] == norm


#: CPU seconds one fuzzed CLI call may spend.  `axioms.MAX_PLANNED_RERUNS`
#: bounds a check at about 7 s of reruns on a 2-vCPU host, so a call past
#: this budget has escaped the planner.
CALL_CPU_SECONDS = 20


@contextlib.contextmanager
def cpu_budget(seconds=CALL_CPU_SECONDS):
    """Fail the example when the block spends more than `seconds` of this
    process's CPU time: arms the profiling timer, whose SIGPROF raises
    `pytest.fail`'s exception (a `BaseException`, so no `except Exception`
    in the CLI swallows it), and restores the old timer and handler."""
    def expired(signum, frame):
        pytest.fail(f"a CLI call spent more than {seconds} s of CPU")

    handler = signal.signal(signal.SIGPROF, expired)
    timer = signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, *timer)
        signal.signal(signal.SIGPROF, handler)


def test_cpu_budget_fails_a_runaway_call_and_restores_the_timer():
    before = signal.getsignal(signal.SIGPROF)
    with pytest.raises(pytest.fail.Exception, match="more than 0.05 s of CPU"):
        with cpu_budget(0.05):
            while True:
                pass
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is before
    with cpu_budget(0.05):
        pass


_digits = st.text("0123456789", min_size=1, max_size=20)
_amount_literals = st.one_of(
    st.builds(lambda a, b: f"{a}.{b}", _digits, _digits),
    st.builds(lambda a, b: f"{a}/{b}", _digits, _digits),
    st.builds(lambda a, b: f"{a}{b}", st.sampled_from(["", "-"]), _digits),
)
_bids = st.lists(
    st.tuples(st.sets(st.sampled_from("abc"), min_size=1), _amount_literals),
    min_size=1, max_size=3,
)
_terms = st.integers(min_value=1, max_value=1000)


@given(
    _bids,
    st.integers(min_value=0, max_value=1000),
    _terms,
    st.sampled_from(["greedy", "clarke-greedy", "gva"]),
    st.sampled_from(["canonical", "reject"]),
)
@settings(max_examples=100, derandomize=True, deadline=None)
def test_fuzz_run_amounts_and_exponents(bids, p, q, mechanism, tie_rule):
    # exit 0, 2 or 3 with exactly one JSON document on stdout, never a traceback
    doc = {
        "goods": ["a", "b", "c"],
        "bids": [
            {"bidder": f"b{i}", "bundle": sorted(bundle), "amount": amount}
            for i, (bundle, amount) in enumerate(bids)
        ],
    }
    out = io.StringIO()
    with contextlib.redirect_stdout(out), mock.patch.object(sys, "stdin", io.StringIO(json.dumps(doc))):
        with cpu_budget():
            code = main(["run", "-", "--norm-exponent", f"{p}/{q}",
                         "--mechanism", mechanism, "--tie-rule", tie_rule])
    assert code in (0, 2, 3)
    json.loads(out.getvalue())


_counts = st.integers(min_value=-1, max_value=6)
_check_argv = st.builds(
    lambda axioms, mechanism, p, q, deviations: [
        "check", "-", "--axioms", axioms, "--mechanism", mechanism,
        "--norm-exponent", f"{p}/{q}", *(["--deviations"] if deviations else []),
    ],
    st.one_of(
        st.sampled_from(["all", "none"]),
        st.lists(st.sampled_from(AXIOMS + ("bogus",)), max_size=5).map(",".join),
    ),
    st.sampled_from(sorted(MECHANISMS)),
    st.integers(min_value=0, max_value=1000),
    _terms,
    st.booleans(),
)
_experiment_argv = st.builds(
    lambda suite, k, n, trials, exponent: [
        "experiment", "--suite", suite, "--k", str(k), "--n", str(n),
        "--trials", str(trials), "--l", exponent,
    ],
    st.sampled_from(["ratio", "tight"]),
    _counts,
    _counts,
    _counts,
    st.one_of(
        st.sampled_from(["0", "1/2", "1", "2"]),
        st.builds(lambda p, q: f"{p}/{q}", st.integers(min_value=0, max_value=1000), _terms),
    ),
)


@given(st.one_of(_check_argv, _experiment_argv))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_fuzz_check_and_experiment_flags(argv):
    # any exit code 0-4 with exactly one JSON document on stdout, never a traceback
    out = io.StringIO()
    with contextlib.redirect_stdout(out), mock.patch.object(sys, "stdin", io.StringIO(json.dumps(THREE))):
        with cpu_budget():
            code = main(argv)
    assert code in (0, 1, 2, 3, 4)
    json.loads(out.getvalue())


#: One fault at most per entry, so most documents get past the parser.
_ENTRY_FAULTS = [{}] * 10 + [
    {"bundle": []}, {"bundle": ["a", "a"]}, {"bundle": ["z"]}, {"bundle": "a"},
    {"amount": True}, {"amount": 1.5}, {"amount": float("nan")}, {"amount": None},
    {"amount": "1/0"}, {"amount": "x"}, {"amount": "-2"}, {"bidder": ""}, {"price": 1},
]


def _doc_entries(bidders, faults):
    return st.builds(
        lambda bidder, bundle, amount, fault: {
            "bidder": bidder, "bundle": bundle, "amount": amount, **fault
        },
        st.sampled_from(bidders),
        st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True),
        st.one_of(st.sampled_from(["9.5", "0.001", "7/3", "1e3"]), st.integers(0, 100)),
        st.sampled_from(faults),
    )


_documents = st.builds(
    lambda bids, true_types: dict(
        {"goods": ["a", "b", "c"], "bids": bids},
        **({} if true_types is None else {"true_types": true_types}),
    ),
    st.lists(_doc_entries(
        ["r", "g", "b", "w"], _ENTRY_FAULTS + [{"reserve": True}, {"reserve": "yes"}]
    ), max_size=4),
    st.none() | st.lists(_doc_entries(
        ["r", "g", "ghost"], _ENTRY_FAULTS + [{"reserve": False}]
    ), max_size=3),
)
_document_runs = st.tuples(
    st.sampled_from([
        ["run"], ["run", "--mechanism", "gva"],
        ["check"],
        ["check", "--axioms", "none", "--deviations"],
    ]),
    _documents,
).map(lambda pair: ([pair[0][0], "-", *pair[0][1:]], json.dumps(pair[1])))
_gen_runs = st.builds(
    lambda goods, bids, prob: (
        ["gen", "--goods", str(goods), "--bids", str(bids), "--bundle-prob", prob, "--seed", "1"],
        "",
    ),
    st.integers(min_value=-1, max_value=64),
    st.integers(min_value=-1, max_value=40),
    st.sampled_from(["0", "1e-300", "0.4", "1", "1.5", "nan"]),
)


@given(st.one_of(_document_runs, _gen_runs))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_fuzz_document_grammar_and_gen(run):
    # malformed documents and gen flags: exit 0-4 with exactly one JSON document
    argv, stdin = run
    out = io.StringIO()
    with contextlib.redirect_stdout(out), mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        with cpu_budget():
            code = main(argv)
    assert code in (0, 1, 2, 3, 4)
    json.loads(out.getvalue())


_check_amounts = st.one_of(
    st.sampled_from(["0", "1", "0.001", "1e-9", "7/3"]),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(1, 1000), st.integers(1, 1000)),
    st.integers(1, 9).map(lambda d: f"{d}{'0' * 198}{d}"),
    # the longest literal `parse_decimal` accepts
    st.integers(1, 9).map(lambda d: f"{d}{'0' * 998}{d}"),
)


@st.composite
def _check_runs(draw):
    """A check command line over a document of 1-4, 17, 40 or 63 goods and
    up to 5 bids."""
    goods = [f"g{i}" for i in range(draw(st.sampled_from([1, 2, 3, 4, 17, 40, 63])))]
    bids = draw(st.lists(
        st.tuples(st.sets(st.sampled_from(goods), min_size=1), _check_amounts, st.booleans()),
        max_size=5,
    ))
    doc = {"goods": goods, "bids": [
        {"bidder": f"b{i}", "bundle": sorted(bundle), "amount": amount,
         **({"reserve": True} if reserve else {})}
        for i, (bundle, amount, reserve) in enumerate(bids)
    ]}
    axioms = draw(st.one_of(
        st.sampled_from(["all", "none", "critical,bogus", "bogus"]),
        st.lists(st.sampled_from(AXIOMS), min_size=1, max_size=4, unique=True).map(",".join),
    ))
    argv = [
        "check", "-", "--axioms", axioms,
        "--mechanism", draw(st.sampled_from(sorted(MECHANISMS))),
        "--solver", draw(st.sampled_from(["dp", "brute"])),
        "--tie-rule", draw(st.sampled_from([r.value for r in TieRule])),
        "--norm-exponent", draw(st.sampled_from(["0", "1/2", "1", "2", "1/3", "999/1000"])),
        *(["--deviations"] if draw(st.booleans()) else []),
    ]
    return argv, json.dumps(doc)


#: Five 200-digit bids at l = 999/1000: the misreport search's order keys pass their budget.
_HUGE_KEYS_RUN = (
    ["check", "-", "--norm-exponent", "999/1000", "--axioms", "none", "--deviations"],
    json.dumps(_instance_doc(
        "abcd", [(f"b{i}", "abcd"[i % 4], f"{i + 1}{'0' * 198}{i + 1}") for i in range(5)]
    )),
)


@given(_check_runs())
@example(_HUGE_KEYS_RUN)
@example((["check", "-", "--tie-rule", "reject"], json.dumps(TIED)))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_fuzz_check_verb(run):
    # exit 0-4 with exactly one JSON document; a refusal or a tie says so in its kind
    argv, stdin = run
    out = io.StringIO()
    with contextlib.redirect_stdout(out), mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        with cpu_budget():
            code = main(argv)
    assert code in (0, 1, 2, 3, 4)
    doc = json.loads(out.getvalue())
    if code in (3, 4):
        assert doc["error"]["kind"] == ("ties" if code == 3 else "too-large")
