"""Command-line interface: verbs, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camech.axioms import AXIOMS, MECHANISMS
from camech.cli import main

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


@pytest.fixture()
def three_path(tmp_path):
    path = tmp_path / "three.json"
    path.write_text(json.dumps(THREE))
    return str(path)


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


def test_run_parse_error_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    code, out = run_cli(capsys, "run", str(path))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "parse"


def test_run_ties_rejected_exit_3(capsys, tmp_path):
    path = tmp_path / "tied.json"
    path.write_text(json.dumps(TIED))
    code, out = run_cli(capsys, "run", str(path), "--tie-rule", "reject")
    assert code == 3
    assert json.loads(out)["error"]["kind"] == "ties"


def test_gen_too_large_exit_4(capsys):
    code, out = run_cli(capsys, "gen", "--goods", "64", "--bids", "2")
    assert code == 4
    assert json.loads(out)["error"]["kind"] == "too-large"


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
    for argv in (["check", three_path, "--axioms", "none"], ["gen", "--goods", "2", "--bids", "2"],
                 ["experiment", "--suite", "ratio", "--trials", "1"]):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "parse" and "CAMECH_SEED" in error["message"]
    # an explicit --seed, and `run`, never read it
    assert run_cli(capsys, "gen", "--goods", "2", "--bids", "2", "--seed", "0")[0] == 0
    assert run_cli(capsys, "check", three_path, "--axioms", "none", "--seed", "0")[0] == 0
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
    args = ("check", three_path, "--seed", "5", "--samples", "4")
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


def test_entry_point_subprocess(three_path):
    result = subprocess.run(
        [sys.executable, "-m", "camech.cli", "run", three_path],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["revenue"] == "9.5"


# (argv, exit code, sha256 of stdout): any change to the bytes a command
# prints fails here.  THREE_PATH stands for the three-bid file.
GOLDEN = [
    (["gen", "--goods", "6", "--bids", "8", "--seed", "13"], 0,
     "e01f80ecd329393cd9586017e628c72011b503ffeadbfcfe5fedcf5b252ed040"),
    (["run", "THREE_PATH", "--mechanism", "greedy"], 0,
     "161ea60fc80c172a6d2b5bc4ac8c9f6066a3977c32892d95716803c4be893a37"),
    (["run", "THREE_PATH", "--mechanism", "gva"], 0,
     "1d485e09a87c54797e573a58587804a2ae68a86b0e27371fa74a2ea3735857d0"),
    (["check", "THREE_PATH", "--seed", "13", "--samples", "5"], 0,
     "7aa44bb7807fd7a9f8bfcca071bc24e351928e5677a41944e9347073113716d0"),
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
     "cd2d7e2ea622b1e4d2c806ea085769884e8313ad382b546319dedc6d00ca5b2f"),
    (["check", "THREE_PATH", "--mechanism", "clarke-greedy", "--deviations"], 1,
     "b58c00462dbc7a72624433252ea2050f3a5d291d857fa64909295186b918d534"),
    (["experiment", "--suite", "tight", "--l", "1/2"], 0,
     "3d9897e6e669db663373894bb010d21c0332c43fbc77a2d526d4d0d7ceedf26a"),
    (["experiment", "--suite", "tight", "--l", "1", "--k", "5"], 0,
     "7b6e23d4d486a99bf49bd38f16165db8244a17c2ebed2bdc750ecd83b928ca7f"),
    (["check", "THREE_PATH", "--mechanism", "clarke-greedy", "--axioms", "exactness,critical"], 1,
     "8222cc1d38b7dfbd1f7ac90734ea83f43e34fccef878b4dc8f2695754fb95513"),
    (["check", "THREE_PATH", "--axioms", "none", "--deviations"], 0,
     "6c311c45c92ae9cd58a0d095116be3132ec6adaeabb8c8b0033d76fc817866f5"),
    (["check", "THREE_PATH", "--norm-exponent", "1/2", "--seed", "13", "--samples", "5"], 0,
     "f9c34d9ebc4497458501d18a6adf5c3a2a84cec13a65d09c998fb4fd565960b7"),
    (["check", "GEN_PATH", "--mechanism", "clarke-greedy", "--norm-exponent", "1/2",
      "--deviations"], 1,
     "f4c1ac6b9811126d313e93e11b966b8c4683ea1f9b84c2a9b6f785133d7e85d2"),
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
        ["check", "THREE_PATH", "--samples", "-1"],
        ["run", "THREE_PATH", "--norm-exponent", "5000"],
        ["run", "THREE_PATH", "--norm-exponent", "1/10000000"],
        ["run", "THREE_PATH", "--norm-exponent", "10000000000000"],
        ["gen", "--goods", "3", "--bids", "2", "--bundle-prob", "1e-300"],
    ],
    ids=" ".join,
)
def test_out_of_range_flag_exit_2(three_path, argv):
    argv = [three_path if a == "THREE_PATH" else a for a in argv]
    result = subprocess.run(
        [sys.executable, "-m", "camech.cli", *argv],
        capture_output=True, text=True, timeout=5,
    )
    assert result.returncode == 2, result.stderr
    assert set(json.loads(result.stdout)) == {"error"}


@pytest.mark.parametrize(
    "amount", ["1e999999999", "1e-999999999", "1e5000", "1" * 1001],
    ids=["1e999999999", "1e-999999999", "1e5000", "1001-digits"],
)
def test_oversized_amount_literal_exit_2(tmp_path, amount):
    doc = json.loads(json.dumps(THREE))
    doc["bids"][0]["amount"] = amount
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    result = subprocess.run(
        [sys.executable, "-m", "camech.cli", "run", str(path)],
        capture_output=True, text=True, timeout=5,
    )
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
    result = subprocess.run(
        [sys.executable, "-m", "camech.cli", "run", str(path)],
        capture_output=True, text=True, timeout=10,
    )
    assert result.returncode == 2, result.stderr
    assert json.loads(result.stdout)["error"]["kind"] == "parse"


@pytest.mark.parametrize("bids", ["20000", "100000"])
def test_gen_gives_up_on_ties_quickly(bids):
    # so many bids almost never come out tie-free; the redraws stop early
    result = subprocess.run(
        [sys.executable, "-m", "camech.cli", "gen", "--goods", "8", "--bids", bids, "--seed", "1"],
        capture_output=True, text=True, timeout=10,
    )
    assert result.returncode == 2, result.stderr
    assert set(json.loads(result.stdout)) == {"error"}


@pytest.mark.parametrize("goods, bids", [("63", "1000000"), ("8", "200001")])
def test_gen_rejects_bid_counts_past_the_draw_limit(goods, bids):
    # no instance over 200,000 bids is drawn, however many goods it has
    result = subprocess.run(
        [sys.executable, "-m", "camech.cli", "gen", "--goods", goods, "--bids", bids, "--seed", "1"],
        capture_output=True, text=True, timeout=5,
    )
    assert result.returncode == 2, result.stderr
    (error,) = json.loads(result.stdout).values()
    assert "0 to 200000 bids" in error["message"]


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
        code = main(["run", "-", "--norm-exponent", f"{p}/{q}",
                     "--mechanism", mechanism, "--tie-rule", tie_rule])
    assert code in (0, 2, 3)
    json.loads(out.getvalue())


_counts = st.integers(min_value=-1, max_value=6)
_check_argv = st.builds(
    lambda axioms, samples, mechanism, p, q, deviations: [
        "check", "-", "--axioms", axioms, "--samples", str(samples), "--mechanism", mechanism,
        "--norm-exponent", f"{p}/{q}", *(["--deviations"] if deviations else []),
    ],
    st.one_of(
        st.sampled_from(["all", "none"]),
        st.lists(st.sampled_from(AXIOMS + ("bogus",)), max_size=5).map(",".join),
    ),
    st.integers(min_value=-1, max_value=5),
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
        ["check", "--samples", "2", "--seed", "1"],
        ["check", "--axioms", "none", "--deviations", "--seed", "1"],
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
        code = main(argv)
    assert code in (0, 1, 2, 3, 4)
    json.loads(out.getvalue())
