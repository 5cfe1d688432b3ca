"""End-to-end checks of the command-line interface via its main() entry."""
import argparse
import ast
import contextlib
import errno
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import snfair.cli
import snfair.fourier
import snfair.intersecting
import snfair.permutations
import snfair.verify
from snfair.cayley import SymmetricSet
from snfair.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, VERIFY_SUITES, _emit, main
from snfair.intersecting import stabilizer_set
from snfair.partitions import partitions_of
from snfair.payoffs import PayoffFn
from snfair.sets import OrderingSet
from snfair.verify import SUITES


def run(*argv):
    return main(list(argv))


# A valid three-transaction vote profile.
VOTES3 = {"n_tx": 3, "validators": [[1, 2, 3], [2, 1, 3], [1, 3, 2]]}


def write_stabilizer(path, n, pairs):
    members = stabilizer_set(n, pairs).members
    path.write_text(json.dumps({"n": n, "members": members.tolist()}))
    return str(path)


def test_gen_payoff_liquidation_16_ones(tmp_path):
    out = tmp_path / "liq.json"
    assert run(
        "gen-payoff", "--model", "liquidation", "--k", "2", "--c", "1",
        "--out", str(out),
    ) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["n"] == 4
    assert len(data["values"]) == 24
    assert set(data["values"]) == {0.0, 1.0}
    assert sum(data["values"]) == 16


def test_gen_payoff_junta_support(tmp_path):
    out = tmp_path / "junta.json"
    assert run(
        "gen-payoff", "--model", "junta", "--n", "4", "--pairs", "1:1",
        "--out", str(out),
    ) == EXIT_OK
    data = json.loads(out.read_text())
    assert sum(1 for v in data["values"] if v != 0) == 6


def test_gen_payoff_metadata_block(tmp_path):
    out = tmp_path / "f.json"
    run("gen-payoff", "--model", "random", "--n", "4", "--seed", "5", "--out", str(out))
    meta = json.loads(out.read_text())["metadata"]
    assert meta["tool"] == "snfair"
    assert meta["command"] == "gen-payoff"
    assert meta["config"]["seed"] == 5
    assert "tool_version" in meta
    # Nothing time-dependent may be embedded.
    assert not any("time" in k or "date" in k for k in meta)


def test_gen_payoff_missing_flags_is_usage_error(capsys):
    assert run("gen-payoff", "--model", "cfmm") == EXIT_USAGE
    assert "deltas" in capsys.readouterr().err


def test_gen_payoff_cfmm_negative_first_delta(tmp_path):
    # A trade list that opens with a sell parses in both spellings.
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen-payoff", "--model", "cfmm"]
    assert main(args + ["--deltas", "-3,1,2", "--out", str(a)]) == EXIT_OK
    assert main(args + ["--deltas=-3,1,2", "--out", str(b)]) == EXIT_OK
    assert json.loads(a.read_text())["values"] == json.loads(b.read_text())["values"]
    assert json.loads(a.read_text())["n"] == 3


def test_gen_payoff_repeat_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen-payoff", "--model", "random", "--n", "3", "--seed", "1"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_payoff_ints_past_int64_transform_as_their_floats(tmp_path):
    outputs = []
    for values in ("[%d, 1]" % 2**70, "[1.1805916207174113e+21, 1.0]"):
        payoff, spec = tmp_path / "f.json", tmp_path / f"spec{len(outputs)}.json"
        payoff.write_text('{"n": 2, "values": %s}' % values)
        assert run("transform", "--payoff", str(payoff), "--out", str(spec)) == EXIT_OK
        data = json.loads(spec.read_text())
        del data["metadata"]["input_hashes"]
        outputs.append(data)
    assert outputs[0] == outputs[1]
    assert outputs[0]["blocks"][0]["matrix"] == [[2**70 + 1.0]]


def test_transform_writes_blocks_and_csv(tmp_path):
    payoff = tmp_path / "f.json"
    spec = tmp_path / "spec.json"
    csv_path = tmp_path / "spec.csv"
    run("gen-payoff", "--model", "random", "--n", "4", "--seed", "1",
        "--out", str(payoff))
    assert run(
        "transform", "--payoff", str(payoff), "--out", str(spec),
        "--csv", str(csv_path),
    ) == EXIT_OK
    data = json.loads(spec.read_text())
    assert [b["lambda"] for b in data["blocks"]] == [
        [4], [3, 1], [2, 2], [2, 1, 1], [1, 1, 1, 1]
    ]
    assert "payoff" in data["metadata"]["input_hashes"]
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("lambda,")
    assert len(lines) == 6  # header + one row per shape


def test_analyze_full_report(tmp_path):
    payoff = tmp_path / "f.json"
    members = write_stabilizer(tmp_path / "set.json", 4, [(1, 1)])
    run("gen-payoff", "--model", "liquidation", "--k", "2", "--c", "1",
        "--out", str(payoff))
    report_path = tmp_path / "report.json"
    assert run(
        "analyze", "--payoff", str(payoff), "--set", members,
        "--out", str(report_path),
    ) == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["n"] == 4
    assert report["set_size"] == 6
    assert report["degree"] == 2
    assert report["intersection"]["t_max"] == 1
    fair = report["fairness"]
    assert fair["max_value"] == 1.0
    assert fair["additive_gap"] == pytest.approx(fair["max_value"] - fair["mean_value"])
    assert report["uncertainty_bound"]["slack"] >= -1e-9
    assert report["upper_regime"]["applicable"] is False
    assert report["lower_regime"]["applicable"] is True
    assert set(report["metadata"]["input_hashes"]) == {"payoff", "set"}


def test_analyze_size_mismatch_is_usage_error(tmp_path, capsys):
    payoff = tmp_path / "f.json"
    members = write_stabilizer(tmp_path / "set.json", 5, [(1, 1)])
    run("gen-payoff", "--model", "random", "--n", "4", "--seed", "0",
        "--out", str(payoff))
    assert run("analyze", "--payoff", str(payoff), "--set", members) == EXIT_USAGE
    assert "S_4" in capsys.readouterr().err


def test_analyze_missing_file_is_usage_error(tmp_path, capsys):
    members = write_stabilizer(tmp_path / "set.json", 4, [(1, 1)])
    assert run("analyze", "--payoff", "/no/such/file.json", "--set", members) == EXIT_USAGE
    assert "not found" in capsys.readouterr().err


def test_analyze_empty_set_is_usage_error(tmp_path, capsys):
    payoff = tmp_path / "f.json"
    empty = tmp_path / "empty.json"
    run("gen-payoff", "--model", "random", "--n", "4", "--out", str(payoff))
    empty.write_text(json.dumps({"n": 4, "members": []}))
    assert run("analyze", "--payoff", str(payoff), "--set", str(empty)) == EXIT_USAGE
    assert "empty" in capsys.readouterr().err


@pytest.mark.parametrize(
    "suite", ["roundtrip", "uncertainty", "eigenvalue", "indicator_degree", "claim1"]
)
def test_verify_suites_pass_at_n4(suite, tmp_path):
    out = tmp_path / "report.json"
    assert run("verify", "--suite", suite, "--n", "4", "--out", str(out)) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["cases"]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("suite", VERIFY_SUITES)
def test_every_suite_runs_or_names_its_smallest_n(suite, n, tmp_path, capsys):
    code = run("verify", "--suite", suite, "--n", str(n), "--out", str(tmp_path / "r.json"))
    err = capsys.readouterr().err.strip().splitlines()
    if code == EXIT_USAGE:
        assert len(err) == 1 and f"{suite} suite needs n >=" in err[0]
    else:
        assert code == EXIT_OK


def test_verify_suite_choices_are_the_suite_registry():
    assert VERIFY_SUITES == tuple(sorted(SUITES))


@pytest.mark.parametrize("suite", [name for name, row in SUITES.items() if row[1] > 1])
def test_each_suite_starts_at_its_rows_smallest_n(suite):
    _, smallest, why = SUITES[suite]
    with pytest.raises(ValueError) as below:
        snfair.verify.run(suite, smallest - 1, 0)
    assert str(below.value) == f"{suite} suite needs n >= {smallest} {why}"
    passed, rows = snfair.verify.run(suite, smallest, 0)
    assert passed and rows


def test_max_n_limit_is_the_librarys():
    assert snfair.cli.MAX_ENUMERABLE_N == snfair.permutations.MAX_ENUMERABLE_N


def test_verify_roundtrip_n5_exit_zero(tmp_path):
    out = tmp_path / "r5.json"
    assert run("verify", "--suite", "roundtrip", "--n", "5", "--out", str(out)) == EXIT_OK
    report = json.loads(out.read_text())
    assert all(c["max_abs_error"] <= 1e-9 for c in report["cases"])


def test_verify_roundtrip_n8_exit_zero(tmp_path):
    out = tmp_path / "r8.json"
    assert run("verify", "--suite", "roundtrip", "--n", "8", "--out", str(out)) == EXIT_OK
    report = json.loads(out.read_text())
    assert all(c["ok"] for c in report["cases"])


def test_verify_uncertainty_seed3_all_hold(tmp_path):
    out = tmp_path / "u.json"
    assert run(
        "verify", "--suite", "uncertainty", "--n", "4", "--seed", "3",
        "--out", str(out),
    ) == EXIT_OK
    report = json.loads(out.read_text())
    assert all(c["holds"] for c in report["cases"])
    assert sum(1 for c in report["cases"] if c["payoff"].startswith("uniform")) == 100


def test_verify_claim2_reports_instances(tmp_path):
    out = tmp_path / "c2.json"
    assert run("verify", "--suite", "claim2", "--n", "5", "--out", str(out)) == EXIT_OK
    report = json.loads(out.read_text())
    for case in report["cases"]:
        assert case["applicable"] is True
        assert case["implied_constant"] > 0


def test_verify_repeat_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--suite", "eigenvalue", "--n", "4", "--seed", "11"]
    assert run(*args, "--out", str(a)) == EXIT_OK
    assert run(*args, "--out", str(b)) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_verify_csv_rows_mirror_cases(tmp_path):
    out = tmp_path / "r.json"
    csv_path = tmp_path / "r.csv"
    run("verify", "--suite", "indicator_degree", "--n", "4",
        "--out", str(out), "--csv", str(csv_path))
    report = json.loads(out.read_text())
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == len(report["cases"]) + 1


def test_a_failing_case_fails_the_suite_and_keeps_every_row(monkeypatch, tmp_path, capsys):
    real = snfair.verify.inverse

    def off_for_the_constant(spec):
        back = real(spec)
        if np.ptp(back.values) > 1e-9:
            return back
        return PayoffFn(back.n, back.values + 1e-6)

    monkeypatch.setattr(snfair.verify, "inverse", off_for_the_constant)
    passed, rows = snfair.verify.run("roundtrip", 4, 0)
    assert passed is False
    assert [row["payoff"] for row in rows] == [
        "uniform_0", "uniform_1", "uniform_2", "uniform_3", "uniform_4",
        "sparse", "point_mass", "constant",
    ]
    assert [row["payoff"] for row in rows if not row["ok"]] == ["constant"]

    out = tmp_path / "r.json"
    code = run("verify", "--suite", "roundtrip", "--n", "4", "--out", str(out))
    assert code == EXIT_CHECK_FAILED
    report = json.loads(out.read_text())
    assert report["passed"] is False and report["cases"] == rows
    assert capsys.readouterr().err.strip().endswith("passed=NO")


@pytest.mark.parametrize(
    "suite, constant", [("roundtrip", "ROUNDTRIP_TOL"), ("claim1", "GAP_BOUND_SLACK")]
)
def test_the_suite_constant_is_what_gates(suite, constant, monkeypatch):
    # at n = 4 the round trip errs by up to 2.5e-16 and claim1's smallest
    # slack is -1.1e-13, so a zero tolerance fails both suites
    assert getattr(snfair.verify, constant) == 1e-9
    passed, rows = snfair.verify.run(suite, 4, 0)
    assert passed
    monkeypatch.setattr(snfair.verify, constant, 0.0)
    failed, tight_rows = snfair.verify.run(suite, 4, 0)
    assert not failed and len(tight_rows) == len(rows)
    assert not all(row["ok"] for row in tight_rows)


def test_simulate_adversarial_cycle(tmp_path):
    out = tmp_path / "sim.json"
    assert run(
        "simulate", "--latency", "adversarial_cycle", "--n-tx", "3",
        "--validators", "3", "--out", str(out),
    ) == EXIT_OK
    data = json.loads(out.read_text())
    assert len(data["members"]) == 6
    assert data["stats"]["t_max"] == 0
    assert data["stats"]["has_cycle"] is True
    assert data["votes"]["n_tx"] == 3


def test_simulate_accepts_vote_file(tmp_path):
    votes_path = tmp_path / "votes.json"
    votes_path.write_text(json.dumps({
        "n_tx": 3,
        "validators": [[1, 2, 3], [1, 3, 2], [1, 2, 3]],
    }))
    out = tmp_path / "sim.json"
    assert run("simulate", "--votes", str(votes_path), "--out", str(out)) == EXIT_OK
    data = json.loads(out.read_text())
    assert len(data["members"]) == 1
    assert data["stats"]["t_max"] == 3
    assert "votes" in data["metadata"]["input_hashes"]


def test_simulate_config_records_generation_flags_only_when_it_generates(tmp_path):
    votes, a, b = tmp_path / "votes.json", tmp_path / "a.json", tmp_path / "b.json"
    votes.write_text(json.dumps(VOTES3))
    assert run("simulate", "--votes", str(votes), "--out", str(a)) == EXIT_OK
    assert json.loads(a.read_text())["metadata"]["config"] == {
        "command": "simulate", "max_n": 8, "votes": str(votes),
    }
    assert run("simulate", "--out", str(b)) == EXIT_OK
    assert json.loads(b.read_text())["metadata"]["config"] == {
        "command": "simulate", "latency": "iid_shuffle", "max_n": 8, "n_tx": 4, "seed": 0,
        "validators": 5,
    }


@pytest.mark.parametrize(
    "argv, config",
    [
        (["--model", "cfmm", "--deltas", "1,2"],
         {"deltas": "1,2", "p0": 100.0, "gamma": 0.001, "beta": 1.0}),
        (["--model", "liquidation", "--k", "2", "--c", "1"], {"k": 2, "c": 1}),
        (["--model", "junta", "--n", "3", "--pairs", "1:1"],
         {"n": 3, "pairs": "1:1", "coeff": 1.0}),
        (["--model", "random", "--n", "3"], {"n": 3, "dist": "uniform01", "seed": 0}),
        (["--model", "random", "--n", "3", "--dist", "sparse", "--nonzero", "2", "--seed", "4"],
         {"n": 3, "dist": "sparse", "nonzero": 2, "seed": 4}),
    ],
    ids=["cfmm", "liquidation", "junta", "random", "random-sparse"],
)
def test_gen_payoff_config_records_only_the_models_flags(argv, config, tmp_path):
    out = tmp_path / "f.json"
    assert run("gen-payoff", *argv, "--out", str(out)) == EXIT_OK
    model = argv[1]
    expected = {"command": "gen-payoff", "max_n": 8, "model": model, **config}
    assert json.loads(out.read_text())["metadata"]["config"] == expected


def test_simulate_seed_changes_output(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run("simulate", "--n-tx", "4", "--validators", "3", "--seed", "1", "--out", str(a))
    run("simulate", "--n-tx", "4", "--validators", "3", "--seed", "2", "--out", str(b))
    va = json.loads(a.read_text())["votes"]["validators"]
    vb = json.loads(b.read_text())["votes"]["validators"]
    assert va != vb


def test_capacity_guard_respected(capsys):
    assert run("gen-payoff", "--model", "random", "--n", "9") == EXIT_USAGE


def test_indicator_of_a_set_past_max_n_is_usage_error(tmp_path):
    big = tmp_path / "set9.json"
    big.write_text(json.dumps({"n": 9, "members": [0]}))
    assert run("gen-payoff", "--model", "indicator", "--set", str(big)) == EXIT_USAGE


def test_verify_past_max_n_is_usage_error(tmp_path):
    out = tmp_path / "report.json"
    assert run("verify", "--suite", "eigenvalue", "--n", "9", "--out", str(out)) == EXIT_USAGE
    assert not out.exists()


def test_each_command_declares_exactly_the_flags_it_reads():
    common = {"--out", "--max-n"}
    expected = {
        "gen-payoff": common | {
            "--model", "--deltas", "--p0", "--gamma", "--beta", "--k", "--c", "--n",
            "--pairs", "--coeff", "--set", "--dist", "--nonzero", "--seed",
        },
        "transform": common | {"--payoff", "--csv"},
        "analyze": common | {"--payoff", "--set", "--csv", "--tol"},
        "verify": common | {"--suite", "--n", "--csv", "--seed"},
        "simulate": common | {"--votes", "--latency", "--n-tx", "--validators", "--seed"},
    }
    parser = snfair.cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    declared = {
        name: {opt for a in sub._actions for opt in a.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }
    assert declared == expected
    assert sum(map(len, declared.values())) == 39
    analyze = commands.choices["analyze"]
    assert analyze.get_default("tol") == snfair.fourier.DEGREE_TOL


# One command line per way through a command's flags, and the dests of the
# flags it reads besides --out and --max-n.
PATHS = {
    "cfmm": (["gen-payoff", "--model", "cfmm", "--deltas", "1,2"],
             {"model", "deltas", "p0", "gamma", "beta"}),
    "liquidation": (["gen-payoff", "--model", "liquidation", "--k", "2", "--c", "1"],
                    {"model", "k", "c"}),
    "junta": (["gen-payoff", "--model", "junta", "--n", "3", "--pairs", "1:1"],
              {"model", "n", "pairs", "coeff"}),
    "indicator": (["gen-payoff", "--model", "indicator", "--set", "{set}"], {"model", "set"}),
    "random": (["gen-payoff", "--model", "random", "--n", "3"], {"model", "n", "dist", "seed"}),
    "random-sparse": (["gen-payoff", "--model", "random", "--n", "3", "--dist", "sparse",
                       "--nonzero", "2"], {"model", "n", "dist", "nonzero", "seed"}),
    "transform": (["transform", "--payoff", "{payoff}"], {"payoff"}),
    "analyze": (["analyze", "--payoff", "{payoff}", "--set", "{set}"], {"payoff", "set", "tol"}),
    "verify": (["verify", "--suite", "claim2"], {"suite", "n", "seed"}),
    "simulate": (["simulate", "--n-tx", "3"], {"latency", "n_tx", "validators", "seed"}),
    "simulate-votes": (["simulate", "--votes", "{votes}"], {"votes"}),
}


def _path_inputs(tmp_path):
    """Paths of a valid n = 3 payoff, ordering set and vote profile,
    written under tmp_path and keyed by the label of their input flag."""
    documents = {
        "payoff": {"n": 3, "values": [1.0, 2.0, 0.5, 3.0, 0.0, 1.5]},
        "set": {"n": 3, "members": [0, 1, 4]},
        "votes": VOTES3,
    }
    paths = {}
    for label, document in documents.items():
        paths[label] = str(tmp_path / f"{label}.json")
        (tmp_path / f"{label}.json").write_text(json.dumps(document))
    return paths


# Every row of cli.FLAGS that is read only under a condition.
CONDITIONAL = [(cmd, row) for cmd, rows in snfair.cli.FLAGS.items() for row in rows if row[2]]


@pytest.mark.parametrize(
    "command, row", CONDITIONAL, ids=[f"{command} {row[0]}" for command, row in CONDITIONAL]
)
def test_a_conditional_flag_is_given_only_where_read_and_then_if_needed(
    command, row, tmp_path, capsys
):
    # on each path of its command, the flag given where it is not read, or
    # a NEEDED one left out where it is, is one usage-error line naming it
    flag, default, when, kind = row[:4]
    key = flag[2:].replace("-", "_")
    dests = [r[0][2:].replace("-", "_") for r in snfair.cli.FLAGS[command]]
    assert set(when) <= set(dests[: dests.index(key)])  # conditions are settled first
    paths = _path_inputs(tmp_path)
    checked = 0
    for argv, reads in PATHS.values():
        if argv[0] != command:
            continue
        argv = [arg.format(**paths) for arg in argv]
        if key not in reads:
            value = "2" if isinstance(kind, type) else kind[0]
            line = f"error: argument {flag}: not allowed with "
            assert run(*argv, flag, value) == EXIT_USAGE
        elif default is snfair.cli.NEEDED:
            i = argv.index(flag)
            line = f" needs {flag}"
            assert run(*argv[:i], *argv[i + 2:]) == EXIT_USAGE
        else:
            continue
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and line in err[0]
        checked += 1
    assert checked


@pytest.mark.parametrize("path", PATHS)
def test_config_records_exactly_the_flags_each_path_reads(path, tmp_path):
    argv, reads = PATHS[path]
    argv = [arg.format(**_path_inputs(tmp_path)) for arg in argv]
    out = tmp_path / "out.json"
    assert run(*argv, "--out", str(out)) == EXIT_OK
    expected = {"command": argv[0], "max_n": 8}
    for flag, default, _, kind, *_ in snfair.cli.FLAGS[argv[0]]:
        key = flag[2:].replace("-", "_")
        if key in reads and flag in argv:
            given = argv[argv.index(flag) + 1]
            expected[key] = kind(given) if isinstance(kind, type) else given
        elif key in reads:
            expected[key] = default
    assert json.loads(out.read_text())["metadata"]["config"] == expected


def test_transform_config_records_only_the_flags_it_reads(tmp_path):
    payoff, out = tmp_path / "f.json", tmp_path / "spec.json"
    payoff.write_text(json.dumps({"n": 2, "values": [1.0, 2.0]}))
    assert run("transform", "--payoff", str(payoff), "--out", str(out)) == EXIT_OK
    config = json.loads(out.read_text())["metadata"]["config"]
    assert config == {"command": "transform", "max_n": 8, "payoff": str(payoff)}


@pytest.mark.parametrize(
    "argv, content, reason",
    [
        (["transform", "--payoff", "{path}"], {"values": [1.0]}, "malformed"),
        (["transform", "--payoff", "{path}"], [2, [1.0, 2.0]], "malformed"),
        (["transform", "--payoff", "{path}"], {"n": 2.7, "values": [1.0, 2.0]}, "group size"),
        (["transform", "--payoff", "{path}"], {"n": True, "values": [1.0]}, "group size"),
        (["transform", "--payoff", "{path}"], {"n": "8", "values": [1.0]}, "group size"),
        (["gen-payoff", "--model", "indicator", "--set", "{path}"],
         {"n": 300000, "members": []}, "group size"),
        (["verify", "--suite", "roundtrip", "--n", "0"], None, "group size"),
        (["gen-payoff", "--model", "indicator", "--set", "{path}"],
         {"n": 3, "members": [0, 2.7]}, "members"),
        (["gen-payoff", "--model", "indicator", "--set", "{path}"],
         {"n": 3, "members": [0, True]}, "members"),
        (["gen-payoff", "--model", "indicator", "--set", "{path}"],
         {"n": 3, "members": 5}, "members"),
        (["simulate", "--votes", "{path}"],
         {"n_tx": 3, "validators": [[1, 2.9, 3], [1, 2, 3]]}, "validators"),
        (["simulate", "--votes", "{path}"], {"n_tx": 3, "validators": 5}, "validators"),
        (["transform", "--payoff", "{path}"], {"n": 3, "values": [1, "2", 3, 4, 5, 6]}, "values"),
        (["transform", "--payoff", "{path}"], {"n": 3, "values": [1, True, 3, 4, 5, 6]}, "values"),
        (["transform", "--payoff", "{path}"], {"n": 3, "values": 5}, "values"),
        (["gen-payoff", "--model", "indicator", "--set", "{path}"], {"n": 3, "members": [0, None]},
         "malformed ordering set file {path}: members must be a 1-D sequence of integer ranks"),
        (["gen-payoff", "--model", "indicator", "--set", "{path}"],
         {"n": 3, "members": [[0], [1]]},
         "malformed ordering set file {path}: members must be a 1-D sequence of integer ranks"),
        (["gen-payoff", "--model", "indicator", "--set", "{path}"],
         {"n": 3, "members": [0, 2**70]},
         "malformed ordering set file {path}: members must be a 1-D sequence of integer ranks"),
        (["gen-payoff", "--model", "indicator", "--set", "{path}"], {"n": 3, "members": [4, 1]},
         "malformed ordering set file {path}: members must be strictly increasing ranks in [0, 6)"),
        (["gen-payoff", "--model", "indicator", "--set", "{path}"], {"n": 3, "members": [1, 1]},
         "malformed ordering set file {path}: members must be strictly increasing ranks in [0, 6)"),
        (["gen-payoff", "--model", "indicator", "--set", "{path}"], {"n": 3, "members": [-1, 0]},
         "malformed ordering set file {path}: members must be strictly increasing ranks in [0, 6)"),
        (["gen-payoff", "--model", "indicator", "--set", "{path}"], {"n": 3, "members": [0, 6]},
         "malformed ordering set file {path}: members must be strictly increasing ranks in [0, 6)"),
        (["transform", "--payoff", "{path}"], {"n": 2, "values": [None, 1]},
         "malformed payoff file {path}: payoff values must be real numbers"),
        (["analyze", "--payoff", "{path}", "--set", "{path}", "--tol", "nan"], None, "--tol"),
        (["verify", "--suite", "claim1", "--tol", "inf"], None, "--tol"),
        (["gen-payoff", "--model", "random", "--n", "3", "--tol", "-1"], None, "--tol"),
        (["analyze", "--payoff", "{path}", "--set", "{path}", "--tol", "inf"], None,
         "--tol must be a finite number >= 0, got inf"),
        (["analyze", "--payoff", "{path}", "--set", "{path}", "--tol", "-1"], None,
         "--tol must be a finite number >= 0, got -1.0"),
        (["gen-payoff", "--model", "random", "--n", "3", "--seed", "-1"], None,
         "--seed must be an integer >= 0, got -1"),
        (["transform", "--payoff", "{dir}"], None, "Is a directory: {dir}"),
        (["gen-payoff", "--model", "random", "--n", "3", "--out", "{dir}/missing/x.json"], None,
         "No such file or directory: {dir}/missing/x.json"),
        (["transform", "--payoff", "{path}", "--csv", "{dir}/missing/x.csv"],
         {"n": 2, "values": [1.0, 2.0]}, "No such file or directory: {dir}/missing/x.csv"),
        (["verify", "--suite", "claim2", "--n", "4", "--out", "{dir}"], None,
         "Is a directory: {dir}"),
        (["transform", "--payoff", "{path}"], b'{"n": 2, "values": [1e400, 1]}',
         "malformed payoff file {path}: payoff values must be finite"),
        (["transform", "--payoff", "{path}"], b'{"n": 2, "values": [1' + b"0" * 400 + b", 1]}",
         "malformed payoff file {path}: payoff values must be finite"),
        # finite, but the transform's norms would overflow
        (["analyze", "--payoff", "{path}", "--set", "{path}"],
         {"n": 4, "values": [1e160] + [0.0] * 23},
         "malformed payoff file {path}: payoff values must not exceed 1e+100 in magnitude"),
        (["transform", "--payoff", "{path}", "--out", "{dir}/spec.json"],
         {"n": 3, "values": [1e308] * 6},
         "malformed payoff file {path}: payoff values must not exceed 1e+100 in magnitude"),
        (["gen-payoff", "--model", "cfmm", "--deltas", "1e200,1,2"], None,
         "payoff values must be finite"),
        (["transform", "--payoff", "{path}"],
         b'{"n": 2, "values": [1, 2], "x": ' + b"[" * 100000 + b"]" * 100000 + b"}",
         "malformed payoff file {path}: nested too deeply"),
        (["simulate", "--votes", "{path}"],
         b'{"n_tx": 2, "validators": ' + b"[" * 100000 + b"]" * 100000 + b"}",
         "malformed votes file {path}: nested too deeply"),
        (["gen-payoff", "--model", "indicator", "--set", "{path}"],
         b'{"n": 2, "members": [0], "x": "\xff"}',
         "malformed ordering set file {path}: 'utf-8' codec can't decode byte 0xff"),
        (["gen-payoff", "--model", "junta", "--n", "4", "--pairs", "1:1,1:2"], None,
         "slots and items must each be distinct: [(1, 1), (1, 2)]"),
        (["gen-payoff", "--model", "junta", "--n", "4", "--pairs", "1:2,3:2"], None,
         "slots and items must each be distinct: [(1, 2), (3, 2)]"),
        (["gen-payoff", "--model", "junta", "--n", "4", "--pairs", "0:1"], None,
         "pair (0, 1) outside 1..4"),
        (["gen-payoff", "--model", "junta", "--pairs", "5:1", "--n", "4"], None,
         "pair (5, 1) outside 1..4"),
        (["transform", "--payoff", "{path}", "--csvv", "x.csv"], None,
         "unrecognized arguments: --csvv x.csv"),
        (["analyze", "--payoff", "{path}"], None,
         "the following arguments are required: --set"),
        (["verify", "--suite", "claim3"], None, "argument --suite: invalid choice: 'claim3'"),
        (["verify", "--n", "x", "--suite", "claim1"], None, "argument --n: invalid int value: 'x'"),
        ([], None, "the following arguments are required: command"),
        # flags the command does not read
        (["gen-payoff", "--model", "random", "--n", "3", "--tol", "1e-3"], None,
         "error: unrecognized arguments: --tol 1e-3"),
        (["transform", "--payoff", "{path}", "--seed", "7"], None,
         "error: unrecognized arguments: --seed 7"),
        (["transform", "--payoff", "{path}", "--tol", "123"], None,
         "error: unrecognized arguments: --tol 123"),
        (["analyze", "--payoff", "{path}", "--set", "{path}", "--seed", "1"], None,
         "error: unrecognized arguments: --seed 1"),
        (["simulate", "--n-tx", "3", "--tol", "1e-3"], None,
         "error: unrecognized arguments: --tol 1e-3"),
        (["verify", "--suite", "roundtrip", "--tol", "1e-9"], None,
         "error: unrecognized arguments: --tol 1e-9"),
        # generation flags next to a votes file, which replaces generation
        (["simulate", "--votes", "{path}", "--n-tx", "3"], VOTES3,
         "error: argument --n-tx: not allowed with argument --votes"),
        (["simulate", "--votes", "{path}", "--validators", "3"], VOTES3,
         "error: argument --validators: not allowed with argument --votes"),
        (["simulate", "--latency", "iid_shuffle", "--votes", "{path}"], VOTES3,
         "error: argument --latency: not allowed with argument --votes"),
        (["simulate", "--votes", "{path}", "--seed", "0"], VOTES3,
         "error: argument --seed: not allowed with argument --votes"),
        # flags of another gen-payoff model
        (["gen-payoff", "--model", "liquidation", "--k", "2", "--c", "1", "--p0", "5",
          "--dist", "sparse"], None, "error: argument --p0: not allowed with --model liquidation"),
        (["gen-payoff", "--model", "cfmm", "--deltas", "1,2", "--seed", "3"], None,
         "error: argument --seed: not allowed with --model cfmm"),
        (["gen-payoff", "--model", "random", "--n", "3", "--coeff", "1"], None,
         "error: argument --coeff: not allowed with --model random"),
        (["gen-payoff", "--model", "junta", "--n", "3", "--pairs", "1:1", "--nonzero", "2"],
         None, "error: argument --nonzero: not allowed with --model junta"),
        (["gen-payoff", "--model", "indicator", "--set", "{path}", "--n", "3"],
         {"n": 3, "members": [0]}, "error: argument --n: not allowed with --model indicator"),
        (["gen-payoff", "--model", "cfmm", "--deltas", "1,2", "--k", "1"], None,
         "error: argument --k: not allowed with --model cfmm"),
        # --nonzero is read only by the sparse distribution
        (["gen-payoff", "--model", "random", "--n", "3", "--nonzero", "2"], None,
         "error: argument --nonzero: not allowed with --dist uniform01"),
        (["gen-payoff", "--model", "random", "--n", "3", "--dist", "sparse"], None,
         "error: --model random --dist sparse needs --nonzero"),
        # --max-n past the library's limit, or below 1
        (["gen-payoff", "--model", "random", "--n", "3", "--max-n", "0"], None,
         "error: --max-n must be an integer from 1 to 10, got 0"),
        (["gen-payoff", "--model", "random", "--n", "3", "--max-n", "-5"], None,
         "error: --max-n must be an integer from 1 to 10, got -5"),
        (["gen-payoff", "--model", "random", "--n", "11", "--max-n", "11"], None,
         "error: --max-n must be an integer from 1 to 10, got 11"),
    ],
    ids=["no-n", "top-level-list", "float-n", "bool-n", "string-n", "huge-n", "verify-n0",
         "float-member", "bool-member", "scalar-members", "float-vote", "scalar-validators",
         "string-value", "bool-value", "scalar-values", "null-member", "nested-members",
         "member-past-int64", "unsorted-members", "repeated-member", "negative-member",
         "member-past-n-factorial", "null-value", "tol-nan", "tol-inf", "tol-negative",
         "analyze-tol-inf", "analyze-tol-negative", "seed-negative", "payoff-is-dir",
         "out-dir-missing", "csv-dir-missing",
         "verify-out-is-dir", "float-past-range-value", "int-past-float-value",
         "point-mass-past-limit", "constant-past-limit", "cfmm-overflow", "deep-payoff",
         "deep-votes", "non-utf8-set", "junta-repeated-slot", "junta-repeated-item",
         "junta-slot-zero", "junta-slot-past-n", "unknown-flag", "missing-flag",
         "bad-suite", "bad-int", "no-command", "unread-gen-payoff-tol", "unread-transform-seed",
         "unread-transform-tol", "unread-analyze-seed", "unread-simulate-tol",
         "unread-verify-tol", "votes-with-n-tx", "votes-with-validators",
         "votes-with-latency", "votes-with-seed", "liquidation-with-p0", "cfmm-with-seed",
         "random-with-coeff", "junta-with-nonzero", "indicator-with-n", "cfmm-with-k",
         "dense-with-nonzero", "sparse-without-nonzero", "max-n-0", "max-n-negative",
         "max-n-11"],
)
def test_malformed_input_is_one_line_usage_error(argv, content, reason, tmp_path, capsys):
    # bytes are the file's raw text; anything else is written as JSON
    path = tmp_path / "input.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(json.dumps(content))
    # pytest records warnings in-process, so capsys would never see one
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(*(arg.format(path=path, dir=tmp_path) for arg in argv)) == EXIT_USAGE
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and reason.format(path=path, dir=tmp_path) in err[0]
    assert not (tmp_path / "spec.json").exists()


@pytest.mark.parametrize(
    "argv, labels",
    [
        (["analyze", "--payoff", "{payoff}", "--set", "{set}"], {"payoff", "set"}),
        (["gen-payoff", "--model", "indicator", "--set", "{set}"], {"set"}),
        (["simulate", "--votes", "{votes}"], {"votes"}),
    ],
    ids=["analyze", "gen-payoff-indicator", "simulate-votes"],
)
def test_each_input_file_is_opened_once_and_hashed_from_its_bytes(argv, labels, tmp_path):
    # CRLF line ends and a non-ASCII note: the bytes differ from their text
    documents = {
        "payoff": {"n": 3, "values": [1.0, 2.0, 0.5, 3.0, 0.0, 1.5], "note": "café"},
        "set": {"n": 3, "members": [0, 1, 4], "note": "café"},
        "votes": {"n_tx": 3, "validators": [[1, 2, 3], [2, 1, 3], [1, 3, 2]], "note": "café"},
    }
    paths = {}
    for label, document in documents.items():
        paths[label] = str(tmp_path / f"{label}.json")
        text = json.dumps(document, indent=1, ensure_ascii=False).replace("\n", "\r\n")
        with open(paths[label], "wb") as fh:
            fh.write(text.encode("utf-8"))
    out = tmp_path / "out.json"
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    with mock.patch("builtins.open", counting_open):
        code = run(*(arg.format(**paths) for arg in argv), "--out", str(out))
    assert code == EXIT_OK
    hashes = json.loads(out.read_text())["metadata"]["input_hashes"]
    assert set(hashes) == labels
    for label in labels:
        assert opened.count(paths[label]) == 1
        with open(paths[label], "rb") as fh:
            assert hashes[label] == hashlib.sha256(fh.read()).hexdigest()


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=300))
@example(bytes(range(55)))
@example(bytes(range(56)))
@example(bytes(range(64)))
@example(bytes(range(65)))
def test_input_digest_is_hashlib_sha256(data):
    # 55, 56, 64 and 65 bytes sit at the edges of SHA-256's length padding
    assert snfair.cli._sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_input_digest_of_a_buffer_past_8_mb_is_hashlib_sha256():
    data = np.random.default_rng(0).bytes(8 * 2**20 + 65)
    assert snfair.cli._sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "content, code",
    [
        ('{"n": 3, "members": [0, 2], "note": "café"}'.encode("utf-8"), EXIT_OK),
        (b'{"n": 2, "members": [0], "x": "\xff"}', EXIT_USAGE),
    ],
    ids=["utf8", "not-utf8"],
)
def test_input_files_are_utf8_whatever_the_locale(content, code, tmp_path):
    path = tmp_path / "set.json"
    path.write_bytes(content)
    env = dict(os.environ, PYTHONUTF8="0", LC_ALL="POSIX", PYTHONCOERCECLOCALE="0")
    proc = subprocess.run(
        [sys.executable, "-m", "snfair.cli", "gen-payoff", "--model", "indicator",
         "--set", str(path), "--out", str(tmp_path / "ind.json")],
        env=env, capture_output=True,
    )
    assert proc.returncode == code
    if code == EXIT_USAGE:
        err = proc.stderr.decode("ascii", "backslashreplace").strip().splitlines()
        assert len(err) == 1 and f"malformed ordering set file {path}" in err[0]


def test_integer_values_past_2_53_stay_valid(tmp_path):
    payoff = tmp_path / "f.json"
    payoff.write_text(json.dumps({"n": 2, "values": [2**60, 1]}))
    assert run("transform", "--payoff", str(payoff), "--out", str(tmp_path / "s.json")) == EXIT_OK


def test_analyze_tol_reaches_regime_reports(tmp_path):
    # A near-constant payoff: every non-trivial block sits below 1e-3 * ||f||.
    values = 1.0 + 1e-6 * np.random.default_rng(0).random(120)
    payoff = tmp_path / "f.json"
    payoff.write_text(json.dumps({"n": 5, "values": values.tolist()}))
    members = write_stabilizer(tmp_path / "set.json", 5, [(1, 1)])
    out = tmp_path / "report.json"
    assert run(
        "analyze", "--payoff", str(payoff), "--set", members, "--tol", "1e-3",
        "--out", str(out),
    ) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["degree"] == 0
    assert report["upper_regime"]["degree"] == 0
    assert report["lower_regime"]["degree"] == 0
    assert report["upper_regime"]["applicable"] is True


@pytest.mark.parametrize(
    "values, ranks, reason",
    [
        ([-1.0, -2.0, -3.0, -1.0, -2.0, -3.0], range(6), "negative values"),
        ([1.0, -1.0, -1.0, -1.0, -1.0, -1.0], range(6), "negative values"),
        ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0], "identically zero"),
    ],
    ids=["all-negative", "mixed-sign", "zero"],
)
def test_analyze_reports_bounds_only_for_nonnegative_nonzero_restrictions(
    values, ranks, reason, tmp_path
):
    payoff = tmp_path / "f.json"
    payoff.write_text(json.dumps({"n": 3, "values": values}))
    members = tmp_path / "set.json"
    members.write_text(json.dumps({"n": 3, "members": list(ranks)}))
    out = tmp_path / "report.json"
    assert run(
        "analyze", "--payoff", str(payoff), "--set", str(members), "--out", str(out)
    ) == EXIT_OK
    report = json.loads(out.read_text())
    assert reason in report["note"]
    assert report["uncertainty_bound"] is None
    assert report["upper_regime"] is None and report["lower_regime"] is None


def test_main_alone_writes_every_output():
    # Each command returns its payload, CSV rows and summary line, and
    # main writes them: one call of each writer, and no cmd_* prints or
    # touches sys.stdout or sys.stderr.
    with open(snfair.cli.__file__) as fh:
        tree = ast.parse(fh.read())
    callers = {"_emit": [], "_emit_csv": [], "_metadata": [], "print": [], "sys": []}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    callers.get(node.func.id, []).append(fn.name)
                elif isinstance(node, ast.Name) and node.id == "sys":
                    callers["sys"].append(fn.name)
    assert callers["_emit"] == callers["_emit_csv"] == callers["_metadata"] == ["main"]
    assert [name for name in callers["print"] + callers["sys"] if name.startswith("cmd_")] == []
    commands = [fn.name for fn in tree.body
                if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")]
    assert len(commands) == 5


def test_emit_writes_numpy_values_as_their_builtins(tmp_path):
    with_numpy = {
        "gap": np.float64(0.1) + np.float64(0.2),
        "count": np.int64(7),
        "ok": np.bool_(True),
        "ranks": np.arange(3),
        "rows": [{"x": np.float64(1.5), "y": None}],
    }
    builtins = {
        "gap": 0.1 + 0.2,
        "count": 7,
        "ok": True,
        "ranks": [0, 1, 2],
        "rows": [{"x": 1.5, "y": None}],
    }
    _emit(with_numpy, str(tmp_path / "numpy.json"))
    _emit(builtins, str(tmp_path / "builtins.json"))
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "builtins.json").read_bytes()


def _as_pair(value):
    """(value as _emit receives it, its builtin form for json.dumps)."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value, value.tolist()
    return value, value


_ARRAYS = st.one_of(
    hnp.arrays(
        st.sampled_from([np.int64, np.float64, np.bool_]),
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
    ),
    st.integers(0, 40).map(np.arange),  # past several chunks of the patched size
)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    _ARRAYS,
).map(_as_pair)


def _containers(children):
    def unzip(pairs):
        return [p[0] for p in pairs], [p[1] for p in pairs]

    return st.one_of(
        st.lists(children, max_size=4).map(unzip),
        st.lists(children, max_size=3).map(unzip).map(lambda p: (tuple(p[0]), p[1])),
        st.dictionaries(st.text(max_size=4), children, max_size=4).map(
            lambda d: ({k: v[0] for k, v in d.items()}, {k: v[1] for k, v in d.items()})
        ),
    )


@settings(max_examples=200, deadline=None)
@given(st.recursive(_LEAVES, _containers, max_leaves=12), st.sampled_from([1, 3, 4096]))
def test_emit_streams_exactly_what_indented_json_dumps_writes(pair, chunk):
    value, builtin = pair
    out = io.StringIO()
    rows = mock.patch.object(snfair.permutations, "ROW_CHUNK", chunk)
    with rows, contextlib.redirect_stdout(out):
        _emit(value, None)
    assert out.getvalue() == json.dumps(builtin, indent=2, sort_keys=True) + "\n"


def test_emit_of_a_full_n9_set_stays_well_below_its_list_form(tmp_path):
    members = OrderingSet.full_group(9).members  # 362880 ranks
    tracemalloc.start()
    try:
        _emit({"n": 9, "members": members}, str(tmp_path / "set.json"))
        emit_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        as_list = members.tolist()
        list_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(as_list) == 362880 and list_peak > 10e6  # about 14 MB
    assert emit_peak < list_peak / 4
    # one ROW_CHUNK of ints as Python objects and their text
    assert emit_peak <= 2**20


def test_equality_payoffs_hand_their_arrays_over():
    # Built owned and read-only, the point mass and the constant are kept
    # by PayoffFn as they are: the peak is the two n! arrays it keeps.
    list(snfair.verify._equality_payoffs(2))
    tracemalloc.start()
    try:
        cases = list(snfair.verify._equality_payoffs(9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [label for label, _ in cases] == ["point_mass", "constant"]
    assert peak <= 2 * 8 * 362880 + 64 * 1024


def _count_calls(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_claim1_transforms_each_payoff_once(monkeypatch):
    calls = {}
    _count_calls(monkeypatch, snfair.fourier, "transform", calls)
    passed, rows = snfair.verify.run("claim1", 5, 5)
    bounded = [row for row in rows if row["bound"] is not None]
    payoffs = {row["payoff"] for row in bounded}
    assert passed and len(rows) == 25 and len(payoffs) == 5
    # one restriction per bounded row, one spectrum per payoff (was one per row)
    assert calls["transform"] == len(bounded) + len(payoffs)


def test_claim1_profiles_each_set_and_summarizes_each_spectrum_once(monkeypatch):
    calls = {}
    _count_calls(monkeypatch, snfair.intersecting, "intersection_profile", calls)
    _count_calls(monkeypatch, snfair.fourier, "schatten_summary", calls)
    # seed 0 leaves two junta rows over the iid admissible set unbounded
    passed, rows = snfair.verify.run("claim1", 5, 0)
    bounded = [row for row in rows if row["bound"] is not None]
    sets = {row["set"] for row in rows}
    payoffs = {row["payoff"] for row in bounded}
    assert passed and (len(sets), len(payoffs), len(bounded)) == (5, 5, 23)
    # one profile per set (was one per row), one summary per payoff
    # spectrum (was one per bounded row) and one per restriction
    assert calls == {"intersection_profile": 5, "schatten_summary": 5 + 23}


def test_eigenvalue_suite_transforms_each_set_once_holding_one_set(monkeypatch):
    def live_sets():
        return sum(isinstance(o, SymmetricSet) for o in gc.get_objects())

    gc.collect()
    before = live_sets()
    held, grams = [], []
    real, real_eigvalsh = snfair.fourier.fft, np.linalg.eigvalsh
    monkeypatch.setattr(
        snfair.fourier, "fft", lambda n, w: held.append(live_sets() - before) or real(n, w)
    )
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: grams.append(a.shape) or real_eigvalsh(a))
    passed, rows = snfair.verify.run("eigenvalue", 5, 0)
    # one transform per set and one gram eigendecomposition per shape serve
    # both scalings, and the sets are built one at a time, so no earlier set
    # and its blocks are still alive
    assert passed and held == [1] * len(rows) == [1] * 5
    assert len(grams) == len(rows) * len(partitions_of(5))


def test_stdout_when_no_out_flag(capsys):
    assert run("gen-payoff", "--model", "junta", "--n", "3", "--pairs", "1:1") == EXIT_OK
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["n"] == 3
    assert "orderings=6" in captured.err


def test_write_to_closed_stdout_is_not_a_usage_error(monkeypatch):
    # A failed write to an open stream names no path, so it is not mapped
    # to EXIT_USAGE and cannot hide a verify suite's check-failed code.
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(BrokenPipeError):
        run("gen-payoff", "--model", "junta", "--n", "3", "--pairs", "1:1")


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "snfair.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "snfair" in proc.stdout


def _modules_loaded_by(*argv):
    """The modules a fresh interpreter holds after one snfair command."""
    script = (
        "import sys\n"
        "from snfair.cli import main\n"
        "try:\n"
        "    main(sys.argv[1:])\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(*sorted(sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, check=True
    )
    return set(proc.stdout.splitlines()[-1].split())


def test_simulate_loads_neither_the_fourier_stack_nor_openssl(tmp_path):
    out = tmp_path / "sim.json"
    loaded = _modules_loaded_by(
        "simulate", "--latency", "adversarial_cycle", "--validators", "4", "--out", str(out)
    )
    assert out.exists()  # the command ran to its end
    assert {"snfair.sequencing", "snfair.intersecting"} <= loaded
    heavy = {
        "snfair.fourier",
        "snfair.representations",
        "snfair.fairness",
        "snfair.cayley",
        "snfair.payoffs",
        "snfair.verify",
        "_hashlib",
    }
    assert not loaded & heavy


@pytest.mark.parametrize(
    "argv",
    [
        ["transform", "--payoff", "{payoff}"],
        ["analyze", "--payoff", "{payoff}", "--set", "{set}"],
        ["simulate", "--votes", "{votes}"],
        ["gen-payoff", "--model", "indicator", "--set", "{set}"],
    ],
    ids=["transform", "analyze", "simulate-votes", "gen-payoff-indicator"],
)
def test_reading_an_input_file_loads_no_openssl(argv, tmp_path):
    paths = _path_inputs(tmp_path)
    out = tmp_path / "out.json"
    loaded = _modules_loaded_by(*(arg.format(**paths) for arg in argv), "--out", str(out))
    assert json.loads(out.read_text())["metadata"]["input_hashes"]  # ran to its end
    assert "_hashlib" not in loaded


def test_seeded_commands_load_neither_numpy_random_nor_openssl(tmp_path):
    commands = [
        ["gen-payoff", "--model", "random", "--n", "4"],
        ["gen-payoff", "--model", "random", "--n", "4", "--dist", "sparse", "--nonzero", "3"],
        ["simulate", "--n-tx", "4"],
    ]
    commands += [["verify", "--suite", suite, "--n", "4"] for suite in VERIFY_SUITES]
    offenders = {}
    for i, argv in enumerate(commands):
        out = tmp_path / f"out{i}.json"
        loaded = _modules_loaded_by(*argv, "--out", str(out))
        assert out.exists() and "numpy" in loaded  # the command ran to its end
        if loaded & {"numpy.random", "_hashlib"}:
            offenders[" ".join(argv)] = sorted(loaded & {"numpy.random", "_hashlib"})
    assert offenders == {}


def test_no_command_loads_numpy_ma(tmp_path):
    # np.unique's first call imports numpy.ma, over 1 MB resident: ordering
    # sets drop repeated ranks by sorting and a neighbour mask instead.
    # The eigenvalue suite reaches OrderingSet.from_ranks through symmetrize.
    paths = _path_inputs(tmp_path)
    commands = [["verify", "--suite", suite, "--n", "4"] for suite in VERIFY_SUITES]
    commands += [
        ["gen-payoff", "--model", "indicator", "--set", paths["set"]],
        ["analyze", "--payoff", paths["payoff"], "--set", paths["set"]],
        ["simulate", "--n-tx", "4"],
        ["simulate", "--votes", paths["votes"]],
    ]
    offenders = []
    for i, argv in enumerate(commands):
        out = tmp_path / f"out{i}.json"
        loaded = _modules_loaded_by(*argv, "--out", str(out))
        assert out.exists() and "numpy" in loaded  # the command ran to its end
        if "numpy.ma" in loaded:
            offenders.append(" ".join(argv))
    assert offenders == []


def test_gen_payoff_loads_no_fourier_stack(tmp_path):
    loaded = _modules_loaded_by(
        "gen-payoff", "--model", "cfmm", "--deltas", "3,-1,2", "--out", str(tmp_path / "c.json")
    )
    assert "snfair.payoffs" in loaded
    assert not loaded & {"snfair.fourier", "snfair.representations", "snfair.partitions"}


@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_version_and_help_load_no_numpy(flag):
    loaded = _modules_loaded_by(flag)
    assert "snfair.cli" in loaded and "numpy" not in loaded
    # each costs milliseconds of a start-up that --version times
    assert not loaded & {"dataclasses", "inspect"}
