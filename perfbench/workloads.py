"""The three workloads: seeded inputs, the snfair invocations, their checks.

A workload is built in a scratch directory from the workload seed.  The
benchmark writes every input itself (vote profiles, payoff files) or
passes it as a flag; the program receives only those files and flags.
Each ``Call`` is one ``snfair`` process; its ``check`` reads the files
the call wrote and compares them with the reference computations.
"""
from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from math import factorial
from pathlib import Path
from typing import Callable

import numpy as np

from checks import (
    check_analyze,
    check_cfmm_payoff,
    check_indicator,
    check_simulate,
    check_transform,
    check_verify,
)
from oracles import admissible_ranks, cfmm_values, majority_edges, strong_components

VERIFY_N6 = ("roundtrip", "uncertainty", "eigenvalue", "indicator_degree", "claim1", "claim2")
VERIFY_N7 = ("roundtrip", "indicator_degree", "claim2", "eigenvalue")


@dataclass
class Call:
    label: str
    argv: list[str]
    outputs: list[Path]
    check: Callable[[], list[str]]

    @property
    def command(self) -> str:
        return self.argv[0]


def load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def load_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data))
    return path


# ---------------------------------------------------------------- inputs


def scc_sizes(validators: list[list[int]]) -> list[int]:
    n = len(validators[0])
    return sorted((len(c) for c in strong_components(majority_edges(validators, n))), reverse=True)


def iid_profile(rng: random.Random, n: int, voters: int, sizes: list[int]) -> list[list[int]]:
    """Independent uniform receive orders, drawn until the majority graph's
    components have the given sizes, so every seed costs the same work."""
    while True:
        validators = [rng.sample(range(1, n + 1), n) for _ in range(voters)]
        if scc_sizes(validators) == sizes:
            return validators


def winner_cycle_profile(rng: random.Random, n: int, losers: int = 0) -> list[list[int]]:
    """One Condorcet winner ahead of a rotation cycle, then fixed losers.

    The k = n - 1 - losers cycle members appear in all k rotations, one
    per validator, so consecutive members beat each other k - 1 to 1 and
    the cycle is one strongly connected component.  Labels are shuffled.
    """
    labels = rng.sample(range(1, n + 1), n)
    winner, cycle, tail = labels[0], labels[1 : n - losers], labels[n - losers :]
    k = len(cycle)
    return [[winner] + [cycle[(v + i) % k] for i in range(k)] + tail for v in range(k)]


def rotation_profile(n: int, voters: int) -> list[list[int]]:
    """The program's ``adversarial_cycle`` profile, written out from its definition."""
    return [[(v % n + i) % n + 1 for i in range(n)] for v in range(voters)]


def _simulate(label: str, work: Path, validators: list[list[int]], flags=()) -> Call:
    votes = write_json(work / f"{label}_votes.json", {"n_tx": len(validators[0]), "validators": validators})
    out = work / f"{label}.json"
    return Call(
        f"simulate {label}",
        ["simulate", "--votes", str(votes), *flags, "--out", str(out)],
        [out],
        lambda: check_simulate(load_json(out), validators),
    )


# ---------------------------------------------------------------- workloads


def analyze_n8(work: Path, rng: random.Random) -> list[Call]:
    n = 8
    deltas = [rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]) for _ in range(n)]
    values = cfmm_values(deltas)
    validators = iid_profile(rng, n, 5, [7, 1])
    members = admissible_ranks(majority_edges(validators, n)).tolist()
    pay, rep, rep_csv = work / "cfmm8.json", work / "report.json", work / "report.csv"
    sim = _simulate("iid8", work, validators)
    return [
        Call(
            "gen-payoff cfmm n=8",
            ["gen-payoff", "--model", "cfmm", "--deltas=" + ",".join(map(str, deltas)), "--out", str(pay)],
            [pay],
            lambda: check_cfmm_payoff(load_json(pay), deltas),
        ),
        sim,
        Call(
            "analyze n=8",
            ["analyze", "--payoff", str(pay), "--set", str(sim.outputs[0]), "--out", str(rep), "--csv", str(rep_csv)],
            [rep, rep_csv],
            lambda: check_analyze(load_json(rep), load_csv(rep_csv), values, n, members),
        ),
    ]


def verify_n6_n7(work: Path, rng: random.Random) -> list[Call]:
    calls = []
    seed = rng.randrange(2**31)
    for n in (6, 7):
        values = [rng.random() for _ in range(factorial(n))]
        pay = write_json(work / f"random{n}.json", {"n": n, "values": values})
        spec, spec_csv = work / f"spectrum{n}.json", work / f"spectrum{n}.csv"
        arr = np.asarray(values)
        calls.append(
            Call(
                f"transform n={n}",
                ["transform", "--payoff", str(pay), "--out", str(spec), "--csv", str(spec_csv)],
                [spec, spec_csv],
                lambda spec=spec, spec_csv=spec_csv, arr=arr, n=n: check_transform(
                    load_json(spec), load_csv(spec_csv), arr, n
                ),
            )
        )
    for n, suites in ((6, VERIFY_N6), (7, VERIFY_N7)):
        for suite in suites:
            out = work / f"verify_{suite}_{n}.json"
            calls.append(
                Call(
                    f"verify {suite} n={n}",
                    ["verify", "--suite", suite, "--n", str(n), "--seed", str(seed), "--out", str(out)],
                    [out],
                    lambda out=out, suite=suite, n=n: check_verify(load_json(out), suite, n),
                )
            )
    return calls


def _cycle(n: int, work: Path) -> Call:
    """The program's own adversarial_cycle profile: all n! orderings admissible."""
    out = work / f"cycle{n}.json"
    votes = rotation_profile(n, n)
    return Call(
        f"simulate adversarial_cycle n={n}",
        ["simulate", "--n-tx", str(n), "--validators", str(n), "--latency", "adversarial_cycle",
         "--max-n", str(n), "--out", str(out)],
        [out],
        lambda: check_simulate(load_json(out), votes),
    )


def sequencing_n8_n9(work: Path, rng: random.Random) -> list[Call]:
    cycle8, ind = _cycle(8, work), work / "indicator8.json"
    everything = list(range(factorial(8)))
    return [
        _simulate("iid8", work, iid_profile(rng, 8, 5, [7, 1])),
        cycle8,
        _simulate("winner_cycle8", work, winner_cycle_profile(rng, 8)),
        _simulate("winner_cycle9", work, winner_cycle_profile(rng, 9, losers=1), ("--max-n", "9")),
        _cycle(9, work),
        Call(
            "gen-payoff indicator n=8",
            ["gen-payoff", "--model", "indicator", "--set", str(cycle8.outputs[0]), "--out", str(ind)],
            [ind],
            lambda: check_indicator(load_json(ind), 8, everything),
        ),
    ]


WORKLOADS = {
    "analyze-n8": analyze_n8,
    "verify-n6-n7": verify_n6_n7,
    "sequencing-n8-n9": sequencing_n8_n9,
}


def build(name: str, work: Path, seed: int) -> list[Call]:
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name](work, rng)
