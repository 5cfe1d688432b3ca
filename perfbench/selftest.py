"""Self-test of the output checks: genuine outputs pass, corrupted ones fail.

Usage (from the repository root): python3 perfbench/selftest.py

Runs the real ``snfair`` commands at small n (a few seconds in all),
confirms that every check accepts their outputs, then feeds each check
deliberately corrupted copies and confirms that every copy is rejected.
Exits 0 when all of that holds, 1 otherwise.
"""
from __future__ import annotations

import copy
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

from checks import (  # noqa: E402
    check_analyze,
    check_cfmm_payoff,
    check_indicator,
    check_simulate,
    check_transform,
    check_verify,
)
from oracles import admissible_ranks, cfmm_values, majority_edges  # noqa: E402
from workloads import load_csv, load_json, winner_cycle_profile, write_json  # noqa: E402


def snfair(work: Path, *argv: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(BENCH.parent / "src"), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-m", "snfair.cli", *argv], check=True, env=env, cwd=work, capture_output=True)


def edit(data, fn):
    """A corrupted deep copy of ``data``."""
    copied = copy.deepcopy(data)
    fn(copied)
    return copied


def scale(values: list, i: int, factor: float) -> None:
    values[i] = values[i] * factor


def cases(work: Path):
    """(name, check, genuine output, corruptions) for every kind of output."""
    rng = random.Random("selftest")
    n = 5
    deltas = [3, -1, 2, -4, 1]
    snfair(work, "gen-payoff", "--model", "cfmm", "--deltas", "3,-1,2,-4,1", "--out", "pay.json")
    payoff = load_json(work / "pay.json")
    yield "gen-payoff cfmm", lambda o: check_cfmm_payoff(o, deltas), payoff, {
        "one value off by 1e-9": lambda o: scale(o["values"], 7, 1 + 1e-9),
        "two values swapped": lambda o: o["values"].__setitem__(slice(0, 2), o["values"][1::-1]),
        "a value missing": lambda o: o["values"].pop(),
    }

    validators = winner_cycle_profile(rng, n)
    write_json(work / "votes.json", {"n_tx": n, "validators": validators})
    snfair(work, "simulate", "--votes", "votes.json", "--out", "set.json")
    sim = load_json(work / "set.json")
    yield "simulate", lambda o: check_simulate(o, validators), sim, {
        "a member dropped": lambda o: o["members"].pop(3),
        "a member added": lambda o: o["members"].append(119),
        "t_max raised": lambda o: o["stats"].__setitem__("t_max", o["stats"]["t_max"] + 1),
        "common pair lost": lambda o: o["stats"].__setitem__("common_pairs", []),
        "an edge dropped": lambda o: o["stats"]["edges"].pop(),
        "components merged": lambda o: o["stats"].__setitem__("sccs", [list(range(1, n + 1))]),
        "cycle flag flipped": lambda o: o["stats"].__setitem__("has_cycle", not o["stats"]["has_cycle"]),
        "votes altered": lambda o: o["votes"]["validators"][0].reverse(),
    }

    members = admissible_ranks(majority_edges(validators, n)).tolist()
    snfair(work, "gen-payoff", "--model", "indicator", "--set", "set.json", "--out", "ind.json")
    yield "gen-payoff indicator", lambda o: check_indicator(o, n, members), load_json(work / "ind.json"), {
        "one entry flipped": lambda o: o["values"].__setitem__(0, 1.0 - o["values"][0]),
        "one member missing": lambda o: o["values"].__setitem__(members[0], 0.0),
    }

    values = np.asarray([rng.random() for _ in range(120)])
    write_json(work / "random.json", {"n": n, "values": values.tolist()})
    snfair(work, "transform", "--payoff", "random.json", "--out", "spec.json", "--csv", "spec.csv")
    spec, spec_rows = load_json(work / "spec.json"), load_csv(work / "spec.csv")
    blocks = {tuple(b["lambda"]): i for i, b in enumerate(spec["blocks"])}
    std, mid = blocks[(n - 1, 1)], blocks[(3, 2)]
    yield "transform", lambda o: check_transform(o[0], o[1], values, n), (spec, spec_rows), {
        "trivial block off": lambda o: scale(o[0]["blocks"][0]["matrix"][0], 0, 1 + 1e-6),
        "sign block negated": lambda o: scale(o[0]["blocks"][-1]["matrix"][0], 0, -1),
        "standard block trace off": lambda o: scale(o[0]["blocks"][std]["matrix"][1], 1, 1.001),
        "inner block entry off": lambda o: scale(o[0]["blocks"][mid]["matrix"][0], 1, 1.001),
        "blocks reordered": lambda o: o[0]["blocks"].reverse(),
        "CSV norm off": lambda o: o[1][mid].__setitem__("frobenius", str(float(o[1][mid]["frobenius"]) * 1.001)),
        "CSV dim off": lambda o: o[1][mid].__setitem__("dim", "4"),
    }

    snfair(work, "analyze", "--payoff", "pay.json", "--set", "set.json", "--out", "rep.json", "--csv", "rep.csv")
    rep, rep_rows = load_json(work / "rep.json"), load_csv(work / "rep.csv")
    values = cfmm_values(deltas)

    def set_key(section, key, fn):
        return lambda o: o[0][section].__setitem__(key, fn(o[0][section][key]))

    yield "analyze", lambda o: check_analyze(o[0], o[1], values, n, members), (rep, rep_rows), {
        "additive gap off": set_key("fairness", "additive_gap", lambda v: v * (1 + 1e-6)),
        "mean off": set_key("fairness", "mean_value", lambda v: v * 1.01),
        "classification changed": set_key("fairness", "classification", lambda v: "perfectly_fair"),
        "t_max off": set_key("intersection", "t_max", lambda v: v + 1),
        "size gate flipped": set_key("intersection", "size_gate", lambda v: not v),
        "degree off": lambda o: o[0].__setitem__("degree", o[0]["degree"] - 1),
        "s1 off": set_key("schatten", "s1", lambda v: v * 1.01),
        "bound below gap": set_key("uncertainty_bound", "bound", lambda v: 0.0),
        "upper applicable flipped": set_key("upper_regime", "applicable", lambda v: not v),
        "dim_sq_sum off": set_key("upper_regime", "dim_sq_sum", lambda v: v + 1),
        "lower applicable flipped": set_key("lower_regime", "applicable", lambda v: not v),
        "CSV Parseval broken": lambda o: o[1][0].__setitem__("frobenius", str(float(o[1][0]["frobenius"]) * 2)),
    }

    for suite, vn in (("roundtrip", 4), ("uncertainty", 4), ("eigenvalue", 4),
                      ("indicator_degree", 4), ("claim1", 4), ("claim2", 5)):
        snfair(work, "verify", "--suite", suite, "--n", str(vn), "--out", f"{suite}.json")
        report = load_json(work / f"{suite}.json")
        corruptions = {
            "passed false": lambda o: o.__setitem__("passed", False),
            "a case dropped": lambda o: o["cases"].pop(),
        }
        row_edit = {
            "roundtrip": ("max_abs_error", lambda v: 1e-3),
            "uncertainty": ("product", lambda v: v * 0.5),
            "eigenvalue": ("bound_satisfied_by", lambda v: "neither"),
            "indicator_degree": ("t_max", lambda v: v + 1),
            "claim1": ("slack", lambda v: -1.0),
            "claim2": ("degree", lambda v: v + 1),
        }[suite]
        key, fn = row_edit
        corruptions[f"case {key} wrong"] = lambda o, key=key, fn=fn: o["cases"][-1].__setitem__(key, fn(o["cases"][-1][key]))
        yield f"verify {suite}", lambda o, s=suite, v=vn: check_verify(o, s, v), report, corruptions


def main() -> int:
    work = BENCH / "work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    bad = 0
    try:
        for name, check, genuine, corruptions in cases(work):
            problems = check(genuine)
            print(f"{name:<24} genuine output: {'accepted' if not problems else 'REJECTED ' + str(problems)}")
            bad += bool(problems)
            for label, corrupt in corruptions.items():
                problems = check(edit(genuine, corrupt))
                print(f"{'':<24} {label:<28} {'rejected: ' + problems[0][:70] if problems else 'NOT REJECTED'}")
                bad += not problems
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test", "passed" if bad == 0 else f"FAILED ({bad} wrong verdicts)")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
