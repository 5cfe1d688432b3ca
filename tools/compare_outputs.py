"""Run one fixed list of snfair commands on two source trees and compare the outputs.

Usage: python tools/compare_outputs.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that hold the ``snfair``
package (a checkout's ``src``).  For each tree the commands below run in
order, in a fresh temporary directory, with that tree first on
PYTHONPATH; the demos next to each tree (``../demos/*.py``) run too.
The tool then compares each command's exit code, stdout and stderr and
every file the commands wrote, byte for byte.  Exit status: 0 when
nothing differs, 1 on any difference.  Giving the same tree twice checks
that repeat runs are byte-identical.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def _json(document) -> bytes:
    return json.dumps(document).encode()


def _crlf(document) -> bytes:
    """Indented UTF-8 JSON with CRLF line ends, non-ASCII text kept as is."""
    text = json.dumps(document, indent=1, ensure_ascii=False)
    return text.replace("\n", "\r\n").encode("utf-8")


def _two_of_first_three_fixed(n: int) -> dict:
    """The orderings of S_n that fix at least two of slots 1-3.

    Every pair agrees on a slot but no slot is shared by all, so the
    agreement scan cannot stop at member 0 and runs its tiles.
    """
    words = itertools.permutations(range(1, n + 1))
    members = [r for r, w in enumerate(words) if (w[0] == 1) + (w[1] == 2) + (w[2] == 3) >= 2]
    return {"n": n, "members": members}


def _winner_cycle9() -> dict:
    """n = 9 votes: a Condorcet winner, the seven rotations of a 7-cycle,
    then one loser, so 7! of the 9! orderings are admissible."""
    winner, cycle, loser = 4, [9, 2, 7, 1, 5, 8, 3], 6
    return {"n_tx": 9, "validators": [[winner, *cycle[v:], *cycle[:v], loser] for v in range(7)]}


# Input files written byte for byte into both work directories before the
# commands run.  The CRLF files carry non-ASCII text in an unused key, and
# the lone-CR payoff is malformed: its error names a line and column.  The
# two huge payoffs are finite but past the magnitude a transform can take.
# Ints past int64 are exact in JSON: a payoff takes them as floats, and a
# set rejects them.
INPUTS = {
    "votes_unanimous6.json": _json({"n_tx": 6, "validators": [[2, 1, 3, 4, 5, 6]] * 3}),
    "votes_split5.json": _json({
        "n_tx": 5,
        "validators": [[1, 2, 3, 4, 5], [2, 1, 3, 5, 4], [1, 3, 2, 4, 5]],
    }),
    "family6.json": _json(_two_of_first_three_fixed(6)),
    "family7.json": _json(_two_of_first_three_fixed(7)),
    "family8.json": _json(_two_of_first_three_fixed(8)),
    "family9.json": _json(_two_of_first_three_fixed(9)),
    "votes_winner_cycle9.json": _json(_winner_cycle9()),
    "votes_crlf4.json": _crlf({
        "n_tx": 4,
        "validators": [[1, 2, 3, 4], [2, 3, 1, 4], [3, 1, 2, 4], [4, 1, 2, 3]],
        "note": "café, naïve ☕",
    }),
    "set_crlf4.json": _crlf({"n": 4, "members": [0, 3, 5, 17, 22], "note": "Zürich"}),
    "payoff_cr.json": b'{"n": 2,\r "note": "\xc3\xa9",\r "values": [1.0,\r 2.0,]}',
    "payoff_huge4.json": _json({"n": 4, "values": [1e160] + [0.0] * 23}),
    "payoff_huge3.json": _json({"n": 3, "values": [1e308] * 6}),
    "payoff_int70.json": _json({"n": 2, "values": [2**70, 1]}),
    "set_int70.json": _json({"n": 2, "members": [0, 2**70]}),
    "set_int63.json": _json({"n": 2, "members": [0, 2**63]}),
    # past int32, the ranks' dtype: rejected, not wrapped (2**32 + 1 to 1)
    "set_int31.json": _json({"n": 3, "members": [0, 2**31]}),
    "set_int32.json": _json({"n": 3, "members": [0, 2**32 + 1]}),
    # ranks out of order, repeated, negative and past n!, and the empty set
    "set_unsorted3.json": _json({"n": 3, "members": [4, 1]}),
    "set_repeated3.json": _json({"n": 3, "members": [1, 1]}),
    "set_negative3.json": _json({"n": 3, "members": [-1, 0]}),
    "set_past3.json": _json({"n": 3, "members": [0, 6]}),
    "set_empty3.json": _json({"n": 3, "members": []}),
}


def _commands() -> list[list[str]]:
    # the parser's own text first: usage, choices and defaults
    cmds = [["--version"], ["--help"]]
    cmds += [[command, "--help"] for command in
             ("gen-payoff", "transform", "analyze", "verify", "simulate")]
    cmds += [
        ["gen-payoff", "--model", "cfmm", "--deltas", "3,-1,2,-4,1,2", "--out", "cfmm6.json"],
        ["gen-payoff", "--model", "cfmm", "--deltas", "-3,1,2,-1,2,1,-2", "--out", "cfmm7.json"],
        ["gen-payoff", "--model", "cfmm", "--deltas=2,-5,1,3,-1,4,-2,1", "--out", "cfmm8.json"],
        ["gen-payoff", "--model", "liquidation", "--k", "3", "--c", "2", "--out", "liq6.json"],
        ["gen-payoff", "--model", "junta", "--n", "6", "--pairs", "1:1,2:3", "--out", "junta6.json"],
        ["gen-payoff", "--model", "junta", "--n", "6", "--pairs", "1:1"],
        ["gen-payoff", "--model", "random", "--n", "6", "--seed", "3", "--out", "random6.json"],
        ["gen-payoff", "--model", "random", "--n", "5", "--dist", "sparse", "--nonzero", "7",
         "--out", "sparse5.json"],
        ["gen-payoff", "--model", "random", "--n", "7", "--seed", "1", "--out", "random7.json"],
        # float arrays longer than one chunk of the streaming writer
        ["gen-payoff", "--model", "random", "--n", "9", "--max-n", "9", "--out", "random9.json"],
        # S_9 and S_10 span many prefix blocks and row chunks of the payoff scans
        ["gen-payoff", "--model", "cfmm", "--deltas=2,-5,1,3,-1,4,-2,1,5", "--max-n", "9",
         "--out", "cfmm9.json"],
        ["gen-payoff", "--model", "cfmm", "--deltas=2,-5,1,3,-1,4,-2,1,5,-3", "--max-n", "10",
         "--out", "cfmm10.json"],
        ["gen-payoff", "--model", "liquidation", "--k", "5", "--c", "3", "--max-n", "10",
         "--out", "liq10.json"],
        # one three-pin term over the nine prefix blocks of S_9
        ["gen-payoff", "--model", "junta", "--n", "9", "--max-n", "9", "--pairs", "1:1,2:3,5:4",
         "--coeff", "-2.5", "--out", "junta9.json"],
        # rejected: trade sizes whose payoff overflows, and a negative seed
        ["gen-payoff", "--model", "cfmm", "--deltas", "1e200,1,2"],
        ["gen-payoff", "--model", "random", "--n", "3", "--seed", "-1"],
        # rejected junta pins: a slot repeated, an item repeated, a slot 0,
        # and a slot past n
        ["gen-payoff", "--model", "junta", "--n", "4", "--pairs", "1:1,1:2"],
        ["gen-payoff", "--model", "junta", "--n", "4", "--pairs", "1:2,3:2"],
        ["gen-payoff", "--model", "junta", "--n", "4", "--pairs", "0:1"],
        ["gen-payoff", "--model", "junta", "--pairs", "5:1", "--n", "4"],
        # rejected: a flag of another model, its default value included
        ["gen-payoff", "--model", "liquidation", "--k", "2", "--c", "1", "--p0", "5",
         "--dist", "sparse"],
        ["gen-payoff", "--model", "cfmm", "--deltas", "1,2", "--seed", "3"],
        ["gen-payoff", "--model", "random", "--n", "3", "--dist", "uniform01", "--pairs", "1:1"],
        ["gen-payoff", "--model", "junta", "--n", "3", "--pairs", "1:1", "--gamma", "0.001"],
        # rejected: --nonzero without --dist sparse, and --dist sparse without it
        ["gen-payoff", "--model", "random", "--n", "3", "--nonzero", "2"],
        ["gen-payoff", "--model", "random", "--n", "3", "--dist", "sparse"],
        # rejected: a needed flag missing, and --max-n outside 1..10
        ["gen-payoff", "--model", "liquidation", "--k", "2"],
        ["gen-payoff", "--model", "random", "--n", "3", "--max-n", "0"],
        ["gen-payoff", "--model", "random", "--n", "11", "--max-n", "11"],
    ]
    for n in (4, 6, 7, 8):
        cmds.append(["simulate", "--n-tx", str(n), "--seed", str(n), "--out", f"iid{n}.json"])
    for n in (6, 7, 8, 9):
        cmds.append(["simulate", "--n-tx", str(n), "--validators", str(n), "--latency",
                     "adversarial_cycle", "--max-n", "9", "--out", f"cycle{n}.json"])
    # all of S_10, the admissible-set scan over every row chunk at the cap
    cmds.append(["simulate", "--n-tx", "10", "--validators", "10", "--latency",
                 "adversarial_cycle", "--max-n", "10", "--out", "cycle10.json"])
    cmds += [
        ["simulate", "--n-tx", "5", "--validators", "7", "--seed", "2"],
        ["simulate", "--votes", "votes_unanimous6.json", "--out", "single6.json"],
        ["simulate", "--votes", "votes_winner_cycle9.json", "--max-n", "9",
         "--out", "winner_cycle9.json"],
        ["simulate", "--votes", "votes_split5.json", "--out", "split5.json"],
        # rejected: a generation flag next to a votes file
        ["simulate", "--votes", "votes_split5.json", "--seed", "3"],
        ["simulate", "--votes", "votes_crlf4.json", "--out", "crlf4.json"],
        ["gen-payoff", "--model", "indicator", "--set", "set_crlf4.json", "--out", "ind_crlf4.json"],
        ["gen-payoff", "--model", "indicator", "--set", "iid6.json", "--out", "ind6.json"],
        ["gen-payoff", "--model", "indicator", "--set", "cycle8.json", "--out", "ind8.json"],
        ["gen-payoff", "--model", "indicator", "--set", "family6.json", "--out", "ind_family6.json"],
        ["gen-payoff", "--model", "indicator", "--set", "family7.json", "--out", "ind_family7.json"],
        ["gen-payoff", "--model", "indicator", "--set", "family8.json", "--out", "ind_family8.json"],
        ["gen-payoff", "--model", "indicator", "--set", "set_int70.json"],
        ["gen-payoff", "--model", "indicator", "--set", "set_int63.json"],
        ["gen-payoff", "--model", "indicator", "--set", "set_int31.json"],
        ["gen-payoff", "--model", "indicator", "--set", "set_int32.json"],
        ["gen-payoff", "--model", "indicator", "--set", "set_unsorted3.json"],
        ["gen-payoff", "--model", "indicator", "--set", "set_repeated3.json"],
        ["gen-payoff", "--model", "indicator", "--set", "set_negative3.json"],
        ["gen-payoff", "--model", "indicator", "--set", "set_past3.json"],
        # the empty set's indicator is zero; analyze rejects the set
        ["gen-payoff", "--model", "indicator", "--set", "set_empty3.json",
         "--out", "ind_empty3.json"],
        ["analyze", "--payoff", "ind_empty3.json", "--set", "set_empty3.json"],
        ["transform", "--payoff", "random6.json", "--out", "spec6.json", "--csv", "spec6.csv"],
        ["transform", "--payoff", "cfmm7.json", "--out", "spec7.json", "--csv", "spec7.csv"],
        ["transform", "--payoff", "sparse5.json"],
        # JSON to stdout while the CSV goes to a file
        ["transform", "--payoff", "sparse5.json", "--csv", "spec5.csv"],
        ["transform", "--payoff", "payoff_cr.json"],
        ["transform", "--payoff", "payoff_huge4.json", "--csv", "spec_huge4.csv"],
        ["transform", "--payoff", "payoff_huge3.json", "--out", "spec_huge3.json",
         "--csv", "spec_huge3.csv"],
        ["transform", "--payoff", "payoff_int70.json", "--out", "spec_int70.json"],
        # 2-D blocks up to 90 x 90
        ["transform", "--payoff", "cfmm8.json", "--out", "spec8.json", "--csv", "spec8.csv"],
        # blocks up to 216 x 216, from generators built above n = 8
        ["transform", "--payoff", "random9.json", "--max-n", "9", "--out", "spec9.json",
         "--csv", "spec9.csv"],
        # one payoff per pass at n = 9, where no pass reuses another's set-up
        ["analyze", "--payoff", "random9.json", "--set", "cycle9.json", "--max-n", "9",
         "--out", "an_random9.json", "--csv", "an_random9.csv"],
        # 13680 members with floor 0 and t_max 1: the tiled agreement scan
        # reads member words from all nine 8!-rank blocks of S_9
        ["analyze", "--payoff", "random9.json", "--set", "family9.json", "--max-n", "9",
         "--csv", "an_family9.csv"],
        # the coset order, both transforms and the agreement profile at n = 10
        ["analyze", "--payoff", "liq10.json", "--set", "cycle10.json", "--max-n", "10",
         "--out", "an_liq10.json", "--csv", "an_liq10.csv"],
        ["analyze", "--payoff", "cfmm6.json", "--set", "iid6.json", "--out", "an_cfmm6.json",
         "--csv", "an_cfmm6.csv"],
        ["analyze", "--payoff", "random6.json", "--set", "cycle6.json", "--out", "an_random6.json"],
        ["analyze", "--payoff", "liq6.json", "--set", "iid6.json"],
        ["analyze", "--payoff", "junta6.json", "--set", "single6.json", "--out", "an_zero6.json"],
        ["analyze", "--payoff", "ind6.json", "--set", "iid6.json", "--tol", "1e-3",
         "--out", "an_ind6.json"],
        ["analyze", "--payoff", "sparse5.json", "--set", "split5.json", "--out", "an_sparse5.json"],
        ["analyze", "--payoff", "cfmm7.json", "--set", "iid7.json", "--out", "an_cfmm7.json",
         "--csv", "an_cfmm7.csv"],
        ["analyze", "--payoff", "random7.json", "--set", "cycle7.json", "--out", "an_random7.json"],
        ["analyze", "--payoff", "cfmm8.json", "--set", "iid8.json", "--out", "an_cfmm8.json",
         "--csv", "an_cfmm8.csv"],
        ["analyze", "--payoff", "cfmm6.json", "--set", "family6.json", "--out", "an_family6.json",
         "--csv", "an_family6.csv"],
        ["analyze", "--payoff", "ind_family7.json", "--set", "family7.json",
         "--out", "an_family7.json"],
        # 1920 members, more than one agreement tile (the n = 6 and 7
        # families have 312 or fewer and fit in one)
        ["analyze", "--payoff", "ind_family8.json", "--set", "family8.json",
         "--out", "an_family8.json"],
        ["analyze", "--payoff", "cfmm6.json", "--set", "iid7.json"],
        ["analyze", "--payoff", "missing.json", "--set", "iid6.json"],
        ["analyze", "--payoff", "payoff_huge4.json", "--set", "set_crlf4.json"],
        ["analyze", "--payoff", "ind_crlf4.json", "--set", "set_crlf4.json",
         "--out", "an_crlf4.json"],
        ["analyze", "--payoff", "ind_crlf4.json", "--set", "crlf4.json"],
        ["verify", "--suite", "roundtrip", "--n", "0"],
        # each below its suite's smallest n
        ["verify", "--suite", "uncertainty", "--n", "1"],
        ["verify", "--suite", "eigenvalue", "--n", "1"],
        ["verify", "--suite", "claim1", "--n", "1"],
        ["verify", "--suite", "claim2", "--n", "3"],
        ["verify", "--suite", "claim2", "--n", "4", "--csv", "claim2_4.csv"],
    ]
    # the dense cross-check of the eigenvalue suite at its smallest sizes
    for n in (2, 3):
        cmds.append(["verify", "--suite", "eigenvalue", "--n", str(n), "--seed", str(n), "--out",
                     f"verify_eigenvalue_{n}.json", "--csv", f"verify_eigenvalue_{n}.csv"])
    suites = ("roundtrip", "uncertainty", "eigenvalue", "indicator_degree", "claim1", "claim2")
    for n in (4, 5, 6):
        for suite in suites:
            cmds.append(["verify", "--suite", suite, "--n", str(n), "--seed", str(n),
                         "--out", f"verify_{suite}_{n}.json", "--csv", f"verify_{suite}_{n}.csv"])
    # at n = 7 every pass takes its set-up from the coset-matrix cache
    for suite in ("roundtrip", "uncertainty", "indicator_degree", "claim1", "claim2",
                  "eigenvalue"):
        cmds.append(["verify", "--suite", suite, "--n", "7", "--out", f"verify_{suite}_7.json"])
    # the largest default --max-n size of the suites that share kept spectra,
    # profiles and connection-set blocks
    for suite in ("claim1", "eigenvalue"):
        cmds.append(["verify", "--suite", suite, "--n", "8", "--out", f"verify_{suite}_8.json"])
    # inverse ranks of connection sets above the S_8 word table
    cmds.append(["verify", "--suite", "eigenvalue", "--n", "9", "--max-n", "9"])
    # the rows that ROUNDTRIP_TOL and GAP_BOUND_SLACK gate, above the S_8 table
    for suite in ("roundtrip", "claim1"):
        cmds.append(["verify", "--suite", suite, "--n", "9", "--max-n", "9"])
    return cmds


def _run_tree(src: Path, work: Path) -> dict[str, bytes]:
    """Every output of one tree, keyed by a label that names where it came from."""
    for name, content in INPUTS.items():
        (work / name).write_bytes(content)
    env = dict(os.environ, PYTHONPATH=str(src))
    runs = [(" ".join(argv), [sys.executable, "-m", "snfair.cli", *argv])
            for argv in _commands()]
    demos = src.parent / "demos"
    runs += [(f"demo {p.name}", [sys.executable, str(p)]) for p in sorted(demos.glob("*.py"))]
    outputs: dict[str, bytes] = {}
    for label, cmd in runs:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=600)
        outputs[f"{label} [exit]"] = str(proc.returncode).encode()
        outputs[f"{label} [stdout]"] = proc.stdout
        outputs[f"{label} [stderr]"] = proc.stderr
    for path in sorted(work.iterdir()):
        if path.name not in INPUTS:
            outputs[f"file {path.name}"] = path.read_bytes()
    return outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    args = parser.parse_args(argv)
    results = []
    for src in (args.parent_src, args.change_src):
        if not (src / "snfair" / "cli.py").is_file():
            parser.error(f"no snfair package under {src}")
        with tempfile.TemporaryDirectory(prefix="snfair-compare-") as tmp:
            results.append(_run_tree(src.resolve(), Path(tmp)))
    parent, change = results
    differences = 0
    for label in sorted(parent.keys() | change.keys()):
        if label not in parent or label not in change:
            side = "parent" if label in parent else "change"
            print(f"DIFF {label}: only the {side} produced it")
            differences += 1
        elif parent[label] != change[label]:
            print(f"DIFF {label}")
            differences += 1
    files = sum(label.startswith("file ") for label in change)
    print(f"{len(change) - files} process outputs and {files} files compared, "
          f"{differences} differ")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
