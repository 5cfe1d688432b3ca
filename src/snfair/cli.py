"""Command-line front end: reproducible generation, analysis, and verification.

Five commands: gen-payoff, transform, analyze, verify, simulate.  Every
output file embeds the tool version, the full flag configuration, the
seed, and content hashes of all file inputs; nothing time-dependent is
written, so identical invocations produce byte-identical files.  The
verify command exits 0 exactly when every theorem-backed check in the
chosen suite passes; trend quantities are reported but never gate.

This module parses arguments and formats results; the analysis is in the
layers and the verify suites in :mod:`snfair.verify`.  It imports none
of them at module scope: each command imports the layers it runs when
it starts, so ``--version`` and ``--help`` load no numpy and
``simulate`` never loads the Fourier stack.

``--max-n`` (default 8) is a command-line setting on top of the
library's own limit of n <= 10: every command checks each group size
against it once, as soon as the size is known (from a flag, a model, or
the raw JSON of an input file) and before any n!-sized work.  ``--tol``
must be a finite number >= 0.

Payloads hand numpy arrays (payoff values, spectrum blocks, set members)
straight to the JSON writer, which streams them to the output in chunks
of EMIT_CHUNK items: the bytes are those of ``json.dumps(indent=2,
sort_keys=True)``, but neither the whole document nor a Python list of a
whole array is ever built.
"""
from __future__ import annotations

import argparse
import json
import re
import sys

from . import __version__

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# Largest number of array items _emit turns into Python objects at once:
# a chunk of ints costs about 2 MB under tracemalloc, a full n = 9 list 14 MB.
EMIT_CHUNK = 16384

# The keys of snfair.verify.SUITES in the order --help lists them, written
# out so that parsing arguments imports no suite.
VERIFY_SUITES = ("claim1", "claim2", "eigenvalue", "indicator_degree", "roundtrip", "uncertainty")


def _numpy_to_builtin(obj):
    """json.dumps hook for the numpy scalars and arrays a payload may hold."""
    import numpy as np

    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _hash_file(path: str) -> str:
    import hashlib

    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _check_size(n, max_n: int) -> None:
    """The --max-n check, made once per group size before n!-sized work."""
    if type(n) is not int or not 1 <= n <= max_n:
        raise ValueError(
            f"group size must be an integer from 1 to --max-n = {max_n}, got {n!r}"
        )


def _load_json(path: str, what: str, max_n: int, from_dict, size_key: str, *keys: str):
    """from_dict of a JSON object with the given fields whose group size
    passes --max-n; a malformed file raises a ValueError that names it."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"{what} file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"malformed {what} file {path}: {exc.msg} at line {exc.lineno} column {exc.colno}"
        )
    except UnicodeDecodeError as exc:
        raise ValueError(f"malformed {what} file {path}: {exc}")
    except RecursionError:
        raise ValueError(f"malformed {what} file {path}: nested too deeply")
    if not isinstance(data, dict) or not {size_key, *keys} <= data.keys():
        fields = ", ".join((size_key, *keys))
        raise ValueError(f"malformed {what} file {path}: need an object with {fields}")
    _check_size(data[size_key], max_n)
    try:
        return from_dict(data)
    except ValueError as exc:
        raise ValueError(f"malformed {what} file {path}: {exc}")


def _metadata(args: argparse.Namespace, inputs: dict[str, str]) -> dict:
    # Destination paths are routing, not analysis configuration; leaving
    # them out keeps file content independent of where it is written.
    skip = {"func", "out", "csv"}
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in skip and v is not None
    }
    return {
        "tool": "snfair",
        "tool_version": __version__,
        "command": args.command,
        "config": config,
        "input_hashes": {label: _hash_file(path) for label, path in inputs.items()},
    }


def _write_json(write, obj, pad: str) -> None:
    """Write obj as ``json.dumps(obj, indent=2, sort_keys=True)`` would at
    indentation pad, but array by array in chunks of at most EMIT_CHUNK.

    A chunk dumped by the C encoder with separator ",\\n" + indent and its
    brackets trimmed is exactly what indent=2 writes for a flat list.
    """
    import numpy as np

    if isinstance(obj, np.ndarray) and obj.ndim >= 2:
        obj = list(obj)  # row by row
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        for i, key in enumerate(sorted(obj)):
            name = key if isinstance(key, str) else json.dumps(key)
            write(("{\n" if i == 0 else ",\n") + inner + json.dumps(name) + ": ")
            _write_json(write, obj[key], inner)
        write("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        for i, item in enumerate(obj):
            write(("[\n" if i == 0 else ",\n") + inner)
            _write_json(write, item, inner)
        write("\n" + pad + "]")
    elif isinstance(obj, np.ndarray) and obj.ndim == 1:
        if not obj.size:
            write("[]")
            return
        sep = ",\n" + inner
        for start in range(0, obj.size, EMIT_CHUNK):
            chunk = json.dumps(obj[start : start + EMIT_CHUNK].tolist(), separators=(sep, ": "))
            write(("[\n" + inner if start == 0 else sep) + chunk[1:-1])
        write("\n" + pad + "]")
    else:
        write(json.dumps(obj, default=_numpy_to_builtin))


def _emit(payload: dict, out: str | None) -> None:
    """Write payload as indented, key-sorted JSON without building the text."""
    if out:
        with open(out, "w") as fh:
            _write_json(fh.write, payload, "")
            fh.write("\n")
    else:
        _write_json(sys.stdout.write, payload, "")
        sys.stdout.write("\n")


def _emit_csv(rows: list[dict], path: str) -> None:
    import csv

    if not rows:
        return
    keys = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        writer.writerows(rows)


def _parse_deltas(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse trade sizes {text!r}; expected e.g. 1,2,-1,-2")


def _parse_pairs(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for chunk in text.split(","):
        try:
            i, j = chunk.split(":")
            pairs.append((int(i), int(j)))
        except ValueError:
            raise ValueError(f"cannot parse constraint {chunk!r}; expected slot:item")
    return tuple(pairs)


def _fields(report, *skip: str) -> dict:
    """A report dataclass as a dict, without the named fields."""
    from dataclasses import asdict

    return {k: v for k, v in asdict(report).items() if k not in skip}


def _spectrum_rows(spec, summary) -> list[dict]:
    """One CSV row per block of a FourierSpectrum and its SchattenSummary."""
    import numpy as np

    from .partitions import dimension

    rows = []
    for shape, mat in spec.blocks.items():
        sv = summary.per_block[shape]
        rows.append(
            {
                "lambda": "+".join(str(p) for p in shape),
                "dim": dimension(shape),
                "frobenius": float(np.linalg.norm(mat)),
                "sigma_max": float(sv[0]) if sv.size else 0.0,
                "sigma_sum": float(sv.sum()),
            }
        )
    return rows


def _load_payoff(args: argparse.Namespace):
    from .payoffs import PayoffFn

    return _load_json(args.payoff, "payoff", args.max_n, PayoffFn.from_dict, "n", "values")


def _load_set(args: argparse.Namespace):
    from .sets import OrderingSet

    return _load_json(args.set, "ordering set", args.max_n, OrderingSet.from_dict, "n", "members")


# ---------------------------------------------------------------- commands


def cmd_gen_payoff(args: argparse.Namespace) -> int:
    from .payoffs import (
        CfmmModel,
        JuntaTerm,
        LiquidationModel,
        cfmm_payoff,
        indicator_payoff,
        junta_payoff,
        liquidation_payoff,
        random_payoff,
    )

    inputs = {}
    if args.model == "cfmm":
        if args.deltas is None:
            raise ValueError("cfmm model needs --deltas")
        model = CfmmModel(
            deltas=_parse_deltas(args.deltas),
            p0=args.p0,
            gamma=args.gamma,
            beta=args.beta,
        )
        _check_size(model.n, args.max_n)
        payoff = cfmm_payoff(model)
    elif args.model == "liquidation":
        if args.k is None or args.c is None:
            raise ValueError("liquidation model needs --k and --c")
        model = LiquidationModel(k=args.k, c=args.c)
        _check_size(model.n, args.max_n)
        payoff = liquidation_payoff(model)
    elif args.model == "junta":
        if args.n is None or args.pairs is None:
            raise ValueError("junta model needs --n and --pairs")
        _check_size(args.n, args.max_n)
        term = JuntaTerm(constraints=_parse_pairs(args.pairs), coefficient=args.coeff)
        payoff = junta_payoff([term], args.n)
    elif args.model == "indicator":
        if args.set is None:
            raise ValueError("indicator model needs --set")
        inputs["set"] = args.set
        payoff = indicator_payoff(_load_set(args))
    elif args.model == "random":
        if args.n is None:
            raise ValueError("random model needs --n")
        _check_size(args.n, args.max_n)
        payoff = random_payoff(
            args.n, seed=args.seed, dist=args.dist, nonzero=args.nonzero
        )
    else:  # pragma: no cover - argparse already restricts choices
        raise ValueError(f"unknown model {args.model!r}")

    payload = {"n": payoff.n, "values": payoff.values, "metadata": _metadata(args, inputs)}
    _emit(payload, args.out)
    vals = payoff.values
    print(
        f"n={payoff.n} orderings={vals.size} "
        f"min={vals.min():.6g} max={vals.max():.6g} mean={vals.mean():.6g}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_transform(args: argparse.Namespace) -> int:
    from .fourier import schatten_summary, transform

    payoff = _load_payoff(args)
    spec = transform(payoff)
    payload = {
        "n": spec.n,
        "blocks": [{"lambda": list(s), "matrix": m} for s, m in spec.blocks.items()],
        "metadata": _metadata(args, {"payoff": args.payoff}),
    }
    _emit(payload, args.out)
    if args.csv:
        _emit_csv(_spectrum_rows(spec, schatten_summary(spec)), args.csv)
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    from .fairness import Analysis

    payoff = _load_payoff(args)
    members = _load_set(args)
    pair = Analysis(payoff, members, tol=args.tol)
    report = {
        "n": payoff.n,
        "set_size": len(members),
        "fairness": _fields(pair.fairness, "n", "set_size"),
        "degree": pair.degree,
        "intersection": _fields(pair.profile, "size"),
        "schatten": {"s1": pair.schatten.s1, "sinf": pair.schatten.sinf},
    }
    if pair.bounds_note is None:
        report["uncertainty_bound"] = _fields(pair.uncertainty)
        report["upper_regime"] = _fields(pair.upper)
        report["lower_regime"] = _fields(pair.lower, "additive_gap", "max_on_set")
    else:
        report["uncertainty_bound"] = None
        report["upper_regime"] = None
        report["lower_regime"] = None
        report["note"] = pair.bounds_note
    report["metadata"] = _metadata(args, {"payoff": args.payoff, "set": args.set})
    _emit(report, args.out)
    if args.csv:
        _emit_csv(_spectrum_rows(pair.spectrum, pair.schatten), args.csv)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    from .intersecting import intersection_profile
    from .sequencing import (
        VoteProfile,
        condorcet_stats,
        majority_graph,
        simulate,
        valid_orderings,
    )

    inputs = {}
    if args.votes:
        inputs["votes"] = args.votes
        votes = _load_json(
            args.votes, "votes", args.max_n, VoteProfile.from_dict, "n_tx", "validators"
        )
    else:
        _check_size(args.n_tx, args.max_n)
        votes = simulate(
            n_tx=args.n_tx,
            n_validators=args.validators,
            latency_model=args.latency,
            seed=args.seed,
        )
    graph = majority_graph(votes)
    admissible = valid_orderings(graph)
    stats = condorcet_stats(graph)
    profile = intersection_profile(admissible)
    payload = {"n": admissible.n, "members": admissible.members, "votes": votes.to_dict()}
    payload["stats"] = {
        "num_sccs": stats.num_sccs,
        "largest_scc": stats.largest_scc,
        "has_cycle": stats.has_cycle,
        "edges": [list(e) for e in sorted(graph.edges)],
        "sccs": [list(c) for c in graph.sccs],
        "t_max": profile.t_max,
        "common_pairs": [list(p) for p in profile.common_pairs],
        "set_size": len(admissible),
    }
    payload["metadata"] = _metadata(args, inputs)
    _emit(payload, args.out)
    print(
        f"n_tx={votes.n_tx} validators={len(votes.validators)} "
        f"admissible={len(admissible)} sccs={stats.num_sccs} "
        f"largest_scc={stats.largest_scc} cycle={stats.has_cycle} t_max={profile.t_max}",
        file=sys.stderr,
    )
    return EXIT_OK


# ---------------------------------------------------------------- verify


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import SUITES

    _check_size(args.n, args.max_n)
    passed, rows = SUITES[args.suite](args.n, args.seed, args.tol)
    report = {
        "suite": args.suite,
        "n": args.n,
        "passed": passed,
        "cases": rows,
        "metadata": _metadata(args, {}),
    }
    _emit(report, args.out)
    if args.csv:
        _emit_csv(rows, args.csv)
    print(
        f"suite={args.suite} n={args.n} cases={len(rows)} "
        f"passed={'yes' if passed else 'NO'}",
        file=sys.stderr,
    )
    return EXIT_OK if passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------- parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    parser.add_argument(
        "--tol", type=float, default=1e-9, help="numeric tolerance (default 1e-9)"
    )
    parser.add_argument(
        "--max-n",
        type=int,
        default=8,
        dest="max_n",
        help="largest group size a command accepts (default 8, at most 10)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snfair",
        description="Ordering-fairness analysis on the symmetric group",
    )
    parser.add_argument("--version", action="version", version=f"snfair {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-payoff", help="generate a payoff file from a model")
    p.add_argument(
        "--model",
        required=True,
        choices=["cfmm", "liquidation", "junta", "indicator", "random"],
    )
    p.add_argument("--deltas", help="cfmm trade sizes, comma separated")
    p.add_argument("--p0", type=float, default=100.0, help="initial price")
    p.add_argument("--gamma", type=float, default=0.001, help="price impact per unit")
    p.add_argument("--beta", type=float, default=1.0, help="extraction coefficient")
    p.add_argument("--k", type=int, help="liquidation half-count of trades")
    p.add_argument("--c", type=int, help="liquidation depth")
    p.add_argument("--n", type=int, help="group size for junta/random models")
    p.add_argument("--pairs", help="junta constraints as slot:item, comma separated")
    p.add_argument("--coeff", type=float, default=1.0, help="junta term coefficient")
    p.add_argument("--set", help="ordering set file for the indicator model")
    p.add_argument(
        "--dist", choices=["uniform01", "sparse"], default="uniform01",
        help="random payoff distribution",
    )
    p.add_argument("--nonzero", type=int, help="support size for sparse payoffs")
    _add_common(p)
    p.set_defaults(func=cmd_gen_payoff)

    p = sub.add_parser("transform", help="Fourier-transform a payoff file")
    p.add_argument("--payoff", required=True, help="payoff JSON file")
    p.add_argument("--csv", help="also write per-block stats as CSV")
    _add_common(p)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("analyze", help="fairness analysis of a payoff over a set")
    p.add_argument("--payoff", required=True, help="payoff JSON file")
    p.add_argument("--set", required=True, help="ordering set JSON file")
    p.add_argument("--csv", help="also write per-block stats as CSV")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=VERIFY_SUITES)
    p.add_argument("--n", type=int, default=4, help="group size (default 4)")
    p.add_argument("--csv", help="also write per-case rows as CSV")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="votes -> majority graph -> admissible set")
    p.add_argument("--votes", help="vote profile JSON file (overrides generation)")
    p.add_argument(
        "--latency",
        choices=["iid_shuffle", "adversarial_cycle"],
        default="iid_shuffle",
        help="latency model for generated profiles",
    )
    p.add_argument("--n-tx", type=int, default=4, dest="n_tx", help="transaction count")
    p.add_argument("--validators", type=int, default=5, help="validator count")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    return parser


def _join_negative_deltas(argv: list[str]) -> list[str]:
    """Rewrite ``--deltas -3,1,2`` as ``--deltas=-3,1,2``: argparse would
    read a value opening with a minus sign as an option."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--deltas" and re.match(r"-[\d.]", token):
            out[-1] = f"--deltas={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _join_negative_deltas(sys.argv[1:] if argv is None else argv)
    )
    try:
        if not 0.0 <= args.tol < float("inf"):
            raise ValueError(f"--tol must be a finite number >= 0, got {args.tol!r}")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # Only a path that cannot be opened is a usage error; a failed write
        # to an open stream (a closed pipe, a full disk) propagates as is.
        if exc.filename is None:
            raise
        print(f"error: {exc.strerror or exc}: {exc.filename}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
