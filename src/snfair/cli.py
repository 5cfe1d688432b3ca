"""Command-line front end: reproducible generation, analysis, and verification.

Five commands: gen-payoff, transform, analyze, verify, simulate.  Each
accepts only the flags it reads, as the table ``FLAGS`` declares.  Every
output file embeds the tool version, the flags the command read and the
SHA-256 of each input file; nothing time-dependent is written, so
identical invocations produce byte-identical files.  Seeded values come
from CPython's Mersenne Twister (:func:`snfair.permutations.seeded`).
The verify command exits 0 exactly when every theorem-backed check in
the chosen suite passes, each against the suite's own fixed tolerance;
trend quantities are reported but never gate.

The input files (payoffs, ordering sets, vote profiles) are JSON in
UTF-8 whatever the locale, and only this module knows their formats
(``INPUT_FORMATS``); the class that keeps each file's items checks their
types.  Each is read once: ``input_hashes`` holds the SHA-256 of the
very bytes that were parsed, computed by CPython's built-in SHA-256
rather than hashlib's OpenSSL, so that reading a file does not load
libcrypto.

This module parses arguments and formats results; the analysis is in the
layers and the verify suites in :mod:`snfair.verify`.  Each ``cmd_*``
function writes nothing: it returns its JSON payload, its CSV rows and
its stderr summary line (None where it has none), and ``main`` writes
every output, in that order, through one path.  It imports none
of them at module scope: each command imports the layers it runs when
it starts, so ``--version`` and ``--help`` load no numpy and
``simulate`` never loads the Fourier stack.

``--max-n`` (default 8, at most the library's limit of 10) is a
command-line setting: every command checks each group size against it
once, as soon as the size is known (from a flag, a model, or an input
file's raw JSON) and before any n!-sized work.  A malformed command line
(an unknown, unread or missing flag, a bad value, choice or range, no
command) ends like any other usage error: one ``error:`` line on stderr
and exit code 2.  ``--help`` and ``--version`` print and exit 0.

Payloads hand numpy arrays (payoff values, spectrum blocks, set members)
straight to the JSON writer, which streams them to the output in chunks
of :data:`snfair.permutations.ROW_CHUNK` items, the row budget of every
scan: the bytes are those of ``json.dumps(indent=2, sort_keys=True)``,
but neither the whole document nor a Python list of a whole array is
ever built.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import sys

from . import __version__

# The input-file SHA-256 comes from CPython's built-in implementation:
# hashlib loads _hashlib, which links OpenSSL's libcrypto and adds 3.4 MiB
# of resident memory to each process after numpy, where the built-in adds
# 0.03 MiB.  The built-in hashes at about 240 MB/s against OpenSSL's
# 1250-1400 MB/s (SHA-NI, 2-core Xeon): 0.54 s instead of 0.09 s for the
# 129 MB that analyze reads at n = 10.
try:  # CPython 3.12 and later
    from _sha2 import sha256 as _sha256
except ImportError:
    try:  # CPython 3.10 and 3.11
        from _sha256 import sha256 as _sha256
    except ImportError:  # a build without the built-in hashes
        from hashlib import sha256 as _sha256

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# permutations.MAX_ENUMERABLE_N, the library's size limit and the largest
# --max-n, written out so that parsing arguments imports no numpy.
MAX_ENUMERABLE_N = 10

# The keys of snfair.verify.SUITES in the order --help lists them, written
# out so that parsing arguments imports no suite.
VERIFY_SUITES = ("claim1", "claim2", "eigenvalue", "indicator_degree", "roundtrip", "uncertainty")


def _numpy_to_builtin(obj):
    """json.dumps hook for the numpy scalars and arrays a payload may hold."""
    import numpy as np

    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _check_size(n, max_n: int) -> None:
    """The --max-n check, made once per group size before n!-sized work."""
    if type(n) is not int or not 1 <= n <= max_n:
        raise ValueError(
            f"group size must be an integer from 1 to --max-n = {max_n}, got {n!r}"
        )


# The input files by the flag that names one: what a message calls the file,
# its size and items fields, and the module and class that build and type it.
INPUT_FORMATS = {
    "payoff": ("payoff", "n", "values", "payoffs", "PayoffFn"),
    "set": ("ordering set", "n", "members", "sets", "OrderingSet"),
    "votes": ("votes", "n_tx", "validators", "sequencing", "VoteProfile"),
}


def _load_json(args: argparse.Namespace, label: str):
    """The object in the input file that flag --<label> names, whose group
    size passes --max-n; a malformed file raises a ValueError naming it."""
    import importlib

    what, size_key, key, module, name = INPUT_FORMATS[label]
    path = getattr(args, label)
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise ValueError(f"{what} file not found: {path}")
    args.input_hashes[label] = _sha256(raw).hexdigest()
    try:
        # json.loads(raw) would sniff UTF-16/32 and accept a BOM, and a bare
        # decode keeps lone CRs, moving a parse error's line and column.
        # Each copy is dropped once the next exists, to lower the peak.
        text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
        del raw
        data = json.loads(text)
        del text
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"malformed {what} file {path}: {exc.msg} at line {exc.lineno} column {exc.colno}"
        )
    except UnicodeDecodeError as exc:
        raise ValueError(f"malformed {what} file {path}: {exc}")
    except RecursionError:
        raise ValueError(f"malformed {what} file {path}: nested too deeply")
    if not isinstance(data, dict) or not {size_key, key} <= data.keys():
        raise ValueError(f"malformed {what} file {path}: need an object with {size_key}, {key}")
    _check_size(data[size_key], args.max_n)
    build = getattr(importlib.import_module(f".{module}", __package__), name)
    try:
        return build(data[size_key], data[key])
    except ValueError as exc:
        raise ValueError(f"malformed {what} file {path}: {exc}")


def _metadata(args: argparse.Namespace) -> dict:
    # Destination paths are routing, not analysis configuration; leaving
    # them out keeps file content independent of where it is written.
    skip = {"func", "out", "csv", "input_hashes"}
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
        "input_hashes": args.input_hashes,
    }


def _write_json(write, obj, pad: str) -> None:
    """Write obj as ``json.dumps(obj, indent=2, sort_keys=True)`` would at
    indentation pad, but array by array in chunks of at most ROW_CHUNK.

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
        from .permutations import row_chunks

        sep = ",\n" + inner
        for rows in row_chunks(obj.size):
            chunk = json.dumps(obj[rows].tolist(), separators=(sep, ": "))
            write(("[\n" + inner if rows.start == 0 else sep) + chunk[1:-1])
        write("\n" + pad + "]")
    else:
        write(json.dumps(obj, default=_numpy_to_builtin))


def _emit(payload: dict, out: str | None) -> None:
    """Write payload as indented, key-sorted JSON without building the text."""
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        _write_json(fh.write, payload, "")
        fh.write("\n")


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


def _spectrum_rows(spec) -> list[dict]:
    """One CSV row per block of a FourierSpectrum and its Schatten summary."""
    import numpy as np

    from .partitions import dimension

    rows = []
    for shape, mat in spec.blocks.items():
        sv = spec.schatten.per_block[shape]
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


# ---------------------------------------------------------------- commands


def cmd_gen_payoff(args: argparse.Namespace) -> tuple[dict, None, str]:
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

    if args.model == "cfmm":
        model = CfmmModel(
            deltas=_parse_deltas(args.deltas),
            p0=args.p0,
            gamma=args.gamma,
            beta=args.beta,
        )
        _check_size(model.n, args.max_n)
        payoff = cfmm_payoff(model)
    elif args.model == "liquidation":
        model = LiquidationModel(k=args.k, c=args.c)
        _check_size(model.n, args.max_n)
        payoff = liquidation_payoff(model)
    elif args.model == "junta":
        _check_size(args.n, args.max_n)
        term = JuntaTerm(constraints=_parse_pairs(args.pairs), coefficient=args.coeff)
        payoff = junta_payoff([term], args.n)
    elif args.model == "indicator":
        payoff = indicator_payoff(_load_json(args, "set"))
    elif args.model == "random":
        _check_size(args.n, args.max_n)
        payoff = random_payoff(
            args.n, seed=args.seed, dist=args.dist, nonzero=args.nonzero
        )

    vals = payoff.values
    summary = (
        f"n={payoff.n} orderings={vals.size} "
        f"min={vals.min():.6g} max={vals.max():.6g} mean={vals.mean():.6g}"
    )
    return {"n": payoff.n, "values": vals}, None, summary


def cmd_transform(args: argparse.Namespace) -> tuple[dict, list[dict] | None, None]:
    spec = _load_json(args, "payoff").spectrum
    blocks = [{"lambda": s, "matrix": m} for s, m in spec.blocks.items()]
    rows = _spectrum_rows(spec) if args.csv else None
    return {"n": spec.n, "blocks": blocks}, rows, None


def cmd_analyze(args: argparse.Namespace) -> tuple[dict, list[dict] | None, None]:
    from dataclasses import asdict

    from .fairness import Analysis

    payoff = _load_json(args, "payoff")
    members = _load_json(args, "set")
    pair = Analysis(payoff, members, tol=args.tol)
    report = {
        "n": payoff.n,
        "set_size": len(members),
        "fairness": asdict(pair.fairness),
        "degree": pair.degree,
        "intersection": asdict(members.profile),
        "schatten": {
            "s1": payoff.spectrum.schatten.s1,
            "sinf": payoff.spectrum.schatten.sinf,
        },
    }
    if pair.bounds_note is None:
        report["uncertainty_bound"] = asdict(pair.uncertainty)
        report["upper_regime"] = asdict(pair.upper)
        report["lower_regime"] = asdict(pair.lower)
    else:
        report["uncertainty_bound"] = None
        report["upper_regime"] = None
        report["lower_regime"] = None
        report["note"] = pair.bounds_note
    return report, _spectrum_rows(payoff.spectrum) if args.csv else None, None


def cmd_simulate(args: argparse.Namespace) -> tuple[dict, None, str]:
    from dataclasses import asdict

    from .sequencing import majority_graph, simulate, valid_orderings

    if args.votes is not None:
        votes = _load_json(args, "votes")
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
    largest_scc = max(map(len, graph.sccs))
    profile = admissible.profile
    payload = {"n": admissible.n, "members": admissible.members, "votes": asdict(votes)}
    payload["stats"] = {
        "num_sccs": len(graph.sccs),
        "largest_scc": largest_scc,
        "has_cycle": graph.has_cycle,
        "edges": sorted(graph.edges),
        "sccs": graph.sccs,
        "t_max": profile.t_max,
        "common_pairs": profile.common_pairs,
        "set_size": len(admissible),
    }
    summary = (
        f"n_tx={votes.n_tx} validators={len(votes.validators)} "
        f"admissible={len(admissible)} sccs={len(graph.sccs)} "
        f"largest_scc={largest_scc} cycle={graph.has_cycle} t_max={profile.t_max}"
    )
    return payload, None, summary


# ---------------------------------------------------------------- verify


def cmd_verify(args: argparse.Namespace) -> tuple[dict, list[dict], str]:
    from .verify import run

    _check_size(args.n, args.max_n)
    passed, rows = run(args.suite, args.n, args.seed)
    report = {"suite": args.suite, "n": args.n, "passed": passed, "cases": rows}
    summary = (
        f"suite={args.suite} n={args.n} cases={len(rows)} "
        f"passed={'yes' if passed else 'NO'}"
    )
    return report, rows, summary


# ---------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise ValueError, so that main
    reports them as one line with EXIT_USAGE; its subparsers are of this
    class too."""

    def error(self, message):
        raise ValueError(message)


NEEDED = object()  # the default of a flag that must be given wherever it is read

# FLAGS holds each command's flags in --help order, one row per flag:
# (flag, default, when, type or choices, help[, range]).  A flag is read
# while each flag that `when` names by dest, on an earlier row, holds one
# of its values (None: not given), so always when `when` is empty.  A
# range is (low, high, how an error names it).
_CFMM = {"model": ("cfmm",)}
_LIQUIDATION = {"model": ("liquidation",)}
_JUNTA = {"model": ("junta",)}
_RANDOM = {"model": ("random",)}
_GENERATED = {"votes": (None,)}
_SEED_RANGE = (0, float("inf"), "an integer >= 0")
_PAYOFF = ("--payoff", NEEDED, {}, str, "payoff JSON file")
_CSV = ("--csv", None, {}, str, "also write per-block stats as CSV")
_OUT = ("--out", None, {}, str, "output file (default: stdout)")
_MAX_N = ("--max-n", 8, {}, int, "largest group size a command accepts (default 8, at most 10)",
          (1, MAX_ENUMERABLE_N, f"an integer from 1 to {MAX_ENUMERABLE_N}"))

FLAGS = {
    "gen-payoff": [
        ("--model", NEEDED, {}, ["cfmm", "liquidation", "junta", "indicator", "random"], None),
        ("--deltas", NEEDED, _CFMM, str, "cfmm trade sizes, comma separated"),
        ("--p0", 100.0, _CFMM, float, "initial price"),
        ("--gamma", 0.001, _CFMM, float, "price impact per unit"),
        ("--beta", 1.0, _CFMM, float, "extraction coefficient"),
        ("--k", NEEDED, _LIQUIDATION, int, "liquidation half-count of trades"),
        ("--c", NEEDED, _LIQUIDATION, int, "liquidation depth"),
        ("--n", NEEDED, {"model": ("junta", "random")}, int, "group size for junta/random models"),
        ("--pairs", NEEDED, _JUNTA, str, "junta constraints as slot:item, comma separated"),
        ("--coeff", 1.0, _JUNTA, float, "junta term coefficient"),
        ("--set", NEEDED, {"model": ("indicator",)}, str,
         "ordering set file for the indicator model"),
        ("--dist", "uniform01", _RANDOM, ["uniform01", "sparse"], "random payoff distribution"),
        ("--nonzero", NEEDED, {"model": ("random",), "dist": ("sparse",)}, int,
         "support size for sparse payoffs"),
        _OUT, ("--seed", 0, _RANDOM, int, "random seed (default 0)", _SEED_RANGE), _MAX_N,
    ],
    "transform": [_PAYOFF, _CSV, _OUT, _MAX_N],
    "analyze": [
        _PAYOFF, ("--set", NEEDED, {}, str, "ordering set JSON file"), _CSV,
        ("--tol", 1e-9, {}, float,
         "degree threshold, relative to the payoff's 2-norm (default 1e-9)",
         (0.0, sys.float_info.max, "a finite number >= 0")),
        _OUT, _MAX_N,
    ],
    "verify": [
        ("--suite", NEEDED, {}, VERIFY_SUITES, None),
        ("--n", 4, {}, int, "group size (default 4)"),
        ("--csv", None, {}, str, "also write per-case rows as CSV"),
        _OUT, ("--seed", 0, {}, int, "random seed (default 0)", _SEED_RANGE), _MAX_N,
    ],
    "simulate": [
        ("--votes", None, {}, str, "vote profile JSON file (overrides generation)"),
        ("--latency", "iid_shuffle", _GENERATED, ["iid_shuffle", "adversarial_cycle"],
         "latency model for generated profiles"),
        ("--n-tx", 4, _GENERATED, int, "transaction count"),
        ("--validators", 5, _GENERATED, int, "validator count"),
        _OUT, ("--seed", 0, _GENERATED, int, "random seed (default 0)", _SEED_RANGE), _MAX_N,
    ],
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="snfair",
        description="Ordering-fairness analysis on the symmetric group",
    )
    parser.add_argument("--version", action="version", version=f"snfair {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "gen-payoff": (cmd_gen_payoff, "generate a payoff file from a model"),
        "transform": (cmd_transform, "Fourier-transform a payoff file"),
        "analyze": (cmd_analyze, "fairness analysis of a payoff over a set"),
        "verify": (cmd_verify, "run a verification suite"),
        "simulate": (cmd_simulate, "votes -> majority graph -> admissible set"),
    }
    for command, (func, summary) in commands.items():
        p = sub.add_parser(command, help=summary)
        for flag, default, when, kind, text, *_ in FLAGS[command]:
            # A conditional flag stays None until given: _read_flags fills it in.
            kw = {"type": kind} if isinstance(kind, type) else {"choices": kind}
            kw.update(default=None if when else default, required=default is NEEDED and not when)
            p.add_argument(flag, help=text, **kw)
        p.set_defaults(func=func)
    return parser


def _read_flags(args: argparse.Namespace) -> None:
    """Check the parsed flags against FLAGS, row by row: a value out of
    range, a flag given where it is not read, or a NEEDED one missing where
    it is read is a usage error.  A flag read but not given takes its
    default; one not read stays None, and so out of metadata.config."""
    for flag, default, when, _, _, *ranges in FLAGS[args.command]:
        key = flag[2:].replace("-", "_")
        value = getattr(args, key)
        for low, high, text in ranges:
            if value is not None and not low <= value <= high:
                raise ValueError(f"{flag} must be {text}, got {value!r}")
        named = {k: f"--{k} {getattr(args, k)}" if v != (None,) else f"argument --{k}"
                 for k, v in when.items()}
        failed = [k for k, values in when.items() if getattr(args, k) not in values]
        if failed and value is not None:
            raise ValueError(f"argument {flag}: not allowed with {named[failed[0]]}")
        if not failed and value is None:
            if default is NEEDED:
                raise ValueError(f"{' '.join(named.values())} needs {flag}")
            setattr(args, key, default)


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
    try:
        args = build_parser().parse_args(
            _join_negative_deltas(sys.argv[1:] if argv is None else argv)
        )
        args.input_hashes = {}  # filled by _load_json: label -> SHA-256 of the bytes read
        _read_flags(args)
        payload, rows, summary = args.func(args)
        payload["metadata"] = _metadata(args)
        _emit(payload, args.out)
        if getattr(args, "csv", None):
            _emit_csv(rows, args.csv)
        if summary:
            print(summary, file=sys.stderr)
        return EXIT_OK if payload.get("passed", True) else EXIT_CHECK_FAILED
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
