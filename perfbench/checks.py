"""Judging the program's outputs against the reference computations.

Each ``check_*`` function takes parsed outputs (JSON objects, CSV rows)
and the inputs the benchmark generated, and returns a list of problems;
an empty list means the output is correct.  They take data rather than
paths so that the self-test can feed them corrupted copies.
"""
from __future__ import annotations

from math import comb, factorial

import numpy as np

from oracles import (
    admissible_ranks,
    agreement_profile,
    cfmm_values,
    csv_degree,
    hook_dimension,
    majority_edges,
    partitions,
    schatten_from_csv,
    spectrum_csv_problems,
    spectrum_problems,
    strong_components,
)

REL = 1e-9  # relative tolerance for recomputed floating-point statistics


def _close(got, want, scale=1.0) -> bool:
    return got is not None and abs(float(got) - float(want)) <= REL * (abs(float(want)) + scale)


def check_cfmm_payoff(out: dict, deltas: list[float]) -> list[str]:
    n = len(deltas)
    if out.get("n") != n or len(out.get("values", [])) != factorial(n):
        return [f"payoff must hold {factorial(n)} values for n = {n}"]
    got = np.asarray(out["values"], dtype=float)
    want = cfmm_values(deltas)
    worst = float(np.max(np.abs(got - want) / np.abs(want)))
    if worst > 1e-12:
        return [f"CFMM payoff differs from the trade-by-trade sum (relative {worst:.3g})"]
    return []


def check_simulate(out: dict, validators: list[list[int]]) -> list[str]:
    n = len(validators[0])
    votes = out.get("votes", {})
    if votes.get("n_tx") != n or votes.get("validators") != validators:
        return ["echoed vote profile differs from the input profile"]
    edge = majority_edges(validators, n)
    ranks = admissible_ranks(edge)
    problems = []
    if out.get("n") != n or out.get("members") != ranks.tolist():
        problems.append(
            f"admissible set has {len(out.get('members', []))} members, "
            f"brute force finds {len(ranks)}"
        )
        return problems
    stats = out.get("stats", {})
    sccs = [list(c) for c in strong_components(edge)]
    edges = [[int(i) + 1, int(j) + 1] for i, j in zip(*np.nonzero(edge))]
    t_max, common = agreement_profile(n, ranks)
    want = {
        "edges": edges,
        "sccs": sccs,
        "num_sccs": len(sccs),
        "largest_scc": max(len(c) for c in sccs),
        "has_cycle": any(len(c) > 1 for c in sccs),
        "t_max": t_max,
        "common_pairs": common,
        "set_size": len(ranks),
    }
    for key, value in want.items():
        if stats.get(key) != value:
            problems.append(f"stats.{key} = {stats.get(key)!r}, expected {value!r}")
    return problems


def check_indicator(out: dict, n: int, members: list[int]) -> list[str]:
    if out.get("n") != n or len(out.get("values", [])) != factorial(n):
        return [f"indicator must hold {factorial(n)} values for n = {n}"]
    mask = np.zeros(factorial(n))
    mask[members] = 1.0
    if not np.array_equal(np.asarray(out["values"], dtype=float), mask):
        return ["indicator payoff differs from the set's membership mask"]
    return []


def check_transform(out: dict, rows: list[dict], values: np.ndarray, n: int) -> list[str]:
    if out.get("n") != n:
        return [f"spectrum is for n = {out.get('n')}, expected {n}"]
    problems = spectrum_problems(values, n, out.get("blocks", []))
    problems += spectrum_csv_problems(values, n, rows)
    if not problems:
        norms = [float(np.linalg.norm(np.asarray(b["matrix"]))) for b in out["blocks"]]
        listed = [float(r["frobenius"]) for r in rows]
        if not np.allclose(norms, listed, rtol=REL, atol=REL):
            problems.append("CSV Frobenius norms differ from the spectrum's blocks")
    return problems


def check_analyze(
    rep: dict, rows: list[dict], values: np.ndarray, n: int, members: list[int]
) -> list[str]:
    problems = []
    if rep.get("n") != n or rep.get("set_size") != len(members):
        return ["analyze report has the wrong n or set size"]
    problems += spectrum_csv_problems(values, n, rows)
    on_set = values[members]
    top = float(on_set.max())
    mean = float(on_set.sum()) / factorial(n)
    gap = top - mean
    trivial = (1.0 - 1.0 / factorial(n)) * top
    if abs(gap) <= 1e-12:
        label = "perfectly_fair"
    elif abs(gap - trivial) <= 1e-12:
        label = "maximally_unfair"
    else:
        label = "other"
    fair = rep.get("fairness") or {}
    want = {
        "max_value": top,
        "mean_value": mean,
        "additive_gap": gap,
        "multiplicative_gap": top / mean if mean > 0 else None,
        "conditional_gap": top - float(on_set.mean()),
        "trivial_bound": trivial,
    }
    for key, value in want.items():
        got = fair.get(key)
        if value is None:
            if got is not None:
                problems.append(f"fairness.{key} = {got!r}, expected null")
        elif not _close(got, value, scale=top):
            problems.append(f"fairness.{key} = {got!r}, recomputed {value!r}")
    if fair.get("classification") != label:
        problems.append(f"fairness.classification = {fair.get('classification')!r}, expected {label!r}")

    t_max, common = agreement_profile(n, members)
    inter = rep.get("intersection") or {}
    gate = len(members) >= factorial(n - t_max)
    if (inter.get("t_max"), inter.get("common_pairs"), inter.get("size_gate")) != (t_max, common, gate):
        problems.append(
            f"intersection = {inter!r}, expected t_max={t_max} common_pairs={common} size_gate={gate}"
        )

    deg = rep.get("degree")
    if deg != csv_degree(values, n, rows):
        problems.append(f"degree {deg!r} disagrees with the per-block norms")
    s1, sinf = schatten_from_csv(rows)
    sch = rep.get("schatten") or {}
    if not (_close(sch.get("s1"), s1) and _close(sch.get("sinf"), sinf)):
        problems.append(f"schatten {sch!r} disagrees with the per-block singular values")

    if top <= 0.0:
        return problems
    ub = rep.get("uncertainty_bound") or {}
    bound = ub.get("bound")
    if bound is None or not (gap - REL * top <= bound <= trivial + REL * top):
        problems.append(f"uncertainty bound {bound!r} outside [gap {gap!r}, trivial {trivial!r}]")
    elif not (_close(ub.get("additive_gap"), gap, top) and _close(ub.get("slack"), bound - gap, top)):
        problems.append("uncertainty_bound gap or slack disagrees with the recomputed gap")
    upper = rep.get("upper_regime") or {}
    dim_sq = sum(hook_dimension(s) ** 2 for s in partitions(n) if isinstance(deg, int) and s[0] >= n - deg)
    if upper.get("degree") != deg or upper.get("t_max") != t_max:
        problems.append("upper_regime degree or t_max disagrees with the report")
    if upper.get("applicable") != (t_max >= (deg if isinstance(deg, int) else n)):
        problems.append(f"upper_regime.applicable = {upper.get('applicable')!r} but t_max={t_max}, degree={deg}")
    if upper.get("dim_sq_sum") != dim_sq:
        problems.append(f"upper_regime.dim_sq_sum = {upper.get('dim_sq_sum')!r}, expected {dim_sq}")
    if not _close(upper.get("bound_value"), (1.0 - 1.0 / max(dim_sq, 1)) * top, top):
        problems.append("upper_regime.bound_value disagrees with (1 - 1/dim_sq_sum) * max")
    if not _close(upper.get("schatten_ratio"), sinf / s1 if s1 else 0.0):
        problems.append("upper_regime.schatten_ratio disagrees with sinf / s1")
    lower = rep.get("lower_regime") or {}
    if lower.get("degree") != deg or lower.get("t_max") != t_max:
        problems.append("lower_regime degree or t_max disagrees with the report")
    if lower.get("applicable") != (isinstance(deg, int) and t_max < deg and gate):
        problems.append(f"lower_regime.applicable = {lower.get('applicable')!r} is wrong")
    if not _close(lower.get("gap_ratio"), gap / top):
        problems.append("lower_regime.gap_ratio disagrees with gap / max")
    return problems


def _expected_cases(suite: str, n: int) -> int:
    corpus = 6 if n % 2 == 0 and n >= 4 else 5
    return {
        "roundtrip": 8,
        "uncertainty": 100 + corpus + 2,
        "eigenvalue": 5,
        "indicator_degree": 2 + 6 * min(3, n - 1),
        "claim1": corpus * 5,
        "claim2": 2 if n >= 5 else 1,
    }[suite]


def check_verify(rep: dict, suite: str, n: int, tol: float = 1e-9) -> list[str]:
    problems = []
    cases = rep.get("cases", [])
    if rep.get("suite") != suite or rep.get("n") != n:
        return [f"report is for suite {rep.get('suite')!r} at n = {rep.get('n')!r}"]
    if rep.get("passed") is not True:
        problems.append("report does not read passed: true")
    if len(cases) != _expected_cases(suite, n):
        problems.append(f"{len(cases)} cases, expected {_expected_cases(suite, n)}")
    order = factorial(n)
    for row in cases:
        bad = None
        if suite == "roundtrip":
            if not (row["ok"] and row["max_abs_error"] <= tol and row["parseval_rel_error"] <= tol):
                bad = "round trip or Parseval error above tolerance"
        elif suite == "uncertainty":
            if not (row["holds"] and row["product"] >= order * (1.0 - tol)):
                bad = "support-spread product below n!"
            elif row["payoff"] in ("point_mass", "constant") and abs(row["product"] - order) > 1e-12 * order:
                bad = "extremal payoff does not attain n!"
        elif suite == "eigenvalue":
            want_size = {"identity": 1, "transpositions": comb(n, 2)}.get(row["set"])
            if not row["ok"] or row["bound_satisfied_by"] not in ("normalized", "unnormalized"):
                bad = "eigenvalue bound not satisfied"
            elif want_size is not None and row["size"] != want_size:
                bad = f"connection set size {row['size']}, expected {want_size}"
        elif suite == "indicator_degree":
            label, size, t = row["set"], row["size"], row["t_max"]
            gate = 0 <= t <= n and size >= factorial(n - t)
            if not 0 <= t <= n:
                bad = f"t_max {t} outside 0..{n}"
            elif row["size_gate"] != gate:
                bad = "size gate disagrees with (n - t_max)!"
            elif gate and row["degree"] < min(t, n - 1):
                bad = "indicator degree below the agreement level"
            elif not row["claim_holds"]:
                bad = "claim reported as failing"
            elif label == "full_group" and (size, t) != (order, 0):
                bad = "full group must have n! members and t_max 0"
            elif label.startswith("pin_"):
                pins = int(label.split("_t")[1][0])
                want = (factorial(n - pins), pins if n - pins >= 2 else n)
                if (size, t) != want:
                    bad = f"a {pins}-pin stabilizer has {want[0]} members and t_max {want[1]}"
        elif suite == "claim1":
            if not row["ok"] or (row["slack"] is not None and row["slack"] < -tol):
                bad = "additive gap above the uncertainty bound"
            elif row["bound"] is not None and row["bound"] < row["additive_gap"] - tol:
                bad = "bound below the gap"
        elif suite == "claim2":
            outer, inner = (int(x) for x in row["instance"].replace("outer", "").split("_inner"))
            if not (row["ok"] and row["applicable"] and row["implied_constant"] > 0.0):
                bad = "lower-bound regime not applicable or constant not positive"
            elif (row["t_max"], row["degree"]) != (outer, inner):
                bad = f"pinned sets give t_max {outer} and indicator degree {inner}"
        if bad:
            problems.append(f"case {row.get('payoff', row.get('set', row.get('instance')))}: {bad}")
    return problems
