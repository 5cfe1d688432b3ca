"""Turning span files from ``traced_cli.py`` into per-layer metrics.

Times are self times.  A span's exclusive time is its duration minus the
durations of its direct child spans.  A layer's ``self_s`` adds the
exclusive times of all its spans, which equals the time its spans cover
minus the part covered by child spans in other layers.  A function's
time metric adds the exclusive times of that function's spans, so no
second is counted twice: the walk inside a transform is reported as
``representations.walk_s``, not inside ``fourier.transform_s``.
Counts are summed over the invocations of one workload; "distinct"
counts are distinct within each process, then summed.
"""
from __future__ import annotations

import json
from collections import defaultdict

import numpy as np

from traced_cli import LAYERS

TIMES = {
    "permutations.group_matrix_s": ("permutations.group_matrix",),
    "partitions.tableaux_s": ("partitions.standard_tableaux",),
    "representations.walk_s": ("representations.group_walk", "representations.plain_changes"),
    "representations.tables_s": ("representations.representation_tables",),
    "representations.evaluate_s": ("representations.evaluate",),
    "fourier.transform_s": ("fourier.transform",),
    "fourier.inverse_s": ("fourier.inverse",),
    "fourier.degree_s": ("fourier.degree",),
    "fourier.schatten_s": ("fourier.schatten_summary",),
    "fourier.uncertainty_check_s": ("fourier.uncertainty_check",),
    "payoffs.generate_s": (
        "payoffs.cfmm_payoff",
        "payoffs.liquidation_payoff",
        "payoffs.liquidatable_set",
        "payoffs.junta_payoff",
        "payoffs.indicator_payoff",
        "payoffs.random_payoff",
    ),
    "sets.build_s": (
        "sets.OrderingSet.__post_init__",
        "sets.OrderingSet.from_ranks",
        "sets.OrderingSet.from_permutations",
        "sets.OrderingSet.full_group",
    ),
    "intersecting.profile_s": ("intersecting.intersection_profile",),
    "intersecting.stabilizer_s": ("intersecting.stabilizer_set",),
    "cayley.block_operator_s": ("cayley.block_operator",),
    "cayley.symmetrize_s": ("cayley.symmetrize",),
    "sequencing.majority_graph_s": ("sequencing.majority_graph",),
    "sequencing.valid_orderings_s": ("sequencing.valid_orderings",),
}
CALLS = {
    "permutations.unrank_calls": "permutations.lehmer_unrank",
    "representations.evaluate_calls": "representations.evaluate",
    "fourier.transform_calls": "fourier.transform",
    "fourier.inverse_calls": "fourier.inverse",
    "intersecting.profile_calls": "intersecting.intersection_profile",
    "fairness.uncertainty_bound_calls": "fairness.uncertainty_bound",
}
DISTINCT = {
    "fourier.transform_inputs": "fourier.transform",
    "intersecting.profile_sets": "intersecting.intersection_profile",
}
COUNTERS = {
    "representations.walk_steps": "representations.group_walk.steps",
    "payoffs.values_generated": "payoffs.values_generated",
    "sets.members_built": "sets.members_built",
    "sequencing.admissible_members": "sequencing.admissible_members",
}
CACHE_MISSES = {
    "permutations.group_matrix_builds": "permutations.group_matrix",
    "partitions.tableaux_builds": "partitions.standard_tableaux",
    "representations.generator_builds": "representations.adjacent_generator",
    "representations.tables_builds": "representations.representation_tables",
}
# The repeated work inside one ``analyze`` call, counted on its own.
IN_ANALYZE = {
    "fourier.transform_calls_in_analyze": "fourier.transform_calls",
    "fourier.transform_inputs_in_analyze": "fourier.transform_inputs",
    "intersecting.profile_calls_in_analyze": "intersecting.profile_calls",
    "intersecting.profile_sets_in_analyze": "intersecting.profile_sets",
}
TRACE = {"trace.wall_s": "s", "trace.overhead_s": "s", "trace.spans": "count"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {"cli.startup_s": "s", "cli.bytes_written": "bytes"}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({k: "s" for k in TIMES})
    units["permutations.rank_calls"] = "count"
    for table in (CALLS, DISTINCT, COUNTERS, CACHE_MISSES, IN_ANALYZE):
        units.update({k: "count" for k in table})
    units.update(TRACE)
    return units


def invocation_metrics(span_file: str) -> dict[str, float]:
    """Per-layer figures of one traced process."""
    with np.load(span_file) as data:
        names = [str(x) for x in data["names"]]
        name = data["name"].astype(np.int64)
        parent = data["parent"].astype(np.int64)
        duration = data["end"] - data["start"]
    with open(span_file + ".json") as fh:
        meta = json.load(fh)
    spans = len(duration)
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=duration[nested], minlength=spans)
    exclusive = np.bincount(name, weights=duration - children, minlength=len(names))
    calls = np.bincount(name, minlength=len(names))
    by_name = {nm: i for i, nm in enumerate(names)}

    def excl(*span_names):
        return float(sum(exclusive[by_name[s]] for s in span_names if s in by_name))

    def count(span_name):
        return int(calls[by_name[span_name]]) if span_name in by_name else 0

    out: dict[str, float] = {
        "cli.startup_s": meta["startup_s"],
        "trace.overhead_s": meta["overhead_s"],
        "trace.spans": spans,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = excl(*(s for s in names if s.split(".")[0] == layer))
    for metric, span_names in TIMES.items():
        out[metric] = excl(*span_names)
    for metric, span_name in CALLS.items():
        out[metric] = count(span_name)
    for metric, key in DISTINCT.items():
        out[metric] = meta["distinct"].get(key, 0)
    for metric, key in COUNTERS.items():
        out[metric] = meta["counters"].get(key, 0)
    for metric, key in CACHE_MISSES.items():
        out[metric] = meta["cache"].get(key, {}).get("misses", 0)
    rank = by_name.get("permutations.rank_of_word")
    if rank is None or spans == 0:
        out["permutations.rank_calls"] = 0
    else:
        outside = np.array([nm.split(".")[0] != "permutations" for nm in names])
        caller = parent[name == rank]
        from_outside = (caller < 0) | outside[name[np.maximum(caller, 0)]]
        out["permutations.rank_calls"] = int(from_outside.sum())
    return out


def workload_metrics(invocations: list[tuple[str, str, int, float]]) -> dict[str, float]:
    """Every per-layer metric, summed over (command, span file, bytes written, wall time)."""
    total: dict[str, float] = defaultdict(int)
    for command, span_file, written, wall in invocations:
        figures = invocation_metrics(span_file)
        for key, value in figures.items():
            total[key] += value
        if command == "analyze":
            for metric, key in IN_ANALYZE.items():
                total[metric] += figures[key]
        total["cli.bytes_written"] += written
        total["trace.wall_s"] += wall
    return {k: total[k] for k in metric_units()}
