"""Rounds, metrics and the results record of one benchmark run (see run.py)."""
from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SETUP_REPEATS = 3
RUN_BUDGET_S = 170.0  # every child still running at this point of the run is killed


def run_call(spawner, call: workloads.Call, work: Path, deadline: float, span_file: Path | None) -> dict:
    for path in call.outputs:
        path.unlink(missing_ok=True)
    if span_file is None:
        cmd = [sys.executable, "-m", "snfair.cli", *call.argv]
    else:
        cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(span_file), "--", *call.argv]
    log = work / "last.log"
    record = {"label": call.label, **spawner.run(cmd, log, deadline)}
    if record["exit_code"] == 0:
        try:
            record["problems"] = call.check()
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            record["problems"] = [f"output unreadable: {exc!r}"]
    else:
        tail = log.read_text(errors="replace").strip().splitlines()[-3:]
        record["problems"] = [f"exit code {record['exit_code']}", *tail]
    record["bytes_written"] = sum(p.stat().st_size for p in call.outputs if p.exists())
    return record


def run_round(spawner, calls, work: Path, deadline: float, traced: bool = False) -> list[dict]:
    records = []
    for i, call in enumerate(calls):
        span = work / f"spans_{i}.npz" if traced else None
        record = run_call(spawner, call, work, deadline, span)
        if traced:
            record["span_file"] = str(span)
        records.append(record)
    return records


def setup_times(spawner, work: Path, deadline: float) -> tuple[list[float], list[str]]:
    """Fresh-interpreter ``--version`` runs: start-up plus package import."""
    times, problems = [], []
    log = work / "version.log"
    for _ in range(SETUP_REPEATS):
        result = spawner.run([sys.executable, "-m", "snfair.cli", "--version"], log, deadline)
        text = log.read_text(errors="replace")
        if result["exit_code"] != 0 or not text.startswith("snfair "):
            problems.append(f"--version printed {text!r} with exit code {result['exit_code']}")
        times.append(result["wall_s"])
    return times, problems


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure_untraced(spawner, calls, work: Path, deadline: float, seconds: float):
    """Whole rounds until ``seconds`` of invocation time; end-to-end metrics."""
    setup, setup_problems = setup_times(spawner, work, deadline)
    rounds, measured = [], 0.0
    while True:
        rnd = run_round(spawner, calls, work, deadline)
        rounds.append(rnd)
        measured += sum(r["wall_s"] for r in rnd)
        if measured >= seconds or time.monotonic() + measured / len(rounds) > deadline:
            break
    walls = [sum(r["wall_s"] for r in rnd) for rnd in rounds]
    result = {
        "wall_s": metric(statistics.median(walls), "s"),
        "slowest_call_s": metric(statistics.median(max(r["wall_s"] for r in rnd) for rnd in rounds), "s"),
        "peak_rss_mb": metric(max(r["rss_mb"] for rnd in rounds for r in rnd), "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    return result, rounds, {"setup_runs_s": setup, "setup_problems": setup_problems}


def measure_traced(spawner, calls, work: Path, deadline: float):
    """One traced round; per-layer metrics and the tracing overhead."""
    traced = run_round(spawner, calls, work, deadline, traced=True)
    written = []
    for call, r in zip(calls, traced):
        span = r.pop("span_file")
        if Path(span + ".json").exists():
            written.append((call.command, span, r["bytes_written"], r["wall_s"]))
    figures = layers.workload_metrics(written)
    units = layers.metric_units()
    return {k: metric(figures[k], units[k]) for k in units}, [traced], {}


def machine() -> dict:
    import numpy as np

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def report(args, rounds, result, extra) -> None:
    """Human-readable lines before the JSON result."""
    print(f"# {args.workload} seed={args.seed} trace={args.trace} rounds={len(rounds)}")
    for i, rnd in enumerate(rounds):
        for r in rnd:
            status = "ok" if not r["problems"] else "FAILED: " + "; ".join(r["problems"])[:300]
            print(
                f"  round {i} {r['label']:<34} {r['wall_s']:9.3f} s {r['rss_mb']:8.1f} MB"
                f"  rc={r['exit_code']}  {status}"
            )
    for problem in extra.get("setup_problems", []):
        print(f"  setup: {problem}")
    for name, m in result.items():
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")


def run(args, spawner) -> int:
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    work = BENCH / "work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        calls = workloads.build(args.workload, work, args.seed)
        if args.trace:
            result, rounds, extra = measure_traced(spawner, calls, work, deadline)
        else:
            result, rounds, extra = measure_untraced(spawner, calls, work, deadline, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = [r for rnd in rounds for r in rnd]
    failed = sum(1 for r in records if r["problems"])
    wrong = [r for r in records if r["exit_code"] == 0 and r["problems"]]
    correct = not wrong and not extra.get("setup_problems")
    report(args, rounds, result, extra)
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "attempted": len(records),
        "failed": failed,
        "correct": correct,
        "rounds": rounds,
        "metrics": result,
        **extra,
    }
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed, "metrics": result}))
    return 0
