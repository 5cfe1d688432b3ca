"""snfair benchmark: real command-line invocations, checked and timed.

Usage (from the repository root):

    python3 perfbench/run.py --workload analyze-n8 --seed 1 --seconds 14 --trace 0

``--workload all`` runs every workload in turn, each ending with its own
JSON result line.

Each invocation is its own ``python -m snfair.cli`` process, run one at a
time by this single client (a closed loop), so per-process caches never
carry over between commands.  Wall time comes from ``perf_counter``
around spawn and reap, and peak RSS from ``os.wait4``.  Every output is
checked against computations made apart from the program
(``checks.py``, ``oracles.py``); an invocation that exits non-zero or
writes a wrong output counts as failed.

With ``--trace 0`` the run repeats whole rounds of the workload until
``--seconds`` of invocation time has been measured and reports the
end-to-end metrics (medians over rounds).  With ``--trace 1`` it runs one
untraced round and one traced round (``traced_cli.py``) and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is the JSON result; a record of every invocation and of the
machine goes to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


class Spawner:
    """The small helper process (``spawner.py``) that starts every invocation."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), self.env.get("PYTHONPATH")]))

    def run(self, cmd: list[str], log: Path, deadline: float) -> dict:
        """Run one process to completion; wall time, peak RSS and exit code."""
        request = {
            "cmd": cmd,
            "env": self.env,
            "cwd": str(ROOT),
            "log": str(log),
            "timeout": max(deadline - time.monotonic(), 0.0),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "snfair" / "cli.py").is_file():
        print(f"error: no snfair sources under {SRC}", file=sys.stderr)
        return 2
    # Started while this process is still small; the harness loads numpy.
    spawner = Spawner()
    try:
        sys.path.insert(0, str(BENCH))
        import harness

        names = list(harness.workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        return max(harness.run(argparse.Namespace(**{**vars(args), "workload": name}), spawner) for name in names)
    finally:
        spawner.close()


if __name__ == "__main__":
    sys.exit(main())
