"""Start one process per request and reap it with ``os.wait4``.

Usage: python -S perfbench/spawner.py   (requests on stdin, one JSON per line)

A request is {"cmd", "env", "cwd", "log", "timeout"}; the reply is
{"wall_s", "rss_mb", "exit_code"}.  Linux carries a process's peak RSS
across fork and exec, so a child started by a large process reports at
least that process's peak.  The benchmark therefore starts this small
process first, before it loads numpy, and has it start every timed
invocation: each reported peak is then the invocation's own.
"""
import json
import os
import subprocess
import sys
import threading
import time


def serve(requests, replies) -> None:
    for line in requests:
        req = json.loads(line)
        with open(req["log"], "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                req["cmd"], stdout=out, stderr=subprocess.STDOUT, env=req["env"], cwd=req["cwd"]
            )
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "exit_code": proc.returncode}
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
