"""Starts and reaps the processes that run.py measures.

run.py imports numpy and holds the reference arrays. On Linux a process
that forks and execs inherits the peak RSS of the memory it replaced, so a
child started by run.py would report at least run.py's own peak RSS. This
launcher imports nothing but the standard library, so the floor it passes
on is that of a bare interpreter.

It reads one JSON job per line on stdin, {"cmd": [...], "out": PATH}, runs
cmd with stdout to PATH and stderr to PATH with suffix .err, and answers
with one JSON line: {"code": exit code, "raw_s": wall time, "maxrss_kb":
peak RSS of the child}. It ends when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        job = json.loads(line)
        out = job["out"]
        err = os.path.splitext(out)[0] + ".err"
        with open(out, "wb") as fh_out, open(err, "wb") as fh_err:
            start = time.perf_counter()
            proc = subprocess.Popen(job["cmd"], stdout=fh_out, stderr=fh_err)
            _, status, usage = os.wait4(proc.pid, 0)
            raw = time.perf_counter() - start
        # wait4 reaped the child; tell Popen so it never waits for it again
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "raw_s": raw, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
