"""Write expected.json: the report sha256 of every request at DEFAULT_SEED.

Run once, from the root of a checkout of the commit whose reports are the
reference:

    python3 perfbench/pin.py

A request that does not exit with its expected code gets no pin, so the
benchmark checks it only for byte-identical repetitions once it succeeds.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil

import run


def main() -> int:
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir()
    pins = {}
    with run.Launcher(run._env()) as launcher:
        for workload, build in run.WORKLOADS.items():
            requests = build(random.Random(f"{workload}:{run.DEFAULT_SEED}"), run.WORK)
            pins[workload] = {}
            for req in requests:
                timed, report = run.run_request(req, 0, launcher, None)
                pins[workload][req.key] = hashlib.sha256(report).hexdigest() if timed.code == req.exit else None
                print(workload, req.key, timed.code, pins[workload][req.key], flush=True)
    (run.BENCH_DIR / "expected.json").write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
