"""densitylab benchmark: fixed request mixes, end-to-end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` there. One client sends one request at a time and waits for it
(closed loop). A repetition runs the workload's whole request mix; the run
repeats the mix while another repetition fits in ``--seconds`` and reports
medians over repetitions.

With ``--trace 0`` every repetition is untraced and the run reports the
end-to-end metrics: wall_s (the mix's wall time), setup_s (interpreter start
plus ``import densitylab.cli``, the median of SETUP_SAMPLES) and peak_rss_mb
(the largest peak RSS of any process in the mix; launch.py starts them, so
this process's own memory does not raise it). Both times are scaled to a
reference machine speed, see REF_SECONDS. With ``--trace 1`` untraced and
traced repetitions alternate; the run reports the per-layer metrics from the
traced ones (see trace.py), the per-command wall times and unscaled times
from the untraced ones, and trace.overhead_s, the difference of their median
walls. There is no thread pool at the default DENSITYLAB_THREADS, so no
layer waits on another and no wait time is recorded.

Correctness: every request has an expected exit code. Its report's sha256 is
pinned in expected.json, taken at the commit that defined the benchmark; the
pins of requests built from seeded inputs hold only for DEFAULT_SEED. For
other seeds the report must be byte-identical across repetitions. A traced
report must equal the untraced one. A request with another exit code or a
wrong report counts as failed and makes ``correct`` false. The one exception
is a request without a pin, which did not exit as expected when the pins
were taken (a known defect): its failures count only in ``failed``. The
last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench"
DEFAULT_SEED = 1
SETUP_SAMPLES = 7


@dataclass(frozen=True)
class Request:
    key: str  # stable name inside the workload
    command: str  # density | search | certify | productset | monad | session
    argv: tuple[str, ...]  # densitylab CLI arguments; empty for the session
    exit: int = 0  # expected exit code
    seeded: bool = False  # built from seeded inputs


def _cli(key, command, *argv, exit=0, seeded=False) -> Request:
    return Request(key, command, tuple(argv), exit, seeded)


# ---------------------------------------------------------------------------
# Seeded inputs. The program sees only the generated files and arguments.
# ---------------------------------------------------------------------------


# Seeds move elements and endpoints, not the amount of work: a workload's
# cost must not depend on the seed, or run-to-run spread would measure the
# seed instead of the program.


def _explicit_spec(rng: random.Random, path: Path) -> str:
    # About 2.2e5 elements below 1e6, in 61 blocks of 2**14 whose densities
    # are a fixed set of values in a seeded order, so the Banach windows have
    # something to find and the element count barely moves with the seed.
    densities = [0.05 + 0.35 * i / 60 for i in range(61)]
    rng.shuffle(densities)
    elems = []
    for base, p in zip(range(1, 10**6, 1 << 14), densities):
        elems.extend(x for x in range(base, min(base + (1 << 14), 10**6)) if rng.random() < p)
    path.write_text(json.dumps({"kind": "explicit", "params": {"elements": elems}}))
    return str(path)


def _big_separated(rng: random.Random, top: int) -> list[list[int]]:
    """Three components [a, b] below ``top``, each with b >= 3a (big) and
    a_{i+1} >= 3 b_i (separated). The largest, which carries nearly all the
    work, moves by about 1%; the two small ones are free."""
    b = top - rng.randint(0, top // 100)
    comps = [[b // 4 + rng.randint(0, top // 400), b]]
    for _ in range(2):
        b = comps[-1][0] // rng.randint(3, 6)
        comps.append([b // rng.randint(3, 8), b])
    return comps[::-1]


def _interval_spec(rng: random.Random, path: Path) -> str:
    comps = _big_separated(rng, 300_000)
    path.write_text(json.dumps({"kind": "interval_union", "params": {"intervals": comps}}))
    return str(path)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

EX2 = "example2:j=2,depth=4"


def density_array(rng, work):
    explicit = _explicit_spec(rng, work / "explicit.json")
    return [
        _cli("squarefree", "density", "density", "--set", "squarefree", "--horizon", "1.5e6"),
        _cli("primes", "density", "density", "--set", "primes", "--horizon", "5e6"),
        _cli("explicit", "density", "density", "--set", explicit, "--horizon", "1e6", seeded=True),
    ]


def density_closed_form(rng, work):
    intervals = _interval_spec(rng, work / "intervals.json")
    return [
        _cli("full", "density", "density", "--set", "full", "--horizon", "1.5e5", "--m", "2"),
        _cli("even", "density", "density", "--set", "even", "--horizon", "3e5", "--m", "3"),
        _cli("example2-m2", "density", "density", "--set", EX2, "--horizon", "2.3e6", "--m", "2"),
        # Known defect: exits 1 with OverflowError in density._counts_in_windows
        # (block ends above int64). Kept at this size, expected to succeed.
        _cli("example2-m1", "density", "density", "--set", EX2, "--horizon", "3e6", "--m", "1"),
        _cli("intervals", "density", "density", "--set", intervals, "--horizon", "3e5", "--m", "2", seeded=True),
    ]


def search_mix(rng, work):
    comps = _big_separated(rng, 1_000_000)
    scale = str(rng.randint(2, 9))
    return [
        _cli("pap-example2", "search", "search-pap", "--set", EX2, "--m", "2", "--l", "3", "--n", "2",
             "--min", "16", "--horizon", "1e8"),
        _cli("gp-example2", "search", "search-gp", "--set", EX2, "--l", "3", "--n", "2", "--min", "16",
             "--horizon", "1e9", exit=3),
        _cli("gp-squarefree", "search", "search-gp", "--set", "squarefree", "--l", "3", "--n", "2",
             "--min", "16", "--horizon", "1e7"),
        _cli("certify", "certify", "certify", "gp-free", "--set", "squarefree", "--horizon", "3e4"),
        _cli("productset-primes", "productset", "productset", "--set-a", "primes", "--set-b", "primes",
             "--n", "4,16,64,256", "--horizon", "1e8"),
        _cli("productset-mixed", "productset", "productset", "--set-a", EX2, "--set-b", "squarefree",
             "--n", "2,4,16,64", "--horizon", "1e8"),
        _cli("monad", "monad", "monad", "--k", "1", "--N", "1000000000", "--intervals", json.dumps(comps),
             "--scale", scale, "--invert", seeded=True),
    ]


def session_sweep(rng, work):
    return [Request("session", "session", ())]


WORKLOADS = {
    "density-array": density_array,
    "density-closed-form": density_closed_form,
    "search-mix": search_mix,
    "session-sweep": session_sweep,
}
COMMANDS = ("density", "search", "certify", "productset")


# ---------------------------------------------------------------------------
# Running requests
# ---------------------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


# The 2-core box this benchmark was tuned on changes speed by up to 1.5x from
# second to second, because other tenants share its host; raw times of one
# mix moved by 16-30% (IQR over median) between runs. Each timed process is
# therefore bracketed by timings of a fixed reference computation,
# REF_SAMPLES just before it starts and REF_SAMPLES just after it ends, so
# the reference never competes with the process it calibrates. The process's
# wall time is rescaled by REF_SECONDS over their median: the scaled time
# reads as seconds on a machine where the reference takes REF_SECONDS, and a
# slower program still scales to a larger time. Raw times are reported
# beside the scaled ones.
REF_SECONDS = 0.015
REF_SAMPLES = 5
_REF_DATA = np.random.default_rng(0).random(1 << 18)
_REF_ONES = np.ones(1 << 20)


def reference_s() -> float:
    """Wall time of an interpreter loop, a numpy sort and a numpy cumsum."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i
    np.sort(_REF_DATA)
    np.cumsum(_REF_ONES)
    return time.perf_counter() - start


@dataclass
class Timed:
    code: int
    raw_s: float  # wall time of the process
    wall_s: float  # raw_s rescaled to the reference speed
    rss_mb: float  # peak RSS of the process, MiB


class Launcher:
    """launch.py, which starts the measured processes so that their peak RSS
    does not include this process's numpy and reference arrays."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "launch.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()

    def spawn(self, cmd: list[str], out: Path) -> Timed:
        """Run cmd to completion, timing the reference just before and after."""
        before = [reference_s() for _ in range(REF_SAMPLES)]
        self.proc.stdin.write(json.dumps({"cmd": cmd, "out": str(out)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("perfbench: the launcher ended early")
        reply = json.loads(line)
        after = [reference_s() for _ in range(REF_SAMPLES)]
        wall = reply["raw_s"] * REF_SECONDS / statistics.median(before + after)
        return Timed(reply["code"], reply["raw_s"], wall, reply["maxrss_kb"] / 1024.0)


def measure_setup(launcher: Launcher) -> tuple[float, float]:
    """Median (scaled, raw) time of interpreter start plus import densitylab.cli."""
    cmd = [sys.executable, "-c", "import densitylab.cli"]
    out = WORK / "setup.out"
    if launcher.spawn(cmd, out).code != 0:  # also warms the page cache and writes bytecode
        raise SystemExit(f"perfbench: cannot import densitylab.cli: {out.with_suffix('.err').read_text()}")
    samples = [launcher.spawn(cmd, out) for _ in range(SETUP_SAMPLES)]
    return statistics.median(t.wall_s for t in samples), statistics.median(t.raw_s for t in samples)


class Checker:
    """Exit-code and report-byte checks against the pins and across runs."""

    def __init__(self, workload: str, seed: int):
        self.pins = json.loads((BENCH_DIR / "expected.json").read_text())[workload]
        self.seed = seed
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []

    def check(self, req: Request, code: int, report: bytes, traced: bool):
        """Count one attempt. A traced report is held to the same pin or
        first-seen digest as the untraced ones, so tracing cannot change it."""
        self.attempted += 1
        name = f"{req.key} (traced)" if traced else req.key
        if code != req.exit:
            self.failed += 1
            if self.pins.get(req.key) is not None:  # it exited as expected when pinned
                self.correct = False
            self.problems.append(f"{name}: exit {code}, expected {req.exit}")
            return
        digest = hashlib.sha256(report).hexdigest()
        pinned = self.pins.get(req.key)
        if req.seeded and self.seed != DEFAULT_SEED:
            pinned = None
        expected = pinned or self.seen.setdefault(req.key, digest)
        if digest != expected:
            self.failed += 1
            self.correct = False
            self.problems.append(f"{name}: report sha256 {digest[:12]}, expected {expected[:12]}")


def run_request(req: Request, rep: int, launcher: Launcher, spans: Path | None) -> tuple[Timed, bytes]:
    out = WORK / f"{req.key}.{rep}.out"
    if spans is None:
        if req.command == "session":
            cmd = [sys.executable, str(BENCH_DIR / "session.py")]
        else:
            cmd = [sys.executable, "-m", "densitylab.cli", *req.argv]
    else:
        mode = ["session"] if req.command == "session" else ["cli", *req.argv]
        cmd = [sys.executable, str(BENCH_DIR / "trace.py"), str(spans), f"{rep}/{req.key}", *mode]
    timed = launcher.spawn(cmd, out)
    return timed, out.read_bytes()


def run_mix(requests, rep: int, launcher: Launcher, checker: Checker, traced: bool) -> dict:
    """One repetition of the mix. Its wall times are sums over its requests,
    which leaves out the reference timings between them."""
    rec = {"wall_s": 0.0, "raw_s": 0.0, "peak_rss_mb": 0.0, "report_bytes": 0, "spans": [],
           "cmd": {c: 0.0 for c in COMMANDS}}
    for req in requests:
        spans = WORK / f"{req.key}.{rep}.spans.jsonl" if traced else None
        timed, report = run_request(req, rep, launcher, spans)
        checker.check(req, timed.code, report, traced)
        rec["wall_s"] += timed.wall_s
        rec["raw_s"] += timed.raw_s
        rec["peak_rss_mb"] = max(rec["peak_rss_mb"], timed.rss_mb)
        rec["report_bytes"] += len(report)
        if req.command in rec["cmd"]:
            rec["cmd"][req.command] += timed.wall_s
        if traced:
            rec["spans"].append(spans)
    return rec


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one traced repetition
# ---------------------------------------------------------------------------

# span group -> (self-time metric, call-count metric, {span counter: metric})
SPAN_METRICS = {
    "density.profile": ("density.profile_self_s", "density.calls", {}),
    "density.banach": ("density.banach_self_s", "density.calls", {}),
    "density.bd": ("density.bd_self_s", "density.calls", {}),
    "density.bdm": ("density.bdm_self_s", "density.calls", {}),
    "numerics.power_sum": ("numerics.power_sum_s", "numerics.power_sum_calls",
                           {"terms": "numerics.power_sum_terms"}),
    "numerics.prefix_build": ("numerics.prefix_build_s", "numerics.prefix_builds",
                              {"terms": "numerics.prefix_terms"}),
    "numerics.range_sum": ("numerics.range_sum_s", None, {"queries": "numerics.range_sum_queries"}),
    "intset.members": ("intset.members_s", "intset.members_calls",
                       {"elements": "intset.elements", "covered": "covered"}),
    "intset.parse": ("intset.parse_s", None, {}),
    "intset.contains": ("intset.contains_s", "intset.contains_calls", {}),
    "intset.walk": ("intset.walk_s", "intset.walk_calls", {}),
    "progressions.search": ("progressions.search_self_s", None, {}),
    "progressions.gp3": ("progressions.gp3_self_s", None, {}),
    "productset.products_in": ("productset.products_in_s", "productset.products_in_calls",
                               {"products": "productset.products"}),
    "productset.gap": ("productset.gap_self_s", None, {}),
    "monad.monad": ("monad.self_s", "monad.calls", {}),
    "cli.parse": ("cli.parse_s", None, {}),
    "cli.run": ("cli.render_s", None, {}),
}


def layer_metrics(span_files: list[Path]) -> dict:
    """Sum self times and counters over every request of one repetition.

    A span's self time is its duration minus the durations of its child
    spans; children run on the caller's thread, so they never overlap.
    """
    out: dict[str, float] = {}
    workset = 0
    for path in span_files:
        if not path.exists():  # the traced process was killed before it wrote its spans
            continue
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for name, value in records.pop()["counts"].items():
            out[name] = out.get(name, 0) + value
        child_time: dict[int, float] = {}
        for r in records:
            if r["parent"] is not None:
                child_time[r["parent"]] = child_time.get(r["parent"], 0.0) + r["end"] - r["start"]
        most_elements = most_terms = 0
        for r in records:
            self_metric, calls_metric, counters = SPAN_METRICS[f"{r['layer']}.{r['group']}"]
            out[self_metric] = out.get(self_metric, 0.0) + r["end"] - r["start"] - child_time.get(r["id"], 0.0)
            if calls_metric:
                out[calls_metric] = out.get(calls_metric, 0) + 1
            for field, metric in counters.items():
                out[metric] = out.get(metric, 0) + int(r.get(field, 0))
            if r["group"] == "members":
                most_elements = max(most_elements, r.get("elements", 0))
            elif r["group"] == "prefix_build":
                most_terms = max(most_terms, r.get("terms", 0))
        # int64 elements plus two float64 prefix arrays per element
        workset = max(workset, 8 * most_elements + 16 * most_terms)
    covered, calls = out.pop("covered", 0), out.get("intset.members_calls", 0)
    out["intset.members_covered_frac"] = covered / calls if calls else 0.0
    out["workset_mb"] = workset / 2**20
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def _environment(env: dict) -> str:
    threads = env.get("DENSITYLAB_THREADS", "unset")
    return (f"env nproc={os.cpu_count()} machine={platform.machine()} python={platform.python_version()} "
            f"numpy={np.__version__} DENSITYLAB_THREADS={threads}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "densitylab" / "cli.py").is_file():
        print(f"perfbench: no densitylab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    # a str seed is hashed with sha512, so inputs do not depend on PYTHONHASHSEED
    requests = WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.seed}"), WORK)
    env = _env()
    declared = _declared()
    print(_environment(env), flush=True)

    checker = Checker(args.workload, args.seed)
    plain: list[dict] = []
    traced: list[dict] = []
    with Launcher(env) as launcher:
        setup_s, setup_raw_s = measure_setup(launcher)
        longest = 0.0  # elapsed time of the longest round (untraced plus traced repetition)
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            plain.append(run_mix(requests, len(plain) + len(traced), launcher, checker, traced=False))
            if args.trace:
                traced.append(run_mix(requests, len(plain) + len(traced), launcher, checker, traced=True))
            now = time.perf_counter()
            longest = max(longest, now - round_start)
            if now - start + longest > args.seconds:
                break

    def median(values):
        return statistics.median(list(values))

    wall = median(r["wall_s"] for r in plain)
    measured = {
        "wall_s": wall,
        "setup_s": setup_s,
        "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        "wall_unscaled_s": median(r["raw_s"] for r in plain),
        "setup_unscaled_s": setup_raw_s,
    }
    for command in COMMANDS:
        measured[f"cmd.{command}_s"] = median(r["cmd"][command] for r in plain)
    if args.trace:
        measured["trace.overhead_s"] = median(r["wall_s"] for r in traced) - wall
        measured["cli.report_bytes"] = median(r["report_bytes"] for r in plain)
        per_rep = [layer_metrics(r["spans"]) for r in traced]
        for name in declared["per_layer"]:
            if name not in measured:
                measured[name] = median(rep.get(name, 0) for rep in per_rep)

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and {len(traced)} traced "
          f"repetitions, {checker.attempted} requests, {checker.failed} failed, "
          f"failed_frac {checker.failed / checker.attempted:.4f}")
    for problem in sorted(set(checker.problems)):
        print(f"  check: {problem}")
    present = {r.command for r in requests}
    shown = {**declared["end_to_end"], "wall_unscaled_s": "s", "setup_unscaled_s": "s",
             **{f"cmd.{c}_s": "s" for c in COMMANDS if c in present}}
    if args.trace:
        shown.update(declared["per_layer"])
    for name, unit in shown.items():
        print(f"  {name:36s} {measured[name]:14.6f} {unit}")

    reported = declared["per_layer"] if args.trace else declared["end_to_end"]
    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
