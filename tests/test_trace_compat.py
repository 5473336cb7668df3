"""The benchmark's span tracer (perfbench/trace.py) wraps densitylab
functions by name, among them ``density.power_sum_range``,
``progressions._allowed`` and the set walks ``next_member``/``prev_member``,
and reads the counters of ``PrefixSums.__init__`` and ``range_sum`` from
their arguments by position.  A refactor that renames or stops calling one
of them, or moves those arguments, leaves the tracer blind or ends a traced
run without failing anything else; these tests run a traced and an
untraced density (element and block view), search and productset request
and check both."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARGS = ["density", "--set", "squarefree", "--horizon", "1e4", "--m", "2"]
BLOCK_ARGS = ["density", "--set", "example2:j=2,depth=4", "--horizon", "1e5", "--m", "2"]
PRODUCTSET_ARGS = ["productset", "--set-a", "primes", "--set-b", "primes", "--n", "4,16", "--horizon", "1e6"]
SEARCH_ARGS = ["search-gp", "--set", "example2:j=2,depth=4", "--l", "3", "--n", "2", "--min", "16", "--horizon", "1e8"]


def _run(argv):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, timeout=120)


def test_traced_report_equals_untraced_and_spans_cover_layers(tmp_path):
    spans = tmp_path / "spans.jsonl"
    traced = _run([str(ROOT / "perfbench" / "trace.py"), str(spans), "req", "cli", *ARGS])
    plain = _run(["-m", "densitylab.cli", *ARGS])
    assert plain.returncode == 0 and traced.returncode == 0, traced.stderr.decode()
    assert plain.stdout and traced.stdout == plain.stdout
    layers = {json.loads(line).get("layer") for line in spans.read_text().splitlines()}
    assert {"density", "numerics"} <= layers


def test_traced_block_density_equals_untraced_and_counts_prefix_sums(tmp_path):
    # a block view sums its whole blocks in PrefixSums, whose build and
    # queries the tracer counts from len(args[1]) and np.size(args[1])
    spans = tmp_path / "spans.jsonl"
    traced = _run([str(ROOT / "perfbench" / "trace.py"), str(spans), "req", "cli", *BLOCK_ARGS])
    plain = _run(["-m", "densitylab.cli", *BLOCK_ARGS])
    assert plain.returncode == 0 and traced.returncode == 0, traced.stderr.decode()
    assert plain.stdout and traced.stdout == plain.stdout
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    numerics = [r for r in records if r.get("layer") == "numerics"]
    assert any(r["group"] == "prefix_build" and r["terms"] > 0 for r in numerics)
    assert any(r["group"] == "range_sum" and r["queries"] > 1 for r in numerics)
    assert {"banach", "bd", "bdm"} <= {r["group"] for r in records if r.get("layer") == "density"}


def test_traced_search_equals_untraced_and_counts_point_queries(tmp_path):
    spans = tmp_path / "spans.jsonl"
    traced = _run([str(ROOT / "perfbench" / "trace.py"), str(spans), "req", "cli", *SEARCH_ARGS])
    plain = _run(["-m", "densitylab.cli", *SEARCH_ARGS])
    assert plain.returncode == traced.returncode == 3, traced.stderr.decode()  # search exhausted
    assert plain.stdout and traced.stdout == plain.stdout
    counts = [json.loads(line)["counts"] for line in spans.read_text().splitlines() if '"counts"' in line]
    assert counts and counts[-1].get("progressions.approx_calls", 0) > 0


def test_traced_productset_equals_untraced_and_spans_cover_walks(tmp_path):
    # after its first window with m = 2, gap_witness asks the sieve kinds
    # for members by next_member/prev_member walks
    spans = tmp_path / "spans.jsonl"
    traced = _run([str(ROOT / "perfbench" / "trace.py"), str(spans), "req", "cli", *PRODUCTSET_ARGS])
    plain = _run(["-m", "densitylab.cli", *PRODUCTSET_ARGS])
    assert plain.returncode == traced.returncode == 0, traced.stderr.decode()
    assert plain.stdout and traced.stdout == plain.stdout
    groups = {(s.get("layer"), s.get("group")) for s in map(json.loads, spans.read_text().splitlines())}
    assert {("productset", "gap"), ("intset", "walk")} <= groups
