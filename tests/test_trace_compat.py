"""The benchmark's span tracer (perfbench/trace.py) wraps densitylab
functions by name, among them ``density.power_sum_range`` and
``progressions._allowed``.  A refactor that renames or stops calling one
of them leaves the tracer blind without failing anything else; this test
runs a traced and an untraced density request and checks both."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARGS = ["density", "--set", "squarefree", "--horizon", "1e4", "--m", "2"]


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
