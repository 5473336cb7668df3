"""The session-sweep report holds its benchmark pin.

``perfbench/session.py`` runs one library process over rising horizons on
squarefree and primes, so it is the one report that reads sieve views grown
from smaller ones and the sum tables carried over with them.  Its sha256 is
pinned in ``perfbench/expected.json``; this test only reads that file.  It
runs the script in a fresh interpreter, with an empty view cache, as the
benchmark does."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_session_sweep_report_holds_its_pin():
    pin = json.loads((ROOT / "perfbench" / "expected.json").read_text())["session-sweep"]["session"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "session.py")], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == pin
