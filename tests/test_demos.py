"""Every script in demos/ runs to exit 0 against the package in src/, so an
API change that breaks one fails here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()[-2000:]
    assert done.stdout
