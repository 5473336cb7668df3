"""The import contract: numpy is loaded only where an array is built.

``import densitylab`` loads no submodule, ``densitylab.cli`` loads each
command's modules when the command runs, and the searches and certify
answer by point queries, so those runs never import numpy.  Each check runs
in a fresh interpreter, since this test process has numpy loaded already."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EX2 = "example2:j=2,depth=4"
POINT_QUERY_RUNS = {
    "pap-example2": (["search-pap", "--set", EX2, "--m", "2", "--l", "3", "--n", "2", "--min", "16",
                      "--horizon", "1e8"], 0),
    "gp-example2": (["search-gp", "--set", EX2, "--l", "3", "--n", "2", "--min", "16", "--horizon", "1e9"], 3),
    "gp-squarefree": (["search-gp", "--set", "squarefree", "--l", "3", "--n", "2", "--min", "16",
                       "--horizon", "1e7"], 0),
    "certify": (["certify", "gp-free", "--set", "squarefree", "--horizon", "3e4"], 0),
}


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def _check(code):
    done = _python("-c", code)
    assert done.returncode == 0, done.stderr


def test_package_import_loads_no_submodule():
    _check("import sys, densitylab\n"
           "assert [m for m in sys.modules if m.startswith('densitylab')] == ['densitylab']\n"
           "assert 'numpy' not in sys.modules")


def test_cli_import_leaves_numpy_out():
    _check("import sys, densitylab.cli\nassert 'numpy' not in sys.modules")


def test_density_loads_numpy():
    _check("import sys, densitylab.density\nassert 'numpy' in sys.modules")


@pytest.mark.parametrize("key", sorted(POINT_QUERY_RUNS))
def test_point_query_commands_leave_numpy_out(key):
    argv, exit_code = POINT_QUERY_RUNS[key]
    done = _python("-X", "importtime", "-m", "densitylab.cli", *argv)
    assert done.returncode == exit_code, done.stderr
    assert done.stdout
    imported = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines() if line.startswith("import time:")}
    assert "densitylab.progressions" in imported  # the command's module shows in the trace
    assert "numpy" not in imported


def test_exports_resolve_and_star_import_works():
    # the 46 names the package imported eagerly before its exports went lazy
    _check(textwrap.dedent("""
        import importlib
        import densitylab

        assert len(densitylab.__all__) == len(set(densitylab.__all__)) == 46
        for name in densitylab.__all__:
            module = importlib.import_module("densitylab." + densitylab._MODULE_OF[name])
            assert getattr(densitylab, name) is getattr(module, name), name
        namespace = {}
        exec("from densitylab import *", namespace)
        assert set(densitylab.__all__) <= set(namespace)
        from densitylab import cli, density, intset, monad, numerics, productset, progressions
        assert not hasattr(densitylab, "no_such_name")
    """))
