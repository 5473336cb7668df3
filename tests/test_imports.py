"""The import contract: numpy is loaded only where an array is built.

``import densitylab`` loads no submodule, ``densitylab.cli`` loads each
command's modules when the command runs, and the searches and certify
answer by point queries, so those runs never import numpy.  Neither do
``productset`` on windows within the probe's budget, which it enumerates
by point queries, and on two explicit sets whose products up to the
horizon fit that budget, which the same probe lists for the exact scan,
nor ``monad`` on intervals, which it sums in closed form.  numpy is
imported in one module, ``densitylab._np``, which loads it without OpenBLAS's
worker threads.  Each check runs in a fresh interpreter, since this test
process has numpy loaded already."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OPENBLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
EX2 = "example2:j=2,depth=4"
MONAD_INTERVALS = "[[216, 1731], [5194, 41554], [249326, 991492]]"
# key: (argv, exit code, the command's module, which must show in the trace)
POINT_QUERY_RUNS = {
    "pap-example2": (["search-pap", "--set", EX2, "--m", "2", "--l", "3", "--n", "2", "--min", "16",
                      "--horizon", "1e8"], 0, "densitylab.progressions"),
    "gp-example2": (["search-gp", "--set", EX2, "--l", "3", "--n", "2", "--min", "16", "--horizon", "1e9"], 3,
                    "densitylab.progressions"),
    "gp-squarefree": (["search-gp", "--set", "squarefree", "--l", "3", "--n", "2", "--min", "16",
                       "--horizon", "1e7"], 0, "densitylab.progressions"),
    "certify": (["certify", "gp-free", "--set", "squarefree", "--horizon", "3e4"], 0, "densitylab.progressions"),
    "productset-primes": (["productset", "--set-a", "primes", "--set-b", "primes", "--n", "4,16,64,256",
                           "--horizon", "1e8"], 0, "densitylab.productset"),
    "productset-mixed": (["productset", "--set-a", EX2, "--set-b", "squarefree", "--n", "2,4,16,64",
                          "--horizon", "1e8"], 0, "densitylab.productset"),
    "productset-explicit": (["productset", "--set-a", "explicit:3,5,7,11,13,101,1009", "--set-b",
                             "explicit:7,11,12,30,1000,4001", "--n", "2,3,16", "--horizon", "1e8"], 0,
                            "densitylab.productset"),
    "monad": (["monad", "--k", "1", "--N", "1000000000", "--intervals", MONAD_INTERVALS, "--scale", "9",
               "--invert"], 0, "densitylab.monad"),
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
    argv, exit_code, module = POINT_QUERY_RUNS[key]
    done = _python("-X", "importtime", "-m", "densitylab.cli", *argv)
    assert done.returncode == exit_code, done.stderr
    assert done.stdout
    imported = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines() if line.startswith("import time:")}
    assert module in imported  # the command's module shows in the trace
    assert "numpy" not in imported


@pytest.mark.parametrize("argv", [["--set", "squarefree", "--horizon", "1e4"],
                                  ["--set", "full", "--horizon", "1e5", "--m", "2", "--nmax", "10"]])
def test_density_leaves_monad_and_fractions_out(argv):
    # a density report rounds its values with numerics.round12; loading
    # densitylab.monad for it would also load fractions and decimal
    done = _python("-X", "importtime", "-m", "densitylab.cli", "density", *argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout
    imported = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines() if line.startswith("import time:")}
    assert "densitylab.density" in imported  # the command's module shows in the trace
    assert not imported & {"densitylab.monad", "fractions", "decimal"}


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


def _numpy_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "numpy"]


def test_numpy_is_imported_in_one_place():
    # every other module takes numpy from densitylab._np, so none loads it
    # around the thread setting there
    found = {path.name: _numpy_imports(path) for path in sorted((ROOT / "src" / "densitylab").rglob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {"_np.py": found["_np.py"]}
    assert len(found["_np.py"]) == 1


def _empty_dicts(path):
    """Lines of the module-level statements that bind an empty {} or dict()."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.lineno for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
                isinstance(node.value, ast.Dict) and not node.value.keys
                or isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Name)
                and node.value.func.id == "dict" and not node.value.args and not node.value.keywords)]


def test_one_module_level_cache():
    # a set's materialization and its sum tables live in one cache, the
    # views in intset; a module-level empty dict elsewhere would start another
    found = {path.name: _empty_dicts(path) for path in sorted((ROOT / "src" / "densitylab").rglob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines and name != "intset.py"} == {}
    assert len(found["intset.py"]) == 1


needs_pool = pytest.mark.skipif(not (sys.platform.startswith("linux") and len(os.sched_getaffinity(0)) >= 2),
                                reason="counts threads in /proc/self/status; OpenBLAS starts a pool on 2+ CPUs")


def _threads_after(code, **preset):
    """Threads of a fresh interpreter after ``code``, whether its environment
    is as it was before, and its ``OPENBLAS_NUM_THREADS``."""
    env = {k: v for k, v in os.environ.items() if k not in OPENBLAS_VARIABLES}
    env.update(preset, PYTHONPATH=str(ROOT / "src"))
    script = textwrap.dedent("""
        import json
        import os
        before = dict(os.environ)
        {code}
        threads = next(int(line.split()[1]) for line in open("/proc/self/status") if line.startswith("Threads:"))
        print(json.dumps([threads, before == dict(os.environ), os.environ.get("OPENBLAS_NUM_THREADS")]))
    """).format(code=code)
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@needs_pool
def test_density_loads_numpy_without_the_blas_pool():
    threads, unchanged, variable = _threads_after("import densitylab.density")
    assert threads == 1
    assert unchanged and variable is None  # set for the import only; no child inherits it


@needs_pool
@pytest.mark.parametrize("name", OPENBLAS_VARIABLES)
def test_openblas_variables_of_the_user_win(name):
    threads, unchanged, variable = _threads_after("import densitylab.density", **{name: "2"})
    assert threads == 2
    assert unchanged and variable == ("2" if name == "OPENBLAS_NUM_THREADS" else None)


@needs_pool
def test_numpy_loaded_first_keeps_its_pool():
    pooled, _, _ = _threads_after("import numpy")
    threads, unchanged, variable = _threads_after("import numpy\nbefore = dict(os.environ)\nimport densitylab.density")
    assert threads == pooled >= 2
    assert unchanged and variable is None
