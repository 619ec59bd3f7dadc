"""Which SciPy modules each command loads.

Each case runs in a fresh interpreter, as a user's command does, and reads
``sys.modules`` at exit. ``import ergodyn.cli`` loads NumPy alone: SciPy
names are imported inside the functions that call them, so a command pays
only for the SciPy parts it runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
BUNDLED = ROOT / "src" / "ergodyn" / "data"

# Runs ``python -m ergodyn.cli ARGS`` in-process after registering an exit
# hook that writes the loaded SciPy module names, as JSON, to the file named
# by the first argument. An empty argument list only imports the package.
_RUNNER = """
import atexit, json, runpy, sys
out, args = sys.argv[1], sys.argv[2:]
def dump():
    with open(out, "w") as f:
        json.dump(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")), f)
atexit.register(dump)
if args:
    sys.argv = ["ergodyn", *args]
    runpy.run_module("ergodyn.cli", run_name="__main__", alter_sys=True)
else:
    import ergodyn, ergodyn.cli
"""


def scipy_modules(tmp_path, *args, code=0):
    """The SciPy modules a fresh ``ergodyn`` process with these arguments loaded."""
    out = tmp_path / "modules.json"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run([sys.executable, "-c", _RUNNER, str(out), *map(str, args)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == code, run.stderr
    return set(json.loads(out.read_text()))


@pytest.mark.parametrize("args, code", [
    ((), 0),
    (("--help",), 0),
    (("--version",), 0),
    (("no-such-command",), 2),
    (("verify", "--kernel", BUNDLED / "swap.kernel", "--n-max", "0"), 2),
], ids=["import", "help", "version", "usage-error", "config-error"])
def test_no_scipy_without_a_kernel_computation(tmp_path, args, code):
    assert scipy_modules(tmp_path, *args, code=code) == set()


def test_uniform_kernel_build_loads_no_scipy(tmp_path):
    args = ("kernel-build", "--config", BUNDLED / "rotation_uniform.cfg", "--out", tmp_path / "o")
    assert scipy_modules(tmp_path, *args) == set()


def test_gaussian_kernel_build_loads_only_special(tmp_path):
    args = ("kernel-build", "--config", DATA / "doubling_gaussian_k64.cfg", "--out", tmp_path / "o")
    loaded = scipy_modules(tmp_path, *args)
    assert "scipy.special" in loaded
    assert "scipy.sparse" not in loaded


def test_simulate_loads_sparse_without_csgraph(tmp_path):
    args = ("simulate", "--kernel", DATA / "rotation_uniform.kernel", "--out", tmp_path / "o")
    loaded = scipy_modules(tmp_path, *args)
    assert "scipy.sparse" in loaded
    assert "scipy.sparse.csgraph" not in loaded


@pytest.mark.parametrize("command", ["measure", "verify"])
def test_class_commands_load_csgraph(tmp_path, command):
    args = (command, "--kernel", BUNDLED / "swap.kernel", "--out", tmp_path / "o")
    assert "scipy.sparse.csgraph" in scipy_modules(tmp_path, *args)
