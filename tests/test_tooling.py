"""The benchmark names parts of the package; they must exist and agree.

``perfbench/tracing.py`` patches every function it lists by module and name.
A rename inside ``src/`` would otherwise leave a traced run without the span,
silently. ``perfbench/run.py`` keeps its own copy of the check order. Both
are read from the files, so these tests need no import of the benchmark.
"""

import ast
import importlib
from pathlib import Path

import pytest

from ergodyn import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _literals(path, names) -> dict:
    """The module-level literal assignments to names in a source file."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in names:
                found[target.id] = ast.literal_eval(node.value)
    return found


def _traced_functions():
    found = _literals(PERFBENCH / "tracing.py", ("TARGETS", "RUN_CHECK"))
    return [entry[:2] for entry in found["TARGETS"]] + [found["RUN_CHECK"][:2]]


TRACED = _traced_functions()


@pytest.mark.parametrize("module, function", TRACED, ids=[f"{m}.{f}" for m, f in TRACED])
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(module), function, None))


def test_benchmark_check_order_matches_cli():
    # perfbench/run.py keeps its own copy, as it cannot import the package before
    # pinning threads; the order also seeds each check's RNG stream
    assert _literals(PERFBENCH / "run.py", ("CHECK_NAMES",))["CHECK_NAMES"] == cli.CHECK_NAMES
