"""The benchmark's span tracer names functions of the package; they must exist.

``perfbench/tracing.py`` patches every function it lists by module and name.
A rename inside ``src/`` would otherwise leave a traced run without the span,
silently. The list is read from the file, so this test needs no import of the
benchmark.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced_functions():
    tree = ast.parse(TRACING.read_text())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("TARGETS", "RUN_CHECK"):
                found[target.id] = ast.literal_eval(node.value)
    return [entry[:2] for entry in found["TARGETS"]] + [found["RUN_CHECK"][:2]]


TRACED = _traced_functions()


@pytest.mark.parametrize("module, function", TRACED, ids=[f"{m}.{f}" for m, f in TRACED])
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(module), function, None))
