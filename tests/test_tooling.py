"""The benchmark and the README name parts of the package; they must exist
and agree.

``perfbench/tracing.py`` patches every function it lists by module and name.
A rename inside ``src/`` would otherwise leave a traced run without the span,
silently. ``perfbench/run.py`` keeps its own copy of the check order. Both
are read from the files, so these tests need no import of the benchmark. The
tracer times each check by wrapping ``cli.run_check``, so ``verify`` runs
every check through it. The README's configuration table lists the keys of
``cli._SCHEMA``.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

from ergodyn import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
README = PERFBENCH.parent / "README.md"


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


@pytest.mark.parametrize("checks", ["all", "nonconvergence_empty,corollary_b,birkhoff"])
def test_verify_runs_each_check_through_run_check(checks, tmp_path, monkeypatch):
    calls = []
    run_check = cli.run_check

    def counted(name, *args):
        calls.append(name)
        return run_check(name, *args)

    monkeypatch.setattr(cli, "run_check", counted)
    swap = Path(cli.__file__).parent / "data" / "swap.cfg"
    assert cli.main(["verify", "--config", str(swap), "--checks", checks, "--out", str(tmp_path)]) == 0
    assert calls == (list(cli.CHECK_NAMES) if checks == "all" else checks.split(","))


def _readme_config_keys() -> dict:
    """Section -> keys of the README's configuration table, in table order.

    A row with an empty Section cell continues the section above it. Each
    comma-separated item of the Key cell names its first backticked word;
    text in parentheses, such as `wrap`, is no key.
    """
    lines = README.read_text().splitlines()
    start = lines.index("| Section | Key | Type | Default |") + 2
    keys, section = {}, None
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        section = cells[0].strip("`[]") or section
        for item in re.sub(r"\([^)]*\)", "", cells[1]).split(","):
            keys.setdefault(section, []).append(re.search(r"`([^`]+)`", item).group(1))
    return keys


def test_readme_config_table_lists_the_schema():
    want = {section: list(keys) for section, keys in cli._SCHEMA.items()}
    assert _readme_config_keys() == want
