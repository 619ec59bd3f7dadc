"""The benchmark and the README name parts of the package; they must exist
and agree.

``perfbench/tracing.py`` patches every function it lists by module and name.
A rename inside ``src/`` would otherwise leave a traced run without the span,
silently. ``perfbench/run.py`` keeps its own copy of the check order. Both
are read from the files, so these tests need no import of the benchmark. The
tracer times each check by wrapping ``cli.run_check``, so ``verify`` runs
every check through it, and each pass that checks share runs outside every
check's span. The README's configuration table lists the keys of
``cli._SCHEMA`` and states each bound it holds; its flags table names the
key that each flag sets, as ``cli._COMMANDS`` does.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

from ergodyn import cli, theorems

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


def test_verify_runs_each_shared_pass_outside_run_check(tmp_path, monkeypatch):
    # the benchmark times a check by its run_check span: a pass that several checks share,
    # run inside the span of the first check that reads it, would be counted as that check's
    depth, passes = [0], []
    run_check = cli.run_check

    def spanned(*args):
        depth[0] += 1
        try:
            return run_check(*args)
        finally:
            depth[0] -= 1

    def watched(name, fn):
        def call(*args, **kwargs):
            passes.append((name, depth[0]))
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(cli, "run_check", spanned)
    for module in (cli, theorems):
        for name in ("_windowed_limit", "partial_sum_extremes"):
            monkeypatch.setattr(module, name, watched(name, getattr(module, name)))
    swap = Path(cli.__file__).parent / "data" / "swap.cfg"
    assert cli.main(["verify", "--config", str(swap), "--out", str(tmp_path)]) == 0
    assert sorted(passes) == [("_windowed_limit", 0), ("partial_sum_extremes", 0)]


def _table_rows(header: str) -> list:
    """The cells of each row of the README table under header."""
    lines = README.read_text().splitlines()
    start = lines.index(header) + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _readme_config_types() -> dict:
    """(section, key) -> Type cell of the README's configuration table, in
    table order.

    A row with an empty Section cell continues the section above it. Each
    comma-separated item of the Key cell names its first backticked word;
    text in parentheses, such as `wrap`, is no key.
    """
    types, section = {}, None
    for cells in _table_rows("| Section | Key | Type | Default |"):
        section = cells[0].strip("`[]") or section
        for item in re.sub(r"\([^)]*\)", "", cells[1]).split(","):
            types[section, re.search(r"`([^`]+)`", item).group(1)] = cells[2]
    return types


def test_readme_config_table_lists_the_schema():
    keys = {}
    for section, key in _readme_config_types():
        keys.setdefault(section, []).append(key)
    assert keys == {section: list(keys) for section, keys in cli._SCHEMA.items()}


BOUNDED = [(section, key) for section, keys in cli._SCHEMA.items() for key, row in keys.items() if row[2:]]


@pytest.mark.parametrize("section, key", BOUNDED, ids=[f"{s}.{k}" for s, k in BOUNDED])
def test_readme_config_table_states_each_bound(section, key):
    least, *cap = cli._SCHEMA[section][key][2:]
    stated = ("finite positive float" if least == "positive" else
              f"int, from {least} to `{cap[0]}`" if cap else f"int, at least {least}")
    assert _readme_config_types()[section, key] == stated


def test_every_int_bound_the_readme_states_is_in_the_schema():
    # a least stated only in the README is checked by no command, so a bad kernel or a
    # late solver reports it, or a check that never reads the key passes
    stated = {key for key, cell in _readme_config_types().items() if re.match(r"int, (at least|from) ", cell)}
    assert stated == {key for key in BOUNDED if cli._SCHEMA[key[0]][key[1]][0] is int}


def test_readme_flags_table_names_the_key_each_flag_sets():
    table = {}
    for command, flags in _table_rows("| Command | Flags |"):
        items = re.findall(r"`(--[a-z-]+)`(?: \(sets `\[(\w+)\] (\w+)`\))?", flags)
        table[command.strip("`")] = [(flag, (section, key) if key else None) for flag, section, key in items]
    assert table == {command: list(flags.items()) for command, (_, _, flags) in cli._COMMANDS.items()}
