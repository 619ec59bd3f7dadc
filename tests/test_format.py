"""The array formatter of kernel records against CPython's ``%d %d %.17g``."""

import subprocess
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergodyn import TransitionKernel, _format, cli, make_uniform_partition
from ergodyn.cli import save_kernel

from conftest import random_kernel

FIELDS = _format.int_fields(5000)


def reference(rows, cols, x):
    return "".join(f"{r} {c} {float(v):.17g}\n" for r, c, v in zip(rows, cols, x)).encode()


def formatted(x, rows=None, cols=None):
    """The formatter's text for probabilities x, or None where it falls back."""
    x = np.asarray(x, dtype=np.float64)
    rows = np.arange(x.size) % 5000 if rows is None else np.asarray(rows)
    cols = (np.arange(x.size) * 7919) % 5000 if cols is None else np.asarray(cols)
    text = _format.records(FIELDS, rows, cols, x)
    if text is not None:
        assert text.tobytes() == reference(rows, cols, x)
    return text


def certified(x) -> bool:
    return formatted([x]) is not None


def is_tie(x) -> bool:
    """x has exactly 18 significant digits and the last is 5."""
    digits = "".join(map(str, Decimal(float(x)).as_tuple().digits)).rstrip("0")
    return len(digits) == 18 and digits[-1] == "5"


@pytest.mark.parametrize("x", [
    1.0, 0.5, 0.1, 1e-4, 1e-5, 1e-100, 1.2345678901234567e-150, 2.5e-292, 3.0, 9.999999999999998,
    1 / 3, 2 / 3, 0.1 + 0.2, 123e-7, 0.00012, 0.000999, 9.5367431640625e-07,
])
def test_fixed_cases(x):
    assert certified(x)


@pytest.mark.parametrize("hexed, text", [
    ("0x1.a36e2eb1c432cp-14", "9.9999999999999991e-05"),  # the double just below 1e-4
    ("0x1.6849b86a12b9bp-47", "1e-14"),  # rounds up into the next decade
    ("0x1.7b6d71d20b96cp-263", "1e-79"),
])
def test_decade_boundaries(hexed, text):
    x = float.fromhex(hexed)
    assert f"{x:.17g}" == text
    assert formatted([x]).tobytes() == f"0 0 {text}\n".encode()


@pytest.mark.parametrize("x", [
    0.0, -0.5, float("nan"), float("inf"), 5e-324, 1e-300, 10.0, 12.5, 1e20,
    2.0**-25,  # 2.98023223876953125e-08: an exact tie at 17 digits
])
def test_uncertified_values_fall_back(x):
    assert not certified(x)


def test_index_fields():
    assert _format.int_fields(10**7) is not None
    assert _format.int_fields(10**7 + 1) is None  # an 8-digit index
    for k in (1, 9, 10, 11, 101, 4096):
        fields = _format.int_fields(k)
        x = np.full(k, 0.25)
        text = _format.records(fields, np.arange(k), np.arange(k)[::-1], x)
        assert text.tobytes() == reference(range(k), range(k - 1, -1, -1), x)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True), min_size=1, max_size=40))
def test_unit_interval_matches_percent(xs):
    formatted(xs)
    for x in xs:  # every normal value but an exact tie is certified
        assert certified(x) == (x >= 1e-292 and not is_tie(x))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_subnormal=True),
                min_size=1, max_size=40))
def test_positive_floats_match_percent(xs):
    formatted(xs)
    for x in xs:
        formatted([x])


@settings(max_examples=300, deadline=None)
@given(st.integers(18, 25), st.data())
def test_constructed_ties_fall_back(j, data):
    # m 2^-j = m 5^j 10^-j: 18 significant digits ending in 5 when m is odd
    lo, hi = -(-10**17 // 5**j), (10**18 - 1) // 5**j
    m = data.draw(st.integers(lo, hi).map(lambda v: v | 1).filter(lambda v: v <= hi))
    x = m / 2**j
    assert is_tie(x) and not certified(x)
    # the neighbours are no ties
    for y in (np.nextafter(x, 0.0), np.nextafter(x, 2.0)):
        assert certified(y)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2**53 - 1), st.integers(0, 1074))
def test_dyadic_values_match_percent(m, k):
    x = m * 2.0**-k if k <= 1022 else float(m) * 2.0**-1022 * 2.0**(1022 - k)
    if x > 0.0:
        formatted([x, x / 3, np.nextafter(x, 0.0)])


def test_fallback_block_writes_the_same_text(monkeypatch, tmp_path):
    # the record 2^-25 is an exact tie: its block goes through %, the others do not
    monkeypatch.setattr(cli, "_WRITE_BLOCK", 3)
    calls = []
    records = _format.records
    monkeypatch.setattr(_format, "records", lambda *a: calls.append(records(*a)) or calls[-1])
    tie = 2.0**-25
    rows = [[0.25, 0.75], [tie, 1.0 - tie], [0.5, 0.5], [1.0]]
    cols = [[0, 1], [1, 3], [0, 2], [2]]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    P = TransitionKernel(indptr, np.concatenate(cols), np.concatenate(rows),
                         make_uniform_partition("unit_interval", 4))
    save_kernel(P, tmp_path / "k.txt")
    text = (tmp_path / "k.txt").read_bytes().split(b"nnz 7\n")[1]
    flat = [(i, c, p) for i, (cs, ps) in enumerate(zip(cols, rows)) for c, p in zip(cs, ps)]
    assert text == reference(*zip(*flat))
    assert f"{tie:.17g}" == "2.9802322387695312e-08"  # half to even
    assert [c is None for c in calls] == [True, False, False]


def test_sidecar_digest_is_the_digest_of_the_text(rng, tmp_path):
    P = random_kernel(rng, 40, density=0.3)
    path = tmp_path / "k.txt"
    save_kernel(P, path)
    records = cli._sidecar_records(path, P.nnz)
    assert records is not None
    stored = (tmp_path / "k.txt.records").read_bytes()[:cli._DIGEST_BYTES]
    assert stored == cli._binding(cli._file_digest(path), cli.hashlib.sha256(records))


def test_no_table_is_built_at_import():
    script = ("import ergodyn.cli, ergodyn._format as f; "
              "print(f._powers.cache_info().currsize + f._digit_tables.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"
