"""The class solve reuses work without changing a bit.

``_two_product_solve`` is the class solve as it was before a period-1 window
reused its own product for the residual: it takes two products per window.
The solve must return the same vector and window count on the oracle's
drawn kernels and on every kernel under ``tests/data``, with fewer products,
and the cached class structure must give the period and levels that the
reference finds. Each closed class and its period are found once per kernel.
A solve whose tol lies below the rounding floor stalls in bounded time, and
no solve that converges stalls.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from ergodyn import NoisySystem, _backend, closed_classes, make_uniform_partition, measures, ulam_discretize
from ergodyn.cli import load_kernel
from ergodyn.errors import ConvergenceError
from ergodyn.measures import _class_solves, _class_structure, _graph_period, _solve_class

from test_oracle import SOLVER_TOL, float_kernel, rational_kernels

DATA = Path(__file__).parent / "data"
KERNELS = sorted(DATA.glob("*.kernel"))

#: Kernels drawn by ``rational_kernels``, as integer weights per row. Each
#: has a closed class of 3 states and period 1 whose residual is as large at
#: window 2 as at window 1, and which converges at tol 1e-12 and 1e-14 in 28
#: to 214 windows. A stall rule without the rounding floor raises on them at
#: window 2.
FLAT_START_KERNELS = [
    [[0, 0, 1, 0, 0], [5, 6, 0, 0, 0], [5, 2, 0, 0, 0], [0, 0, 0, 1, 1], [0, 0, 0, 1, 0]],
    [[0, 0, 1], [1, 0, 0], [0, 3, 1]],
    [[1, 0, 1], [1, 0, 0], [0, 1, 0]],
    [[0, 0, 1, 0, 0], [1, 0, 0, 0, 0], [0, 2, 7, 0, 0], [0, 8, 1, 3, 0], [0, 0, 1, 0, 0]],
    [[0, 0, 1, 0, 0], [1, 0, 0, 0, 0], [0, 1, 7, 0, 0], [0, 8, 1, 3, 0], [0, 0, 1, 0, 0]],
]


def _two_product_solve(sub, tol, max_iter):
    """The class solve with one product for the window and one for the residual."""
    m = sub.shape[0]
    if m == 1:
        return np.ones(1), 1, 1, np.zeros(1, dtype=np.int32)
    d, level = _graph_period(sub > 0.0)
    step = sub.T.tocsr()
    x = np.full(m, 1.0 / m)
    res = math.inf
    for it in range(1, max_iter + 1):
        acc = np.zeros(m)
        cur = x
        for _ in range(d):
            acc += cur
            cur = _backend.matvec(step, cur)
        avg = acc / d
        avg /= avg.sum()
        res = float(np.abs(_backend.matvec(step, avg) - avg).sum())
        if res <= tol:
            return avg, it, d, level
        x = cur
    raise ConvergenceError(f"class solve stalled at residual {res:.3e}", residual=res)


def assert_same_solves(P, tol, max_iter=100000):
    for cls in _class_structure(P):
        sub = P.restrict(cls.states)
        pi, windows = _solve_class(sub, cls.period, tol, max_iter)
        want_pi, want_windows, want_d, want_level = _two_product_solve(sub, tol, max_iter)
        assert pi.tobytes() == want_pi.tobytes()
        assert (windows, cls.period) == (want_windows, want_d)
        assert cls.level.tobytes() == want_level.tobytes()


@settings(max_examples=150, deadline=None)
@given(rational_kernels())
def test_drawn_kernels_solve_as_before(P):
    K = float_kernel(P)
    for tol in (1e-12, SOLVER_TOL):
        assert_same_solves(K, tol)


@pytest.mark.parametrize("path", KERNELS, ids=lambda p: p.name)
def test_data_kernels_solve_as_before(path):
    assert_same_solves(load_kernel(path), 1e-12)


@pytest.mark.parametrize("weights", FLAT_START_KERNELS)
def test_a_residual_flat_at_the_start_is_no_stall(weights):
    K = float_kernel([[Fraction(w, sum(row)) for w in row] for row in weights])
    for tol in (1e-12, SOLVER_TOL):
        assert_same_solves(K, tol)


def test_a_tol_below_the_rounding_floor_stalls_in_bounded_time(tmp_path):
    # the residual reaches its least, 4.9e-17, at window 104 and gets no lower;
    # without the stall rule this max_iter would run for days
    config = tmp_path / "c.cfg"
    config.write_text(f"[kernel]\npath = {DATA / 'pipeline_logistic_k64.kernel'}\n"
                      "[solver]\ntol = 1e-300\nmax_iter = 1000000000000\n")
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run([sys.executable, "-m", "ergodyn.cli", "measure", "--config", str(config),
                          "--out", str(tmp_path / "o")], env=env, capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 4
    assert run.stderr == ("error: no convergence: class solve stalled at residual 4.901e-17, "
                          "reached at window 104, after 208 windows\n")


def test_pipeline_solve_takes_fewer_than_two_products_per_window(monkeypatch):
    P = load_kernel(DATA / "pipeline_logistic_k64.kernel")
    (cls,) = _class_structure(P)
    calls = []
    matvec = _backend.matvec

    def counted(csr, x):
        calls.append(1)
        return matvec(csr, x)

    monkeypatch.setattr(_backend, "matvec", counted)
    assert cls.period == 1
    _, windows = _solve_class(P.restrict(cls.states), cls.period, 1e-12, 100000)
    assert len(calls) < 2 * windows


def test_a_class_solve_holds_one_block_while_it_iterates(monkeypatch):
    # the K=2048 pipeline system: one closed class of 1947 states and 101,024 entries
    system = NoisySystem("logistic", {"r": 3.9}, "wrapped_gaussian", {"sigma": 0.002}, "clamp")
    P = ulam_discretize(system, make_uniform_partition("unit_interval", 2048))
    (cls,) = _class_structure(P)
    want, _ = _solve_class(P.restrict(cls.states), cls.period, 1e-12, 100000)
    held = []
    matvec = _backend.matvec
    monkeypatch.setattr(_backend, "matvec",
                        lambda csr, x: held.append(tracemalloc.get_traced_memory()[0]) or matvec(csr, x))
    tracemalloc.start()
    try:
        blocks = [P.restrict(cls.states)]
        block = sum(a.nbytes for a in (blocks[0].indptr, blocks[0].indices, blocks[0].data))
        tracemalloc.reset_peak()
        pi, _ = _solve_class(blocks.pop(), cls.period, 1e-12, 100000)  # the solve holds the one reference
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    vectors = 16 * 8 * cls.states.size
    assert peak <= 2 * block + vectors, f"peak {peak / block:.2f} blocks"  # the block and its transpose
    assert max(held) <= block + vectors, f"held {max(held) / block:.2f} blocks"  # the transpose alone
    assert pi.tobytes() == want.tobytes()


class TestClosedClassesCache:
    def test_second_call_returns_the_same_read_only_arrays(self):
        P = load_kernel(DATA / "cyclic3_k24.kernel")
        first, second = closed_classes(P), closed_classes(P)
        assert len(first) == len(second) >= 1
        for a, b in zip(first, second):
            assert a is b
            assert not a.flags.writeable
        second.clear()  # the caller's list is its own
        assert len(closed_classes(P)) == len(first)

    def test_class_solve_and_period_lcm_share_the_classes(self, monkeypatch):
        P = load_kernel(DATA / "cyclic3_k24.kernel")
        calls = []
        find = measures._closed_classes_on

        def counted(*args):
            calls.append(1)
            return find(*args)

        monkeypatch.setattr(measures, "_closed_classes_on", counted)
        _class_solves(P, 1e-12, 100000)
        measures._odd_period_lcm(P)
        closed_classes(P)
        assert len(calls) == 1


def count_period_searches(monkeypatch, P) -> int:
    """``_graph_period`` calls made by the class solve, the limit horizon and
    ``closed_classes`` on a fresh kernel."""
    calls = []
    search = measures._graph_period

    def counted(sub):
        calls.append(1)
        return search(sub)

    monkeypatch.setattr(measures, "_graph_period", counted)
    _class_solves(P, 1e-12, 100000)
    measures._odd_period_lcm(P)
    closed_classes(P)
    return len(calls)


def test_each_period_is_searched_once(monkeypatch):
    P = load_kernel(DATA / "cyclic3_k24.kernel")
    assert count_period_searches(monkeypatch, P) == len(closed_classes(P))


@settings(max_examples=60, deadline=None)
@given(rational_kernels())
def test_each_period_of_a_drawn_kernel_is_searched_once(P):
    K = float_kernel(P)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert count_period_searches(monkeypatch, K) == len(closed_classes(K))
