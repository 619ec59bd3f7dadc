"""Shared builders for randomized kernels and measures, and a guard that
the suite leaves no file in the source tree's data directories."""

from pathlib import Path

import numpy as np
import pytest

from ergodyn import Measure, Observable, TransitionKernel, kernel, kernel_from_rows, make_uniform_partition


def random_kernel(rng, k, density=1.0):
    """Dense-ish random row-stochastic kernel on k states."""
    rows = rng.random((k, k))
    if density < 1.0:
        mask = rng.random((k, k)) < density
        rows = rows * mask
        empty = rows.sum(axis=1) == 0
        rows[empty, rng.integers(0, k, size=int(empty.sum()))] = 1.0
    rows /= rows.sum(axis=1, keepdims=True)
    return kernel_from_rows(rows)


def reducible_kernel(rng, class_sizes, n_transient=0):
    """Block kernel with the given closed classes plus transient states.

    States are laid out class by class, transient states last. Transient
    rows spread mass over everything, so they leak into the classes.
    """
    k = sum(class_sizes) + n_transient
    rows = np.zeros((k, k))
    start = 0
    for size in class_sizes:
        block = rng.random((size, size)) + 1e-3
        block /= block.sum(axis=1, keepdims=True)
        rows[start : start + size, start : start + size] = block
        start += size
    if n_transient:
        tr = rng.random((n_transient, k)) + 1e-3
        tr /= tr.sum(axis=1, keepdims=True)
        rows[start:] = tr
    return kernel_from_rows(rows)


def cyclic_kernel(rng, p, group_size):
    """p-cyclic chain: group g feeds group (g+1) mod p with random blocks."""
    k = p * group_size
    rows = np.zeros((k, k))
    for g in range(p):
        block = rng.random((group_size, group_size)) + 1e-3
        block /= block.sum(axis=1, keepdims=True)
        dst = ((g + 1) % p) * group_size
        rows[g * group_size : (g + 1) * group_size, dst : dst + group_size] = block
    return kernel_from_rows(rows)


def random_observable(rng, partition):
    return Observable(rng.uniform(-1.0, 1.0, partition.cell_count), partition)


def random_measure(rng, partition):
    w = rng.random(partition.cell_count) + 1e-3
    return Measure(w / w.sum(), partition)


#: Directories of the source tree that hold inputs: a run may read them but
#: write nothing there, no sidecar, class cache or output.
GUARDED_DIRS = [Path(__file__).parent / "data",
                Path(__file__).resolve().parents[1] / "src" / "ergodyn" / "data"]


def _guarded_files() -> set:
    return {path for folder in GUARDED_DIRS for path in folder.rglob("*")}


@pytest.fixture(scope="session", autouse=True)
def data_dirs_stay_as_they_were():
    """Fail the run if it leaves a new file under ``GUARDED_DIRS``."""
    before = _guarded_files()
    yield
    new = sorted(str(path) for path in _guarded_files() - before)
    assert not new, f"the test run left files in the source tree: {new}"


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def swap_kernel():
    return kernel_from_rows([[0.0, 1.0], [1.0, 0.0]])


def identity_kernel(k):
    return kernel_from_rows(np.eye(k))


def two_state_chain():
    """The aperiodic chain with stationary measure (2/3, 1/3)."""
    return kernel_from_rows([[0.9, 0.1], [0.2, 0.8]])


def three_state_transient():
    """Two absorbing states plus one transient state feeding both."""
    return kernel_from_rows([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]])


def fresh(P):
    """A kernel with P's arrays and an empty cache: nothing formed from it yet."""
    return TransitionKernel(P.indptr, P.indices, P.data, P.partition)


def power_formations(monkeypatch) -> list:
    """The powers that ``kernel_power`` forms from now on, one entry per
    formation: each one ends in the kernel validator, named for it."""
    formed = []
    csr_to_kernel = kernel._csr_to_kernel

    def counted(indptr, indices, data, partition, what):
        Q = csr_to_kernel(indptr, indices, data, partition, what)
        if what == "kernel_power":
            formed.append(Q)
        return Q

    monkeypatch.setattr(kernel, "_csr_to_kernel", counted)
    return formed
