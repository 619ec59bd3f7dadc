"""The kernel stays in CSR form from file to solve.

Each CSR step is compared with the dense computation it replaced: the
loader and the validator bit for bit, ``kernel_power`` and the class solve
within rounding. Memory guards fail if the Ulam build or the load -> stationary ->
periodic path forms a dense K x K array again.
"""

import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ergodyn import (
    NoisySystem,
    kernel_from_rows,
    kernel_power,
    make_uniform_partition,
    ulam_discretize,
)
from ergodyn import cli, kernel, measures, theorems
from ergodyn.cli import load_kernel, save_kernel
from ergodyn.errors import InvalidKernelError
from ergodyn.measures import (
    _class_structure,
    _graph_period,
    _solve_class,
    closed_classes,
    periodic_measures,
    stationary_measures,
)
from ergodyn.space import SUM_EXACT_BAND, SUM_RENORM_BAND

from conftest import cyclic_kernel, power_formations, random_kernel, reducible_kernel, swap_kernel


def dense_ingest(rows):
    """The dense ingestion the CSR validator replaced, as CSR arrays.

    Row sums over whole dense rows; rows off 1 by more than 1e-13 divided by
    their sum; entries that are not positive dropped.
    """
    rows = np.asarray(rows, dtype=np.float64)
    sums = rows.sum(axis=1)
    fix = np.abs(sums - 1.0) > SUM_EXACT_BAND
    if np.any(fix):
        rows = rows.copy()
        rows[fix] /= sums[fix, None]
    mask = rows > 0.0
    return np.concatenate(([0], np.cumsum(mask.sum(axis=1)))), np.nonzero(mask)[1], rows[mask]


def assert_same_bits(P, arrays):
    indptr, indices, data = arrays
    assert P.indptr.tobytes() == indptr.astype(np.int64).tobytes()
    assert P.indices.tobytes() == indices.astype(np.int64).tobytes()
    assert P.data.tobytes() == data.tobytes()


def banded_rows(rng, k, devs):
    """A random sparse row-stochastic matrix whose row i is then scaled by 1 + devs[i]."""
    rows = rng.random((k, k)) * (rng.random((k, k)) < 0.3)
    rows[np.arange(k), rng.integers(0, k, k)] += 1e-3
    rows /= rows.sum(axis=1, keepdims=True)
    return rows * (1.0 + np.asarray(devs))[:, None]


def write_records(path, rows, rng, extra_zeros=0):
    """A kernel file holding the nonzeros of rows (plus explicit zeros) in shuffled order."""
    k = rows.shape[0]
    r, c = np.nonzero(rows)
    zr, zc = np.nonzero(rows == 0.0)
    pick = rng.choice(zr.size, size=extra_zeros, replace=False)
    r, c = np.concatenate((r, zr[pick])), np.concatenate((c, zc[pick]))
    order = rng.permutation(r.size)
    r, c = r[order], c[order]
    boundaries = " ".join(f"{b:.17g}" for b in np.linspace(0.0, 1.0, k + 1))
    lines = ["ergodyn-kernel 1", f"K {k}", "domain unit_interval", f"boundaries {boundaries}",
             f"nnz {r.size}"]
    lines += [f"{i} {j} {rows[i, j]:.17g}" for i, j in zip(r, c)]
    path.write_text("\n".join(lines) + "\n")


class TestIngestionBits:
    """CSR ingestion keeps the bits of the dense path, renormalisation included."""

    @pytest.mark.parametrize("k", [7, 130, 600])
    def test_loader_matches_dense_ingestion(self, rng, tmp_path, k):
        # exact rows, rows below the 1e-13 band, and rows inside the renormalisation band
        devs = np.where(np.arange(k) % 3 == 0, 0.0, rng.uniform(2e-13, 9e-10, k))
        devs[1::3] = rng.uniform(-9e-14, 9e-14, devs[1::3].size)
        devs *= rng.choice([-1.0, 1.0], k)
        rows = banded_rows(rng, k, devs)
        # the text round trip is exact: each entry is written with 17 digits
        write_records(tmp_path / "k.txt", rows, rng, extra_zeros=min(k, 20))
        expected = dense_ingest(rows)
        fixed = np.abs(rows.sum(axis=1) - 1.0) > SUM_EXACT_BAND
        assert fixed.sum() >= k // 3 - 1  # the band is exercised
        assert_same_bits(load_kernel(tmp_path / "k.txt"), expected)
        assert_same_bits(kernel_from_rows(rows), expected)

    def test_rows_beyond_the_band_rejected_with_dense_sum(self, rng, tmp_path):
        k = 200
        devs = np.zeros(k)
        devs[[17, 123]] = [3e-9, -5e-9]
        rows = banded_rows(rng, k, devs)
        write_records(tmp_path / "k.txt", rows, rng)
        sums = rows.sum(axis=1)
        message = f"row 123 sums to {float(sums[123])!r}"
        with pytest.raises(InvalidKernelError, match=message):
            load_kernel(tmp_path / "k.txt")
        with pytest.raises(InvalidKernelError, match=message):
            kernel_from_rows(rows)
        assert np.abs(sums[123] - 1.0) > SUM_RENORM_BAND

    def test_ulam_kernel_file_round_trip_is_exact(self, tmp_path):
        system = NoisySystem("logistic", {"r": 3.9}, "wrapped_gaussian", {"sigma": 0.01}, "clamp")
        P = ulam_discretize(system, make_uniform_partition("unit_interval", 300))
        save_kernel(P, tmp_path / "k.txt")
        assert_same_bits(load_kernel(tmp_path / "k.txt"), (P.indptr, P.indices, P.data))


def scatter_row_sums(indptr, indices, data, k):
    """Row sums with the bits of ``dense.sum(axis=1)``, every row scattered
    into a K-wide scratch: the loader's sum before rows far inside the band
    kept a sum over their nonzeros."""
    sums = np.empty(k)
    block = max(1, (1 << 16) // k)
    scratch = np.zeros((block, k))
    for lo in range(0, k, block):
        hi = min(lo + block, k)
        a, b = indptr[lo], indptr[hi]
        rows = np.repeat(np.arange(hi - lo), np.diff(indptr[lo:hi + 1]))
        view = scratch[:hi - lo]
        view[rows, indices[a:b]] = data[a:b]
        view.sum(axis=1, out=sums[lo:hi])
        view[rows, indices[a:b]] = 0.0
    return sums


def near_edge_row(rng, k, w, target):
    """A row of w entries of mixed magnitudes in k slots, scaled to sum to about target."""
    v = rng.random(w) ** 4 + 1e-3
    row = np.zeros(k)
    row[rng.choice(k, w, replace=False)] = v / v.sum() * target
    return row


def crosses(row, edge):
    """The sum over the row's nonzeros alone and its dense sum lie on opposite sides of 1 +- edge."""
    cheap = np.add.reduceat(row[row != 0.0], [0])[0]
    return (abs(cheap - 1.0) > edge) != (abs(row.sum() - 1.0) > edge)


def edge_rows(rng, k, edge):
    """Rows of width 3, 17 and k whose sums lie a few ulps either side of 1 +- edge.

    Per width and side: one row per target 1 +- edge + m ulps, m = -3..3, and
    two rows that ``crosses`` the edge.
    """
    rows = []
    for sign in (-1.0, 1.0):
        for w in (3, 17, k):
            targets = 1.0 + sign * edge + np.arange(-3, 4) * 2.0**-52
            rows += [near_edge_row(rng, k, w, t) for t in targets]
            draws = (near_edge_row(rng, k, w, rng.choice(targets)) for _ in range(2000))
            rows += list(itertools.islice((row for row in draws if crosses(row, edge)), 2))
    return np.array(rows)


def csr_arrays(rows):
    mask = rows != 0.0
    return np.concatenate(([0], np.cumsum(mask.sum(axis=1)))), np.nonzero(mask)[1], rows[mask]


class TestRowSumsAtBandEdges:
    """Cheap row sums take every decision the scatter sum takes, and rows off
    the band get its bits."""

    K = 64

    def outcome(self, rows):
        try:
            P = kernel_from_rows(rows)
        except InvalidKernelError as e:
            return str(e)
        return P.indptr.tobytes(), P.indices.tobytes(), P.data.tobytes()

    def assert_edge_straddled(self, rows, edge):
        dev = np.abs(rows.sum(axis=1) - 1.0) - edge
        assert ((dev > 0.0) & (dev <= 8e-16)).any()
        assert ((dev <= 0.0) & (dev >= -8e-16)).any()
        assert sum(crosses(row, edge) for row in rows) >= 12

    def test_exact_band_edge(self, rng, monkeypatch):
        near = edge_rows(rng, self.K, SUM_EXACT_BAND)
        rows = np.vstack((near, np.eye(self.K)[near.shape[0]:]))
        arrays = csr_arrays(rows)
        want = scatter_row_sums(*arrays, self.K)
        got = kernel._row_sums(*arrays, self.K)
        self.assert_edge_straddled(near, SUM_EXACT_BAND)
        off = np.abs(want - 1.0) > SUM_EXACT_BAND
        assert np.array_equal(np.abs(got - 1.0) > SUM_EXACT_BAND, off)
        assert got[off].tobytes() == want[off].tobytes()
        new = self.outcome(rows)
        monkeypatch.setattr(kernel, "_row_sums", scatter_row_sums)
        assert new == self.outcome(rows)

    def test_renormalisation_band_edge(self, rng, monkeypatch):
        near = edge_rows(rng, self.K, SUM_RENORM_BAND)
        self.assert_edge_straddled(near, SUM_RENORM_BAND)
        matrices = [np.vstack((np.eye(self.K)[:i], row, np.eye(self.K)[i + 1:]))
                    for i, row in enumerate(near)]
        new = [self.outcome(rows) for rows in matrices]
        monkeypatch.setattr(kernel, "_row_sums", scatter_row_sums)
        assert new == [self.outcome(rows) for rows in matrices]
        rejected = sum(isinstance(o, str) for o in new)
        assert 0 < rejected < len(new)


def dense_power(P, p):
    """P^p on the dense form (binary powering), ingested the dense way."""
    return dense_ingest(np.linalg.matrix_power(np.array(P.to_dense()), p))


def conftest_kernels(rng):
    return {
        "random": random_kernel(rng, 40),
        "sparse": random_kernel(rng, 90, density=0.05),
        "reducible": reducible_kernel(rng, [3, 5, 4], n_transient=4),
        "cyclic": cyclic_kernel(rng, 3, 5),
        "swap": swap_kernel(),
    }


class TestKernelPower:
    @pytest.mark.parametrize("p", [2, 3, 5, 8])
    def test_matches_dense_oracle(self, rng, p):
        for name, P in conftest_kernels(rng).items():
            indptr, indices, data = dense_power(P, p)
            Q = kernel_power(P, p)
            assert np.array_equal(Q.indptr, indptr), name
            assert np.array_equal(Q.indices, indices), name
            assert np.abs(Q.data - data).max() <= 1e-15, name


def dense_solve_class(sub, tol, max_iter=100000):
    """The dense class solve the CSR one replaced (same windows, dense products)."""
    m = sub.shape[0]
    if m == 1:
        return np.ones(1), 1
    d, _ = _graph_period(sub > 0.0)
    x = np.full(m, 1.0 / m)
    for it in range(1, max_iter + 1):
        acc = np.zeros(m)
        cur = x
        for _ in range(d):
            acc += cur
            cur = cur @ sub
        avg = acc / d
        avg /= avg.sum()
        if float(np.abs(avg @ sub - avg).sum()) <= tol:
            return avg, it
        x = cur
    raise AssertionError("dense reference did not converge")


class TestSparseClassSolve:
    @pytest.mark.parametrize("tol", [1e-12, 1e-10])
    def test_matches_dense_solve(self, rng, tol):
        for name, P in conftest_kernels(rng).items():
            for p in (1, 2, 3):
                Q = kernel_power(P, p)
                for cls in _class_structure(Q):
                    sub = Q.restrict(cls.states)
                    got, windows = _solve_class(sub, cls.period, tol, 100000)
                    idx = np.ix_(cls.states, cls.states)
                    want, want_windows = dense_solve_class(Q.to_dense()[idx], tol)
                    assert np.abs(got - want).max() <= 1e-14, (name, p)
                    assert windows == want_windows, (name, p)
                    want_d, want_level = _graph_period(sub > 0.0)
                    assert cls.period == want_d and np.array_equal(cls.level, want_level), (name, p)

    def test_graph_period_takes_csr(self, rng):
        for p in (1, 2, 3, 4):
            P = cyclic_kernel(rng, p, 4)
            (cls,) = closed_classes(P)
            sub = P.restrict(cls)
            d, level = _graph_period(sub > 0.0)
            dense_d, dense_level = _graph_period(sub.toarray() > 0.0)
            assert d == dense_d == p
            assert np.array_equal(level, dense_level)


@pytest.fixture(scope="module")
def small_noise_kernel_file(tmp_path_factory):
    system = NoisySystem("logistic", {"r": 3.9}, "wrapped_gaussian", {"sigma": 0.002}, "clamp")
    P = ulam_discretize(system, make_uniform_partition("unit_interval", 2048))
    path = tmp_path_factory.mktemp("k2048") / "kernel.txt"
    save_kernel(P, path)
    return path, P.nnz


def test_sparse_path_peak_below_one_dense_matrix(small_noise_kernel_file):
    """load -> stationary -> periodic(p=2) at K=2048 never holds a dense K x K."""
    path, nnz = small_noise_kernel_file
    dense_bytes = 2048 * 2048 * 8
    assert nnz * 16 < dense_bytes / 8  # the kernel is sparse
    tracemalloc.start()
    try:
        P = load_kernel(path)
        (mu,) = stationary_measures(P)
        periodic = periodic_measures(P, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes, f"peak {peak / 2**20:.1f} MiB"
    assert math.isclose(mu.weights.sum(), 1.0, abs_tol=1e-12)
    assert [d for _nu, d in periodic] == [1]


def test_periodic_measures_reuse_the_class_solves(small_noise_kernel_file, monkeypatch):
    """After the stationary solve, periodic(p=2) solves nothing and copies no kernel."""
    path, _ = small_noise_kernel_file
    P = load_kernel(path)
    (mu,) = stationary_measures(P)
    solves = []
    monkeypatch.setattr(measures, "_solve_class", lambda *args: solves.append(args))
    tracemalloc.start()
    try:
        periodic = periodic_measures(P, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < P.nnz * 16, f"peak {peak / 2**10:.1f} KiB"  # one copy of P's CSR
    assert solves == []
    (nu, d), = periodic
    assert d == 1 and nu.weights.tobytes() == (mu.weights / mu.weights.sum()).tobytes()


def test_measure_command_never_forms_a_power(monkeypatch, tmp_path):
    def refuse(P, p):
        raise AssertionError(f"kernel_power({P}, {p}) called")

    formed = power_formations(monkeypatch)
    monkeypatch.setattr(kernel, "kernel_power", refuse)
    monkeypatch.setattr(theorems, "kernel_power", refuse)
    data = Path(__file__).parent / "data"
    assert cli.main([
        "measure", "--config", str(data / "pipeline_logistic_k64.cfg"),
        "--kernel", str(data / "pipeline_logistic_k64.kernel"), "--out", str(tmp_path / "o"),
    ]) == 0
    assert formed == []


def test_ulam_build_peak_below_one_dense_matrix():
    """ulam_discretize at K=2048 builds its rows straight into CSR."""
    system = NoisySystem("logistic", {"r": 3.9}, "wrapped_gaussian", {"sigma": 0.002}, "clamp")
    partition = make_uniform_partition("unit_interval", 2048)
    tracemalloc.start()
    try:
        P = ulam_discretize(system, partition)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2048 * 2048 * 8, f"peak {peak / 2**20:.1f} MiB"
    assert P.nnz * 16 < peak  # the kernel itself is traced
