import tracemalloc

import numpy as np
import pytest

from ergodyn import (
    DimensionError,
    InvalidArgumentError,
    InvalidKernelError,
    NoisySystem,
    TransitionKernel,
    kernel_from_rows,
    kernel_power,
    make_uniform_partition,
    ulam_discretize,
)

from conftest import fresh, power_formations, random_kernel, swap_kernel


class TestKernelFromRows:
    def test_identity(self):
        P = kernel_from_rows(np.eye(3))
        for i in range(3):
            cols, probs = P.row(i)
            assert list(cols) == [i]
            assert list(probs) == [1.0]

    def test_swap(self):
        P = swap_kernel()
        assert np.array_equal(P.to_dense(), [[0, 1], [1, 0]])

    def test_row_sum_violation(self):
        with pytest.raises(InvalidKernelError):
            kernel_from_rows([[0.5, 0.5, 0.1], [1, 0, 0], [0, 0, 1]])

    def test_negative_entry(self):
        with pytest.raises(InvalidKernelError):
            kernel_from_rows([[1.1, -0.1], [0, 1]])

    def test_non_square(self):
        with pytest.raises(DimensionError):
            kernel_from_rows(np.ones((2, 3)) / 3)

    def test_small_drift_renormalised(self):
        rows = np.array([[0.5, 0.5 + 2e-10], [1.0, 0.0]])
        P = kernel_from_rows(rows)
        sums = np.add.reduceat(P.data, P.indptr[:-1])
        assert np.abs(sums - 1).max() <= 1e-12

    def test_row_sums_always_valid(self, rng):
        for k in (1, 2, 7, 33):
            P = random_kernel(rng, k)
            assert P.data.min() >= 0
            sums = np.add.reduceat(P.data, P.indptr[:-1])
            assert np.abs(sums - 1).max() <= 1e-12

    def test_zero_entries_dropped(self):
        P = kernel_from_rows([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.25, 0.25, 0.5]])
        assert P.nnz == 6


class TestValidator:
    """The TransitionKernel constructor validates CSR arrays under the same
    policy as every producer."""

    @pytest.mark.parametrize("cols, row", [([1, 1, 0], 0), ([1, 0, 0], 0), ([1, 1, 0], 1)])
    def test_repeated_or_unsorted_column_rejected(self, cols, row):
        indptr = [0, 2, 3] if row == 0 else [0, 1, 3]
        with pytest.raises(InvalidKernelError, match=f"row {row}: column"):
            TransitionKernel(indptr, cols, [0.5, 0.5, 1.0], make_uniform_partition("unit_interval", 2))

    def test_empty_row_named(self):
        with pytest.raises(InvalidKernelError, match="row 0 has no transitions"):
            TransitionKernel([0, 0, 1], [1], [1.0], make_uniform_partition("unit_interval", 2))

    def test_drift_inside_the_band_matches_kernel_from_rows(self, rng):
        k = 40
        rows = rng.random((k, k)) * (rng.random((k, k)) < 0.3) + np.eye(k)
        rows /= rows.sum(axis=1, keepdims=True)
        devs = rng.uniform(2e-13, 9e-10, k) * rng.choice([-1.0, 1.0], k)
        devs[::4] = 0.0
        rows *= (1.0 + devs)[:, None]
        mask = rows != 0.0
        indptr = np.concatenate(([0], np.cumsum(mask.sum(axis=1))))
        P = TransitionKernel(indptr, np.nonzero(mask)[1], rows[mask], make_uniform_partition("unit_interval", k))
        Q = kernel_from_rows(rows)
        for name in ("indptr", "indices", "data"):
            assert getattr(P, name).tobytes() == getattr(Q, name).tobytes()
        assert not np.array_equal(P.data, rows[mask])  # the drifting rows were renormalised

    def test_drift_beyond_the_band_rejected(self):
        with pytest.raises(InvalidKernelError, match="row 1 sums to"):
            TransitionKernel([0, 1, 2], [0, 1], [1.0, 1.0 + 2e-9],
                             make_uniform_partition("unit_interval", 2))


class TestUlamDiscretize:
    def test_full_width_noise_erases_position(self):
        part = make_uniform_partition("circle", 4)
        system = NoisySystem("rotation", {"alpha": 0.0}, "uniform", {"half_width": 0.5})
        P = ulam_discretize(system, part, 8)
        assert np.allclose(P.to_dense(), 0.25, atol=1e-14)

    def test_grid_aligned_rotation_is_permutation(self):
        part = make_uniform_partition("circle", 4)
        system = NoisySystem("rotation", {"alpha": 0.25}, "none")
        P = ulam_discretize(system, part, 8)
        expected = np.zeros((4, 4))
        for i in range(4):
            expected[i, (i + 1) % 4] = 1.0
        assert np.array_equal(P.to_dense(), expected)

    def test_noisy_doubling_doubly_stochastic(self):
        part = make_uniform_partition("circle", 256)
        system = NoisySystem("doubling", {}, "uniform", {"half_width": 0.1})
        P = ulam_discretize(system, part, 16)
        dense = P.to_dense()
        # oracle: column sums of a kernel preserving the uniform measure are 1
        assert np.abs(dense.sum(axis=0) - 1.0).max() <= 1e-9
        assert np.abs(dense.sum(axis=1) - 1.0).max() <= 1e-12

    def test_uniform_noise_support_width(self):
        k, delta = 128, 0.05
        part = make_uniform_partition("circle", k)
        system = NoisySystem("rotation", {"alpha": 0.3}, "uniform", {"half_width": delta})
        P = ulam_discretize(system, part, 16)
        # the noise band spans 2*delta*k cells plus one cell of image spread,
        # and straddling boundaries can touch one more
        target = 2 * delta * k + 1
        for i in range(k):
            cols, _ = P.row(i)
            assert abs(len(cols) - target) <= 1.0 + 1e-9

    def test_zero_half_width_rejected(self):
        with pytest.raises(InvalidArgumentError):
            NoisySystem("rotation", {"alpha": 0.1}, "uniform", {"half_width": 0.0})

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(InvalidArgumentError):
            NoisySystem("doubling", {}, "wrapped_gaussian", {"sigma": -0.1})

    def test_gaussian_rows_stochastic(self):
        part = make_uniform_partition("circle", 64)
        system = NoisySystem("doubling", {}, "wrapped_gaussian", {"sigma": 0.05})
        P = ulam_discretize(system, part, 8)
        sums = np.add.reduceat(P.data, P.indptr[:-1])
        assert np.abs(sums - 1).max() <= 1e-12

    def test_clamp_keeps_mass(self):
        part = make_uniform_partition("unit_interval", 16)
        system = NoisySystem(
            "logistic", {"r": 4.0}, "uniform", {"half_width": 0.2}, "clamp"
        )
        P = ulam_discretize(system, part, 8)
        sums = np.add.reduceat(P.data, P.indptr[:-1])
        assert np.abs(sums - 1).max() <= 1e-12

    def test_clamp_piles_on_boundary(self):
        # images near 0 spill below: that mass must land in cell 0
        part = make_uniform_partition("unit_interval", 8)
        system = NoisySystem(
            "rotation", {"alpha": 0.0}, "uniform", {"half_width": 0.5}, "clamp"
        )
        P = ulam_discretize(system, part, 4)
        dense = P.to_dense()
        # from cell 0 (images ~0.06), about (0.5-0.06)/1.0 of the noise lies below 0
        assert dense[0, 0] > 0.4

    def test_noise_free_needs_wrap_or_inrange(self):
        with pytest.raises(InvalidArgumentError):
            NoisySystem("doubling", {}, "none", boundary="clamp")
        NoisySystem("logistic", {"r": 4.0}, "none", boundary="clamp")  # fine

    def test_tent_map_preserves_lebesgue(self):
        part = make_uniform_partition("unit_interval", 64)
        system = NoisySystem(
            "piecewise_linear",
            {"breakpoints": (0.5,), "slopes": (2.0, -2.0)},
            "none",
            boundary="clamp",
        )
        P = ulam_discretize(system, part, 16)
        dense = P.to_dense()
        assert np.abs(dense.sum(axis=0) - 1.0).max() <= 1e-12

    def test_rotation_angle_validated(self):
        with pytest.raises(InvalidArgumentError):
            NoisySystem("rotation", {"alpha": 1.5}, "none")

    def test_logistic_r_validated(self):
        with pytest.raises(InvalidArgumentError):
            NoisySystem("logistic", {"r": 4.5}, "none")

    def test_quadrature_points_validated(self):
        part = make_uniform_partition("circle", 4)
        system = NoisySystem("doubling", {}, "uniform", {"half_width": 0.1})
        with pytest.raises(InvalidArgumentError):
            ulam_discretize(system, part, 0)


class TestKernelPower:
    def test_identity_fixed(self):
        P = kernel_from_rows(np.eye(4))
        assert np.array_equal(kernel_power(P, 7).to_dense(), np.eye(4))

    def test_swap_squared_is_identity(self):
        assert np.array_equal(kernel_power(swap_kernel(), 2).to_dense(), np.eye(2))

    def test_matches_triple_product_oracle(self, rng):
        P = random_kernel(rng, 10)
        dense = P.to_dense()
        oracle = dense @ dense @ dense
        assert np.abs(kernel_power(P, 3).to_dense() - oracle).max() <= 1e-12

    def test_power_additivity(self, rng):
        for _ in range(10):
            k = int(rng.integers(2, 50))
            P = random_kernel(rng, k)
            a, b = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            lhs = kernel_power(P, a + b).to_dense()
            rhs = kernel_power(P, a).to_dense() @ kernel_power(P, b).to_dense()
            assert np.abs(lhs - rhs).max() <= 1e-10

    def test_zero_power_rejected(self):
        with pytest.raises(InvalidArgumentError):
            kernel_power(swap_kernel(), 0)

    def test_power_one_returns_same_kernel(self):
        P = swap_kernel()
        assert kernel_power(P, 1) is P

    def test_each_power_is_formed_once_per_kernel(self, rng, monkeypatch):
        P = random_kernel(rng, 12, density=0.3)
        formed = power_formations(monkeypatch)
        assert kernel_power(P, 1) is P and formed == []  # P^1 is P: nothing to form
        Q2 = kernel_power(P, 2)
        assert kernel_power(P, 2) is Q2 and formed == [Q2]
        Q3 = kernel_power(P, 3)
        assert kernel_power(P, 3) is Q3 and formed == [Q2, Q3]
        # the latest power replaces the one before: P^2 is formed again, with its bits
        again = kernel_power(P, 2)
        assert again is not Q2 and formed == [Q2, Q3, again]
        assert again.data.tobytes() == Q2.data.tobytes()
        # the power is kept on its kernel: a kernel with the same arrays forms its own
        assert kernel_power(fresh(P), 2) is not again and len(formed) == 4

    def test_a_kernel_holds_at_most_one_power(self):
        # from p = 5 on, a power of this kernel is a full 512 x 512 CSR (262,144 entries)
        system = NoisySystem("rotation", {"alpha": 0.37}, "uniform", {"half_width": 0.1})
        P = ulam_discretize(system, make_uniform_partition("circle", 512))
        P.csr(), kernel_power(swap_kernel(), 3)  # SciPy's sparse modules load untraced
        tracemalloc.start()
        try:
            for p in range(2, 10):
                Q = kernel_power(P, p)
            del Q
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        last = kernel_power(P, 9)
        one = last.indptr.nbytes + last.indices.nbytes + last.data.nbytes
        assert last.nnz == 512 * 512
        assert held <= 1.1 * one, f"held {held / 2**20:.1f} MiB, one power {one / 2**20:.1f} MiB"

    @pytest.mark.parametrize("p", [2, 3, 6, 10**23])
    def test_a_cached_power_has_the_bits_of_a_fresh_one(self, rng, p):
        P = random_kernel(rng, 15, density=0.3)
        cached = kernel_power(P, p)
        cached.csr(), cached.matvec(np.ones(15))  # readers of the cached power leave it as formed
        again = kernel_power(fresh(P), p)
        assert kernel_power(P, p) is cached
        for name in ("indptr", "indices", "data"):
            assert getattr(cached, name).tobytes() == getattr(again, name).tobytes(), name


class TestRowCumsums:
    def _per_row(self, P):
        return np.concatenate([np.cumsum(P.row(i)[1]) for i in range(P.K)])

    @pytest.mark.parametrize("k, density", [(1, 1.0), (7, 0.6), (60, 0.05), (300, 0.3)])
    def test_matches_per_row_cumsum(self, rng, k, density):
        P = random_kernel(rng, k, density)
        _, _, cumdata = P.csr_with_cum()
        assert np.array_equal(cumdata, self._per_row(P))
        assert P.csr_with_cum()[2] is cumdata  # cached

    def test_full_row_among_sparse_rows(self, rng, monkeypatch):
        # a full row wider than the block budget gets a block of its own
        import ergodyn._backend as backend

        monkeypatch.setattr(backend, "_BLOCK_ENTRIES", 64)
        k = 200
        rows = np.eye(k)[rng.permutation(k)] * 0.5 + np.eye(k) * 0.5
        rows[k // 2] = rng.random(k) + 0.01
        rows[k // 2] /= rows[k // 2].sum()
        P = kernel_from_rows(rows)
        assert np.diff(P.indptr).max() == k
        assert np.array_equal(P.csr_with_cum()[2], self._per_row(P))

