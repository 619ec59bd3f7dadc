"""Hot inner loops of the compute path, in NumPy and SciPy.

This is the only implementation of CSR products (through one cached SciPy
``csr_matrix`` per kernel), trajectory and endpoint sampling, and Ulam row
assembly. Randomness comes from splitmix64 streams:
a trajectory with seed s is fully determined by s, and batch samplers give
trajectory i the stream seeded by ``master_seed xor i``, so sampled states
are reproducible bit for bit regardless of batching. ``perfbench/`` times
these loops inside the four CLI commands.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV53 = 1.0 / 9007199254740992.0  # 2^-53

#: Name of the pseudo-random stream algorithm, recorded in report metadata.
GENERATOR_NAME = "splitmix64"

#: Compute path, recorded in report metadata.
BACKEND = "numpy"


def mix64(z: int) -> int:
    """splitmix64 finalizer on python ints (exact 64-bit semantics)."""
    z = int(z) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def trajectory_seed(master_seed: int, index: int) -> int:
    """Per-trajectory seed: master xor index (the stream then scrambles it)."""
    return (int(master_seed) ^ int(index)) & _MASK64


def matvec(csr, x):
    """P x for a SciPy CSR matrix and a K-vector or K x T block.

    Column t of a block product equals the product with column t alone, bit
    for bit: both accumulate each row's entries in CSR order.
    """
    return csr @ x


def rmatvec(csr, x):
    """x P (P transposed times x) for a K-vector or K x T block.

    The transpose is a CSC view of the same arrays, so each output entry
    accumulates in CSR row order.
    """
    return csr.T @ x


def sample_path(indptr, indices, cumdata, start, n, seed):
    states = np.empty(n + 1, dtype=np.int64)
    states[0] = start
    state = mix64(seed)
    s = start
    for t in range(n):
        state = (state + _GOLD) & _MASK64
        u = (mix64(state) >> 11) * _INV53
        lo, hi = indptr[s], indptr[s + 1]
        pos = int(np.searchsorted(cumdata[lo:hi], u, side="right"))
        if pos >= hi - lo:
            pos = hi - lo - 1
        s = int(indices[lo + pos])
        states[t + 1] = s
    return states


def _mix64_array(z):
    """splitmix64 finalizer on a uint64 array (array arithmetic wraps silently)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def sample_endpoints(kernel_arrays, start, j, master_seed, n_samples):
    """States after j steps of n_samples trajectories from one start state.

    Trajectory i draws from the stream seeded by master_seed xor i, exactly
    as ``sample_path`` would. All trajectories advance together: each step
    is one inverse-CDF bisection over the rows' CSR running sums.
    """
    indptr, indices, cumdata = kernel_arrays.csr_with_cum()
    st = _mix64_array(np.uint64(master_seed) ^ np.arange(n_samples, dtype=np.uint64))
    states = np.full(n_samples, start, dtype=np.int64)
    rounds = int(np.diff(indptr).max()).bit_length()
    for _ in range(j):
        st = st + np.uint64(_GOLD)
        u = (_mix64_array(st) >> np.uint64(11)).astype(np.float64) * _INV53
        # first position in the row whose running sum exceeds u; a row of
        # length m settles within m.bit_length() halvings
        a, hi = indptr[states], indptr[states + 1]
        b = hi.copy()
        for _ in range(rounds):
            mid = (a + b) >> 1
            go = cumdata[np.minimum(mid, cumdata.size - 1)] <= u
            live = a < b
            a = np.where(live & go, mid + 1, a)
            b = np.where(live & ~go, mid, b)
        states = indices[np.minimum(a, hi - 1)]
    return states


def ulam_rows(boundaries, samples, noise_code, param, wrap):
    """Accumulate transition rows by averaging noise-CDF differences.

    samples: (K, q) array of base-map images, one row of sample images per
    cell. Returns a dense (K, K) row matrix.
    """
    k = boundaries.shape[0] - 1
    q = samples.shape[1]
    out = np.zeros((k, k))
    radius = {1: param, 2: 6.0 * param}.get(noise_code, 0.0)
    n_shift = int(math.ceil(radius)) + 1 if wrap else 0
    # scratch allocated once: the row loop's cost is independent of heap state
    u, cdf = np.empty((2, q, k + 1))
    mask = np.empty((q, k + 1), dtype=bool)
    diff, acc = np.empty((2, q, k))
    for i in range(k):
        y = samples[i][:, None]
        acc.fill(0.0)
        for w in range(-n_shift, n_shift + 1):
            np.subtract(boundaries[None, :], y, out=u)
            u += w
            _noise_cdf(u, noise_code, param, cdf, mask)
            if not wrap:
                cdf[:, 0] = 0.0
                cdf[:, -1] = 1.0
            np.subtract(cdf[:, 1:], cdf[:, :-1], out=diff)
            acc += diff
        np.sum(acc, axis=0, out=out[i])
        out[i] /= q
    return out


def _noise_cdf(u, noise_code, param, out, mask):
    # writes the CDF at u into out; mask is boolean scratch of u's shape
    if noise_code == 0:  # point mass at 0
        np.copyto(out, np.greater_equal(u, 0.0, out=mask))
    elif noise_code == 1:  # uniform on [-delta, delta]
        np.add(u, param, out=out)
        out /= 2.0 * param
        np.clip(out, 0.0, 1.0, out=out)
    else:  # truncated gaussian: Phi(u/sigma) cut at +-6 sigma and renormalised
        from scipy.special import erf

        lo = 0.5 * (1.0 + erf(-6.0 / math.sqrt(2.0)))
        # erf only on the columns where some |u| < 6 sigma: the rest is overwritten below
        cols = np.flatnonzero(np.less(np.abs(u, out=out), 6.0 * param, out=mask).any(axis=0))
        np.divide(u, param * math.sqrt(2.0), out=out)
        window = out[:, cols[0]:cols[-1] + 1] if cols.size else out[:, :0]
        erf(window, out=window)
        out += 1.0
        out *= 0.5
        out -= lo
        out /= 1.0 - 2.0 * lo
        np.copyto(out, 0.0, where=np.less_equal(u, -6.0 * param, out=mask))
        np.copyto(out, 1.0, where=np.greater_equal(u, 6.0 * param, out=mask))
