"""Hot inner loops of the compute path, in NumPy and SciPy.

This is the only implementation of CSR products (through one cached SciPy
``csr_matrix`` per kernel), trajectory and endpoint sampling, and Ulam row
assembly straight into CSR. Randomness comes from splitmix64 streams:
a trajectory with seed s is fully determined by s, and batch samplers give
trajectory i the stream seeded by ``master_seed xor i``, so sampled states
are reproducible bit for bit regardless of batching. ``perfbench/`` times
these loops inside the four CLI commands.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError

_MASK64 = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV53 = 1.0 / 9007199254740992.0  # 2^-53

#: Name of the pseudo-random stream algorithm, recorded in report metadata.
GENERATOR_NAME = "splitmix64"

#: Compute path, recorded in report metadata.
BACKEND = "numpy"


def require_addressable(what: str, *shape) -> None:
    """Reject a shape whose array of 8-byte entries would not fit in the
    address space, where NumPy raises a bare ValueError (or an ``arange``
    past int64 comes back empty); one merely beyond memory is a MemoryError."""
    if math.prod(int(n) for n in shape) * 8 > np.iinfo(np.intp).max:
        raise InvalidArgumentError(f"{what} is past the address space")


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


def _mix64_array(z):
    """splitmix64 finalizer on a uint64 array (array arithmetic wraps silently)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


#: Uniform draws generated per batch in ``walk``: steps x trajectories.
_DRAW_BLOCK = 1 << 16


def walk(kernel_arrays, start, n, master_seed, count):
    """States of count trajectories from one start state, yielded after each
    of steps 1..n; only one step's states are held at a time.

    Trajectory i draws from the stream seeded by master_seed xor i. All
    trajectories advance together: each step is one inverse-CDF bisection
    over the rows' CSR running sums, and the uniforms of a batch of steps
    are drawn at once.
    """
    indptr, indices, cumdata = kernel_arrays.csr_with_cum()
    width = np.diff(indptr)
    # a row of m entries settles within (m - 1).bit_length() halvings
    rounds = int(width.max() - 1).bit_length()
    st = _mix64_array(np.uint64(int(master_seed) & _MASK64) ^ np.arange(count, dtype=np.uint64))
    states = np.full(count, start, dtype=np.int64)
    batch = max(1, _DRAW_BLOCK // count)
    for first in range(0, n, batch):
        steps = np.arange(first + 1, min(n, first + batch) + 1, dtype=np.uint64)
        draws = _mix64_array(st + steps[:, None] * np.uint64(_GOLD)) >> np.uint64(11)
        for u in draws.astype(np.float64) * _INV53:
            # the first position in the row whose running sum exceeds u, else
            # the row's last: [pos, pos + left) holds it, halved each round
            pos, left = indptr[states], width[states]
            for _ in range(rounds):
                half = left >> 1
                pos += half * (cumdata[pos + half - 1] <= u)
                left -= half
            states = indices[pos]
            yield states


def sample_path(kernel_arrays, start, n, master_seed, count):
    """States of count n-step trajectories from one start state, as a
    (count, n + 1) array whose rows begin with ``start``.

    Trajectory i draws from the stream seeded by master_seed xor i; the
    trajectory with seed s alone is the row of ``master_seed = s, count = 1``.
    """
    path = np.empty((n + 1, count), dtype=np.int64)
    path[0] = start
    for t, states in enumerate(walk(kernel_arrays, start, n, master_seed, count), 1):
        path[t] = states
    return np.ascontiguousarray(path.T)


def sample_endpoints(kernel_arrays, start, j, master_seed, n_samples):
    """States after j steps of n_samples trajectories from one start state;
    trajectory i draws from the stream seeded by master_seed xor i, as in
    ``sample_path``."""
    states = np.full(n_samples, start, dtype=np.int64)
    for states in walk(kernel_arrays, start, j, master_seed, n_samples):
        pass
    return states


def ulam_rows(boundaries, samples, noise_code, param, wrap):
    """Ulam transition rows in CSR form, averaged over noise-CDF differences.

    samples: (K, q) array of base-map images, one row of sample images per
    cell. Returns ``(indptr, indices, data)`` holding exactly the entries that
    are not 0.0, with sorted columns; no K x K array is formed.

    Rows are built a block at a time, each on its noise-support window: per
    wrap w, the boundaries inside [min image - radius, max image + radius]
    (shifted by -w) and the first boundary beyond each end. Every CDF value
    outside the window is exactly 0 or 1, so each kept entry has the bits of
    a full-width evaluation. A uniform law at least as wide as the circle
    (half_width >= 1 with wrap) is folded in closed form instead.
    """
    if wrap and noise_code == 1 and param >= 1.0:
        blocks = _wrapped_uniform_rows(boundaries, samples, param)
    else:
        blocks = _windowed_rows(boundaries, samples, noise_code, param, wrap)
    counts, indices, data = [], [], []
    for c0, rows in blocks:
        # blocks yield each row's first column and its values over the
        # following columns; nonzero keeps row-major order
        r, c = np.nonzero(rows)
        counts.append(np.bincount(r, minlength=rows.shape[0]))
        indices.append(c + c0[r])
        data.append(rows[r, c])
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    return indptr, np.concatenate(indices), np.concatenate(data)


#: Scratch entries of one block of Ulam rows: rows x samples x (widest row + 1).
_BLOCK_ENTRIES = 1 << 16


def _row_blocks(widths, q):
    """First row of each block of consecutive rows, for row widths in columns.

    A block pads its rows to its widest, so it holds (rows) x q x (widest + 1)
    scratch entries; it grows while that stays within ``_BLOCK_ENTRIES``, and
    a row wider than the budget gets a block of its own.
    """
    first, widest = 0, 0
    for i, w in enumerate(widths):
        widest = max(widest, w)
        if i > first and (i + 1 - first) * q * (widest + 1) > _BLOCK_ENTRIES:
            yield first
            first, widest = i, w
    yield first


def _blocks(widths, q):
    """(first row, end row, widest row width) of each block of rows."""
    starts = list(_row_blocks(widths.tolist(), q))
    return list(zip(starts, starts[1:] + [widths.size], np.maximum.reduceat(widths, starts).tolist()))


def _windowed_rows(boundaries, samples, noise_code, param, wrap):
    k = boundaries.shape[0] - 1
    q = samples.shape[1]
    radius = {1: param, 2: 6.0 * param}.get(noise_code, 0.0)
    n_shift = int(math.ceil(radius)) + 1 if wrap else 0
    shifts = np.arange(-n_shift, n_shift + 1)
    # boundary slice [lo, hi] per wrap and row; the slack covers the rounding
    # of u = b - y + w, so the CDF is exactly 0 at lo and 1 at hi
    slack = 1e-13 * (2.0 + n_shift + radius)
    lo = np.searchsorted(boundaries, samples.min(axis=1) - shifts[:, None] - radius - slack, "right") - 1
    hi = np.searchsorted(boundaries, samples.max(axis=1) - shifts[:, None] + radius + slack)
    np.clip(lo, 0, k, out=lo)
    np.clip(hi, lo, k, out=hi)
    # the columns a row touches, at least two of them: NumPy then sums each
    # column's q samples in order, as it does on a full row
    live = hi > lo
    c1 = np.minimum(np.maximum(np.where(live, hi, 0).max(axis=0), 2), k)
    c0 = np.minimum(np.where(live, lo, k).min(axis=0), c1 - 2).clip(0)
    # a block evaluates each wrap on one column range [c0 + start, c0 + stop]
    # per row, which holds the row's slice: CDF values outside a slice are
    # exactly 0 or 1, so the extra columns add exact zeros
    lo, hi = lo - c0, hi - c0
    bounds = _blocks(c1 - c0, q)
    size = max((b - a) * q * (span + 1) for a, b, span in bounds)
    # scratch allocated once: the loop's cost is independent of heap state
    u, cdf, acc_all = np.empty((3, size))
    mask = np.empty(size, dtype=bool)
    cols = np.arange(int((c1 - c0).max()) + 1)
    # adding w = 0 changes u = b - y only where it is -0.0, which needs an edge of -0.0
    signed_zero = bool(np.signbit(boundaries[0]))
    for a, b, span in bounds:
        n = b - a
        y = samples[a:b, :, None]
        acc = acc_all[:n * q * span].reshape(n, q, span)
        acc.fill(0.0)
        for w, first, last in zip(shifts.tolist(), lo[:, a:b], hi[:, a:b]):
            on = last > first
            if not on.any():
                continue
            start, stop = int(first[on].min()), int(last[on].max())
            m = n * q * (stop - start + 1)
            idx = np.minimum(c0[a:b, None] + cols[start:stop + 1], k)
            uw = u[:m].reshape(n, q, -1)
            cw = cdf[:m].reshape(uw.shape)
            np.subtract(boundaries[idx][:, None, :], y, out=uw)
            if w or signed_zero:
                uw += w
            _noise_cdf(uw, noise_code, param, cw, mask[:m].reshape(uw.shape))
            if not wrap:  # clamp: mass below 0 and above 1 lands on the end cells
                cw[idx[:, 0] == 0, :, 0] = 0.0
                np.copyto(cw, 1.0, where=(idx == k)[:, None, :])
            diff = uw[:, :, :-1]
            np.subtract(cw[:, :, 1:], cw[:, :, :-1], out=diff)
            acc[:, :, start:stop] += diff
        rows = acc.sum(axis=1)
        rows /= q
        yield c0[a:b], rows


def _wrapped_uniform_rows(boundaries, samples, half_width):
    # cell [a, a + h] receives (C(y + d) - C(y - d)) / 2d, where
    # C(t) = floor(t) h + clip(t - floor(t) - a, 0, h) is the length of [0, t]
    # that wraps onto the cell; each part is divided by d before they are
    # combined, so the row stays finite for any finite d
    a, h = boundaries[:-1], np.diff(boundaries)
    k, q = samples.shape
    top, bottom = samples + half_width, samples - half_width
    ftop, fbottom = np.floor(top), np.floor(bottom)
    turns = (ftop / half_width - fbottom / half_width)[:, :, None]
    top = (top - ftop)[:, :, None]
    bottom = (bottom - fbottom)[:, :, None]
    c0 = np.zeros(k, dtype=np.int64)
    for first, end, _ in _blocks(np.full(k, k), q):
        rows = slice(first, end)
        folded = np.clip(top[rows] - a, 0.0, h) - np.clip(bottom[rows] - a, 0.0, h)
        mass = turns[rows] * h + folded / half_width
        row = mass.sum(axis=1)
        row *= 0.5 / q
        yield c0[rows], row


def _noise_cdf(u, noise_code, param, out, mask):
    # writes the CDF at u into out; mask is boolean scratch of u's shape
    if noise_code == 0:  # point mass at 0
        np.copyto(out, np.greater_equal(u, 0.0, out=mask))
    elif noise_code == 1:  # uniform on [-delta, delta]
        np.add(u, param, out=out)
        out /= param  # then halved: the bits of / (2 param), which overflows past 8.9e307
        out *= 0.5
        np.clip(out, 0.0, 1.0, out=out)
    else:  # truncated gaussian: Phi(u/sigma) cut at +-6 sigma and renormalised
        from scipy.special import erf

        lo = 0.5 * (1.0 + erf(-6.0 / math.sqrt(2.0)))
        np.divide(u, param * math.sqrt(2.0), out=out)
        erf(out, out=out)
        out += 1.0
        out *= 0.5
        out -= lo
        out /= 1.0 - 2.0 * lo
        np.copyto(out, 0.0, where=np.less_equal(u, -6.0 * param, out=mask))
        np.copyto(out, 1.0, where=np.greater_equal(u, 6.0 * param, out=mask))
