"""Transition kernels: validated ingestion, Ulam discretization, powers.

A kernel is a K x K row-stochastic matrix stored in CSR form; row i is the
one-step transition law out of cell i. Kernels come either from raw matrix
data (``kernel_from_rows``) or from a noisy dynamical system declaration
(``ulam_discretize``): a base map on [0,1] composed with a noise law, whose
cell-to-cell mass is averaged over midpoint sample points per cell.

Row entry (i, j) of the Ulam matrix approximates

    (1 / |I_i|) * integral over I_i of  noise-mass(I_j around T(x)) dx,

where the noise mass is an exact CDF difference at the cell edges. On a
uniform partition with a grid-compatible map (rotation, doubling, tent) the
midpoint average is exact, so Lebesgue-preserving maps yield doubly
stochastic matrices to rounding. Rows are assembled a block at a time, each
on the cells its noise can reach, and go straight into CSR, so the build
forms no K x K array; only ``kernel_from_rows`` takes dense rows, from its
caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import _backend
from .errors import DimensionError, InvalidArgumentError, InvalidKernelError
from .space import (
    SUM_EXACT_BAND,
    SUM_RENORM_BAND,
    Partition,
    make_uniform_partition,
)

#: base map -> the names of its parameters
MAP_PARAMS = {
    "rotation": ("alpha",),
    "doubling": (),
    "logistic": ("r",),
    "piecewise_linear": ("breakpoints", "slopes"),
}
#: noise law -> (its code in ``_backend.ulam_rows``, the names of its parameters)
NOISE_PARAMS = {
    "uniform": (1, ("half_width",)),
    "wrapped_gaussian": (2, ("sigma",)),
    "none": (0, ()),
}
BOUNDARY_KINDS = ("wrap", "clamp")
#: Widest wrapped Gaussian on the circle: each Ulam row sums 2 ceil(6 sigma) + 3
#: shifted copies of the noise, 123 at this limit.
MAX_WRAP_SIGMA = 10.0


@dataclass(frozen=True, eq=False)
class NoisySystem:
    """Declarative description of a base map plus a noise law.

    base_map: one of rotation(alpha), doubling, logistic(r),
    piecewise_linear(breakpoints, slopes); noise: uniform(half_width),
    wrapped_gaussian(sigma) or none, with a finite positive parameter.
    ``MAP_PARAMS`` and ``NOISE_PARAMS`` name the parameters of each. The
    piecewise-linear map is continuous and anchored at T(0) = 0.
    ``boundary`` says how mass leaving [0,1] is treated: ``wrap`` folds it
    around the circle, ``clamp`` piles it onto the boundary cells.
    """

    base_map: str
    map_params: Mapping = field(default_factory=dict)
    noise: str = "none"
    noise_params: Mapping = field(default_factory=dict)
    boundary: str = "wrap"

    def __post_init__(self):
        if self.base_map not in MAP_PARAMS:
            raise InvalidArgumentError(f"unknown base map {self.base_map!r}")
        if self.noise not in NOISE_PARAMS:
            raise InvalidArgumentError(f"unknown noise law {self.noise!r}")
        if self.boundary not in BOUNDARY_KINDS:
            raise InvalidArgumentError(f"unknown boundary mode {self.boundary!r}")
        object.__setattr__(self, "map_params", dict(self.map_params))
        object.__setattr__(self, "noise_params", dict(self.noise_params))
        for kind, params, names in (
            (self.base_map, self.map_params, MAP_PARAMS[self.base_map]),
            (self.noise, self.noise_params, NOISE_PARAMS[self.noise][1]),
        ):
            for key in names:
                if key not in params:
                    raise InvalidArgumentError(f"{kind} needs parameter {key!r}")

        if self.base_map == "rotation":
            a = float(self.map_params["alpha"])
            if not (0.0 <= a < 1.0):
                raise InvalidArgumentError("rotation angle must lie in [0,1)")
        elif self.base_map == "logistic":
            r = float(self.map_params["r"])
            if not (0.0 <= r <= 4.0):
                raise InvalidArgumentError("logistic parameter must lie in [0,4]")
        elif self.base_map == "piecewise_linear":
            bp = np.asarray(self.map_params["breakpoints"], dtype=np.float64)
            sl = np.asarray(self.map_params["slopes"], dtype=np.float64)
            if sl.size != bp.size + 1:
                raise InvalidArgumentError("need one slope per segment (breakpoints+1)")
            if bp.size and not (
                np.all(np.diff(bp) > 0) and bp[0] > 0.0 and bp[-1] < 1.0
            ):
                raise InvalidArgumentError("breakpoints must increase strictly inside (0,1)")
            if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(sl))):
                raise InvalidArgumentError("piecewise-linear parameters must be finite")

        for key in NOISE_PARAMS[self.noise][1]:
            v = float(self.noise_params[key])
            if v == 0.0:
                raise InvalidArgumentError(f"{key} 0 is degenerate; use noise='none'")
            if not (v > 0.0 and math.isfinite(v)):
                raise InvalidArgumentError(f"{key} must be finite and positive, got {v!r}")
        sigma = float(self.noise_params.get("sigma", 0.0))
        if self.noise == "wrapped_gaussian" and self.boundary == "wrap" and sigma > MAX_WRAP_SIGMA:
            raise InvalidArgumentError(
                f"sigma {sigma!r} exceeds {MAX_WRAP_SIGMA:g}, the widest wrapped Gaussian on the circle"
            )
        # noise-free dynamics must stay inside the domain
        if self.noise == "none" and self.boundary != "wrap" and not self._range_inside_unit():
            raise InvalidArgumentError(
                "noise='none' requires boundary='wrap' or a map with range in [0,1]"
            )

    def _range_inside_unit(self) -> bool:
        if self.base_map == "rotation":
            return float(self.map_params["alpha"]) == 0.0
        if self.base_map == "doubling":
            return False
        if self.base_map == "logistic":
            return True
        verts = self._pl_vertices()
        return bool(np.all((verts >= 0.0) & (verts <= 1.0)))

    def _pl_vertices(self) -> np.ndarray:
        bp = np.asarray(self.map_params["breakpoints"], dtype=np.float64)
        sl = np.asarray(self.map_params["slopes"], dtype=np.float64)
        xs = np.concatenate(([0.0], bp, [1.0]))
        vals = np.empty_like(xs)
        vals[0] = 0.0
        for k in range(sl.size):
            vals[k + 1] = vals[k] + sl[k] * (xs[k + 1] - xs[k])
        return vals

    def map_values(self, x: np.ndarray) -> np.ndarray:
        """Raw base-map images (before wrap/clamp)."""
        x = np.asarray(x, dtype=np.float64)
        if self.base_map == "rotation":
            return x + float(self.map_params["alpha"])
        if self.base_map == "doubling":
            return 2.0 * x
        if self.base_map == "logistic":
            r = float(self.map_params["r"])
            return r * x * (1.0 - x)
        bp = np.asarray(self.map_params["breakpoints"], dtype=np.float64)
        sl = np.asarray(self.map_params["slopes"], dtype=np.float64)
        starts = np.concatenate(([0.0], bp))
        vals = self._pl_vertices()[:-1]
        seg = np.clip(np.searchsorted(starts, x, side="right") - 1, 0, sl.size - 1)
        return vals[seg] + sl[seg] * (x - starts[seg])


@dataclass(frozen=True, eq=False)
class TransitionKernel:
    """Row-stochastic K x K matrix in CSR storage, bound to a partition."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    partition: Partition

    def __post_init__(self):
        """The one validator of kernel arrays: CSR structure, columns strictly
        increasing within each row, finite nonnegative entries, and the
        shared tolerance policy. Rows off 1 by more than ``SUM_EXACT_BAND``
        are divided by their sums, by more than ``SUM_RENORM_BAND``
        rejected; entries that are zero afterwards are dropped."""
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        data = np.ascontiguousarray(self.data, dtype=np.float64)
        k = self.partition.cell_count
        if indptr.size != k + 1 or indptr[0] != 0 or indptr[-1] != indices.size:
            raise InvalidKernelError("inconsistent CSR index pointers")
        if indices.size != data.size:
            raise InvalidKernelError("indices and data length mismatch")
        if indices.size and (indices.min() < 0 or indices.max() >= k):
            raise InvalidKernelError("column index out of range")
        empty = np.diff(indptr) < 1
        if empty.any():
            raise InvalidKernelError(f"row {int(empty.argmax())} has no transitions")
        unordered = indices[1:] <= indices[:-1]
        unordered[indptr[1:-1] - 1] = False  # the step into the next row may go down
        if unordered.any():
            e = int(unordered.argmax()) + 1
            i = int(np.searchsorted(indptr, e, side="right")) - 1
            raise InvalidKernelError(f"row {i}: column {indices[e]} repeated or out of order")
        if not np.all(np.isfinite(data)):
            raise InvalidKernelError("non-finite entry")
        if np.any(data < 0.0):
            raise InvalidKernelError(f"negative entry {data.min()}")
        sums = _row_sums(indptr, indices, data, k)
        dev = np.abs(sums - 1.0)
        if dev.max() > SUM_RENORM_BAND:
            i = int(dev.argmax())
            raise InvalidKernelError(f"row {i} sums to {float(sums[i])!r}, off by {dev[i]:g}")
        data = _rescaled(data, indptr, sums)
        keep = data > 0.0
        if not keep.all():
            indptr = np.concatenate(([0], np.cumsum(keep)))[indptr]
            indices, data = indices[keep], data[keep]
        for name, arr in (("indptr", indptr), ("indices", indices), ("data", data)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_cache", {})

    def __repr__(self):
        return f"TransitionKernel(K={self.K}, nnz={self.nnz})"

    @property
    def K(self) -> int:
        return self.partition.cell_count

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def to_dense(self) -> np.ndarray:
        """The K x K array, built on each call. Only a doubling-horizon limit
        pass uses it, and ``verify`` runs one per kernel, so no copy is kept
        on the kernel past that pass."""
        k = self.K
        dense = np.zeros((k, k))
        dense[np.repeat(np.arange(k), np.diff(self.indptr)), self.indices] = self.data
        return dense

    def row(self, i: int):
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def csr(self):
        """The kernel as a SciPy ``csr_matrix`` (built once, then cached)."""
        cache = self._cache
        if "csr" not in cache:
            from scipy.sparse import csr_matrix

            cache["csr"] = csr_matrix((self.data, self.indices, self.indptr), shape=(self.K, self.K))
        return cache["csr"]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Row action: (P x)_i = sum_j P_ij x_j, on a K-vector or each column of a K x T block."""
        return _backend.matvec(self.csr(), np.asarray(x, dtype=np.float64))

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """Column action: (x P)_j = sum_i x_i P_ij, on a K-vector or each column of a K x T block."""
        return _backend.rmatvec(self.csr(), np.asarray(x, dtype=np.float64))

    def restrict(self, states: np.ndarray):
        """Submatrix over the given states (rows and columns), as a SciPy ``csr_matrix``."""
        states = np.asarray(states, dtype=np.int64)
        return self.csr()[states][:, states]

    def csr_with_cum(self):
        """CSR arrays with each row's running sums in place of its entries:
        the inverse-CDF table the samplers search (built once, then cached)."""
        cache = self._cache
        if "cumdata" not in cache:
            cumdata = _row_cumsums(self.indptr, self.data)
            cumdata.setflags(write=False)
            cache["cumdata"] = cumdata
        return self.indptr, self.indices, cache["cumdata"]


def _row_sums(indptr, indices, data, k: int) -> np.ndarray:
    """Row sums of a CSR matrix of nonnegative entries, with no empty row,
    that take every decision ``dense.sum(axis=1)`` takes under the tolerance
    policy.

    Any order of summing w nonnegative terms lies within a relative
    (w - 1) u / (1 - (w - 1) u) of the exact sum, u = 2^-53 (Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, sec. 4.2), and the dense
    sum's extra zeros add exactly. So the cheap sum over a row's w stored
    entries and the dense sum differ by at most 4 w u times the cheap sum.
    A row whose cheap sum stays inside ``SUM_EXACT_BAND`` by that margin is
    inside it on the dense sum too and keeps the cheap sum. Every other row,
    near the band's edge or beyond it, where its sum is a divisor or appears
    in an error message, is scattered into a K-slot row of zeros and summed
    there, with the dense sum's bits.
    """
    width = np.diff(indptr)
    sums = np.add.reduceat(data, indptr[:-1])
    for i in np.flatnonzero(np.abs(sums - 1.0) + width * 2.0**-51 * sums > SUM_EXACT_BAND):
        row = np.zeros(k)
        row[indices[indptr[i]:indptr[i + 1]]] = data[indptr[i]:indptr[i + 1]]
        sums[i] = row.sum()
    return sums


def _row_cumsums(indptr, data) -> np.ndarray:
    """Running sums within each CSR row, with the bits of ``np.cumsum`` on
    each row alone.

    A cumulative sum adds left to right, so zeros padded after a row's end
    leave its sums unchanged. Blocks of consecutive rows (the bounded blocks
    of the Ulam assembly) are padded with zeros to the block's widest row
    and summed along axis 1.
    """
    width = np.diff(indptr)
    cumdata = np.empty_like(data)
    for a, b, span in _backend._blocks(width, 1):
        rows = np.zeros((b - a, span))
        lo, hi = indptr[a], indptr[b]
        # entry e of row i sits at slot (i - a) * span + (e - row start)
        slot = np.arange(lo, hi) + np.repeat(np.arange(b - a) * span - indptr[a:b], width[a:b])
        rows.ravel()[slot] = data[lo:hi]
        np.cumsum(rows, axis=1, out=rows)
        cumdata[lo:hi] = rows.ravel()[slot]
    return cumdata


def _rescaled(data, indptr, sums):
    """CSR data with each row whose sum is off 1 by more than ``SUM_EXACT_BAND`` divided by it."""
    fix = np.abs(sums - 1.0) > SUM_EXACT_BAND
    if np.any(fix):  # x / 1.0 == x, so the other rows keep their bits
        data = data / np.repeat(np.where(fix, sums, 1.0), np.diff(indptr))
    return data


def _csr_to_kernel(indptr, indices, data, partition: Partition, what: str) -> TransitionKernel:
    """The kernel of CSR arrays, which its constructor validates; every
    producer ends here, and a rejection names the producer ``what`` first."""
    try:
        return TransitionKernel(indptr, indices, data, partition)
    except InvalidKernelError as e:
        raise InvalidKernelError(f"{what}: {e}") from None


def kernel_from_rows(rows, partition: Partition | None = None) -> TransitionKernel:
    """Ingest a square nonnegative matrix as a transition kernel.

    The nonzeros of each row, in column order, go to the ``TransitionKernel``
    validator: rows off 1 by more than 1e-13 are renormalised, by more than
    1e-9 rejected. Without an explicit partition a uniform unit-interval
    partition of matching size is attached.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
        raise DimensionError(f"kernel data must be square, got {rows.shape}")
    if partition is None:
        partition = make_uniform_partition("unit_interval", rows.shape[0])
    k = partition.cell_count
    if rows.shape != (k, k):
        raise DimensionError(f"kernel_from_rows: expected a {k}x{k} matrix, got {rows.shape}")
    mask = rows != 0.0  # keeps negative and non-finite entries for the validator
    indptr = np.concatenate(([0], np.cumsum(mask.sum(axis=1))))
    return _csr_to_kernel(indptr, np.nonzero(mask)[1], rows[mask], partition, "kernel_from_rows")


def ulam_discretize(
    system: NoisySystem,
    partition: Partition,
    quadrature_points: int = 16,
) -> TransitionKernel:
    """Discretize a noisy system onto a partition by cell averaging.

    Every cell contributes ``quadrature_points`` midpoint sample images;
    each image spreads its noise mass over the cells through exact CDF
    differences, wrapped or clamped per the system's boundary mode. The rows
    come from ``_backend.ulam_rows`` as CSR arrays, evaluated a block of rows
    at a time on each row's noise-support window; no K x K array is formed.
    """
    if quadrature_points < 1:
        raise InvalidArgumentError("quadrature_points must be positive")
    b = partition.boundaries
    k = partition.cell_count
    _backend.require_addressable(f"quadrature_points {quadrature_points}", k, quadrature_points)
    offs = (np.arange(quadrature_points) + 0.5) / quadrature_points
    pts = b[:-1, None] + np.diff(b)[:, None] * offs[None, :]
    raw = system.map_values(pts.ravel()).reshape(k, quadrature_points)
    wrap = system.boundary == "wrap"
    images = np.mod(raw, 1.0) if wrap else np.clip(raw, 0.0, 1.0)
    code, names = NOISE_PARAMS[system.noise]
    param = float(system.noise_params[names[0]]) if names else 0.0
    indptr, indices, data = _backend.ulam_rows(b, np.ascontiguousarray(images), code, param, wrap)
    return _csr_to_kernel(indptr, indices, data, partition, "ulam_discretize")


def kernel_power(P: TransitionKernel, p: int) -> TransitionKernel:
    """Matrix power P^p, cached on P until a power with another p replaces
    it, so a kernel holds at most one power; P^1 is P.

    Binary powering with SciPy sparse products on the CSR form. Each
    product's rows that drift from 1 by more than ``SUM_EXACT_BAND`` are
    divided by their sums, so the drift cannot compound over the log2(p)
    products of a huge ``p``. Other rows keep their bits, and intermediate
    indices stay in product order.
    """
    if p < 1:
        raise InvalidArgumentError("power must be a positive integer")
    if p == 1:
        return P
    cached = P._cache.get("power")
    if cached is not None and cached[0] == p:
        return cached[1]
    P._cache.pop("power", None)  # the old power goes before the products form the new one

    def product(a, b):
        m = a @ b
        m.data = _rescaled(m.data, m.indptr, np.asarray(m.sum(axis=1)).ravel())
        return m

    base = P.csr()
    result = None
    e = int(p)
    while e:
        if e & 1:
            result = base if result is None else product(result, base)
        e >>= 1
        if e:
            base = product(base, base)
    result.sort_indices()
    Q = _csr_to_kernel(result.indptr, result.indices, result.data, P.partition, "kernel_power")
    P._cache["power"] = (int(p), Q)
    return Q
