"""Finite state space: partitions of [0,1], observables, and measures.

The domain is always normalised to the unit interval (circle = R/Z). A
partition of K cells carries piecewise-constant observables (length-K real
vectors of cell values) and probability measures (length-K weight vectors).
Integration of an observable against a measure is the plain dot product.

Tolerance policy for probability vectors: a sum within 1e-13 of 1 is kept
as stored (so file round-trips are exact), a sum within 1e-9 is
renormalised, anything farther off is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _backend
from .errors import (
    DimensionError,
    InvalidArgumentError,
    InvalidMeasureError,
    InvalidObservableError,
)

DOMAIN_KINDS = ("unit_interval", "circle")

#: |sum - 1| below this is treated as exactly normalised and left untouched.
SUM_EXACT_BAND = 1e-13
#: |sum - 1| up to this is silently renormalised; beyond it is an error.
SUM_RENORM_BAND = 1e-9


def normalize_probabilities(weights, what="measure"):
    """Apply the shared tolerance policy to a nonnegative weight vector."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1:
        raise InvalidMeasureError(f"{what}: expected a 1-d weight vector")
    if not np.all(np.isfinite(w)):
        raise InvalidMeasureError(f"{what}: non-finite weight")
    if np.any(w < 0.0):
        raise InvalidMeasureError(f"{what}: negative weight {w.min()}")
    s = w.sum()
    dev = abs(s - 1.0)
    if dev > SUM_RENORM_BAND:
        raise InvalidMeasureError(f"{what}: weights sum to {float(s)!r}, off by {dev:g}")
    if dev > SUM_EXACT_BAND:
        w = w / s
    return w


@dataclass(frozen=True, eq=False)
class Partition:
    """A finite cell decomposition of [0,1] (interval or circle).

    boundaries are the K+1 strictly increasing cell edges with first 0 and
    last 1; on the circle the last edge identifies with the first.
    """

    domain_kind: str
    boundaries: np.ndarray

    def __post_init__(self):
        if self.domain_kind not in DOMAIN_KINDS:
            raise InvalidArgumentError(f"unknown domain kind {self.domain_kind!r}")
        b = np.asarray(self.boundaries, dtype=np.float64)
        if b.ndim != 1 or b.size < 2:
            raise InvalidArgumentError("boundaries must hold at least two edges")
        if not (np.all(np.diff(b) > 0.0) and b[0] == 0.0 and b[-1] == 1.0):
            raise InvalidArgumentError("boundaries must increase strictly from 0 to 1")
        widths = np.diff(b)
        if abs(widths.sum() - 1.0) > 1e-12:
            raise InvalidArgumentError("cell widths must sum to 1")
        b.setflags(write=False)
        object.__setattr__(self, "boundaries", b)

    @property
    def cell_count(self) -> int:
        return self.boundaries.size - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.boundaries)

    def midpoints(self) -> np.ndarray:
        b = self.boundaries
        return 0.5 * (b[:-1] + b[1:])

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.domain_kind == other.domain_kind
            and np.array_equal(self.boundaries, other.boundaries)
        )

    def __hash__(self):
        return hash((self.domain_kind, self.boundaries.tobytes()))


@dataclass(frozen=True, eq=False)
class Observable:
    """A piecewise-constant real function: one value per partition cell."""

    values: np.ndarray
    partition: Partition

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size != self.partition.cell_count:
            raise DimensionError(
                f"observable has {v.size} values for {self.partition.cell_count} cells"
            )
        if not np.all(np.isfinite(v)):
            raise InvalidObservableError("observable values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def with_values(self, values) -> "Observable":
        return Observable(values, self.partition)


@dataclass(frozen=True, eq=False)
class Measure:
    """A probability vector on a partition (one weight per cell)."""

    weights: np.ndarray
    partition: Partition

    def __post_init__(self):
        w = normalize_probabilities(self.weights)
        if w.size != self.partition.cell_count:
            raise DimensionError(
                f"measure has {w.size} weights for {self.partition.cell_count} cells"
            )
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def with_weights(self, weights) -> "Measure":
        return Measure(weights, self.partition)


def make_uniform_partition(domain_kind: str, cell_count: int) -> Partition:
    """Build K equal-width cells on the chosen domain.

    Parameters
    ----------
    domain_kind : "unit_interval" or "circle"
    cell_count : number of cells, at least 1.
    """
    if cell_count < 1:
        raise InvalidArgumentError("cell_count must be a positive integer")
    _backend.require_addressable(f"cell_count {cell_count}", cell_count + 1)
    boundaries = np.arange(int(cell_count) + 1, dtype=np.float64) / float(cell_count)
    boundaries[-1] = 1.0
    return Partition(domain_kind, boundaries)


def discretize_observable(
    f: Callable[[np.ndarray], np.ndarray],
    partition: Partition,
    samples_per_cell: int = 16,
) -> Observable:
    """Project a pointwise function onto cell averages.

    The value of cell i is the mean of ``f`` over ``samples_per_cell``
    midpoint-centred equispaced sample points inside the cell.
    """
    if samples_per_cell < 1:
        raise InvalidArgumentError("samples_per_cell must be positive")
    b = partition.boundaries
    offs = (np.arange(samples_per_cell) + 0.5) / samples_per_cell
    pts = b[:-1, None] + np.diff(b)[:, None] * offs[None, :]
    try:
        vals = np.asarray(f(pts.ravel()), dtype=np.float64)
        if vals.shape != pts.ravel().shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([float(f(x)) for x in pts.ravel()])
    if not np.all(np.isfinite(vals)):
        raise InvalidObservableError("function returned a non-finite value")
    cell_means = vals.reshape(pts.shape).mean(axis=1)
    return Observable(cell_means, partition)


def integrate(phi: Observable, mu: Measure) -> float:
    """Integral of an observable against a measure: sum_i phi_i mu_i."""
    if phi.partition != mu.partition:
        raise DimensionError("observable and measure live on different partitions")
    return float(phi.values @ mu.weights)
