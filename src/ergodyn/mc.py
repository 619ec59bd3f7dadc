"""Trajectory sampling and statistical cross-checks of the operator algebra.

The chain x_{t+1} ~ row x_t of the kernel is simulated with inverse-CDF
draws on the sparse rows. Randomness comes from splitmix64 streams: a
trajectory with seed s is fully determined by s, and batch estimates derive
per-trajectory seeds as master_seed xor trajectory_index, so results are
reproducible bit for bit regardless of scheduling or batching.

estimate_Lj_phi approximates the j-step conditional expectation of an
observable, i.e. the j-fold averaged observable evaluated at the start
state, and should match the matrix computation within sampling error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from . import _backend
from .errors import DimensionError, InvalidArgumentError
from .kernel import TransitionKernel
from .space import Observable

GENERATOR_NAME = _backend.GENERATOR_NAME


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A sampled path: states[0] == start_state, one entry per step after."""

    start_state: int
    states: np.ndarray
    seed: int

    def __post_init__(self):
        states = np.ascontiguousarray(self.states, dtype=np.int64)
        if states.ndim != 1 or states.size < 1 or states[0] != self.start_state:
            raise InvalidArgumentError("trajectory must start at its start state")
        states.setflags(write=False)
        object.__setattr__(self, "states", states)


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    stderr: float
    n_samples: int

    def __post_init__(self):
        if self.n_samples < 1:
            raise InvalidArgumentError("n_samples must be positive")
        if not self.stderr >= 0.0:
            raise InvalidArgumentError("stderr must be nonnegative")


def _check_start(P: TransitionKernel, start: int) -> int:
    start = int(start)
    if not (0 <= start < P.K):
        raise InvalidArgumentError(f"start state {start} outside [0, {P.K})")
    return start


def sample_trajectories(P: TransitionKernel, start: int, n: int, master_seed: int, count: int) -> np.ndarray:
    """Simulate count n-step paths from a start state, all in one pass.

    Row i of the (count, n + 1) result is the path drawn from the stream
    seeded by master_seed xor i, so it is deterministic in the seed and
    independent of count.
    """
    start = _check_start(P, start)
    if n < 0:
        raise InvalidArgumentError("step count must be nonnegative")
    if count < 1:
        raise InvalidArgumentError("trajectory count must be positive")
    _backend.require_addressable(f"{n} steps x {count} trajectories", n + 1, count)
    return _backend.sample_path(P, start, int(n), int(master_seed), int(count))


def sample_trajectory(P: TransitionKernel, start: int, n: int, seed: int) -> Trajectory:
    """Simulate n steps from a start state; deterministic in the seed.

    This is the one-path case of ``sample_trajectories``: seed xor 0 is seed.
    """
    states = sample_trajectories(P, start, n, seed, 1)[0]
    return Trajectory(start, states, int(seed))


def _check_estimate_args(P: TransitionKernel, phi: Observable, start: int, j: int, n_samples: int):
    if phi.partition != P.partition:
        raise DimensionError("observable and kernel live on different partitions")
    start = _check_start(P, start)
    if j < 0:
        raise InvalidArgumentError("j must be nonnegative")
    if n_samples < 1:
        raise InvalidArgumentError("n_samples must be positive")
    _backend.require_addressable(f"n_samples {n_samples}", n_samples)
    return start


def _estimate(values: np.ndarray, ends: np.ndarray) -> Estimate:
    """Mean and standard error of values[ends], one sample per endpoint.

    Both sums are ``math.fsum``, which is exact and so independent of order:
    each distinct endpoint's squared deviation is computed once and repeated
    by its count, with the bits of squaring every sample.
    """
    n = ends.size
    mean = math.fsum(values[ends]) / n
    if n == 1:
        return Estimate(mean, 0.0, n)
    states, counts = np.unique(ends, return_counts=True)
    squares = [(v - mean) ** 2 for v in values[states]]
    var = math.fsum(chain.from_iterable(map(repeat, squares, counts.tolist()))) / (n - 1)
    return Estimate(mean, math.sqrt(var / n), n)


def estimate_Lj_phi(
    P: TransitionKernel,
    phi: Observable,
    start: int,
    j: int,
    n_samples: int,
    seed: int,
) -> Estimate:
    """Monte Carlo estimate of the j-step averaged observable at a state.

    Averages phi(x_j) over n_samples independent trajectories started at
    ``start``; trajectory i uses the stream seeded by seed xor i. The mean
    is accumulated with compensated summation, so it is independent of
    aggregation order.
    """
    start = _check_estimate_args(P, phi, start, j, n_samples)
    ends = _backend.sample_endpoints(P, start, int(j), int(seed), int(n_samples))
    return _estimate(phi.values, ends)


def estimate_Lj_phi_steps(
    P: TransitionKernel,
    phi: Observable,
    start: int,
    steps: int,
    n_samples: int,
    seed: int,
) -> list:
    """``estimate_Lj_phi`` for every j = 0..steps, from one walk of ``steps``
    steps: the step-j states of the walk are the j-step endpoints, with the
    same seeds, so entry j equals ``estimate_Lj_phi(..., j, ...)`` bit for bit.
    """
    start = _check_estimate_args(P, phi, start, steps, n_samples)
    ends = np.full(int(n_samples), start, dtype=np.int64)
    estimates = [_estimate(phi.values, ends)]
    for ends in _backend.walk(P, start, int(steps), int(seed), int(n_samples)):
        estimates.append(_estimate(phi.values, ends))
    return estimates


def empirical_time_average(traj: Trajectory, phi: Observable) -> float:
    """Average of the observable along a sampled path."""
    if traj.states.max(initial=0) >= phi.values.size or traj.states.min(initial=0) < 0:
        raise DimensionError("trajectory states exceed the observable's cells")
    return math.fsum(phi.values[traj.states]) / traj.states.size
