"""The averaging operator L on observables and its dual L* on measures.

On a finite partition both actions are matrix products with the transition
kernel: (L phi)_i = sum_j P_ij phi_j averages the observable over one noisy
step out of cell i, and (L* mu)_j = sum_i mu_i P_ij pushes a probability
vector forward one step. The defining identity

    integrate(phi, L* mu) == integrate(L phi, mu)

is algebraic here; ``duality_gap`` exposes it as a measurable quantity and
should never exceed rounding noise.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .kernel import TransitionKernel
from .space import Measure, Observable


def _check_phi(P: TransitionKernel, phi: Observable) -> None:
    if phi.partition != P.partition:
        raise DimensionError("observable and kernel live on different partitions")


def _check_mu(P: TransitionKernel, mu: Measure) -> None:
    if mu.partition != P.partition:
        raise DimensionError("measure and kernel live on different partitions")


def apply_L(P: TransitionKernel, phi):
    """One averaging step of the observable.

    Accepts an Observable (returned as an Observable) or a raw ndarray,
    which may be complex: complex input acts independently on real and
    imaginary parts and returns an ndarray.
    """
    if isinstance(phi, Observable):
        _check_phi(P, phi)
        return phi.with_values(P.matvec(phi.values))
    arr = np.asarray(phi)
    if arr.shape != (P.K,):
        raise DimensionError(f"expected a length-{P.K} vector, got shape {arr.shape}")
    if np.iscomplexobj(arr):
        return P.matvec(arr.real) + 1j * P.matvec(arr.imag)
    return P.matvec(arr.astype(np.float64))


def apply_L_star(P: TransitionKernel, mu: Measure) -> Measure:
    """Push a probability vector forward one noisy step."""
    _check_mu(P, mu)
    return mu.with_weights(P.rmatvec(mu.weights))


def duality_gap(P: TransitionKernel, phi: Observable, mu: Measure) -> float:
    """|integral of phi d(L* mu) - integral of (L phi) d mu|; ~0 always."""
    _check_phi(P, phi)
    _check_mu(P, mu)
    return duality_gaps(P, phi.values[:, None], mu.weights[:, None])[0]


def duality_gaps(P: TransitionKernel, values: np.ndarray, weights: np.ndarray) -> list:
    """duality_gap for each column pair of K x T blocks of observable values
    and measure weights."""
    pushed = P.rmatvec(weights)
    lifted = P.matvec(values)
    # contiguous rows, so each dot product sums as it would for lone vectors
    rows = [np.ascontiguousarray(a.T) for a in (values, pushed, lifted, weights)]
    return [abs(float(v @ r) - float(lv @ w)) for v, r, lv, w in zip(*rows)]


def positive_part(phi: Observable) -> Observable:
    """Componentwise max(0, phi)."""
    return phi.with_values(np.maximum(phi.values, 0.0))


def negative_part(phi: Observable) -> Observable:
    """Componentwise -min(0, phi); phi == positive_part - negative_part."""
    return phi.with_values(-np.minimum(phi.values, 0.0))


def total_variation(mu: Measure, nu: Measure) -> float:
    """Half the l1 distance between two probability vectors."""
    if mu.partition != nu.partition:
        raise DimensionError("measures live on different partitions")
    return 0.5 * float(np.abs(mu.weights - nu.weights).sum())


def stationarity_residual(P: TransitionKernel, mu: Measure) -> float:
    """l1 norm of (L* mu - mu)."""
    _check_mu(P, mu)
    return float(np.abs(P.rmatvec(mu.weights) - mu.weights).sum())
