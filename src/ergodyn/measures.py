"""Stationary and periodic measures, invariant sets, ergodic structure.

Stationary measures are fixed points of the dual operator. On a finite
space each closed communicating class of the kernel carries exactly one,
and it is ergodic; general stationary measures are mixtures. The solver is
a Cesaro-averaged power iteration per class: iterates are averaged over one
graph period of the class, which removes the rotating spectrum exactly and
converges geometrically (a full-history average would only converge like
1/n and could not meet tight residual tolerances).

Periodic measures come from the same solve. A closed class of period d
splits into d cyclic classes, which the dual operator visits in turn; the
p-th power's closed classes in it are the g = gcd(p, d) unions of cyclic
classes taken g apart, and its ergodic measures are the class's stationary
measure restricted to one union and renormalised (Seneta, Non-negative
Matrices and Markov Chains, 1981, ch. 1). No power of the kernel is formed.

"Almost everywhere" statements are evaluated on the support of the measure:
a set A is mu-a.e. invariant when every supported state of A sends all its
mass into A and every supported state outside sends none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _backend
from .errors import ConvergenceError, InvalidArgumentError, NotStationaryError
from .kernel import TransitionKernel
from .space import Measure


@dataclass(frozen=True, eq=False)
class InvariantSetReport:
    """Minimal invariant sets on the support of a stationary measure.

    generators are disjoint index sets; every a.e.-invariant set equals a
    union of them up to null sets, so lattice_size = 2 ** len(generators).
    """

    generators: tuple
    lattice_size: int


@dataclass(frozen=True, eq=False)
class ErgodicDecomposition:
    """Convex split of a stationary measure into ergodic components."""

    components: tuple  # of (weight, Measure) pairs


def support(mu: Measure, threshold: float = 0.0) -> np.ndarray:
    """Indices carrying mass above the threshold (default: any mass)."""
    if not (0.0 <= threshold < 1.0):
        raise InvalidArgumentError("threshold must lie in [0, 1)")
    return np.flatnonzero(mu.weights > threshold)


def _closed_classes_on(P, states, edge_threshold):
    """Closed strongly connected classes of the digraph restricted to sorted states."""
    from scipy.sparse.csgraph import connected_components

    states = np.asarray(states, dtype=np.int64)
    adj = P.csr() if states.size == P.K else P.restrict(states)
    if edge_threshold > 0.0:
        adj = adj.copy()
        adj.data[adj.data <= edge_threshold] = 0.0
        adj.eliminate_zeros()
    n_comp, labels = connected_components(adj, directed=True, connection="strong")
    source = np.repeat(labels, np.diff(adj.indptr))
    is_closed = np.ones(n_comp, dtype=bool)
    is_closed[source[source != labels[adj.indices]]] = False
    classes = [
        states[np.flatnonzero(labels == comp)]
        for comp in range(n_comp)
        if is_closed[comp]
    ]
    classes.sort(key=lambda cls: int(cls.min()))
    return classes


def closed_classes(P: TransitionKernel, edge_threshold: float = 0.0) -> list:
    """Closed communicating classes: strongly connected, no outgoing edge.

    The digraph has an edge i -> j when P_ij exceeds edge_threshold (use a
    small positive value for kernels polluted by quadrature noise). Classes
    come back sorted by their smallest state, as read-only arrays computed
    once per kernel and threshold.
    """
    if not (0.0 <= edge_threshold < 1.0):
        raise InvalidArgumentError("edge_threshold must lie in [0, 1)")
    key = ("closed_classes", float(edge_threshold))
    cache = P._cache
    if key not in cache:
        classes = _closed_classes_on(P, np.arange(P.K), edge_threshold)
        for cls in classes:
            cls.setflags(write=False)
        cache[key] = classes
    return list(cache[key])


def _graph_period(sub) -> tuple:
    """Period of a strongly connected 0/1 digraph (gcd of cycle lengths), with
    each state's breadth-first level from state 0.

    ``sub`` is a dense array or a SciPy sparse matrix. The period d is the
    gcd over all edges u -> v of |level[u] + 1 - level[v]|, and a state's
    cyclic class is its level mod d: every edge leads from class c to class
    c + 1 mod d.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    edges = csr_matrix(sub)
    level = shortest_path(edges, unweighted=True, indices=0).astype(np.int32)
    u = np.repeat(np.arange(sub.shape[0], dtype=np.int32), np.diff(edges.indptr))
    g = int(np.gcd.reduce(np.abs(level[u] + 1 - level[edges.indices])))
    return (g if g > 0 else 1), level


def _odd_period_lcm(P: TransitionKernel) -> int:
    """The lcm of the odd parts of the periods of P's closed classes, cached
    on the kernel: the doubling-horizon limits start at this horizon."""
    cache = P._cache
    if "odd_period_lcm" not in cache:
        lcm = 1
        for cls in closed_classes(P):
            d, _ = _graph_period(P.restrict(cls) > 0.0)
            lcm = math.lcm(lcm, d // (d & -d))
        cache["odd_period_lcm"] = lcm
    return cache["odd_period_lcm"]


def _solve_class(sub, tol: float, max_iter: int):
    """Stationary row vector of an irreducible row-stochastic CSR block.

    Power iteration averaged over one graph period: the window mean kills
    the rotating eigenvalues exactly, so the averaged iterates converge
    geometrically even for periodic classes. Returns the vector, the number
    of windows, the period and the breadth-first levels of ``_graph_period``.

    A period-1 window whose mean sums to exactly 1.0 leaves the iterate's
    bits unchanged, so its residual reuses the product the window has just
    taken instead of taking it again.
    """
    m = sub.shape[0]
    if m == 1:
        return np.ones(1), 1, 1, np.zeros(1, dtype=np.int32)
    d, level = _graph_period(sub > 0.0)
    step = sub.T.tocsr()  # x @ sub as a CSR product; each entry sums in state order
    x = np.full(m, 1.0 / m)
    res = math.inf
    for it in range(1, max_iter + 1):
        acc = np.zeros(m)
        cur = x
        for _ in range(d):
            acc += cur
            cur = _backend.matvec(step, cur)
        avg = acc / d
        total = avg.sum()
        avg /= total
        moved = cur if d == 1 and total == 1.0 else _backend.matvec(step, avg)
        res = float(np.abs(moved - avg).sum())
        if res <= tol:
            return avg, it, d, level
        x = cur
    raise ConvergenceError(
        f"class solve stalled at residual {res:.3e} after {max_iter} windows",
        residual=res,
    )


class _ClassSolve(NamedTuple):
    """One closed class of a kernel, solved: its sorted states, its stationary
    vector on them, its period and each state's breadth-first level."""

    states: np.ndarray
    pi: np.ndarray
    period: int
    level: np.ndarray


def _class_solves(P: TransitionKernel, tol: float, max_iter: int) -> list:
    """Every closed class of P solved once per (tol, max_iter), cached on the
    kernel; stationary and periodic measures are both read from it."""
    if tol <= 0.0:
        raise InvalidArgumentError("tol must be positive")
    key = ("class_solves", tol, max_iter)
    cache = P._cache
    if key not in cache:
        solves = []
        for cls in closed_classes(P):
            pi, _, d, level = _solve_class(P.restrict(cls), tol, max_iter)
            for arr in (cls, pi, level):
                arr.setflags(write=False)
            solves.append(_ClassSolve(cls, pi, d, level))
        cache[key] = solves
    return cache[key]


def stationary_measures(
    P: TransitionKernel, tol: float = 1e-12, max_iter: int = 100000
) -> list:
    """All ergodic measures fixed by the dual operator, one per closed class."""
    out = []
    for cls in _class_solves(P, tol, max_iter):
        weights = np.zeros(P.K)
        weights[cls.states] = cls.pi
        out.append(Measure(weights, P.partition))
    return out


def require_stationary(P: TransitionKernel, mu: Measure, tol: float) -> None:
    """Raise NotStationaryError unless ||L* mu - mu||_1 <= tol."""
    res = float(np.abs(P.rmatvec(mu.weights) - mu.weights).sum())
    if res > tol:
        raise NotStationaryError(
            f"measure is not fixed by the dual operator: residual {res:.3e} > {tol:g}",
            residual=res,
        )


def invariance_violation(P: TransitionKernel, mu: Measure, A) -> float:
    """Max over supp mu of |chi_A(i) - P(i, A)|; 0 means a.e. invariant."""
    mask = np.zeros(P.K)
    A = np.asarray(A, dtype=np.int64)
    mask[A] = 1.0
    in_mass = P.matvec(mask)
    supp = support(mu)
    if supp.size == 0:
        return 0.0
    return float(np.abs(mask[supp] - in_mass[supp]).max())


def invariant_sets(P: TransitionKernel, mu: Measure, tol: float = 1e-10) -> InvariantSetReport:
    """Generators of the lattice of mu-a.e. invariant sets.

    Requires mu stationary within tol. The generators are the closed
    classes of the kernel restricted to supp mu; each invariant set equals
    a union of them modulo mu-null differences.
    """
    require_stationary(P, mu, tol)
    gens = _closed_classes_on(P, support(mu), 0.0)
    return InvariantSetReport(tuple(gens), 2 ** len(gens))


def is_ergodic(P: TransitionKernel, mu: Measure, tol: float = 1e-10) -> bool:
    """True when every a.e.-invariant set has measure 0 or 1."""
    return len(invariant_sets(P, mu, tol).generators) == 1


def ergodic_decomposition(
    P: TransitionKernel, mu: Measure, tol: float = 1e-10
) -> ErgodicDecomposition:
    """Split a stationary measure into its ergodic components.

    Component k has weight mu(generator_k) and measure mu conditioned on
    generator_k; the weighted sum reconstructs mu.
    """
    report = invariant_sets(P, mu, tol)
    comps = []
    for gen in report.generators:
        w = float(mu.weights[gen].sum())
        if w <= 0.0:
            continue
        cond = np.zeros(P.K)
        cond[gen] = mu.weights[gen] / w
        comps.append((w, Measure(cond, P.partition)))
    return ErgodicDecomposition(tuple(comps))


def periodic_measures(
    P: TransitionKernel, p: int, tol: float = 1e-12, max_iter: int = 100000
) -> list:
    """Ergodic fixed points of the p-th dual power, with minimal periods.

    Read from P's own class solves, which ``stationary_measures`` shares. A
    closed class of period d with stationary vector pi carries g = gcd(p, d)
    of them: pi restricted to the states whose level is r mod g, renormalised,
    for r = 0..g-1. The dual operator moves union r onto union r + 1 mod g,
    so each has minimal period exactly g, a divisor of p. Pairs (measure,
    period) come back sorted by the smallest state of their support.
    """
    if p < 1:
        raise InvalidArgumentError("period must be a positive integer")
    found = []
    for cls in _class_solves(P, tol, max_iter):
        g = math.gcd(int(p), cls.period)
        for r in range(g):
            union = cls.level % g == r
            weights = np.zeros(P.K)
            weights[cls.states[union]] = cls.pi[union] / cls.pi[union].sum()
            found.append((int(cls.states[union][0]), Measure(weights, P.partition), g))
    found.sort(key=lambda item: item[0])
    return [(nu, g) for _, nu, g in found]
