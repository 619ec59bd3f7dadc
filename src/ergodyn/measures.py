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
from .transfer import stationarity_residual

#: A class solve's default residual tolerance and window cap.
DEFAULT_SOLVE_TOL = 1e-12
DEFAULT_MAX_ITER = 100000


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


def _closed_classes_on(P, states):
    """Closed strongly connected classes of the digraph restricted to sorted states."""
    from scipy.sparse.csgraph import connected_components

    states = np.asarray(states, dtype=np.int64)
    adj = P.csr() if states.size == P.K else P.restrict(states)
    n_comp, labels = connected_components(adj, directed=True, connection="strong")
    source = np.repeat(labels, np.diff(adj.indptr))
    is_closed = np.ones(n_comp, dtype=bool)
    is_closed[source[source != labels[adj.indices]]] = False
    classes = [states[labels == comp] for comp in np.flatnonzero(is_closed)]
    classes.sort(key=lambda cls: int(cls.min()))
    return classes


def _graph_period(sub) -> tuple:
    """Period of a strongly connected digraph (gcd of cycle lengths), with
    each state's breadth-first level from state 0.

    ``sub`` is a dense 0/1 array or a SciPy sparse matrix whose stored
    entries are the edges (a kernel's CSR stores no zero). The period d is
    the gcd over all edges u -> v of |level[u] + 1 - level[v]|, and a
    state's cyclic class is its level mod d: every edge leads from class c
    to class c + 1 mod d.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    edges = csr_matrix(sub)
    level = shortest_path(edges, unweighted=True, indices=0).astype(np.int32)
    u = np.repeat(np.arange(sub.shape[0], dtype=np.int32), np.diff(edges.indptr))
    g = int(np.gcd.reduce(np.abs(level[u] + 1 - level[edges.indices])))
    return (g if g > 0 else 1), level


class _ClosedClass(NamedTuple):
    """One closed class of a kernel: its sorted states, its period, each
    state's breadth-first level (``_graph_period``) and, once solved, its
    stationary vector on its states."""

    states: np.ndarray
    period: int
    level: np.ndarray
    pi: np.ndarray | None = None


def _class_structure(P: TransitionKernel) -> list:
    """Every closed class of P's support graph (an edge i -> j wherever
    P_ij > 0), with its period and levels: found once per kernel and cached
    on it as read-only arrays, sorted by smallest state."""
    cache = P._cache
    if "classes" not in cache:
        structure = []
        for cls in _closed_classes_on(P, np.arange(P.K)):
            d, level = _graph_period(P.restrict(cls))
            for arr in (cls, level):
                arr.setflags(write=False)
            structure.append(_ClosedClass(cls, d, level))
        cache["classes"] = structure
    return cache["classes"]


def closed_classes(P: TransitionKernel) -> list:
    """Closed communicating classes of P's support graph (strongly connected,
    no outgoing edge), sorted by smallest state, as read-only arrays found
    once per kernel."""
    return [cls.states for cls in _class_structure(P)]


def _odd_period_lcm(P: TransitionKernel) -> int:
    """The lcm of the odd parts of the periods of P's closed classes: the
    doubling-horizon limits start at this horizon."""
    return math.lcm(*(cls.period // (cls.period & -cls.period) for cls in _class_structure(P)))


def _solve_class(sub, d: int, tol: float, max_iter: int):
    """Stationary row vector of an irreducible row-stochastic CSR block of
    period d, and the number of windows it took.

    Power iteration averaged over one period: the window mean kills the
    rotating eigenvalues exactly, so the averaged iterates converge
    geometrically even for periodic classes.

    A period-1 window whose mean sums to exactly 1.0 leaves the iterate's
    bits unchanged, so its residual reuses the product the window has just
    taken instead of taking it again.

    The solve raises ConvergenceError after max_iter windows, or once its
    least residual is within 4 m 2^-53 of zero (the rounding floor of an L1
    residual over m states) and no window has improved on it for as many
    windows as it took to reach it; a residual flat on its way down is no stall.
    """
    m = sub.shape[0]
    if m == 1:
        return np.ones(1), 1
    step = sub.T.tocsr()  # x @ sub as a CSR product; each entry sums in state order
    del sub  # the caller's block goes once its transpose is built, if the caller kept none
    x = np.full(m, 1.0 / m)
    best, best_it, it = math.inf, 0, 0
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
            return avg, it
        if res < best:
            best, best_it = res, it
        elif best <= 4 * m * 2.0**-53 and it >= 2 * best_it:
            break
        x = cur
    raise ConvergenceError(
        f"class solve stalled at residual {best:.3e}, reached at window {best_it}, after {it} windows",
        residual=best,
    )


def _class_solves(P: TransitionKernel, tol: float, max_iter: int) -> list:
    """Every closed class of P solved once per (tol, max_iter), cached on the
    kernel; stationary and periodic measures are both read from it."""
    if tol <= 0.0:
        raise InvalidArgumentError("tol must be positive")
    key = ("class_solves", tol, max_iter)
    cache = P._cache
    if key not in cache:
        solves = []
        for cls in _class_structure(P):
            pi, _ = _solve_class(P.restrict(cls.states), cls.period, tol, max_iter)
            pi.setflags(write=False)
            solves.append(cls._replace(pi=pi))
        cache[key] = solves
    return cache[key]


def _seed_class_solves(P: TransitionKernel, tol: float, max_iter: int, classes) -> bool:
    """Take classes, one (states, period, level, pi) per closed class as a
    class cache holds them, as P's class structure and its class solves at
    (tol, max_iter); the one way in for solves made by an earlier run.

    Nothing is taken unless the structure holds: the classes sorted by
    smallest state, each one's states strictly increasing, in [0, K) and
    disjoint from the other classes', its period in [1, m] and its levels in
    [0, m) for its m states, and its pi finite and positive at every state.
    Returns whether it was taken.
    """
    taken, seen, first = [], np.zeros(P.K, dtype=bool), -1
    for states, period, level, pi in classes:
        m = states.size
        if not (m and level.size == pi.size == m and first < states[0] and states[-1] < P.K
                and np.all(states[1:] > states[:-1]) and not seen[states].any()
                and 1 <= period <= m and 0 <= level.min() and level.max() < m
                and np.all(np.isfinite(pi)) and pi.min() > 0.0):
            return False
        seen[states], first = True, states[0]
        for arr in (states, level, pi):
            arr.setflags(write=False)
        taken.append(_ClosedClass(states, int(period), level, pi))
    P._cache["classes"] = [cls._replace(pi=None) for cls in taken]
    P._cache[("class_solves", tol, max_iter)] = taken
    return True


def stationary_measures(
    P: TransitionKernel, tol: float = DEFAULT_SOLVE_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> list:
    """All ergodic measures fixed by the dual operator, one per closed class."""
    out = []
    for cls in _class_solves(P, tol, max_iter):
        weights = np.zeros(P.K)
        weights[cls.states] = cls.pi
        out.append(Measure(weights, P.partition))
    return out


def require_stationary(P: TransitionKernel, mu: Measure, tol: float) -> None:
    """Raise NotStationaryError unless ||L* mu - mu||_1 <= tol; DimensionError
    for a measure on another partition (``stationarity_residual``)."""
    res = stationarity_residual(P, mu)
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
    gens = _closed_classes_on(P, support(mu))
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
    P: TransitionKernel, p: int, tol: float = DEFAULT_SOLVE_TOL, max_iter: int = DEFAULT_MAX_ITER
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
