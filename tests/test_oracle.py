"""Exact oracle for the class layer on small rational kernels.

Kernels with K <= 8 states are drawn as exact fractions: 0-3 transient
states and 1-3 closed classes of period 1-4, with the states shuffled. In
``Fraction`` arithmetic the oracle finds the closed classes by reachability,
their periods from the closed walks of length at most the class size, and
the stationary measures by Gauss-Jordan elimination. For p = 1..6 it forms
the exact P^p, solves its closed classes the same way and finds each
measure's least d with (L*)^d nu = nu. Nothing here uses the cyclic-class
shortcut that ``periodic_measures`` takes. The pointwise theorem names the
limit of time averages: on a closed class c it is the constant pi_c(phi),
periodic classes included, which the oracle sums exactly.
"""

from fractions import Fraction
from math import gcd

import numpy as np
from hypothesis import given, settings, strategies as st

from ergodyn import Measure, closed_classes, kernel_from_rows, periodic_measures, stationary_measures
from ergodyn.measures import _class_solves
from ergodyn.theorems import DEFAULT_TOL, birkhoff_trials

MAX_STATES = 8
#: Weights agree with the exact values within this bound.
WEIGHT_TOL = 1e-12
#: The class solve stops on an L1 residual, not on a weight error: at the
#: default 1e-12 a slowly mixing class left a weight 1.08e-12 off. Solving to
#: 1e-14 keeps every weight within WEIGHT_TOL.
SOLVER_TOL = 1e-14
#: Observables per limit block.
LIMIT_COLUMNS = 4


# ---------------------------------------------------------------------------
# Exact arithmetic
# ---------------------------------------------------------------------------

def matmul(A, B):
    n = len(A)
    return [[sum((A[i][k] * B[k][j] for k in range(n) if A[i][k]), Fraction(0)) for j in range(n)]
            for i in range(n)]


def vecmat(x, A):
    n = len(A)
    return [sum((x[i] * A[i][j] for i in range(n) if x[i]), Fraction(0)) for j in range(n)]


def reachable(P):
    """reach[i][j]: j is reachable from i in zero or more steps (Warshall)."""
    n = len(P)
    reach = [[i == j or P[i][j] > 0 for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                reach[i] = [a or b for a, b in zip(reach[i], reach[k])]
    return reach


def exact_closed_classes(P):
    """Closed communicating classes, sorted by their smallest state: a state
    heads one when every state it reaches reaches it back."""
    n = len(P)
    reach = reachable(P)
    classes = []
    for i in range(n):
        if all(reach[j][i] for j in range(n) if reach[i][j]):
            cls = [j for j in range(n) if reach[i][j]]
            if cls[0] == i:
                classes.append(cls)
    return classes


def exact_period(P, cls):
    """gcd of the lengths n <= |cls| of closed walks inside the class: every
    cycle splits into simple cycles, which are at most |cls| long."""
    edges = [[P[i][j] > 0 for j in cls] for i in cls]
    m = len(cls)
    walks = edges
    period = 0
    for n in range(1, m + 1):
        if any(walks[i][i] for i in range(m)):
            period = gcd(period, n)
        walks = [[any(walks[i][k] and edges[k][j] for k in range(m)) for j in range(m)]
                 for i in range(m)]
    return period


def exact_stationary(P, cls):
    """The K-vector pi with pi P = pi on an irreducible closed class, sum 1.

    Unknowns pi_c for c in cls; the balance equations of all but the last
    column, plus sum pi = 1, are nonsingular for an irreducible class.
    """
    m = len(cls)
    aug = [[P[cls[i]][cls[j]] - (i == j) for i in range(m)] + [Fraction(0)] for j in range(m - 1)]
    aug.append([Fraction(1)] * (m + 1))
    for c in range(m):  # Gauss-Jordan
        pivot = next(r for r in range(c, m) if aug[r][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        for r in range(m):
            if r != c and aug[r][c] != 0:
                f = aug[r][c] / aug[c][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    pi = [Fraction(0)] * len(P)
    for r, state in enumerate(cls):
        pi[state] = aug[r][m] / aug[r][r]
    return pi


def exact_periodic(P, p):
    """(nu, least d with nu P^d = nu) for each ergodic measure of the exact P^p."""
    Q = P
    for _ in range(p - 1):
        Q = matmul(Q, P)
    out = []
    for cls in exact_closed_classes(Q):
        nu = exact_stationary(Q, cls)
        moved, d = vecmat(nu, P), 1
        while moved != nu:
            moved, d = vecmat(moved, P), d + 1
        assert d <= p
        out.append((nu, d))
    return out


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

@st.composite
def rational_kernels(draw):
    """An exact row-stochastic K x K kernel (lists of Fractions), K <= 8.

    Each closed class of period d has d cyclic classes, and every edge leads
    from cyclic class c to c + 1 mod d. A closed walk through all of its
    states makes it irreducible, and a cycle of length d (a loop when d = 1)
    fixes its period at d. Each transient state sends some mass into a
    closed class, so no set of transient states is closed.
    """
    n_transient = draw(st.integers(0, 3))
    n_classes = draw(st.integers(1, 3))
    room = MAX_STATES - n_transient
    layouts = []
    for k in range(n_classes):
        free = room - (n_classes - k - 1)  # one state for each later class
        d = draw(st.integers(1, min(4, free)))
        sizes = [1] * d
        for _ in range(draw(st.integers(0, free - d))):
            sizes[draw(st.integers(0, d - 1))] += 1
        layouts.append(sizes)
        room -= sum(sizes)
    n = MAX_STATES - room
    label = draw(st.permutations(range(n)))
    weights = [[0] * n for _ in range(n)]

    def edge(i, j):
        weights[label[i]][label[j]] = draw(st.integers(1, 9))

    start = 0
    for sizes in layouts:
        d = len(sizes)
        members = []
        for size in sizes:
            members.append(list(range(start, start + size)))
            start += size
        for c in range(d):
            edge(members[c][0], members[(c + 1) % d][0])
        span = d * max(sizes)
        for t in range(span):
            c, nxt = t % d, (t + 1) % d
            edge(members[c][(t // d) % sizes[c]], members[nxt][((t + 1) // d) % sizes[nxt]])
        for c in range(d):
            for i in members[c]:
                for j in members[(c + 1) % d]:
                    if weights[label[i]][label[j]] == 0 and draw(st.booleans()):
                        edge(i, j)
    for i in range(start, n):
        edge(i, draw(st.integers(0, start - 1)))
        for j in range(n):
            if weights[label[i]][label[j]] == 0 and draw(st.booleans()):
                edge(i, j)
    return [[Fraction(w, sum(row)) for w in row] for row in weights]


def float_kernel(P):
    return kernel_from_rows([[float(x) for x in row] for row in P])


def support(weights):
    return np.flatnonzero(np.asarray(weights) > 0).tolist()


def assert_weights_close(got, exact):
    assert np.abs(got - np.array([float(x) for x in exact])).max() <= WEIGHT_TOL


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(rational_kernels())
def test_closed_classes_and_periods(P):
    classes = exact_closed_classes(P)
    K = float_kernel(P)
    assert [cls.tolist() for cls in closed_classes(K)] == classes
    solves = _class_solves(K, SOLVER_TOL, 100000)
    assert [s.states.tolist() for s in solves] == classes
    assert [s.period for s in solves] == [exact_period(P, cls) for cls in classes]


@settings(max_examples=150, deadline=None)
@given(rational_kernels())
def test_stationary_measures(P):
    classes = exact_closed_classes(P)
    got = stationary_measures(float_kernel(P), SOLVER_TOL)
    assert len(got) == len(classes)
    for mu, cls in zip(got, classes):
        assert support(mu.weights) == cls
        assert_weights_close(mu.weights, exact_stationary(P, cls))


@settings(max_examples=150, deadline=None)
@given(rational_kernels())
def test_periodic_measures(P):
    K = float_kernel(P)
    for p in range(1, 7):
        want = exact_periodic(P, p)
        got = periodic_measures(K, p, SOLVER_TOL)
        assert len(got) == len(want), p
        for (nu, d), (exact, exact_d) in zip(got, want):
            assert support(nu.weights) == support(exact), p
            assert d == exact_d, p
            assert_weights_close(nu.weights, exact)


@settings(max_examples=150, deadline=None)
@given(rational_kernels(), st.integers(0, 2**32 - 1))
def test_birkhoff_limits_are_the_class_averages(P, seed):
    """On each closed class c the limit is pi_c(phi), under c's own measure
    and under the mixture of all classes' measures, within 10 tol: the bound
    the limit's invariance condition uses."""
    classes = exact_closed_classes(P)
    K = float_kernel(P)
    values = np.random.default_rng(seed).uniform(-1.0, 1.0, (len(P), LIMIT_COLUMNS))
    averages = []  # exact pi_c(phi) per class and column
    for cls in classes:
        pi = exact_stationary(P, cls)
        averages.append([float(sum(pi[x] * Fraction(v) for x, v in zip(cls, values[cls, t])))
                         for t in range(LIMIT_COLUMNS)])
    measures = stationary_measures(K, SOLVER_TOL)
    mix = Measure(sum(mu.weights for mu in measures) / len(measures), K.partition)
    runs = [(mu, [k]) for k, mu in enumerate(measures)] + [(mix, range(len(classes)))]
    for mu, watched in runs:
        limits, reports = birkhoff_trials(K, mu, values, DEFAULT_TOL)
        assert all(r.passed for r in reports)
        for k in watched:
            err = np.abs(limits[classes[k]] - np.array(averages[k])).max()
            assert err <= 10.0 * DEFAULT_TOL, (k, err / DEFAULT_TOL)


def test_drawn_kernels_cover_every_period():
    """The strategy reaches each period 1-4, with and without transient states."""
    seen = set()

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(rational_kernels())
    def collect(P):
        classes = exact_closed_classes(P)
        transient = len(P) > sum(len(cls) for cls in classes)
        seen.update((exact_period(P, cls), transient) for cls in classes)

    collect()
    assert seen >= {(d, t) for d in (1, 2, 3, 4) for t in (False, True)}
