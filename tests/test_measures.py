import itertools
import math

import numpy as np
import pytest

from ergodyn import (
    ConvergenceError,
    DimensionError,
    Measure,
    NotStationaryError,
    closed_classes,
    ergodic_decomposition,
    invariant_sets,
    is_ergodic,
    kernel_from_rows,
    kernel_power,
    make_uniform_partition,
    periodic_measures,
    stationary_measures,
    support,
)
from ergodyn.measures import _graph_period

from conftest import (
    cyclic_kernel,
    identity_kernel,
    random_kernel,
    reducible_kernel,
    swap_kernel,
    three_state_transient,
    two_state_chain,
)


def brute_force_reachability(dense):
    """Boolean transitive closure oracle."""
    k = dense.shape[0]
    reach = (dense > 0) | np.eye(k, dtype=bool)
    for _ in range(k):
        reach = reach | (reach @ reach)
    return reach


def brute_force_closed_classes(dense):
    """Oracle for closed communicating classes via full reachability."""
    k = dense.shape[0]
    reach = brute_force_reachability(dense)
    classes = []
    seen = set()
    for i in range(k):
        if i in seen:
            continue
        mutual = [j for j in range(k) if reach[i, j] and reach[j, i]]
        seen.update(mutual)
        # closed iff nothing outside is reachable from the class
        outside = [j for j in range(k) if j not in mutual]
        if all(not reach[m, j] for m in mutual for j in outside):
            classes.append(tuple(mutual))
    classes.sort(key=min)
    return [np.array(c) for c in classes]


def brute_force_invariant_sets(P, mu, tol):
    """Enumerate every subset of supp mu and test the a.e. criterion."""
    supp = list(support(mu))
    dense = P.to_dense()
    hits = []
    for r in range(len(supp) + 1):
        for combo in itertools.combinations(supp, r):
            a = set(combo)
            ok = True
            for i in supp:
                mass_in = dense[i, sorted(a)].sum() if a else 0.0
                if i in a and mass_in < 1 - tol:
                    ok = False
                    break
                if i not in a and mass_in > tol:
                    ok = False
                    break
            if ok:
                hits.append(frozenset(a))
    return set(hits)


def breadth_first_period(sub):
    """The period and the levels by an explicit breadth-first search and a gcd over edges."""
    level = -np.ones(sub.shape[0], dtype=np.int64)
    level[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.flatnonzero(sub[u]):
                if level[v] < 0:
                    level[v] = level[u] + 1
                    nxt.append(int(v))
        frontier = nxt
    g = 0
    for u, v in zip(*np.nonzero(sub)):
        g = math.gcd(g, int(level[u]) + 1 - int(level[v]))
    return (g if g > 0 else 1), level


class TestGraphPeriod:
    def test_matches_breadth_first_loop(self, rng):
        seen = set()
        for _ in range(300):
            d, groups = int(rng.integers(1, 6)), int(rng.integers(1, 8))
            n = d * groups
            order = rng.permutation(n)
            group = np.empty(n, dtype=np.int64)
            group[order] = np.arange(n) % d
            # edges only from group g to g+1 (mod d), plus a cycle through every state
            sub = (group[None, :] == (group[:, None] + 1) % d) & (
                rng.random((n, n)) < rng.uniform(0.05, 0.6)
            )
            sub[order, np.roll(order, -1)] = True
            got, level = _graph_period(sub)
            want, want_level = breadth_first_period(sub)
            assert got == want
            assert np.array_equal(level, want_level)
            assert got % d == 0
            # the levels mod the period are the cyclic classes: each edge moves one class on
            u, v = np.nonzero(sub)
            assert np.array_equal(level[v] % got, (level[u] + 1) % got)
            seen.add(got)
        assert seen >= {1, 2, 3, 4, 5}


class TestSupport:
    def test_point_mass(self):
        part = identity_kernel(2).partition
        assert list(support(Measure([1.0, 0.0], part))) == [0]

    def test_uniform(self):
        part = identity_kernel(4).partition
        assert list(support(Measure([0.25] * 4, part))) == [0, 1, 2, 3]

    def test_threshold(self):
        part = identity_kernel(3).partition
        mu = Measure([0.5, 1e-15, 0.5 - 1e-15], part)
        assert list(support(mu, 1e-12)) == [0, 2]


class TestClosedClasses:
    def test_identity_all_singletons(self):
        classes = closed_classes(identity_kernel(3))
        assert [list(c) for c in classes] == [[0], [1], [2]]

    def test_swap_single_class(self):
        classes = closed_classes(swap_kernel())
        assert [list(c) for c in classes] == [[0, 1]]

    def test_transient_state_excluded(self):
        classes = closed_classes(three_state_transient())
        assert [list(c) for c in classes] == [[0], [1]]

    def test_matches_reachability_oracle(self, rng):
        for _ in range(50):
            sizes = [int(s) for s in rng.integers(1, 4, size=int(rng.integers(1, 4)))]
            P = reducible_kernel(rng, sizes, n_transient=int(rng.integers(0, 3)))
            got = [tuple(c) for c in closed_classes(P)]
            want = [tuple(c) for c in brute_force_closed_classes(P.to_dense())]
            assert got == want

    def test_sorted_by_smallest_index(self, rng):
        P = reducible_kernel(rng, [3, 2, 4])
        classes = closed_classes(P)
        firsts = [int(c.min()) for c in classes]
        assert firsts == sorted(firsts)


class TestStationaryMeasures:
    def test_identity_point_masses(self):
        ms = stationary_measures(identity_kernel(3))
        assert len(ms) == 3
        for i, mu in enumerate(ms):
            expected = np.zeros(3)
            expected[i] = 1.0
            assert np.array_equal(mu.weights, expected)

    def test_swap_uniform(self):
        ms = stationary_measures(swap_kernel())
        assert len(ms) == 1
        assert np.abs(ms[0].weights - 0.5).max() <= 1e-12

    def test_two_state_balance_oracle(self):
        # balance equation mu_0 * 0.1 = mu_1 * 0.2 gives (2/3, 1/3)
        ms = stationary_measures(two_state_chain(), tol=1e-13)
        assert len(ms) == 1
        assert np.abs(ms[0].weights - [2 / 3, 1 / 3]).max() <= 1e-12

    def test_matches_linear_solve_oracle(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 40))
            P = random_kernel(rng, k)
            mu = stationary_measures(P, tol=1e-13)[0]
            dense = P.to_dense()
            lead = np.vstack([dense.T - np.eye(k), np.ones(k)])
            target = np.concatenate([np.zeros(k), [1.0]])
            oracle, *_ = np.linalg.lstsq(lead, target, rcond=None)
            assert np.abs(mu.weights - oracle).max() <= 1e-9

    def test_residual_contract(self, rng):
        for _ in range(20):
            sizes = [int(s) for s in rng.integers(1, 5, size=int(rng.integers(1, 4)))]
            P = reducible_kernel(rng, sizes, n_transient=int(rng.integers(0, 3)))
            for mu in stationary_measures(P, tol=1e-12):
                res = np.abs(P.rmatvec(mu.weights) - mu.weights).sum()
                assert res <= 1e-12
                assert is_ergodic(P, mu)

    def test_periodic_class_converges(self, rng):
        # plain power iteration oscillates on the swap kernel; the window
        # average must still converge fast
        P = cyclic_kernel(rng, 3, 4)
        ms = stationary_measures(P, tol=1e-12, max_iter=10000)
        assert len(ms) == 1
        res = np.abs(P.rmatvec(ms[0].weights) - ms[0].weights).sum()
        assert res <= 1e-12

    def test_nonconvergence_raises(self, rng):
        P = random_kernel(rng, 30)
        with pytest.raises(ConvergenceError) as exc:
            stationary_measures(P, tol=1e-30, max_iter=3)
        assert exc.value.residual is not None


class TestInvariantSets:
    def test_swap_single_generator(self):
        P = swap_kernel()
        mu = Measure([0.5, 0.5], P.partition)
        report = invariant_sets(P, mu, 1e-10)
        assert [list(g) for g in report.generators] == [[0, 1]]
        assert report.lattice_size == 2

    def test_identity_two_generators(self):
        P = identity_kernel(2)
        mu = Measure([0.5, 0.5], P.partition)
        report = invariant_sets(P, mu, 1e-10)
        assert [list(g) for g in report.generators] == [[0], [1]]
        assert report.lattice_size == 4

    def test_transient_example(self):
        P = three_state_transient()
        mu = Measure([0.25, 0.75, 0.0], P.partition)
        report = invariant_sets(P, mu, 1e-10)
        assert [list(g) for g in report.generators] == [[0], [1]]

    def test_not_stationary_rejected(self):
        P = swap_kernel()
        with pytest.raises(NotStationaryError):
            invariant_sets(P, Measure([0.9, 0.1], P.partition), 1e-10)

    def test_measure_on_another_partition_rejected(self):
        # the stationarity test takes its residual from stationarity_residual, which checks
        # the partition: the swap's stationary weights on the circle are not its measure
        P = swap_kernel()
        with pytest.raises(DimensionError):
            invariant_sets(P, Measure([0.5, 0.5], make_uniform_partition("circle", 2)), 1e-10)

    def test_generators_partition_support(self, rng):
        for _ in range(20):
            sizes = [int(s) for s in rng.integers(1, 4, size=int(rng.integers(1, 5)))]
            P = reducible_kernel(rng, sizes, n_transient=int(rng.integers(0, 3)))
            ms = stationary_measures(P)
            mix = Measure(sum(m.weights for m in ms) / len(ms), P.partition)
            report = invariant_sets(P, mix, 1e-10)
            union = np.sort(np.concatenate([np.asarray(g) for g in report.generators]))
            assert np.array_equal(union, support(mix))
            flat = list(union)
            assert len(flat) == len(set(flat))

    def test_matches_subset_enumeration(self, rng):
        for _ in range(30):
            sizes = [int(s) for s in rng.integers(1, 4, size=int(rng.integers(1, 4)))]
            P = reducible_kernel(rng, sizes, n_transient=int(rng.integers(0, 3)))
            ms = stationary_measures(P)
            mix = Measure(sum(m.weights for m in ms) / len(ms), P.partition)
            report = invariant_sets(P, mix, 1e-10)
            gens = [frozenset(int(i) for i in g) for g in report.generators]
            expected = set()
            for r in range(len(gens) + 1):
                for combo in itertools.combinations(gens, r):
                    expected.add(frozenset().union(*combo) if combo else frozenset())
            got = brute_force_invariant_sets(P, mix, 1e-10)
            assert got == expected
            assert report.lattice_size == len(got)


class TestIsErgodic:
    def test_swap_uniform_ergodic(self):
        P = swap_kernel()
        assert is_ergodic(P, Measure([0.5, 0.5], P.partition))

    def test_identity_mixture_not_ergodic(self):
        P = identity_kernel(2)
        assert not is_ergodic(P, Measure([0.5, 0.5], P.partition))

    def test_point_mass_under_identity_ergodic(self):
        P = identity_kernel(3)
        assert is_ergodic(P, Measure([1.0, 0.0, 0.0], P.partition))


class TestErgodicDecomposition:
    def test_already_ergodic(self):
        P = swap_kernel()
        mu = Measure([0.5, 0.5], P.partition)
        dec = ergodic_decomposition(P, mu)
        assert len(dec.components) == 1
        w, nu = dec.components[0]
        assert w == 1.0
        assert np.array_equal(nu.weights, mu.weights)

    def test_identity_atoms(self):
        P = identity_kernel(2)
        dec = ergodic_decomposition(P, Measure([0.3, 0.7], P.partition))
        weights = [w for w, _ in dec.components]
        assert np.allclose(weights, [0.3, 0.7])
        assert np.array_equal(dec.components[0][1].weights, [1.0, 0.0])
        assert np.array_equal(dec.components[1][1].weights, [0.0, 1.0])

    def test_transient_conditioning(self):
        P = three_state_transient()
        dec = ergodic_decomposition(P, Measure([0.25, 0.75, 0.0], P.partition))
        assert np.allclose([w for w, _ in dec.components], [0.25, 0.75])

    def test_reconstructs_mu(self, rng):
        for _ in range(20):
            sizes = [int(s) for s in rng.integers(1, 5, size=int(rng.integers(2, 5)))]
            P = reducible_kernel(rng, sizes)
            ms = stationary_measures(P)
            coef = rng.random(len(ms)) + 0.1
            coef /= coef.sum()
            mix = Measure(sum(c * m.weights for c, m in zip(coef, ms)), P.partition)
            dec = ergodic_decomposition(P, mix)
            rebuilt = sum(w * nu.weights for w, nu in dec.components)
            assert np.abs(rebuilt - mix.weights).sum() <= 1e-10
            assert abs(sum(w for w, _ in dec.components) - 1.0) <= 1e-10
            for _w, nu in dec.components:
                assert is_ergodic(P, nu)


class TestPeriodicMeasures:
    def test_swap_period_two_point_masses(self):
        P = swap_kernel()
        out = periodic_measures(P, 2)
        supports = sorted(tuple(np.flatnonzero(nu.weights)) for nu, _ in out)
        assert supports == [(0,), (1,)]
        assert all(d == 2 for _, d in out)

    def test_identity_any_p_period_one(self):
        P = identity_kernel(3)
        out = periodic_measures(P, 3)
        assert len(out) == 3
        assert all(d == 1 for _, d in out)

    def test_aperiodic_chain_reduces_to_stationary(self):
        P = two_state_chain()
        out = periodic_measures(P, 2)
        assert len(out) == 1
        nu, d = out[0]
        assert d == 1
        assert np.abs(nu.weights - [2 / 3, 1 / 3]).max() <= 1e-10

    def test_cyclic_chain_minimal_period(self, rng):
        for p in (2, 3, 4):
            P = cyclic_kernel(rng, p, 3)
            out = periodic_measures(P, p)
            assert len(out) == p
            assert all(d == p for _, d in out)
            for nu, _ in out:
                q = kernel_power(P, p)
                res = np.abs(q.rmatvec(nu.weights) - nu.weights).sum()
                assert res <= 1e-10

    def test_minimal_period_divides_p(self, rng):
        for _ in range(20):
            p = int(rng.integers(1, 7))
            k = int(rng.integers(2, 12))
            P = random_kernel(rng, k, density=0.5)
            for _nu, d in periodic_measures(P, p):
                assert p % d == 0
