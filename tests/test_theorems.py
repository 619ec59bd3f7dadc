import numpy as np
import pytest

from ergodyn import (
    ConvergenceError,
    InvalidArgumentError,
    Measure,
    NotStationaryError,
    Observable,
    PreconditionError,
    birkhoff_average,
    birkhoff_limit,
    check_corollary_b,
    check_corollary_c,
    check_corollary_inequalities,
    check_ergodic_limit,
    check_lemma1,
    check_lemma2,
    check_levelset_invariance,
    check_localization,
    check_maximal_inequality,
    check_nonconvergence_set_empty,
    check_periodic_pointwise,
    integrate,
    is_ergodic,
    maximal_function,
    maximal_set,
    stationary_measures,
    sublevel_sets,
)
from ergodyn import kernel_from_rows
from ergodyn.measures import _odd_period_lcm
from ergodyn.theorems import running_average_extremes

from conftest import (
    cyclic_kernel,
    identity_kernel,
    random_kernel,
    random_observable,
    reducible_kernel,
    swap_kernel,
    two_state_chain,
)


def partial_sums_oracle(P, phi, n_max):
    """Dense enumeration of S_n = sum_{j<n} L^j phi for n = 1..n_max."""
    dense = P.to_dense()
    sums = []
    cur = phi.values.copy()
    total = np.zeros_like(cur)
    for _ in range(n_max):
        total = total + cur
        sums.append(total.copy())
        cur = dense @ cur
    return sums


def plain_loop_reference(P, phi, n_max):
    """The partial-sum loop written out once per quantity, with the order of
    floating-point operations the library must keep: returns the maximal
    function, the running-average max and min, and the n_max-term average."""
    cur = phi.values.copy()
    total = cur.copy()
    best, hi, lo = cur.copy(), cur.copy(), cur.copy()
    for n in range(2, n_max + 1):
        cur = P.matvec(cur)
        total += cur
        np.maximum(best, total, out=best)
        avg = total / n
        np.maximum(hi, avg, out=hi)
        np.minimum(lo, avg, out=lo)
    return best, hi, lo, total / n_max


class TestPartialSumReference:
    def test_bit_identical_to_plain_loops(self, rng):
        for _ in range(25):
            k = int(rng.integers(1, 30))
            P = random_kernel(rng, k, density=float(rng.uniform(0.1, 1.0)))
            phi = random_observable(rng, P.partition)
            n_max = int(rng.integers(1, 70))
            best, hi, lo, avg = plain_loop_reference(P, phi, n_max)
            assert np.array_equal(maximal_function(P, phi, n_max).values, best)
            assert np.array_equal(birkhoff_average(P, phi, n_max).values, avg)
            got_hi, got_lo = running_average_extremes(P, phi, n_max)
            assert np.array_equal(got_hi, hi) and np.array_equal(got_lo, lo)
            alpha, beta = float(hi[0]), float(lo[-1])  # thresholds on the boundary
            c, b = sublevel_sets(P, phi, n_max, alpha, beta)
            assert np.array_equal(c, np.flatnonzero(hi > alpha))
            assert np.array_equal(b, np.flatnonzero(lo < beta))

    @pytest.mark.parametrize("fn", [maximal_function, birkhoff_average, sublevel_sets])
    def test_nonpositive_horizon_rejected(self, fn):
        P = swap_kernel()
        with pytest.raises(InvalidArgumentError):
            fn(P, Observable([1.0, -2.0], P.partition), 0)


def mixture(ms):
    w = sum(m.weights for m in ms) / len(ms)
    return Measure(w, ms[0].partition)


class TestMaximalFunction:
    def test_identity_scales_partial_sums(self):
        P = identity_kernel(2)
        phi = Observable([1.0, -2.0], P.partition)
        out = maximal_function(P, phi, 3)
        assert np.array_equal(out.values, [3.0, -2.0])

    def test_swap_enumeration(self):
        # oracle: S1=(1,-2), S2=(-1,-1), S3=(0,-3); componentwise max (1,-1)
        P = swap_kernel()
        phi = Observable([1.0, -2.0], P.partition)
        out = maximal_function(P, phi, 3)
        assert np.array_equal(out.values, [1.0, -1.0])

    def test_single_term_is_phi(self, rng):
        P = random_kernel(rng, 9)
        phi = random_observable(rng, P.partition)
        assert np.array_equal(maximal_function(P, phi, 1).values, phi.values)

    def test_matches_brute_force(self, rng):
        for _ in range(20):
            k = int(rng.integers(1, 20))
            P = random_kernel(rng, k, density=0.6)
            phi = random_observable(rng, P.partition)
            n_max = int(rng.integers(1, 12))
            oracle = np.max(partial_sums_oracle(P, phi, n_max), axis=0)
            got = maximal_function(P, phi, n_max).values
            assert np.abs(got - oracle).max() <= 1e-12

    def test_monotone_in_n(self, rng):
        P = random_kernel(rng, 12)
        phi = random_observable(rng, P.partition)
        prev = maximal_function(P, phi, 1).values
        for n in range(2, 20):
            cur = maximal_function(P, phi, n).values
            assert (cur - prev).min() >= 0.0
            prev = cur


class TestMaximalSet:
    def test_positive_phi_everything(self, rng):
        P = random_kernel(rng, 6)
        phi = Observable(rng.random(6) + 0.1, P.partition)
        assert list(maximal_set(P, phi, 4)) == list(range(6))

    def test_swap_example(self):
        P = swap_kernel()
        phi = Observable([1.0, -2.0], P.partition)
        assert list(maximal_set(P, phi, 3)) == [0]

    def test_negative_phi_empty(self, rng):
        P = random_kernel(rng, 6)
        phi = Observable(-rng.random(6) - 0.1, P.partition)
        assert maximal_set(P, phi, 8).size == 0

    def test_nondecreasing_in_n_max(self, rng):
        P = random_kernel(rng, 10)
        phi = random_observable(rng, P.partition)
        prev = set()
        for n in (1, 2, 4, 8, 16, 32):
            cur = set(maximal_set(P, phi, n).tolist())
            assert prev <= cur
            prev = cur


class TestMaximalInequality:
    def test_swap_example(self):
        P = swap_kernel()
        mu = Measure([0.5, 0.5], P.partition)
        phi = Observable([1.0, -2.0], P.partition)
        rep = check_maximal_inequality(P, mu, phi, 8, 1e-10)
        assert rep.passed
        assert abs(rep.lhs - 0.5) <= 1e-12
        assert rep.witnesses == (0,)

    def test_nonnegative_phi_trivial(self, rng):
        P = random_kernel(rng, 10)
        mu = stationary_measures(P)[0]
        phi = Observable(rng.random(10), P.partition)
        rep = check_maximal_inequality(P, mu, phi)
        assert rep.passed and rep.lhs >= 0

    def test_requires_stationary(self, rng):
        P = two_state_chain()
        with pytest.raises(NotStationaryError):
            check_maximal_inequality(
                P, Measure([0.5, 0.5], P.partition), Observable([1.0, 0.0], P.partition)
            )

    def test_randomized_sweep(self, rng):
        for _ in range(200):
            k = int(rng.integers(2, 64))
            P = random_kernel(rng, k, density=float(rng.uniform(0.3, 1)))
            mu = stationary_measures(P)[0]
            phi = random_observable(rng, P.partition)
            rep = check_maximal_inequality(P, mu, phi, 64, 1e-10)
            assert rep.passed, f"maximal inequality violated: {rep}"


class TestSublevelSets:
    def test_constant_phi(self, rng):
        P = random_kernel(rng, 5)
        phi = Observable(np.full(5, 2.0), P.partition)
        c, b = sublevel_sets(P, phi, 8, alpha=1.5, beta=1.5)
        assert list(c) == list(range(5)) and b.size == 0
        c, b = sublevel_sets(P, phi, 8, alpha=2.5, beta=2.5)
        assert c.size == 0 and list(b) == list(range(5))

    def test_identity_kernel(self):
        P = identity_kernel(2)
        phi = Observable([1.0, -2.0], P.partition)
        c, b = sublevel_sets(P, phi, 8, alpha=0.0, beta=0.0)
        assert list(c) == [0]
        assert list(b) == [1]

    def test_swap_against_brute_force(self):
        # the stated expectation for this example is recomputed here: the
        # running maxima of S_n/n are 1 (state 0) and -0.5 (state 1), both
        # above -0.6, so the alpha set is {0, 1}
        P = swap_kernel()
        phi = Observable([1.0, -2.0], P.partition)
        sums = partial_sums_oracle(P, phi, 8)
        ratios = np.array([s / (n + 1) for n, s in enumerate(sums)])
        assert np.allclose(ratios.max(axis=0), [1.0, -0.5])
        c, _ = sublevel_sets(P, phi, 8, alpha=-0.6)
        assert list(c) == [0, 1]

    def test_matches_brute_force_random(self, rng):
        for _ in range(20):
            k = int(rng.integers(1, 16))
            P = random_kernel(rng, k, density=0.7)
            phi = random_observable(rng, P.partition)
            n_max = int(rng.integers(1, 10))
            alpha = float(rng.uniform(-1, 1))
            beta = float(rng.uniform(-1, 1))
            sums = partial_sums_oracle(P, phi, n_max)
            ratios = np.array([s / (n + 1) for n, s in enumerate(sums)])
            c, b = sublevel_sets(P, phi, n_max, alpha, beta)
            assert list(c) == list(np.flatnonzero(ratios.max(axis=0) > alpha))
            assert list(b) == list(np.flatnonzero(ratios.min(axis=0) < beta))


class TestCorollaries:
    def test_empty_set_vacuous(self, rng):
        P = random_kernel(rng, 6)
        mu = stationary_measures(P)[0]
        phi = random_observable(rng, P.partition)
        rc, rb = check_corollary_inequalities(P, mu, phi, 0.0, 0.0, [], 16, 1e-10)
        assert rc.passed and rb.passed
        assert rc.lhs == rc.rhs == 0.0
        assert rb.lhs == rb.rhs == 0.0

    def test_identity_worked_example(self):
        P = identity_kernel(2)
        mu = Measure([0.5, 0.5], P.partition)
        phi = Observable([1.0, -2.0], P.partition)
        rep = check_corollary_c(P, mu, phi, 0.5, [0], 8, 1e-10)
        assert rep.passed
        assert abs(rep.lhs - 0.5) <= 1e-12
        assert abs(rep.rhs - 0.25) <= 1e-12

    def test_subset_precondition_enforced(self):
        P = identity_kernel(2)
        mu = Measure([0.5, 0.5], P.partition)
        phi = Observable([1.0, -2.0], P.partition)
        with pytest.raises(PreconditionError) as exc:
            check_corollary_c(P, mu, phi, 5.0, [0], 8, 1e-10)
        assert exc.value.name == "subset_of_c_alpha"

    def test_level_is_required(self):
        # None is corollary_trials' default level; the public checks take a number
        P = identity_kernel(2)
        mu = Measure([0.5, 0.5], P.partition)
        phi = Observable([1.0, -2.0], P.partition)
        with pytest.raises(TypeError):
            check_corollary_c(P, mu, phi, None, [0], 8, 1e-10)
        with pytest.raises(TypeError):
            check_corollary_b(P, mu, phi, None, [0], 8, 1e-10)

    def test_invariance_precondition_enforced(self):
        P = swap_kernel()
        mu = Measure([0.5, 0.5], P.partition)
        phi = Observable([1.0, -2.0], P.partition)
        with pytest.raises(PreconditionError) as exc:
            check_corollary_c(P, mu, phi, 0.0, [0], 8, 1e-10)
        assert exc.value.name == "invariant_set"

    def test_randomized_closed_class_sweep(self, rng):
        from ergodyn import closed_classes

        for _ in range(100):
            sizes = [int(s) for s in rng.integers(1, 5, size=int(rng.integers(1, 4)))]
            P = reducible_kernel(rng, sizes, n_transient=int(rng.integers(0, 3)))
            mu = mixture(stationary_measures(P))
            phi = random_observable(rng, P.partition)
            sums = partial_sums_oracle(P, phi, 32)
            ratios = np.array([s / (n + 1) for n, s in enumerate(sums)])
            hi, lo = ratios.max(axis=0), ratios.min(axis=0)
            for A in closed_classes(P):
                alpha = float(hi[A].min()) - 0.05
                beta = float(lo[A].max()) + 0.05
                rc, rb = check_corollary_inequalities(P, mu, phi, alpha, beta, A, 32, 1e-10)
                assert rc.passed, f"alpha bound failed: {rc}"
                assert rb.passed, f"beta bound failed: {rb}"


class TestBirkhoffAverage:
    def test_constant_fixed(self, rng):
        P = random_kernel(rng, 7)
        phi = Observable(np.full(7, -1.5), P.partition)
        for n in (1, 2, 5, 17):
            assert np.abs(birkhoff_average(P, phi, n).values + 1.5).max() <= 1e-12

    def test_swap_two_terms(self):
        P = swap_kernel()
        phi = Observable([1.0, -2.0], P.partition)
        assert np.array_equal(birkhoff_average(P, phi, 2).values, [-0.5, -0.5])

    def test_mixing_chain_worked_example(self):
        P = [[0.5, 0.5], [0.5, 0.5]]
        from ergodyn import kernel_from_rows

        P = kernel_from_rows(P)
        phi = Observable([1.0, 0.0], P.partition)
        out = birkhoff_average(P, phi, 4).values
        assert np.abs(out - [0.625, 0.375]).max() <= 1e-15

    def test_telescoping_identity(self, rng):
        for _ in range(20):
            k = int(rng.integers(1, 24))
            P = random_kernel(rng, k)
            phi = random_observable(rng, P.partition)
            n = int(rng.integers(2, 30))
            a_n = birkhoff_average(P, phi, n).values
            a_prev = birkhoff_average(P, phi, n - 1).values
            rebuilt = (phi.values + (n - 1) * P.matvec(a_prev)) / n
            assert np.abs(a_n - rebuilt).max() <= 1e-12


class TestBirkhoffLimit:
    def test_identity_immediate(self, rng):
        P = identity_kernel(5)
        phi = random_observable(rng, P.partition)
        mu = Measure(np.full(5, 0.2), P.partition)
        tilde, rep = birkhoff_limit(P, phi, mu, 1e-10)
        assert rep.passed
        assert np.array_equal(tilde.values, phi.values)

    def test_two_state_limit_is_mean(self):
        P = two_state_chain()
        phi = Observable([1.0, 0.0], P.partition)
        mu = Measure([2 / 3, 1 / 3], P.partition)
        tilde, rep = birkhoff_limit(P, phi, mu, 1e-10)
        assert rep.passed
        assert np.abs(tilde.values - 2 / 3).max() <= 1e-8

    def test_swap_cesaro_value(self):
        P = swap_kernel()
        phi = Observable([1.0, -2.0], P.partition)
        mu = Measure([0.5, 0.5], P.partition)
        tilde, rep = birkhoff_limit(P, phi, mu, 1e-10)
        assert rep.passed
        assert np.abs(tilde.values + 0.5).max() <= 1e-12

    def test_integral_preserved(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 32))
            P = random_kernel(rng, k)
            mu = stationary_measures(P)[0]
            phi = random_observable(rng, P.partition)
            tilde, _ = birkhoff_limit(P, phi, mu, 1e-10)
            assert abs(integrate(tilde, mu) - integrate(phi, mu)) <= 1e-9

    def test_limit_is_invariant(self, rng):
        P = random_kernel(rng, 24)
        mu = stationary_measures(P)[0]
        phi = random_observable(rng, P.partition)
        tilde, _ = birkhoff_limit(P, phi, mu, 1e-10)
        assert np.abs(P.matvec(tilde.values) - tilde.values).max() <= 1e-9

    def test_cap_raises(self, rng):
        eps = 1e-3  # second eigenvalue 1 - 2 eps: windows shrink by 0.6 per doubling at 256
        P = kernel_from_rows([[1.0 - eps, eps], [eps, 1.0 - eps]])
        phi = random_observable(rng, P.partition)
        mu = stationary_measures(P)[0]
        with pytest.raises(ConvergenceError) as exc:
            birkhoff_limit(P, phi, mu, 1e-12, 256)
        assert exc.value.residual is not None

    @pytest.mark.parametrize("p, L", [(3, 3), (5, 5), (6, 3), (12, 3)])
    def test_odd_period_converges_on_multiples_of_its_odd_part(self, rng, p, L):
        P = cyclic_kernel(rng, p, 2)
        phi = random_observable(rng, P.partition)
        mu = stationary_measures(P)[0]
        assert _odd_period_lcm(P) == L
        tilde, rep = birkhoff_limit(P, phi, mu, 1e-12)
        assert rep.passed and rep.iterations_used % (2 * L) == 0
        assert np.abs(tilde.values - integrate(phi, mu)).max() <= 1e-10
        assert check_nonconvergence_set_empty(P, phi, 0.05, -0.05).passed

    def test_odd_part_lcm_over_classes(self, rng):
        a, b = cyclic_kernel(rng, 3, 2).to_dense(), cyclic_kernel(rng, 5, 1).to_dense()
        rows = np.zeros((11, 11))
        rows[:6, :6], rows[6:, 6:] = a, b
        assert _odd_period_lcm(kernel_from_rows(rows)) == 15
        assert _odd_period_lcm(random_kernel(rng, 7)) == 1


class TestErgodicLimit:
    def test_constant_phi(self, rng):
        P = random_kernel(rng, 8)
        mu = stationary_measures(P)[0]
        phi = Observable(np.full(8, 0.7), P.partition)
        rep = check_ergodic_limit(P, phi, mu)
        assert rep.passed and rep.lhs <= 1e-12

    def test_two_state_value(self):
        P = two_state_chain()
        phi = Observable([1.0, 0.0], P.partition)
        mu = Measure([2 / 3, 1 / 3], P.partition)
        rep = check_ergodic_limit(P, phi, mu, 1e-8)
        assert rep.passed

    def test_non_ergodic_rejected(self):
        P = identity_kernel(2)
        mu = Measure([0.5, 0.5], P.partition)
        phi = Observable([1.0, 0.0], P.partition)
        with pytest.raises(PreconditionError) as exc:
            check_ergodic_limit(P, phi, mu)
        assert exc.value.name == "ergodic"

    def test_randomized_ergodic_chains(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 64))
            P = random_kernel(rng, k)
            mu = stationary_measures(P)[0]
            phi = random_observable(rng, P.partition)
            rep = check_ergodic_limit(P, phi, mu, 1e-6, 2**20)
            assert rep.passed, f"ergodic limit failed: {rep}"


class TestPeriodicPointwise:
    def test_swap_point_mass(self):
        P = swap_kernel()
        phi = Observable([1.0, -2.0], P.partition)
        delta0 = Measure([1.0, 0.0], P.partition)
        rep = check_periodic_pointwise(P, 2, phi, delta0, 1e-10)
        assert rep.passed
        # the two-step averages at state 0 equal phi(0) = 1 = mean of delta0
        assert rep.lhs <= 1e-12

    def test_p1_reduces_to_ergodic_limit(self, rng):
        for _ in range(10):
            k = int(rng.integers(2, 24))
            P = random_kernel(rng, k)
            mu = stationary_measures(P)[0]
            phi = random_observable(rng, P.partition)
            a = check_periodic_pointwise(P, 1, phi, mu, 1e-9)
            b = check_ergodic_limit(P, phi, mu, 1e-9)
            assert a == b

    def test_identity_point_masses(self, rng):
        P = identity_kernel(4)
        phi = random_observable(rng, P.partition)
        for i in range(4):
            w = np.zeros(4)
            w[i] = 1.0
            rep = check_periodic_pointwise(P, 3, phi, Measure(w, P.partition))
            assert rep.passed

    def test_cyclic_chains(self, rng):
        from ergodyn import periodic_measures

        for p in (2, 3, 4):
            for _ in range(5):
                P = cyclic_kernel(rng, p, int(rng.integers(2, 6)))
                phi = random_observable(rng, P.partition)
                for nu, d in periodic_measures(P, p):
                    assert d == p
                    rep = check_periodic_pointwise(P, p, phi, nu, 1e-8)
                    assert rep.passed, f"periodic check failed: {rep}"

    def test_not_stationary_for_power(self, rng):
        P = cyclic_kernel(rng, 2, 2)
        phi = random_observable(rng, P.partition)
        bad = Measure([0.7, 0.1, 0.1, 0.1], P.partition)
        with pytest.raises(NotStationaryError):
            check_periodic_pointwise(P, 2, phi, bad)


class TestLocalization:
    def test_full_space(self, rng):
        P = random_kernel(rng, 6)
        mu = stationary_measures(P)[0]
        phi = random_observable(rng, P.partition)
        rep = check_localization(P, mu, np.arange(6), phi, 1e-10)
        assert rep.passed and rep.lhs <= 1e-14

    def test_empty_set(self, rng):
        P = random_kernel(rng, 6)
        mu = stationary_measures(P)[0]
        phi = random_observable(rng, P.partition)
        rep = check_localization(P, mu, [], phi, 1e-10)
        assert rep.passed and rep.lhs == 0.0

    def test_closed_classes_random(self, rng):
        from ergodyn import closed_classes

        for _ in range(50):
            sizes = [int(s) for s in rng.integers(1, 5, size=2)]
            P = reducible_kernel(rng, sizes, n_transient=int(rng.integers(0, 3)))
            mu = mixture(stationary_measures(P))
            phi = random_observable(rng, P.partition)
            for A in closed_classes(P):
                rep = check_localization(P, mu, A, phi, 1e-12)
                assert rep.passed, f"localization failed: {rep}"

    def test_non_invariant_rejected(self):
        P = swap_kernel()
        mu = Measure([0.5, 0.5], P.partition)
        phi = Observable([1.0, -2.0], P.partition)
        with pytest.raises(PreconditionError):
            check_localization(P, mu, [0], phi, 1e-10)


class TestLevelsetInvariance:
    def test_constant_phi(self, rng):
        P = random_kernel(rng, 6)
        mu = stationary_measures(P)[0]
        phi = Observable(np.full(6, 0.3), P.partition)
        for alpha in (-1.0, 0.3, 2.0):
            rep = check_levelset_invariance(P, mu, phi, alpha, 1e-10)
            assert rep.passed

    def test_identity_kernel_any_phi(self, rng):
        P = identity_kernel(8)
        mu = Measure(np.full(8, 0.125), P.partition)
        phi = random_observable(rng, P.partition)
        rep = check_levelset_invariance(P, mu, phi, 0.1, 1e-10)
        assert rep.passed

    def test_class_eigenfunction(self, rng):
        from ergodyn import closed_classes

        for _ in range(20):
            P = reducible_kernel(rng, [3, 2], n_transient=2)
            mu = mixture(stationary_measures(P))
            values = np.zeros(P.K)
            for k, cls in enumerate(closed_classes(P)):
                values[cls] = float(k)
            phi = Observable(values, P.partition)
            rep = check_levelset_invariance(P, mu, phi, 0.5, 1e-10)
            assert rep.passed

    def test_non_invariant_phi_rejected(self, rng):
        P = two_state_chain()
        mu = Measure([2 / 3, 1 / 3], P.partition)
        phi = Observable([1.0, 0.0], P.partition)
        with pytest.raises(PreconditionError) as exc:
            check_levelset_invariance(P, mu, phi, 0.5, 1e-10)
        assert exc.value.name == "invariant_observable"


class TestNonconvergenceSetEmpty:
    def test_identity(self, rng):
        P = identity_kernel(5)
        phi = random_observable(rng, P.partition)
        rep = check_nonconvergence_set_empty(P, phi, 0.5, -0.5)
        assert rep.passed and rep.witnesses == ()

    def test_swap(self):
        P = swap_kernel()
        phi = Observable([1.0, -2.0], P.partition)
        rep = check_nonconvergence_set_empty(P, phi, 0.0, -1.0)
        assert rep.passed

    def test_random_kernels(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 64))
            P = random_kernel(rng, k)
            phi = random_observable(rng, P.partition)
            rep = check_nonconvergence_set_empty(P, phi, 0.05, -0.05)
            assert rep.passed

    def test_alpha_beta_order_enforced(self, rng):
        P = random_kernel(rng, 4)
        phi = random_observable(rng, P.partition)
        with pytest.raises(InvalidArgumentError):
            check_nonconvergence_set_empty(P, phi, -1.0, 1.0)


class TestLemmaChecks:
    def test_lemma1_random(self, rng):
        for _ in range(100):
            k = int(rng.integers(1, 40))
            P = random_kernel(rng, k, density=0.6)
            rep = check_lemma1(P, random_observable(rng, P.partition))
            assert rep.passed

    def test_lemma2_random(self, rng):
        for _ in range(100):
            k = int(rng.integers(2, 48))
            P = random_kernel(rng, k)
            mu = stationary_measures(P)[0]
            rep = check_lemma2(P, mu, random_observable(rng, P.partition))
            assert rep.passed

    def test_lemma2_requires_stationary(self, rng):
        P = two_state_chain()
        with pytest.raises(NotStationaryError):
            check_lemma2(
                P, Measure([0.5, 0.5], P.partition), Observable([1.0, 0.0], P.partition)
            )
