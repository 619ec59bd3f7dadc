"""Executable statements: maximal inequality, pointwise limits, lemmas.

Every check computes the objects of the corresponding statement (maximal
functions, the set where the running maximum is positive, time averages,
level sets) and compares the two sides of the asserted inequality or
equality, returning a CheckReport with the numbers it saw. Checks never
mutate their inputs and raise PreconditionError (or NotStationaryError)
when invoked outside their hypotheses, so a failing report always means
the statement itself was violated numerically.

Truncation policy: suprema over all horizons n >= 1 are evaluated up to
n_max. The truncated sets grow monotonically with n_max, and the asserted
inequalities hold at every truncation level, so truncation cannot produce
false failures.

Limit detection: time averages are run on doubling horizons, testing the
sup-norm difference of consecutive second-half window averages
W_n = (1/n) sum_{j=n}^{2n-1} L^j phi on the support of the measure. The
window average has the same limit as the full average but converges
geometrically once the rotating part cancels, whereas the full average
carries an O(1/n) bias that cannot reach tight tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    InvalidArgumentError,
    PreconditionError,
)
from .kernel import TransitionKernel, kernel_power
from .measures import invariance_violation, is_ergodic, require_stationary
from .space import Measure, Observable, integrate
from .transfer import apply_L, duality_gap, positive_part

DEFAULT_N_MAX = 64
DEFAULT_TOL = 1e-10
DEFAULT_N_CAP = 2**20


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one executable statement.

    For >=-type checks passed means lhs >= rhs - slack; for <=-type checks
    passed means lhs <= rhs + slack. witnesses carries the index set the
    check was evaluated on, when there is a natural one. Reports compare
    by value, so identical inputs must reproduce identical reports.
    """

    name: str
    passed: bool
    lhs: float
    rhs: float
    slack: float
    witnesses: tuple | None = None
    iterations_used: int = 0


def _ge_report(name, lhs, rhs, slack, witnesses=None, iterations=0):
    return CheckReport(
        name, bool(lhs >= rhs - slack), float(lhs), float(rhs), float(slack),
        witnesses, int(iterations),
    )


def _le_report(name, lhs, rhs, slack, witnesses=None, iterations=0):
    return CheckReport(
        name, bool(lhs <= rhs + slack), float(lhs), float(rhs), float(slack),
        witnesses, int(iterations),
    )


def _as_index_tuple(A) -> tuple:
    return tuple(int(i) for i in np.asarray(A, dtype=np.int64).ravel())


# ---------------------------------------------------------------------------
# Maximal ergodic machinery
# ---------------------------------------------------------------------------

def _partial_sums(P: TransitionKernel, phi: Observable, n_max: int):
    """Yield (n, S_n) for n = 1..n_max, where S_n = phi + L phi + ... + L^{n-1} phi.

    S_n is one array updated in place, so a consumer that keeps it past the
    next step must copy it.
    """
    if n_max < 1:
        raise InvalidArgumentError(f"number of terms must be positive, got {n_max}")
    cur = phi.values.copy()
    total = cur.copy()
    yield 1, total
    for n in range(2, n_max + 1):
        cur = P.matvec(cur)
        total += cur
        yield n, total


def maximal_function(P: TransitionKernel, phi: Observable, n_max: int = DEFAULT_N_MAX) -> Observable:
    """Componentwise max of the partial sums phi + L phi + ... up to n_max terms."""
    best = np.full_like(phi.values, -np.inf)
    for _, total in _partial_sums(P, phi, n_max):
        np.maximum(best, total, out=best)
    return phi.with_values(best)


def maximal_set(P: TransitionKernel, phi: Observable, n_max: int = DEFAULT_N_MAX) -> np.ndarray:
    """States where the running maximum of partial sums is positive."""
    return np.flatnonzero(maximal_function(P, phi, n_max).values > 0.0)


def check_maximal_inequality(
    P: TransitionKernel,
    mu: Measure,
    phi: Observable,
    n_max: int = DEFAULT_N_MAX,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Integral of phi over the maximal set is nonnegative (stationary mu)."""
    require_stationary(P, mu, tol)
    E = maximal_set(P, phi, n_max)
    lhs = float(phi.values[E] @ mu.weights[E])
    return _ge_report("maximal", lhs, 0.0, tol, _as_index_tuple(E), n_max)


def sublevel_sets(
    P: TransitionKernel,
    phi: Observable,
    n_max: int = DEFAULT_N_MAX,
    alpha: float = 0.0,
    beta: float = 0.0,
):
    """States whose running average max exceeds alpha / min falls below beta.

    The averages are S_n / n with S_n the plain n-term partial sum; the
    first set uses the max over n <= n_max with strict >, the second the
    min with strict <.
    """
    hi, lo = running_average_extremes(P, phi, n_max)
    return np.flatnonzero(hi > alpha), np.flatnonzero(lo < beta)


def running_average_extremes(P: TransitionKernel, phi: Observable, n_max: int = DEFAULT_N_MAX):
    """Per-state max and min of the running averages S_n / n over n <= n_max."""
    hi = np.full_like(phi.values, -np.inf)
    lo = np.full_like(phi.values, np.inf)
    for n, total in _partial_sums(P, phi, n_max):
        avg = total / n
        np.maximum(hi, avg, out=hi)
        np.minimum(lo, avg, out=lo)
    return hi, lo


def check_corollary_c(
    P: TransitionKernel,
    mu: Measure,
    phi: Observable,
    alpha: float,
    A,
    n_max: int = DEFAULT_N_MAX,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """integral_A phi dmu >= alpha * mu(A) for invariant A inside C_alpha."""
    require_stationary(P, mu, tol)
    A = np.asarray(A, dtype=np.int64)
    viol = invariance_violation(P, mu, A)
    if viol > tol:
        raise PreconditionError(
            f"A is not a.e. invariant: criterion violation {viol:.3e}",
            name="invariant_set",
        )
    c_set, _ = sublevel_sets(P, phi, n_max, alpha=alpha)
    if not np.isin(A, c_set).all():
        raise PreconditionError(
            "A is not contained in the super-average set for alpha",
            name="subset_of_c_alpha",
        )
    lhs = float(phi.values[A] @ mu.weights[A])
    rhs = alpha * float(mu.weights[A].sum())
    return _ge_report("corollary_c", lhs, rhs, tol, _as_index_tuple(A), n_max)


def check_corollary_b(
    P: TransitionKernel,
    mu: Measure,
    phi: Observable,
    beta: float,
    A,
    n_max: int = DEFAULT_N_MAX,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """integral_A phi dmu <= beta * mu(A) for invariant A inside B_beta."""
    require_stationary(P, mu, tol)
    A = np.asarray(A, dtype=np.int64)
    viol = invariance_violation(P, mu, A)
    if viol > tol:
        raise PreconditionError(
            f"A is not a.e. invariant: criterion violation {viol:.3e}",
            name="invariant_set",
        )
    _, b_set = sublevel_sets(P, phi, n_max, beta=beta)
    if not np.isin(A, b_set).all():
        raise PreconditionError(
            "A is not contained in the sub-average set for beta",
            name="subset_of_b_beta",
        )
    lhs = float(phi.values[A] @ mu.weights[A])
    rhs = beta * float(mu.weights[A].sum())
    return _le_report("corollary_b", lhs, rhs, tol, _as_index_tuple(A), n_max)


def check_corollary_inequalities(
    P: TransitionKernel,
    mu: Measure,
    phi: Observable,
    alpha: float,
    beta: float,
    A,
    n_max: int = DEFAULT_N_MAX,
    tol: float = DEFAULT_TOL,
):
    """Both one-sided average bounds for the same invariant set A."""
    return (
        check_corollary_c(P, mu, phi, alpha, A, n_max, tol),
        check_corollary_b(P, mu, phi, beta, A, n_max, tol),
    )


# ---------------------------------------------------------------------------
# Time averages and pointwise limits
# ---------------------------------------------------------------------------

def birkhoff_average(P: TransitionKernel, phi: Observable, n: int) -> Observable:
    """Exact n-term time average (1/n) sum_{j<n} L^j phi."""
    for _, total in _partial_sums(P, phi, n):
        pass
    return phi.with_values(total / n)


def _windowed_limit(P: TransitionKernel, values: np.ndarray, watch: np.ndarray,
                    tol: float, n_cap: int):
    """Doubling-horizon limit of time averages, watched on given states.

    Returns (limit vector, residual, horizon, window history tail). The
    candidate at window n is W_n = 2 A_{2n} - A_n, the average over the
    second half of the horizon; successive candidates are compared in
    sup norm on ``watch``.
    """
    power = np.array(P.to_dense())
    avg = values.copy()
    n = 1
    prev = None
    last_res = float("inf")
    while 2 * n <= n_cap:
        avg2 = 0.5 * (avg + power @ avg)
        window = 2.0 * avg2 - avg
        if prev is not None:
            res = float(np.abs(window[watch] - prev[watch]).max()) if watch.size else 0.0
            if res <= tol:
                return window, res, 2 * n, prev
            last_res = res
        prev = window
        power = power @ power
        avg = avg2
        n *= 2
    raise ConvergenceError(
        f"time averages not converged at horizon {n}: residual {last_res:.3e}",
        residual=last_res,
    )


def birkhoff_limit(
    P: TransitionKernel,
    phi: Observable,
    mu: Measure,
    tol: float = DEFAULT_TOL,
    n_cap: int = DEFAULT_N_CAP,
):
    """Pointwise limit of time averages for a stationary measure.

    Doubles the horizon until consecutive window averages agree within tol
    on supp mu, then also asserts the limit is fixed by the operator there
    (within 10 tol). Returns the limit observable and a report.
    """
    require_stationary(P, mu, tol)
    watch = np.flatnonzero(mu.weights > 0.0)
    limit, res, horizon, _ = _windowed_limit(P, phi.values, watch, tol, n_cap)
    tilde = phi.with_values(limit)
    inv_err = (
        float(np.abs(P.matvec(limit)[watch] - limit[watch]).max()) if watch.size else 0.0
    )
    passed = res <= tol and inv_err <= 10.0 * tol
    report = CheckReport(
        "birkhoff", passed, res, 0.0, float(tol), _as_index_tuple(watch), horizon
    )
    return tilde, report


def check_ergodic_limit(
    P: TransitionKernel,
    phi: Observable,
    mu: Measure,
    tol: float = DEFAULT_TOL,
    n_cap: int = DEFAULT_N_CAP,
) -> CheckReport:
    """Time averages of an ergodic measure converge to the space average."""
    if not is_ergodic(P, mu, tol):
        raise PreconditionError("measure is not ergodic", name="ergodic")
    tilde, inner = birkhoff_limit(P, phi, mu, tol, n_cap)
    watch = np.flatnonzero(mu.weights > 0.0)
    target = integrate(phi, mu)
    lhs = float(np.abs(tilde.values[watch] - target).max()) if watch.size else 0.0
    return CheckReport(
        "ergodic_limit",
        bool(lhs <= tol and inner.passed),
        lhs,
        0.0,
        float(tol),
        _as_index_tuple(watch),
        inner.iterations_used,
    )


def check_periodic_pointwise(
    P: TransitionKernel,
    p: int,
    phi: Observable,
    mu: Measure,
    tol: float = DEFAULT_TOL,
    n_cap: int = DEFAULT_N_CAP,
) -> CheckReport:
    """Pointwise theorem for measures fixed by the p-th dual power.

    Runs the limit machinery on the p-step kernel. When mu is ergodic for
    the p-step kernel this delegates to check_ergodic_limit (so p=1 on an
    ergodic measure reproduces that report exactly); otherwise only
    existence and invariance of the limit are asserted.
    """
    if p < 1:
        raise InvalidArgumentError("period must be a positive integer")
    Q = P if p == 1 else kernel_power(P, p)
    require_stationary(Q, mu, tol)
    if is_ergodic(Q, mu, tol):
        return check_ergodic_limit(Q, phi, mu, tol, n_cap)
    _, report = birkhoff_limit(Q, phi, mu, tol, n_cap)
    return report


# ---------------------------------------------------------------------------
# Lemmas as checks
# ---------------------------------------------------------------------------

def check_lemma1(P: TransitionKernel, phi: Observable, tol: float = 1e-12) -> CheckReport:
    """L applied to the positive part dominates the positive part of L phi."""
    gap = apply_L(P, positive_part(phi)).values - np.maximum(apply_L(P, phi).values, 0.0)
    return _ge_report("lemma1", float(gap.min()), 0.0, tol)


def check_lemma2(
    P: TransitionKernel, mu: Measure, phi: Observable, tol: float = DEFAULT_TOL
) -> CheckReport:
    """One averaging step cannot increase the integral over the positive set."""
    require_stationary(P, mu, tol)
    lphi = apply_L(P, phi).values
    lhs = float(phi.values[phi.values > 0.0] @ mu.weights[phi.values > 0.0])
    rhs = float(lphi[lphi > 0.0] @ mu.weights[lphi > 0.0])
    return _ge_report("lemma2", lhs, rhs, tol)


def check_duality(
    P: TransitionKernel, phi: Observable, mu: Measure, tol: float = 1e-12
) -> CheckReport:
    """The two sides of the defining duality identity agree."""
    return _le_report("duality", duality_gap(P, phi, mu), 0.0, tol)


def check_localization(
    P: TransitionKernel,
    mu: Measure,
    A,
    phi: Observable,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """L(chi_A phi) equals chi_A L(phi) a.e. for an a.e.-invariant A."""
    A = np.asarray(A, dtype=np.int64)
    viol = invariance_violation(P, mu, A)
    if viol > tol:
        raise PreconditionError(
            f"A is not a.e. invariant: criterion violation {viol:.3e}",
            name="invariant_set",
        )
    mask = np.zeros(P.K)
    mask[A] = 1.0
    left = P.matvec(mask * phi.values)
    right = mask * P.matvec(phi.values)
    supp = np.flatnonzero(mu.weights > 0.0)
    lhs = float(np.abs(left[supp] - right[supp]).max()) if supp.size else 0.0
    return _le_report("localization", lhs, 0.0, tol, _as_index_tuple(A))


def check_levelset_invariance(
    P: TransitionKernel,
    mu: Measure,
    phi: Observable,
    alpha: float,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Level sets of an invariant observable are a.e. invariant sets.

    Requires L phi = phi on supp mu (within tol) and mu stationary; then
    {phi >= alpha}, {phi > alpha} and {phi < alpha} must all satisfy the
    invariance criterion on supp mu.
    """
    require_stationary(P, mu, tol)
    supp = np.flatnonzero(mu.weights > 0.0)
    drift = (
        float(np.abs(P.matvec(phi.values)[supp] - phi.values[supp]).max())
        if supp.size
        else 0.0
    )
    if drift > tol:
        raise PreconditionError(
            f"phi is not a.e. invariant: |L phi - phi| = {drift:.3e} on support",
            name="invariant_observable",
        )
    v = phi.values
    worst = 0.0
    for sel in (v >= alpha, v > alpha, v < alpha):
        worst = max(worst, invariance_violation(P, mu, np.flatnonzero(sel)))
    return _le_report("levelsets", worst, 0.0, tol, None)


def check_nonconvergence_set_empty(
    P: TransitionKernel,
    phi: Observable,
    alpha: float,
    beta: float,
    n_cap: int = DEFAULT_N_CAP,
) -> CheckReport:
    """The set oscillating above alpha and below beta (alpha > beta) is empty.

    Time averages of a finite kernel converge at every state, so once the
    doubling test settles, no state can keep its running upper estimate
    above alpha while its running lower estimate sits below beta.
    """
    if not alpha > beta:
        raise InvalidArgumentError("requires alpha > beta")
    inner_tol = min(1e-10, (alpha - beta) / 8.0)
    watch = np.arange(P.K)
    window, res, horizon, prev = _windowed_limit(P, phi.values, watch, inner_tol, n_cap)
    upper = np.maximum(window, prev)
    lower = np.minimum(window, prev)
    bad = np.flatnonzero((upper > alpha) & (lower < beta))
    return CheckReport(
        "nonconvergence_empty",
        bad.size == 0,
        float(bad.size),
        0.0,
        0.0,
        _as_index_tuple(bad),
        horizon,
    )
