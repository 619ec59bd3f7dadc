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
carries an O(1/n) bias that cannot reach tight tolerances. The rotating part
of a class of period d cancels when d divides n, so the horizons start at
the lcm of the odd parts of the kernel's closed-class periods.

Trials: each ``*_trials`` function runs one check on every column of a
K x T block of observable values, with its preconditions evaluated once,
and returns one report per column (per column and set, where a check takes
sets). Column t of every block product equals the product with column t
alone, bit for bit, so a report does not depend on the batch it ran in. The
single-observable ``check_*`` functions are the T = 1 case. So checks can
share work and draws. The maximal inequality and both corollaries read the
extremes of one stream of partial sums (``partial_sum_extremes``): in a
``verify`` run they share one block of draws, and a corollary's trials are
its first columns, so a corollary reports the same with or without the
maximal check. The limit checks take a ``limit_pass`` argument: their
group's result of one doubling-horizon pass (``_windowed_limit``) that the
run made over the groups of several checks. A group is (s, values,
watches, tols) and holds no kernel: its horizons count steps of P^s, which
``kernel_power`` forms once per run of one s. The periodic check's group
has stride p, and for p a power of two up to 2^10 it reads the squares of P
that the other groups read, so one squaring sequence serves all four limit
checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    InvalidArgumentError,
    PreconditionError,
)
from .kernel import TransitionKernel, kernel_power
from .measures import _odd_period_lcm, invariance_violation, is_ergodic, require_stationary
from .space import Measure, Observable
from .transfer import duality_gap, duality_gaps

DEFAULT_N_MAX = 64
DEFAULT_TOL = 1e-10
DEFAULT_N_CAP = 2**20


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one executable statement.

    The report carries its own direction: for ``ge`` checks passed means
    lhs >= rhs - slack, for ``le`` checks lhs <= rhs + slack (``_report``
    decides it; the limit checks add conditions of their own). witnesses
    carries the index set the check was evaluated on, when there is a
    natural one. Reports compare by value, so identical inputs must
    reproduce identical reports.
    """

    name: str
    passed: bool
    lhs: float
    rhs: float
    slack: float
    witnesses: tuple | None = None
    iterations_used: int = 0
    direction: str = "ge"

    @property
    def margin(self) -> float:
        """How far the asserted side is from the bound: lhs - rhs, or rhs - lhs for ``le``."""
        return self.lhs - self.rhs if self.direction == "ge" else self.rhs - self.lhs


def _report(name, direction, lhs, rhs, slack, witnesses=None, iterations=0, also=True):
    """The report of a ``ge`` or ``le`` statement; it passes when the
    inequality holds within slack and ``also`` is true."""
    holds = lhs >= rhs - slack if direction == "ge" else lhs <= rhs + slack
    return CheckReport(
        name, bool(holds and also), float(lhs), float(rhs), float(slack),
        witnesses, int(iterations), direction,
    )


def _as_index_tuple(A) -> tuple:
    return tuple(np.asarray(A, dtype=np.int64).ravel().tolist())


# ---------------------------------------------------------------------------
# Maximal ergodic machinery
# ---------------------------------------------------------------------------

def _values(phi) -> np.ndarray:
    """An Observable's values, or an array of them (a K-vector or a K x T block)."""
    return phi.values if isinstance(phi, Observable) else np.asarray(phi, dtype=np.float64)


def _like(phi, values):
    """Wrap values as phi was given: an Observable stays one, an array stays an array."""
    return phi.with_values(values) if isinstance(phi, Observable) else values


def _partial_sums(P: TransitionKernel, values: np.ndarray, n_max: int):
    """Yield (n, S_n) for n = 1..n_max, where S_n = phi + L phi + ... + L^{n-1} phi.

    values is a K-vector or a K x T block with one observable per column; S_n
    has its shape and is one array updated in place, so a consumer that keeps
    it past the next step must copy it.
    """
    if n_max < 1:
        raise InvalidArgumentError(f"number of terms must be positive, got {n_max}")
    cur = values.copy()
    total = cur.copy()
    yield 1, total
    for n in range(2, n_max + 1):
        cur = P.matvec(cur)
        total += cur
        yield n, total


def partial_sum_extremes(P: TransitionKernel, values: np.ndarray, n_max: int = DEFAULT_N_MAX):
    """Per state and column: the max of S_n, and the max and min of S_n / n, over n <= n_max.

    values is a K-vector or a K x T block; the three results have its shape.
    One stream of partial sums serves the maximal inequality (max S_n) and
    both corollaries (the running-average extremes), which are the maximal
    inequality applied to phi - alpha on an invariant set.
    """
    best = np.full_like(values, -np.inf)
    hi = np.full_like(values, -np.inf)
    lo = np.full_like(values, np.inf)
    for n, total in _partial_sums(P, values, n_max):
        np.maximum(best, total, out=best)
        avg = total / n
        np.maximum(hi, avg, out=hi)
        np.minimum(lo, avg, out=lo)
    return best, hi, lo


def maximal_function(P: TransitionKernel, phi, n_max: int = DEFAULT_N_MAX):
    """Componentwise max of the partial sums phi + L phi + ... up to n_max terms.

    phi is an Observable, or a K-vector or K x T block of observable values;
    the result takes the same form.
    """
    return _like(phi, partial_sum_extremes(P, _values(phi), n_max)[0])


def maximal_set(P: TransitionKernel, phi: Observable, n_max: int = DEFAULT_N_MAX) -> np.ndarray:
    """States where the running maximum of partial sums is positive."""
    return np.flatnonzero(maximal_function(P, phi, n_max).values > 0.0)


def maximal_trials(P: TransitionKernel, mu: Measure, values: np.ndarray,
                   n_max: int = DEFAULT_N_MAX, tol: float = DEFAULT_TOL, extremes=None) -> list:
    """check_maximal_inequality for each column of a K x T block.

    extremes is ``partial_sum_extremes(P, values, n_max)``, when the caller
    has it already.
    """
    require_stationary(P, mu, tol)
    best = (partial_sum_extremes(P, values, n_max) if extremes is None else extremes)[0]
    reports = []
    for v, column in zip(values.T, best.T):
        E = np.flatnonzero(column > 0.0)
        lhs = float(v[E] @ mu.weights[E])
        reports.append(_report("maximal", "ge", lhs, 0.0, tol, _as_index_tuple(E), n_max))
    return reports


def check_maximal_inequality(
    P: TransitionKernel,
    mu: Measure,
    phi: Observable,
    n_max: int = DEFAULT_N_MAX,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Integral of phi over the maximal set is nonnegative (stationary mu)."""
    return maximal_trials(P, mu, phi.values[:, None], n_max, tol)[0]


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


def running_average_extremes(P: TransitionKernel, phi, n_max: int = DEFAULT_N_MAX):
    """Per-state max and min of the running averages S_n / n over n <= n_max.

    phi is an Observable, or a K-vector or K x T block of observable values;
    hi and lo are arrays of the values' shape.
    """
    return partial_sum_extremes(P, _values(phi), n_max)[1:]


#: corollary name -> (direction, the sharp level of the extremes on a set,
#: precondition, level set). A ``ge`` corollary bounds the running-average
#: maxima (level set hi > alpha), a ``le`` one the minima (lo < beta).
_COROLLARIES = {
    "corollary_c": ("ge", np.min, "subset_of_c_alpha", "super-average set for alpha"),
    "corollary_b": ("le", np.max, "subset_of_b_beta", "sub-average set for beta"),
}


def _invariant_sets(P: TransitionKernel, mu: Measure, sets, tol: float) -> list:
    """The sets as index arrays, each required to be mu-a.e. invariant within
    tol (``invariance_violation``), in order."""
    sets = [np.asarray(A, dtype=np.int64) for A in sets]
    for A in sets:
        viol = invariance_violation(P, mu, A)
        if viol > tol:
            raise PreconditionError(f"A is not a.e. invariant: criterion violation {viol:.3e}",
                                    name="invariant_set")
    return sets


def corollary_trials(name: str, P: TransitionKernel, mu: Measure, values: np.ndarray, sets,
                     level: float | None = None,
                     n_max: int = DEFAULT_N_MAX, tol: float = DEFAULT_TOL, extremes=None) -> list:
    """Corollary c or b for each column t of a K x T block and each set.

    ``corollary_c`` bounds the running-average maxima of values by alpha,
    ``corollary_b`` the minima by beta. ``level`` is that alpha or beta for
    every column and set, and each set must lie inside its level set. None
    takes the sharp level per column and set: alpha = min_A hi, beta =
    max_A lo. A lies inside C_alpha for every alpha below min_A hi, so the
    inequality holds at each such level and hence at the limit. extremes is
    ``partial_sum_extremes(P, values, n_max)``, when the caller has it
    already. Reports come column by column, sets in order.
    """
    direction, sharp, condition, what = _COROLLARIES[name]
    inside = np.greater if direction == "ge" else np.less
    require_stationary(P, mu, tol)
    _, hi, lo = partial_sum_extremes(P, values, n_max) if extremes is None else extremes
    running = hi if direction == "ge" else lo
    sets = _invariant_sets(P, mu, sets, tol)
    reports = []
    for t, v in enumerate(values.T):
        for A in sets:
            at = float(sharp(running[A, t])) if level is None else level
            if level is not None and not inside(running[A, t], at).all():
                raise PreconditionError(f"A is not contained in the {what}", name=condition)
            lhs = float(v[A] @ mu.weights[A])
            rhs = at * float(mu.weights[A].sum())
            reports.append(_report(name, direction, lhs, rhs, tol, _as_index_tuple(A), n_max))
    return reports


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
    level = float(alpha)  # a number: None would ask for the sharp level, untested for containment
    return corollary_trials("corollary_c", P, mu, phi.values[:, None], [A], level, n_max, tol)[0]


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
    level = float(beta)  # a number: None would ask for the sharp level, untested for containment
    return corollary_trials("corollary_b", P, mu, phi.values[:, None], [A], level, n_max, tol)[0]


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

def birkhoff_average(P: TransitionKernel, phi, n: int):
    """Exact n-term time average (1/n) sum_{j<n} L^j phi.

    phi is an Observable, or a K-vector or K x T block of observable values;
    the result takes the same form.
    """
    for _, total in _partial_sums(P, _values(phi), n):
        pass
    return _like(phi, total / n)


#: The largest stride whose group reads P's own squares. Dense squares are
#: never renormalised: the log2(s) of them before the group's first window move
#: its windows by about s times the rounding of one product. Up to 2^10 that
#: stays within the rounding of the renormalised P^s; from about 2^23 it can
#: undo a verdict.
_SQUARED_STRIDE_MAX = 2**10


class _LimitGroup:
    """The live state of one group of a ``_windowed_limit`` pass: its
    unsettled columns as rows of T x K blocks, and its results."""

    def __init__(self, Q, values, watches, tols, n: int, lag: int, n_cap: int):
        t, k = values.shape[1], values.shape[0]
        self.limits, self.prevs = np.empty((t, k)), np.empty((t, k))
        self.residuals, self.horizons = np.full(t, np.inf), np.full(t, n)
        self.n, self.lag, self.prev = n, lag, None
        self.live = np.arange(t if 2 * n <= n_cap else 0)  # else not even the first window fits
        if self.live.size:  # else spare the sums up to n
            self.tols = np.asarray(tols, dtype=np.float64)
            self.mask = np.zeros((t, k), dtype=bool)
            for row, w in zip(self.mask, watches):
                row[w] = True
            self.avg = np.ascontiguousarray(birkhoff_average(Q, values, n).T)

    def step(self, power, n_cap: int) -> None:
        """One window at horizon n, power = Q^n: settle the columns whose
        residual is within tol, then double n, or stop the group at n_cap."""
        avg = self.avg
        avg2 = 0.5 * (avg + np.matmul(power, avg[:, :, None])[:, :, 0])  # one GEMV per row
        window = 2.0 * avg2 - avg
        if self.prev is not None:
            res = np.where(self.mask, np.abs(window - self.prev), 0.0).max(axis=1)
            self.residuals[self.live] = res
            done = res <= self.tols
            at = self.live[done]
            self.limits[at], self.prevs[at], self.horizons[at] = window[done], self.prev[done], 2 * self.n
            keep = ~done
            self.live, self.mask, self.tols = self.live[keep], self.mask[keep], self.tols[keep]
            avg2, window = avg2[keep], window[keep]
        self.prev, self.avg = window, avg2
        self.n *= 2
        if 2 * self.n > n_cap:
            self.horizons[self.live] = self.n
            self.live = self.live[:0]


def _windowed_limit(P: TransitionKernel, groups, n_cap: int) -> list:
    """Doubling-horizon limits of time averages, for groups of columns.

    A group is (s, values, watches, tols): its horizons count steps of
    Q = ``kernel_power(P, s)`` (Q is P for s = 1), values is a K x T block with
    one observable per column, and column t is watched on the states
    watches[t] and settles once its residual is at most tols[t]. Returns one
    result per group: the limits and the previous windows as K x T blocks,
    and the residuals and horizons as T-vectors. The candidate at window n
    is W_n = 2 A_{2n} - A_n, the average over the second half of the
    horizon; successive candidates are compared in sup norm on the watched
    states. A column leaves once it has settled.

    A window cancels the rotating part of a class of period d only when d
    divides n, so n runs over L, 2L, 4L, ... with L the lcm of the odd parts
    of the closed-class periods of the kernel squared: the first window is
    W_L, from A_L (on Q) and Q^L. At stage j the pass holds one power,
    P^(L 2^j); a group of stride s = 2^k <= ``_SQUARED_STRIDE_MAX`` joins at
    stage k and reads it as Q^(L 2^(j-k)). Its L is P's: the odd part of
    d / gcd(d, s) is the odd part of d. Per stage there is one squaring and
    one stacked product per group, whose rows are GEMVs, so a column has the
    bits it has alone; only the power and its square are held as K x K.
    Every other group squares its own Q^L, in a sequence of its own.

    A column that has not settled when its next window would pass n_cap
    keeps its last residual (inf if it had none) and the horizon its group
    stopped at, and ``_require_settled`` raises for it. Nothing here raises
    for a column, so one pass can serve the columns of several checks, and
    each check raises for its own columns alone.
    """
    states, sequences = [], {}
    for s, values, watches, tols in groups:
        Q = kernel_power(P, s)
        on_p = s & (s - 1) == 0 and s <= _SQUARED_STRIDE_MAX
        base, lag = (P, s.bit_length() - 1) if on_p else (Q, 0)
        n = _odd_period_lcm(base)
        states.append(_LimitGroup(Q, values, watches, tols, n, lag, n_cap))
        if states[-1].live.size:
            sequences.setdefault(id(base), (base, n, []))[2].append(states[-1])
    for base, n, members in sequences.values():
        power = base.to_dense() if n == 1 else np.linalg.matrix_power(base.to_dense(), n)
        stage = 0
        while True:
            for g in members:
                if g.lag <= stage and g.live.size:
                    g.step(power, n_cap)
            stage += 1
            if not any(g.lag >= stage or g.live.size for g in members):
                break
            power = power @ power
        del power
    return [(g.limits.T, g.prevs.T, g.residuals, g.horizons) for g in states]


def _require_settled(residuals, horizons, tols) -> None:
    """Raise ConvergenceError for the first column of a ``_windowed_limit``
    result whose residual is above its tol."""
    for res, horizon, tol in zip(residuals, horizons, tols):
        if not res <= tol:
            raise ConvergenceError(
                f"time averages not converged at horizon {horizon}: residual {res:.3e}",
                residual=float(res),
            )


def _limit_group(s: int, values: np.ndarray, measures, tol: float):
    """The ``_windowed_limit`` group (s, block, watches, tols) of a limit
    check with stride s: each column of values once per measure, watched on
    that measure's support, at tol."""
    watches = [np.flatnonzero(mu.weights > 0.0) for mu in measures] * values.shape[1]
    return s, np.repeat(values, len(measures), axis=1), watches, [tol] * len(watches)


def _limit_reports(P: TransitionKernel, s: int, measures, ergodic, values: np.ndarray, tol: float,
                   n_cap: int, limit_pass=None):
    """Limit reports for the s-step kernel Q = P^s, one per column of values
    and measure, measures in order: birkhoff_limit's, or
    check_ergodic_limit's where the measure's entry of ergodic is true.
    limit_pass is the result of a ``_windowed_limit`` pass that the caller
    ran already for ``_limit_group(s, values, measures, tol)``, or None to
    run one. Returns the limits as a K x (T measures) block and the reports."""
    trials = values.shape[1]
    group = _limit_group(s, values, measures, tol)
    _, block, watches, tols = group
    if limit_pass is None:
        limit_pass = _windowed_limit(P, [group], n_cap)[0]
    limits, _, residuals, horizons = limit_pass
    _require_settled(residuals, horizons, tols)
    lifted = kernel_power(P, s).matvec(limits)
    reports = []
    for t, (mu, ergodic_t, watch) in enumerate(zip(measures * trials, ergodic * trials, watches)):
        limit, res = limits[:, t], residuals[t]
        inv_err = float(np.abs(lifted[watch, t] - limit[watch]).max()) if watch.size else 0.0
        report = _report("birkhoff", "le", res, 0.0, tol, _as_index_tuple(watch), horizons[t],
                         also=inv_err <= 10.0 * tol)
        if ergodic_t:
            target = float(np.ascontiguousarray(block[:, t]) @ mu.weights)
            lhs = float(np.abs(limit[watch] - target).max()) if watch.size else 0.0
            report = _report("ergodic_limit", "le", lhs, 0.0, tol, report.witnesses,
                             report.iterations_used, also=report.passed)
        reports.append(report)
    return limits, reports


def birkhoff_trials(P: TransitionKernel, mu: Measure, values: np.ndarray,
                    tol: float = DEFAULT_TOL, n_cap: int = DEFAULT_N_CAP, limit_pass=None):
    """birkhoff_limit for each column of a K x T block: (limits block, reports).

    limit_pass is the result of a ``_windowed_limit`` pass run already for
    ``_limit_group(1, values, [mu], tol)``, or None to run one.
    """
    require_stationary(P, mu, tol)
    return _limit_reports(P, 1, [mu], [False], values, tol, n_cap, limit_pass)


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
    limits, (report,) = birkhoff_trials(P, mu, phi.values[:, None], tol, n_cap)
    return phi.with_values(limits[:, 0]), report


def ergodic_limit_trials(P: TransitionKernel, mu: Measure, values: np.ndarray,
                         tol: float = DEFAULT_TOL, n_cap: int = DEFAULT_N_CAP,
                         limit_pass=None) -> list:
    """check_ergodic_limit for each column of a K x T block; limit_pass as
    in ``birkhoff_trials``."""
    if not is_ergodic(P, mu, tol):
        raise PreconditionError("measure is not ergodic", name="ergodic")
    return _limit_reports(P, 1, [mu], [True], values, tol, n_cap, limit_pass)[1]


def check_ergodic_limit(
    P: TransitionKernel,
    phi: Observable,
    mu: Measure,
    tol: float = DEFAULT_TOL,
    n_cap: int = DEFAULT_N_CAP,
) -> CheckReport:
    """Time averages of an ergodic measure converge to the space average."""
    return ergodic_limit_trials(P, mu, phi.values[:, None], tol, n_cap)[0]


def periodic_trials(P: TransitionKernel, p: int, measures, values: np.ndarray,
                    tol: float = DEFAULT_TOL, n_cap: int = DEFAULT_N_CAP, limit_pass=None) -> list:
    """check_periodic_pointwise for each column of a K x T block and each measure.

    limit_pass is the result of a ``_windowed_limit`` pass run already for
    ``_limit_group(p, values, measures, tol)``, or None to run one. Reports
    come column by column, measures in order.
    """
    Q, measures = kernel_power(P, p), list(measures)
    ergodic = [is_ergodic(Q, mu, tol) for mu in measures]  # also requires stationarity
    return _limit_reports(P, p, measures, ergodic, values, tol, n_cap, limit_pass)[1]


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
    the p-step kernel the report is check_ergodic_limit's (so p=1 on an
    ergodic measure reproduces that report exactly); otherwise only
    existence and invariance of the limit are asserted.
    """
    if p < 1:
        raise InvalidArgumentError("period must be a positive integer")
    return periodic_trials(P, p, [mu], phi.values[:, None], tol, n_cap)[0]


# ---------------------------------------------------------------------------
# Lemmas as checks
# ---------------------------------------------------------------------------

def lemma1_trials(P: TransitionKernel, values: np.ndarray, tol: float = 1e-12) -> list:
    """check_lemma1 for each column of a K x T block."""
    gap = P.matvec(np.maximum(values, 0.0)) - np.maximum(P.matvec(values), 0.0)
    return [_report("lemma1", "ge", float(g.min()), 0.0, tol) for g in gap.T]


def check_lemma1(P: TransitionKernel, phi: Observable, tol: float = 1e-12) -> CheckReport:
    """L applied to the positive part dominates the positive part of L phi."""
    if phi.partition != P.partition:
        raise DimensionError("observable and kernel live on different partitions")
    return lemma1_trials(P, phi.values[:, None], tol)[0]


def lemma2_trials(P: TransitionKernel, mu: Measure, values: np.ndarray,
                  tol: float = DEFAULT_TOL) -> list:
    """check_lemma2 for each column of a K x T block."""
    require_stationary(P, mu, tol)
    w = mu.weights
    reports = []
    for v, lv in zip(values.T, P.matvec(values).T):
        lhs = float(v[v > 0.0] @ w[v > 0.0])
        rhs = float(lv[lv > 0.0] @ w[lv > 0.0])
        reports.append(_report("lemma2", "ge", lhs, rhs, tol))
    return reports


def check_lemma2(
    P: TransitionKernel, mu: Measure, phi: Observable, tol: float = DEFAULT_TOL
) -> CheckReport:
    """One averaging step cannot increase the integral over the positive set."""
    return lemma2_trials(P, mu, phi.values[:, None], tol)[0]


def duality_trials(P: TransitionKernel, values: np.ndarray, weights: np.ndarray,
                   tol: float = 1e-12) -> list:
    """check_duality for each column pair of K x T blocks of observable
    values and measure weights."""
    return [_report("duality", "le", gap, 0.0, tol) for gap in duality_gaps(P, values, weights)]


def check_duality(
    P: TransitionKernel, phi: Observable, mu: Measure, tol: float = 1e-12
) -> CheckReport:
    """The two sides of the defining duality identity agree."""
    return _report("duality", "le", duality_gap(P, phi, mu), 0.0, tol)


def localization_trials(P: TransitionKernel, mu: Measure, sets, values: np.ndarray,
                        tol: float = DEFAULT_TOL) -> list:
    """check_localization for each column of a K x T block and each set.

    Reports come column by column, sets in order.
    """
    supp = np.flatnonzero(mu.weights > 0.0)
    lifted = P.matvec(values)
    gaps, witnesses = [], []
    for A in _invariant_sets(P, mu, sets, tol):
        mask = np.zeros((P.K, 1))
        mask[A] = 1.0
        left = P.matvec(mask * values)
        right = mask * lifted
        gaps.append(np.abs(left[supp] - right[supp]).max(axis=0) if supp.size else np.zeros(values.shape[1]))
        witnesses.append(_as_index_tuple(A))
    return [
        _report("localization", "le", float(gap[t]), 0.0, tol, wit)
        for t in range(values.shape[1])
        for gap, wit in zip(gaps, witnesses)
    ]


def check_localization(
    P: TransitionKernel,
    mu: Measure,
    A,
    phi: Observable,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """L(chi_A phi) equals chi_A L(phi) a.e. for an a.e.-invariant A."""
    return localization_trials(P, mu, [A], phi.values[:, None], tol)[0]


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
    return _report("levelsets", "le", worst, 0.0, tol)


def nonconvergence_tol(alpha: float, beta: float) -> float:
    """The residual at which nonconvergence_trials lets a column settle:
    at most (alpha - beta) / 8, so no state can be above alpha in one of the
    last two windows and below beta in the other."""
    if not alpha > beta:
        raise InvalidArgumentError("requires alpha > beta")
    return min(1e-10, (alpha - beta) / 8.0)


def _nonconvergence_group(values: np.ndarray, alpha: float, beta: float):
    """The ``_windowed_limit`` group of nonconvergence_trials: each column of
    values watched on every state, at ``nonconvergence_tol(alpha, beta)``."""
    K, T = values.shape
    return 1, values, [np.arange(K)] * T, [nonconvergence_tol(alpha, beta)] * T


def nonconvergence_trials(
    P: TransitionKernel,
    values: np.ndarray,
    alpha: float,
    beta: float,
    n_cap: int = DEFAULT_N_CAP,
    limit_pass=None,
) -> list:
    """check_nonconvergence_set_empty for each column of a K x T block.

    limit_pass is the columns' result of a ``_windowed_limit`` pass run
    already (on their ``_nonconvergence_group``), or None to run one.
    """
    group = _nonconvergence_group(values, alpha, beta)
    if limit_pass is None:
        limit_pass = _windowed_limit(P, [group], n_cap)[0]
    windows, prevs, residuals, horizons = limit_pass
    _require_settled(residuals, horizons, group[3])
    upper = np.maximum(windows, prevs)
    lower = np.minimum(windows, prevs)
    reports = []
    for t, bad in enumerate(((upper > alpha) & (lower < beta)).T):
        bad = np.flatnonzero(bad)
        reports.append(_report(
            "nonconvergence_empty", "le", bad.size, 0.0, 0.0, _as_index_tuple(bad), horizons[t]
        ))
    return reports


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
    return nonconvergence_trials(P, phi.values[:, None], alpha, beta, n_cap)[0]
