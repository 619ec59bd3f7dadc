"""Batched trials: a check run on a K x T block equals its trials run one by one."""

import gc
import tracemalloc
import weakref
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from ergodyn import (
    Measure,
    Observable,
    check_duality,
    check_ergodic_limit,
    check_lemma1,
    check_lemma2,
    check_levelset_invariance,
    check_localization,
    check_maximal_inequality,
    check_nonconvergence_set_empty,
    check_periodic_pointwise,
    birkhoff_limit,
    closed_classes,
    periodic_measures,
    stationary_measures,
)
from dataclasses import replace

from ergodyn import NoisySystem, cli, kernel, make_uniform_partition, theorems, ulam_discretize
from ergodyn.cli import CHECK_NAMES, _cfg_get
from ergodyn.theorems import _report, birkhoff_average, corollary_trials, running_average_extremes

from conftest import fresh, power_formations, random_kernel, reducible_kernel

DATA = Path(__file__).parent / "data"


def random_measure(rng, partition):
    """A duality trial's measure, drawn as the trials were drawn one by one."""
    w = rng.random(partition.cell_count) + 1e-3
    return Measure(w / w.sum(), partition)


def per_trial_reports(name, P, stationaries, cfg, seed):
    """run_check's trial reports, from its trials run one at a time through
    the public single-observable checks, drawing from the same stream in the
    same order. The corollaries draw from maximal's stream: their trials are
    the first columns of the block that the three partial-sum checks share."""
    stream = "maximal" if name in ("corollary_c", "corollary_b") else name
    rng = np.random.default_rng(np.random.SeedSequence([seed, CHECK_NAMES.index(stream)]))
    trials = int(_cfg_get(cfg, "checks", "trials"))
    if name in cli._LIMIT_READERS:  # a reader of the limit pass runs at most 20 trials
        trials = min(trials, 20)
    n_max = int(_cfg_get(cfg, "checks", "n_max"))
    tol = float(_cfg_get(cfg, "checks", "tol"))
    n_cap = int(_cfg_get(cfg, "checks", "n_cap"))
    p = int(_cfg_get(cfg, "checks", "p"))
    part = P.partition
    mix = cli._mixture_measure(stationaries)
    classes = closed_classes(P)

    def draw():
        return Observable(rng.uniform(-1.0, 1.0, P.K), part)

    reports = []
    if name == "duality":
        for _ in range(trials):
            phi = draw()
            reports.append(check_duality(P, phi, random_measure(rng, part)))
    elif name == "lemma1":
        reports = [check_lemma1(P, draw()) for _ in range(trials)]
    elif name == "lemma2":
        reports = [check_lemma2(P, mix, draw(), tol) for _ in range(trials)]
    elif name == "maximal":
        reports = [check_maximal_inequality(P, mix, draw(), n_max, tol) for _ in range(trials)]
    elif name in ("corollary_c", "corollary_b"):
        for _ in range(max(1, trials // max(1, len(classes)))):
            phi = draw()
            trial = corollary_trials(name, P, mix, phi.values[:, None], classes, None, n_max, tol)
            # at the sharp level: alpha = min_A hi, beta = max_A lo
            hi, lo = running_average_extremes(P, phi, n_max)
            sharp = [float(hi[A].min() if name == "corollary_c" else lo[A].max()) for A in classes]
            assert [r.rhs for r in trial] == [a * float(mix.weights[A].sum()) for a, A in zip(sharp, classes)]
            reports += trial
    elif name == "birkhoff":
        reports = [birkhoff_limit(P, draw(), mix, tol, n_cap)[1] for _ in range(trials)]
    elif name == "ergodic_limit":
        reports = [check_ergodic_limit(P, draw(), stationaries[0], tol, n_cap) for _ in range(trials)]
    elif name == "periodic":
        fixed = periodic_measures(P, p)
        for _ in range(trials):
            phi = draw()
            reports += [check_periodic_pointwise(P, p, phi, nu, tol, n_cap) for nu, _d in fixed]
    elif name == "localization":
        for _ in range(trials):
            phi = draw()
            reports += [check_localization(P, mix, A, phi, tol) for A in classes]
    elif name == "levelsets":
        # split at k + 1/2 for k = 0 .. max(m - 2, 0), m the number of closed classes
        phi = cli._class_eigenfunction(P, classes)
        reports = [check_levelset_invariance(P, mix, phi, k + 0.5, tol)
                   for k in range(max(len(classes) - 1, 1))]
    elif name == "nonconvergence_empty":
        reports = [check_nonconvergence_set_empty(P, draw(), 0.05, -0.05, n_cap) for _ in range(trials)]
    return reports


def _cases():
    """name -> (kernel, config): the bundled swap run and four random kernels."""
    with resources.as_file(resources.files("ergodyn").joinpath("data")) as data:
        swap = (cli.load_kernel(Path(data) / "swap.kernel"), cli.load_config(Path(data) / "swap.cfg"))
    rng = np.random.default_rng(4711)
    cfg = {"checks": {"trials": 9, "n_max": 20}}
    return {
        "swap.cfg": swap,
        "dense23": (random_kernel(rng, 23), cfg),
        "sparse40": (random_kernel(rng, 40, density=0.3), cfg),
        "two_classes": (reducible_kernel(rng, [4, 5], n_transient=3), cfg),
        "three_classes": (reducible_kernel(rng, [3, 4, 5], n_transient=2), cfg),
    }


CASES = _cases()


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("name", CHECK_NAMES)
def test_run_check_equals_per_trial_checks(case, name, monkeypatch):
    P, cfg = CASES[case]
    stationaries = stationary_measures(P)
    expected = per_trial_reports(name, P, stationaries, cfg, 1807)
    assert cli.run_check(name, P, stationaries, cfg, 1807) == cli._worst(expected)
    # every trial report, in order, not only the worst one
    monkeypatch.setattr(cli, "_worst", lambda reports: reports)
    assert cli.run_check(name, P, stationaries, cfg, 1807) == expected


def verify_all(P, cfg, tmp_path, monkeypatch) -> str:
    """The report of ``verify --checks all`` at seed 1807 on P with cfg's
    [checks] settings."""
    monkeypatch.setattr(cli, "load_kernel", lambda path: P)
    config = tmp_path / "c.cfg"
    config.write_text("[checks]\n" + "".join(f"{k} = {v}\n" for k, v in cfg["checks"].items()))
    argv = ["verify", "--kernel", "P", "--config", str(config), "--checks", "all", "--seed", "1807"]
    assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 0
    return (tmp_path / "o" / "verify_report.txt").read_text()


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_check_of_a_run_reports_as_it_does_alone(case, tmp_path, monkeypatch):
    # the run shares one partial-sum stream and one limit pass on P between checks;
    # each check must get back its own columns' share
    P, cfg = CASES[case]
    report = verify_all(P, cfg, tmp_path, monkeypatch)
    stationaries, checks_cfg = stationary_measures(P), cli.load_config(tmp_path / "c.cfg")
    for name in CHECK_NAMES:
        writer = cli.ReportWriter("verify", 0, "")
        writer.check(name, cli.run_check(name, P, stationaries, checks_cfg, 1807))
        section = writer.buf.getvalue().split("\n\n", 1)[1]
        assert section in report, name


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_shared_pass_runs_once(case, tmp_path, monkeypatch):
    P, cfg = CASES[case]
    sums, passes = [], []

    def partial_sums(Q, values, n):
        sums.append((Q, n))
        return _partial_sums(Q, values, n)

    def windowed_limit(Q, groups, *args):
        passes.append((Q, [(g[0], g[1].shape[1]) for g in groups]))
        return _windowed_limit(Q, groups, *args)

    _partial_sums, _windowed_limit = theorems._partial_sums, theorems._windowed_limit
    monkeypatch.setattr(theorems, "_partial_sums", partial_sums)
    for module in (theorems, cli):
        monkeypatch.setattr(module, "_windowed_limit", windowed_limit)
    verify_all(P, cfg, tmp_path, monkeypatch)
    checks = cli.load_config(tmp_path / "c.cfg")["checks"]
    # one limit pass on P (p = 2): a group of min(trials, 20) columns of stride 1 for each of
    # three checks, and periodic's group of stride 2, where each trial has a column per
    # measure that Q = P^2 fixes
    assert checks["p"] == 2
    trials, measures = min(checks["trials"], 20), len(periodic_measures(P, 2))
    on_p = (1, trials)
    assert [(Q is P, groups) for Q, groups in passes] == [
        (True, [on_p, on_p, (2, trials * measures), on_p])]
    # one stream of n_max partial sums; each group starts from one term (L = 1 here)
    assert sorted((Q is P, n) for Q, n in sums) == [(False, 1)] + [(True, 1)] * 3 + [
        (True, checks["n_max"])]


def test_a_run_is_freed_without_the_cycle_collector():
    # a run holds the kernel and its shared blocks; a reference cycle would keep
    # them alive past the run, until the cycle collector happens to run
    P, cfg = CASES["dense23"]
    gc.collect()
    gc.disable()
    try:
        stationaries = stationary_measures(P)
        run = cli._Verify(P, stationaries, cfg, 1807, CHECK_NAMES)
        for name in CHECK_NAMES:
            cli.run_check(name, P, stationaries, cfg, 1807, run)
        freed = weakref.ref(run)
        del run
        assert freed() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("names, held", [
    (["maximal", "birkhoff", "lemma1"], [[], [], []]),
    (["maximal", "corollary_c", "birkhoff", "nonconvergence_empty", "lemma1"],
     [["sums"], [], ["limits"], [], []]),
    # the pass stays for birkhoff; periodic's measures and P^p are the kernel's, not the run's
    (["periodic", "birkhoff", "lemma1"], [["limits"], [], []]),
    (["birkhoff", "periodic", "lemma1"], [["limits"], [], []]),
])
def test_a_run_drops_each_pass_after_its_last_reader(names, held):
    # a run holds nothing past its settings and mixture measure but its two passes
    P, cfg = CASES["dense23"]
    stationaries = stationary_measures(P)
    run = cli._Verify(P, stationaries, cfg, 1807, names)
    own = set(vars(run))
    after = []
    for name in names:
        cli.run_check(name, P, stationaries, cfg, 1807, run)
        after.append(sorted(set(vars(run)) - own))
    assert after == held


@pytest.mark.parametrize("case", sorted(CASES))
def test_block_products_equal_column_products(case):
    P, _ = CASES[case]
    block = np.random.default_rng(5).uniform(-1.0, 1.0, (P.K, 11))
    for product in (P.matvec, P.rmatvec):
        out = product(block)
        assert out.shape == block.shape
        for t in range(block.shape[1]):
            assert np.array_equal(out[:, t], product(np.ascontiguousarray(block[:, t])))


@pytest.mark.parametrize("case", sorted(CASES))
def test_periodic_check_forms_the_power_once(case, monkeypatch):
    # the limit pass, the ergodicity test and the invariance product each read P^2, and
    # a second run of the check reads it again
    P, cfg = fresh(CASES[case][0]), CASES[case][1]
    formed = power_formations(monkeypatch)
    for _ in range(2):
        cli.run_check("periodic", P, stationary_measures(P), cfg, 1807)
    assert formed == [kernel.kernel_power(P, 2)]


@pytest.mark.parametrize("p", [2, 3])
def test_verify_forms_the_power_once(p, tmp_path, monkeypatch):
    # p = 2 reads P's squares in the pass; p = 3 squares P^3 in a sequence of its own
    P, cfg = fresh(CASES["dense23"][0]), {"checks": {**CASES["dense23"][1]["checks"], "p": p}}
    formed = power_formations(monkeypatch)
    verify_all(P, cfg, tmp_path, monkeypatch)
    assert formed == [kernel.kernel_power(P, p)]


def test_repeated_periodic_checks_form_the_power_once(monkeypatch):
    P = fresh(CASES["two_classes"][0])
    formed = power_formations(monkeypatch)
    phi = Observable(np.linspace(-1.0, 1.0, P.K), P.partition)
    for _ in range(3):
        for nu, _d in periodic_measures(P, 2):
            check_periodic_pointwise(P, 2, phi, nu)
    assert formed == [kernel.kernel_power(P, 2)]
    # its readers left the cached power as it was formed, bit for bit
    again = kernel.kernel_power(fresh(P), 2)
    for name in ("indptr", "indices", "data"):
        assert getattr(formed[0], name).tobytes() == getattr(again, name).tobytes(), name


def test_worst_ranks_each_report_by_its_direction():
    ge = [_report("maximal", "ge", lhs, 0.0, 1.0) for lhs in (0.5, -0.2, 0.1)]
    assert cli._worst(ge) == replace(ge[1], iterations_used=3)
    # the periodic check's reports are named after the limit checks and rank as le
    le = [_report(name, "le", lhs, 0.0, 1.0)
          for name, lhs in (("birkhoff", 0.1), ("ergodic_limit", 0.7), ("birkhoff", 0.3))]
    assert cli._worst(le) == replace(le[1], iterations_used=3)
    # a failed report wins the slot over any passing one
    failed = _report("birkhoff", "le", 0.0, 0.0, 1.0, also=False)
    assert cli._worst(le + [failed]) == replace(failed, iterations_used=4)


@pytest.mark.parametrize("p, sequences", [(1, 1), (2, 1), (2**10, 1), (3, 2), (2**11, 2)])
def test_power_of_two_strides_read_the_squares_of_p(p, sequences, monkeypatch):
    # one dense squaring sequence, on P, serves every limit check at p = 2^k up to 2^10;
    # any other p squares P^p in a second one
    P, cfg = CASES["dense23"]
    squared = []
    to_dense = kernel.TransitionKernel.to_dense
    monkeypatch.setattr(kernel.TransitionKernel, "to_dense", lambda Q: squared.append(Q) or to_dense(Q))
    cfg = {"checks": {**cfg["checks"], "p": p}}
    stationaries = stationary_measures(P)
    run = cli._Verify(P, stationaries, cfg, 1807, CHECK_NAMES)
    for name in CHECK_NAMES:
        assert cli.run_check(name, P, stationaries, cfg, 1807, run).passed
    assert len(squared) == sequences and squared[0] is P


def per_column_pass(power, first, values, watches, tols, n, n_cap):
    """The limit pass column by column, with one GEMV per column and window
    (the loop the pass ran before it took groups): power is the kernel's
    power at the first window, Q^n, and first the kernel Q of A_n."""
    t_count = values.shape[1]
    limits, prevs = np.empty_like(values), np.empty_like(values)
    residuals, horizons = np.full(t_count, np.inf), np.full(t_count, n)
    for t in range(t_count):
        avg = birkhoff_average(first, np.ascontiguousarray(values[:, t]), n)
        p, m, prev = power, n, None
        while 2 * m <= n_cap:
            avg2 = 0.5 * (avg + p @ avg)
            window = 2.0 * avg2 - avg
            if prev is not None:
                w = watches[t]
                residuals[t] = np.abs(window[w] - prev[w]).max() if w.size else 0.0
                if residuals[t] <= tols[t]:
                    limits[:, t], prevs[:, t], horizons[t] = window, prev, 2 * m
                    break
            prev, avg, m, p = window, avg2, 2 * m, p @ p
        else:
            horizons[t] = m
    return limits, prevs, residuals, horizons


@pytest.mark.parametrize("case", ["dense23", "three_classes", "cyclic3"])
def test_groups_equal_per_column_gemv(case):
    # a group on P and one of stride 2 on Q = P^2, whose powers are P's squares, in one
    # pass; columns settle at different stages (tol 0 never settles here)
    P = cli.load_kernel(DATA / "cyclic3_k24.kernel") if case == "cyclic3" else CASES[case][0]
    Q, L = kernel.kernel_power(P, 2), theorems._odd_period_lcm(P)
    rng = np.random.default_rng(11)
    values = rng.uniform(-1.0, 1.0, (P.K, 12))
    watches = [np.flatnonzero(rng.random(P.K) < 0.5) for _ in range(12)]
    tols = list(rng.choice([1e-3, 1e-8, 1e-12, 0.0], 12))
    n_cap = 2**10
    on_p, on_q = theorems._windowed_limit(
        P, [(1, values, watches, tols), (2, values[:, ::-1], watches, tols)], n_cap)
    first = P.to_dense() if L == 1 else np.linalg.matrix_power(P.to_dense(), L)
    for got, power, kern, block in ((on_p, first, P, values), (on_q, first @ first, Q, values[:, ::-1])):
        want = per_column_pass(power, kern, block, watches, tols, L, n_cap)
        settled = want[2] <= np.array(tols)
        assert 0 < settled.sum() < 12
        assert np.array_equal(got[2], want[2]) and np.array_equal(got[3], want[3])
        for g, w in zip(got[:2], want[:2]):
            assert np.array_equal(g[:, settled], w[:, settled])


def test_a_limit_pass_holds_two_dense_powers():
    # a group on P and one of stride 2, whose columns never settle, so the pass squares
    # to its cap; the peak is the power and its square, and blocks of the 6 columns
    k = 256
    system = NoisySystem("rotation", {"alpha": 0.37}, "uniform", {"half_width": 0.1})
    P = ulam_discretize(system, make_uniform_partition("circle", k))
    values = np.random.default_rng(3).uniform(-1.0, 1.0, (k, 3))
    groups = [(1, values, [np.arange(k)] * 3, [0.0] * 3), (2, values, [np.arange(k)] * 3, [0.0] * 3)]
    # the kernel's cached class structure and P^2 are not the pass's
    theorems._odd_period_lcm(P)
    kernel.kernel_power(P, 2)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        results = theorems._windowed_limit(P, groups, 2**8)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # every stage ran: each group stops at n_cap in steps of its own kernel, the stride-2
    # group one stage after P's
    assert [list(r[3]) for r in results] == [[256] * 3] * 2
    assert peak <= 8 * (2 * k * k + 16 * 6 * k), peak


#: Wrong limit passes: every limit zero, or the columns of the limits and the
#: previous windows reversed within each group.
MUTANTS = {
    "zero": lambda results: [(np.zeros_like(lim), prev, res, hor) for lim, prev, res, hor in results],
    "reversed": lambda results: [(lim[:, ::-1], prev[:, ::-1], res, hor)
                                 for lim, prev, res, hor in results],
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
@pytest.mark.parametrize("source", ["swap.cfg", "rotation_uniform.cfg", "pipeline_logistic_k64.cfg",
                                    "cyclic3_k24.kernel"])
def test_a_wrong_limit_fails_verify(source, mutant, tmp_path, monkeypatch):
    # a limit pass that settles at the wrong values must not pass: ergodic_limit and
    # periodic compare each limit with its space average
    windowed_limit = theorems._windowed_limit
    for module in (theorems, cli):
        monkeypatch.setattr(module, "_windowed_limit",
                            lambda *args: MUTANTS[mutant](windowed_limit(*args)))
    if source == "cyclic3_k24.kernel":
        argv = ["--kernel", str(DATA / source), "--checks", "all"]
    else:
        with resources.as_file(resources.files("ergodyn").joinpath("data")) as data:
            config = Path(data) / source if source != "pipeline_logistic_k64.cfg" else DATA / source
            argv = ["--config", str(config)]
    assert cli.main(["verify", *argv, "--seed", "1807", "--out", str(tmp_path / "o")]) == 1
    sections = (tmp_path / "o" / "verify_report.txt").read_text().split("\n[check ")[1:]
    failed = {section.split("]", 1)[0] for section in sections if "\npassed=false\n" in section}
    assert {"ergodic_limit", "periodic"} <= failed
