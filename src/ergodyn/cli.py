"""Command-line driver: build kernels, solve measures, verify, simulate.

Commands
--------
kernel-build   discretize a configured noisy system and write a kernel file
measure        stationary/periodic measures and decompositions, as a report
verify         run named checks against a kernel, one report per run
simulate       sample trajectories and operator estimates to CSV

Exit codes: 0 success (verify: all checks passed), 1 a check failed,
2 invalid configuration, 3 invalid kernel data, 4 an iterative solve did
not converge, 5 a check precondition (including stationarity) was violated.

File formats are plain text and deterministic: reruns with the same seed
and configuration are byte-identical. Floats are written with 17
significant digits, which round-trips IEEE doubles exactly.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import io
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, _backend
from .errors import (
    ConvergenceError,
    DimensionError,
    ErgodynError,
    InvalidArgumentError,
    InvalidKernelError,
    InvalidMeasureError,
    NotStationaryError,
    PreconditionError,
)
from .kernel import NoisySystem, TransitionKernel, _csr_to_kernel, ulam_discretize
from .measures import (
    closed_classes,
    ergodic_decomposition,
    is_ergodic,
    periodic_measures,
    require_stationary,
    stationary_measures,
)
from .mc import estimate_Lj_phi, sample_trajectory
from .space import Measure, Observable, Partition, make_uniform_partition
from .theorems import (
    birkhoff_trials,
    check_levelset_invariance,
    corollary_trials,
    duality_trials,
    ergodic_limit_trials,
    lemma1_trials,
    lemma2_trials,
    localization_trials,
    maximal_trials,
    nonconvergence_trials,
    periodic_trials,
    running_average_extremes,
)
from .transfer import stationarity_residual

CHECK_NAMES = (
    "duality",
    "lemma1",
    "lemma2",
    "maximal",
    "corollary_c",
    "corollary_b",
    "birkhoff",
    "ergodic_limit",
    "periodic",
    "localization",
    "levelsets",
    "nonconvergence_empty",
)

#: checks that square dense matrices per trial get a reduced trial count
_EXPENSIVE = {"birkhoff", "ergodic_limit", "periodic", "nonconvergence_empty"}

KERNEL_MAGIC = "ergodyn-kernel 1"
MEASURE_MAGIC = "ergodyn-measure 1"
REPORT_MAGIC = "ergodyn-report 1"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# Kernel and measure files
# ---------------------------------------------------------------------------

#: Records formatted per write in ``save_kernel``.
_WRITE_BLOCK = 8192


def save_kernel(P: TransitionKernel, path) -> None:
    """Write a kernel file, one ``row col probability`` record per nonzero.

    Records are formatted and written in blocks, so the text is never held
    in memory as a whole.
    """
    rows = np.repeat(np.arange(P.K), np.diff(P.indptr))
    with open(path, "w") as fh:
        fh.write(f"{KERNEL_MAGIC}\nK {P.K}\ndomain {P.partition.domain_kind}\n")
        fh.write("boundaries " + " ".join(_fmt(b) for b in P.partition.boundaries) + "\n")
        fh.write(f"nnz {P.nnz}\n")
        for lo in range(0, P.nnz, _WRITE_BLOCK):
            block = slice(lo, lo + _WRITE_BLOCK)
            fh.write("".join(
                f"{i} {c} {p:.17g}\n"
                for i, c, p in zip(rows[block].tolist(), P.indices[block].tolist(), P.data[block].tolist())
            ))


#: One ``row col probability`` record of a kernel file.
_RECORD = np.dtype([("row", np.int64), ("col", np.int64), ("prob", np.float64)])


def _header_value(line: str, keyword: str) -> list:
    """The values of a header line ``keyword value ...``."""
    tokens = line.split()
    if not tokens or tokens[0] != keyword:
        raise ValueError(f"expected header {keyword!r}, found {line.strip()!r}")
    return tokens[1:]


def load_kernel(path) -> TransitionKernel:
    """Read a kernel file straight into CSR arrays; no K x K array is formed.

    The records are parsed in chunks from the open file, so the text is
    never held in memory as a whole.
    """
    try:
        with open(path) as fh:
            head = []
            while len(head) < 5:
                line = fh.readline()
                if not line:
                    raise ValueError("truncated header")
                if line.strip():
                    head.append(line.rstrip("\n"))
            if head[0] != KERNEL_MAGIC:
                raise ValueError(f"bad header {head[0]!r}")
            (k,) = map(int, _header_value(head[1], "K"))
            (domain,) = _header_value(head[2], "domain")
            boundaries = np.array([float(t) for t in _header_value(head[3], "boundaries")])
            (nnz,) = map(int, _header_value(head[4], "nnz"))
            with warnings.catch_warnings():  # no records: the count check below reports it
                warnings.simplefilter("ignore", UserWarning)
                records = np.loadtxt(fh, dtype=_RECORD, comments=None, ndmin=1)
        if records.size != nnz:
            raise ValueError(f"expected {nnz} entries, found {records.size}")
        partition = Partition(domain, boundaries)
    except (OSError, UnicodeDecodeError) as e:
        raise InvalidKernelError(f"cannot read kernel file {path}: {e}") from None
    except (ValueError, IndexError, OverflowError) as e:
        raise InvalidKernelError(f"malformed kernel file {path}: {e}") from None
    if partition.cell_count != k:
        raise DimensionError(
            f"kernel file {path}: header K {k} disagrees with {boundaries.size} boundaries"
        )
    r, c = records["row"], records["col"]
    outside = (r < 0) | (r >= k) | (c < 0) | (c >= k)
    if outside.any():
        i = int(outside.argmax())
        raise InvalidKernelError(f"kernel file {path}: entry {r[i]} {c[i]} outside [0, {k})")
    key = r * k + c
    order = np.argsort(key, kind="stable")
    key = key[order]
    repeated = key[1:] == key[:-1]
    if repeated.any():
        dup = int(key[int(repeated.argmax())])
        raise InvalidKernelError(f"kernel file {path}: duplicate entry {dup // k} {dup % k}")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(r, minlength=k))))
    return _csr_to_kernel(indptr, c[order], records["prob"][order], partition, f"kernel file {path}")


def save_measure(mu: Measure, path) -> None:
    lines = [MEASURE_MAGIC, f"K {mu.weights.size}"]
    lines += [_fmt(w) for w in mu.weights]
    Path(path).write_text("\n".join(lines) + "\n")


def load_measure(path, partition: Partition) -> Measure:
    try:
        lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
        if lines[0] != MEASURE_MAGIC:
            raise ValueError(f"bad header {lines[0]!r}")
        (k,) = map(int, _header_value(lines[1], "K"))
        weights = np.array([float(t) for t in lines[2:]])
        if weights.size != k:
            raise ValueError(f"expected {k} weights, found {weights.size}")
    except (OSError, ValueError, IndexError) as e:
        raise InvalidMeasureError(f"malformed measure file {path}: {e}") from None
    return Measure(weights, partition)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_SCHEMA = {
    "system": {
        "map": str,
        "alpha": float,
        "r": float,
        "breakpoints": "floats",
        "slopes": "floats",
        "noise": str,
        "half_width": float,
        "sigma": float,
        "boundary": str,
        "quadrature": int,
    },
    "kernel": {"path": str},
    "partition": {"domain": str, "cells": int},
    "solver": {"tol": float, "max_iter": int},
    "checks": {
        "names": str,
        "n_max": int,
        "alpha": float,
        "beta": float,
        "p": int,
        "n_cap": int,
        "trials": int,
        "tol": float,
        "edge_threshold": float,
    },
    "mc": {
        "start": int,
        "steps": int,
        "trajectories": int,
        "n_samples": int,
        "master_seed": int,
        "observable": str,
    },
    "output": {"dir": str, "formats": str},
}

_DEFAULTS = {
    ("solver", "tol"): 1e-12,
    ("solver", "max_iter"): 100000,
    ("checks", "names"): "all",
    ("checks", "n_max"): 64,
    ("checks", "p"): 2,
    ("checks", "n_cap"): 2**20,
    ("checks", "trials"): 100,
    ("checks", "tol"): 1e-10,
    ("checks", "edge_threshold"): 1e-14,
    ("system", "quadrature"): 16,
    ("system", "boundary"): "wrap",
    ("mc", "start"): 0,
    ("mc", "steps"): 5,
    ("mc", "trajectories"): 1,
    ("mc", "n_samples"): 10000,
    ("mc", "master_seed"): 0,
    ("mc", "observable"): "coordinate",
    ("output", "dir"): "out",
    ("output", "formats"): "report,csv",
}


class ConfigError(ErgodynError, ValueError):
    """Configuration file cannot be parsed or validated."""


def load_config(path) -> dict:
    """Parse and validate an INI-style run configuration.

    Unknown sections or keys are hard errors so typos cannot silently
    change a run.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as e:
        raise ConfigError(f"cannot parse config {path}: {e}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    cfg: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        cfg[section] = {}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            kind = _SCHEMA[section][key]
            try:
                if kind == "floats":
                    value = tuple(float(t) for t in raw.split())
                elif kind is int:
                    value = int(raw)
                elif kind is float:
                    value = float(raw)
                else:
                    value = raw.strip()
            except ValueError:
                raise ConfigError(
                    f"key {key!r} in [{section}]: cannot parse {raw!r}"
                ) from None
            cfg[section][key] = value
    if "system" in cfg and "kernel" in cfg:
        raise ConfigError("config must name exactly one of [system] or [kernel]")
    for (section, key), default in _DEFAULTS.items():
        if section in cfg and key not in cfg[section]:
            cfg[section][key] = default
    for section, key in (("solver", "tol"), ("checks", "tol")):
        if section in cfg:
            _positive(cfg[section][key], f"{key} in [{section}]")
    return cfg


def _positive(tol: float, what: str) -> float:
    """A tolerance from the config or the command line; it must be positive (not NaN)."""
    if not tol > 0.0:
        raise ConfigError(f"{what} must be positive, got {tol!r}")
    return tol


def _cfg_get(cfg, section, key):
    if section in cfg and key in cfg[section]:
        return cfg[section][key]
    return _DEFAULTS[(section, key)]


def _master_seed(cfg, args) -> int:
    """The run's master seed: --seed, else [mc] master_seed; it must fit in u64."""
    seed = args.seed if args.seed is not None else _cfg_get(cfg, "mc", "master_seed")
    if not 0 <= seed <= _backend._MASK64:
        raise ConfigError(f"seed {seed} is outside the u64 range [0, 2^64)")
    return seed


def _trial_count(n: int, what: str) -> int:
    """A trial count from the command line or the config; it must be at least 1."""
    if n < 1:
        raise ConfigError(f"{what} must be at least 1, got {n}")
    return n


def _observable(cfg, P: TransitionKernel) -> Observable:
    """The [mc] observable: ``coordinate`` or ``indicator:k`` with k in [0, K)."""
    spec = str(_cfg_get(cfg, "mc", "observable"))
    if spec == "coordinate":
        return Observable(P.partition.midpoints(), P.partition)
    kind, _, cell = spec.partition(":")
    if kind != "indicator" or not cell.isdecimal() or int(cell) >= P.K:
        raise ConfigError(
            f"observable {spec!r} is neither 'coordinate' nor 'indicator:k' with k in [0, {P.K})"
        )
    values = np.zeros(P.K)
    values[int(cell)] = 1.0
    return Observable(values, P.partition)


def config_hash(cfg: dict, seed: int) -> str:
    """Stable digest of the resolved configuration plus the master seed."""
    parts = [f"seed={seed}"]
    for section in sorted(cfg):
        for key in sorted(cfg[section]):
            parts.append(f"{section}.{key}={cfg[section][key]!r}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def _system_from_config(cfg) -> tuple[NoisySystem, Partition, int]:
    sys_cfg = cfg["system"]
    part_cfg = cfg.get("partition", {})
    if "map" not in sys_cfg:
        raise ConfigError("section [system] needs a 'map' key")
    if "domain" not in part_cfg or "cells" not in part_cfg:
        raise ConfigError("section [partition] needs 'domain' and 'cells'")
    name = sys_cfg["map"]
    map_params = {}
    if name == "rotation":
        if "alpha" not in sys_cfg:
            raise ConfigError("rotation needs key 'alpha'")
        map_params["alpha"] = sys_cfg["alpha"]
    elif name == "logistic":
        if "r" not in sys_cfg:
            raise ConfigError("logistic needs key 'r'")
        map_params["r"] = sys_cfg["r"]
    elif name == "piecewise_linear":
        if "breakpoints" not in sys_cfg or "slopes" not in sys_cfg:
            raise ConfigError("piecewise_linear needs 'breakpoints' and 'slopes'")
        map_params["breakpoints"] = sys_cfg["breakpoints"]
        map_params["slopes"] = sys_cfg["slopes"]
    elif name != "doubling":
        raise ConfigError(f"unknown map {name!r}")
    noise = sys_cfg.get("noise", "none")
    noise_params = {}
    if noise == "uniform":
        if "half_width" not in sys_cfg:
            raise ConfigError("uniform noise needs key 'half_width'")
        noise_params["half_width"] = sys_cfg["half_width"]
    elif noise == "wrapped_gaussian":
        if "sigma" not in sys_cfg:
            raise ConfigError("wrapped_gaussian noise needs key 'sigma'")
        noise_params["sigma"] = sys_cfg["sigma"]
    elif noise != "none":
        raise ConfigError(f"unknown noise {noise!r}")
    try:
        system = NoisySystem(name, map_params, noise, noise_params, sys_cfg["boundary"])
        partition = make_uniform_partition(part_cfg["domain"], part_cfg["cells"])
    except InvalidArgumentError as e:
        raise ConfigError(str(e)) from None
    return system, partition, sys_cfg["quadrature"]


def _obtain_kernel(cfg, args, config_dir: Path) -> TransitionKernel:
    if getattr(args, "kernel", None):
        return load_kernel(args.kernel)
    if "kernel" in cfg:
        if "path" not in cfg["kernel"]:
            raise ConfigError("section [kernel] needs a 'path' key")
        return load_kernel((config_dir / cfg["kernel"]["path"]))
    if "system" in cfg:
        system, partition, quad = _system_from_config(cfg)
        return ulam_discretize(system, partition, quad)
    raise ConfigError("no kernel source: give --kernel or [kernel]/[system] config")


# ---------------------------------------------------------------------------
# Report writing
# ---------------------------------------------------------------------------

class ReportWriter:
    def __init__(self, command: str, seed: int, cfg_hash: str):
        self.buf = io.StringIO()
        w = self.buf.write
        w(REPORT_MAGIC + "\n")
        w(f"version={__version__}\n")
        w(f"command={command}\n")
        w(f"backend={_backend.BACKEND}\n")
        w(f"generator={_backend.GENERATOR_NAME}\n")
        w(f"master_seed={seed}\n")
        w(f"config_hash={cfg_hash}\n")

    def kv(self, key, value):
        self.buf.write(f"{key}={value}\n")

    def section(self, title):
        self.buf.write(f"\n[{title}]\n")

    def check(self, title, rep):
        self.section(f"check {title}")
        self.kv("name", rep.name)
        self.kv("passed", "true" if rep.passed else "false")
        self.kv("lhs", _fmt(rep.lhs))
        self.kv("rhs", _fmt(rep.rhs))
        self.kv("slack", _fmt(rep.slack))
        wit = "-" if rep.witnesses is None else ",".join(str(i) for i in rep.witnesses)
        self.kv("witnesses", wit)
        self.kv("iterations_used", rep.iterations_used)

    def save(self, path):
        Path(path).write_text(self.buf.getvalue())


# ---------------------------------------------------------------------------
# verify drivers
# ---------------------------------------------------------------------------

def _random_observables(rng, partition, n) -> np.ndarray:
    """n random observables, drawn in order, as the columns of a K x n block."""
    return np.column_stack([rng.uniform(-1.0, 1.0, partition.cell_count) for _ in range(n)])


def _random_measure(rng, partition) -> Measure:
    w = rng.random(partition.cell_count) + 1e-3
    return Measure(w / w.sum(), partition)


def _mixture_measure(measures) -> Measure:
    w = sum(m.weights for m in measures) / len(measures)
    return Measure(w, measures[0].partition)


def _class_eigenfunction(P, classes) -> Observable:
    values = np.zeros(P.K)
    for k, cls in enumerate(classes):
        values[cls] = float(k)
    return Observable(values, P.partition)


_LE_CHECKS = {
    "duality", "corollary_b", "birkhoff", "ergodic_limit",
    "localization", "levelsets", "nonconvergence_empty",
}


def _worst(reports):
    """Aggregate trial reports into one: smallest margin wins the slot."""
    def margin(r):
        diff = r.lhs - r.rhs
        return -diff if r.name in _LE_CHECKS else diff

    failed = [r for r in reports if not r.passed]
    pool = failed if failed else reports
    worst = min(pool, key=margin)
    return type(worst)(
        worst.name, all(r.passed for r in reports), worst.lhs, worst.rhs,
        worst.slack, worst.witnesses, len(reports),
    )


def run_check(name, P, stationaries, cfg, master_seed) -> "CheckReport":
    """Run one named check with seeded randomness and aggregate trials.

    The trials run together: their random inputs are drawn in trial order
    and stacked as the columns of one K x T block, and the check's
    preconditions are evaluated once, before any trial.
    """
    idx = CHECK_NAMES.index(name)
    rng = np.random.default_rng(np.random.SeedSequence([int(master_seed) & ((1 << 64) - 1), idx]))
    trials = int(_cfg_get(cfg, "checks", "trials"))
    if name in _EXPENSIVE:
        trials = min(trials, 20)
    n_max = int(_cfg_get(cfg, "checks", "n_max"))
    tol = float(_cfg_get(cfg, "checks", "tol"))
    n_cap = int(_cfg_get(cfg, "checks", "n_cap"))
    p = int(_cfg_get(cfg, "checks", "p"))
    alpha = cfg.get("checks", {}).get("alpha")
    beta = cfg.get("checks", {}).get("beta")
    part = P.partition
    mix = _mixture_measure(stationaries)
    classes = closed_classes(P, float(_cfg_get(cfg, "checks", "edge_threshold")))

    if name == "duality":
        draws = [(rng.uniform(-1.0, 1.0, P.K), _random_measure(rng, part).weights)
                 for _ in range(trials)]
        values, weights = (np.column_stack(block) for block in zip(*draws))
        reports = duality_trials(P, values, weights)
    elif name == "lemma1":
        reports = lemma1_trials(P, _random_observables(rng, part, trials))
    elif name == "lemma2":
        reports = lemma2_trials(P, mix, _random_observables(rng, part, trials), tol)
    elif name == "maximal":
        reports = maximal_trials(P, mix, _random_observables(rng, part, trials), n_max, tol)
    elif name in ("corollary_c", "corollary_b"):
        values = _random_observables(rng, part, max(1, trials // max(1, len(classes))))
        hi, lo = running_average_extremes(P, values, n_max)
        columns = range(values.shape[1])
        if name == "corollary_c":
            extremes = hi
            levels = [[alpha if alpha is not None else float(hi[A, t].min()) - 0.1
                       for A in classes] for t in columns]
        else:
            extremes = lo
            levels = [[beta if beta is not None else float(lo[A, t].max()) + 0.1
                       for A in classes] for t in columns]
        reports = corollary_trials(name, P, mix, values, extremes, classes, levels, n_max, tol)
    elif name == "birkhoff":
        _, reports = birkhoff_trials(P, mix, _random_observables(rng, part, trials), tol, n_cap)
    elif name == "ergodic_limit":
        values = _random_observables(rng, part, trials)
        reports = ergodic_limit_trials(P, stationaries[0], values, tol, n_cap)
    elif name == "periodic":
        fixed = periodic_measures(P, p, float(_cfg_get(cfg, "solver", "tol")),
                                  int(_cfg_get(cfg, "solver", "max_iter")))
        values = _random_observables(rng, part, trials)
        reports = periodic_trials(P, p, [nu for nu, _d in fixed], values, tol, n_cap)
    elif name == "localization":
        reports = localization_trials(P, mix, classes, _random_observables(rng, part, trials), tol)
    elif name == "levelsets":
        phi = _class_eigenfunction(P, classes)
        a = alpha if alpha is not None else 0.5
        reports = [check_levelset_invariance(P, mix, phi, a, tol)]
    elif name == "nonconvergence_empty":
        a = alpha if alpha is not None else 0.05
        b = beta if beta is not None else -0.05
        reports = nonconvergence_trials(P, _random_observables(rng, part, trials), a, b, n_cap)
    else:
        raise ConfigError(f"unknown check {name!r}")
    return _worst(reports)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _out_dir(cfg, args) -> Path:
    out = Path(getattr(args, "out", None) or _cfg_get(cfg, "output", "dir"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_kernel_build(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    if "system" not in cfg:
        raise ConfigError("kernel-build needs a config with a [system] section")
    _master_seed(cfg, args)  # kernel-build draws nothing, but rejects what the others reject
    system, partition, quad = _system_from_config(cfg)
    P = ulam_discretize(system, partition, quad)
    out = _out_dir(cfg, args)
    path = out / "kernel.txt"
    save_kernel(P, path)
    sums = np.add.reduceat(P.data, P.indptr[:-1])
    dev = float(np.abs(sums - 1.0).max())
    print(f"kernel-build: K={P.K} nnz={P.nnz} max_row_dev={dev:.3e} -> {path}")
    return 0


def cmd_measure(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    config_dir = Path(args.config).parent if args.config else Path.cwd()
    P = _obtain_kernel(cfg, args, config_dir)
    seed = _master_seed(cfg, args)
    tol = _positive(args.tol, "--tol") if args.tol is not None else _cfg_get(cfg, "solver", "tol")
    max_iter = int(_cfg_get(cfg, "solver", "max_iter"))
    p = int(_cfg_get(cfg, "checks", "p"))
    ms = stationary_measures(P, tol, max_iter)
    writer = ReportWriter("measure", seed, config_hash(cfg, seed))
    writer.kv("kernel_K", P.K)
    writer.kv("kernel_nnz", P.nnz)
    writer.kv("stationary_count", len(ms))
    for k, mu in enumerate(ms):
        writer.section(f"stationary {k}")
        writer.kv("residual", _fmt(stationarity_residual(P, mu)))
        writer.kv("ergodic", "true" if is_ergodic(P, mu, max(tol, 1e-10)) else "false")
        writer.kv("support", ",".join(str(i) for i in np.flatnonzero(mu.weights > 0)))
        writer.kv("weights", " ".join(_fmt(w) for w in mu.weights))
    if args.measure:
        mu = load_measure(args.measure, P.partition)
        dec = ergodic_decomposition(P, mu, max(tol, 1e-10))
        writer.section("decomposition")
        writer.kv("components", len(dec.components))
        for k, (w, nu) in enumerate(dec.components):
            writer.kv(f"weight_{k}", _fmt(w))
            writer.kv(f"support_{k}", ",".join(str(i) for i in np.flatnonzero(nu.weights > 0)))
    per = periodic_measures(P, p, tol, max_iter)
    writer.section(f"periodic p={p}")
    writer.kv("count", len(per))
    for k, (nu, d) in enumerate(per):
        writer.kv(f"minimal_period_{k}", d)
        writer.kv(f"support_{k}", ",".join(str(i) for i in np.flatnonzero(nu.weights > 0)))
    out = _out_dir(cfg, args)
    path = out / "measure_report.txt"
    writer.save(path)
    print(f"measure: {len(ms)} stationary, {len(per)} periodic(p={p}) -> {path}")
    return 0


def cmd_verify(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    config_dir = Path(args.config).parent if args.config else Path.cwd()
    P = _obtain_kernel(cfg, args, config_dir)
    seed = _master_seed(cfg, args)
    if args.trials is not None:
        cfg.setdefault("checks", {})["trials"] = args.trials
    _trial_count(_cfg_get(cfg, "checks", "trials"), "trials")
    if args.tol is not None:
        cfg.setdefault("checks", {})["tol"] = _positive(args.tol, "--tol")
    if args.n_max is not None:
        cfg.setdefault("checks", {})["n_max"] = args.n_max
    names = args.checks or _cfg_get(cfg, "checks", "names")
    requested = [t.strip() for t in names.split(",") if t.strip()]
    if requested == ["all"]:
        requested = list(CHECK_NAMES)
    unknown = [t for t in requested if t not in CHECK_NAMES]
    if unknown:
        raise ConfigError(f"unknown checks: {', '.join(unknown)}")
    solver_tol = float(_cfg_get(cfg, "solver", "tol"))
    max_iter = int(_cfg_get(cfg, "solver", "max_iter"))
    stationaries = stationary_measures(P, solver_tol, max_iter)
    if args.measure:
        mu = load_measure(args.measure, P.partition)
        require_stationary(P, mu, float(_cfg_get(cfg, "checks", "tol")))
        stationaries = [mu] + stationaries
    writer = ReportWriter("verify", seed, config_hash(cfg, seed))
    writer.kv("kernel_K", P.K)
    writer.kv("kernel_nnz", P.nnz)
    writer.kv("checks", ",".join(requested))
    writer.kv("trials", _cfg_get(cfg, "checks", "trials"))
    results = []
    for name in requested:
        rep = run_check(name, P, stationaries, cfg, seed)
        results.append(rep)
        writer.check(name, rep)
    n_pass = sum(r.passed for r in results)
    writer.section("summary")
    writer.kv("passed", n_pass)
    writer.kv("total", len(results))
    out = _out_dir(cfg, args)
    path = out / "verify_report.txt"
    writer.save(path)
    print(f"verify: {n_pass}/{len(results)} checks passed -> {path}")
    return 0 if n_pass == len(results) else 1


def cmd_simulate(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    config_dir = Path(args.config).parent if args.config else Path.cwd()
    P = _obtain_kernel(cfg, args, config_dir)
    seed = _master_seed(cfg, args)
    start = int(_cfg_get(cfg, "mc", "start"))
    steps = int(_cfg_get(cfg, "mc", "steps"))
    if args.trials is not None:
        n_traj = _trial_count(args.trials, "--trials")
    else:
        n_traj = _trial_count(int(_cfg_get(cfg, "mc", "trajectories")), "trajectories in [mc]")
    n_samples = int(_cfg_get(cfg, "mc", "n_samples"))
    phi = _observable(cfg, P)
    out = _out_dir(cfg, args)

    traj_path = out / "trajectories.csv"
    with open(traj_path, "w") as fh:
        fh.write("trial,step,state\n")
        for t in range(n_traj):
            traj = sample_trajectory(P, start, steps, _backend.trajectory_seed(seed, t))
            for s, state in enumerate(traj.states):
                fh.write(f"{t},{s},{state}\n")

    est_path = out / "estimates.csv"
    cur = phi.values.copy()
    with open(est_path, "w") as fh:
        fh.write("j,mean,stderr,exact,z\n")
        for j in range(steps + 1):
            est = estimate_Lj_phi(P, phi, start, j, n_samples, seed)
            exact = float(cur[start])
            z = (est.mean - exact) / est.stderr if est.stderr > 0 else 0.0
            fh.write(
                f"{j},{_fmt(est.mean)},{_fmt(est.stderr)},{_fmt(exact)},{_fmt(z)}\n"
            )
            cur = P.matvec(cur)
    print(f"simulate: {n_traj} trajectories, {steps + 1} estimates -> {out}")
    return 0


def integer(text: str) -> int:
    """An integer literal in any base Python accepts; argparse's error for a
    bad value names the type after this function ("invalid integer value")."""
    return int(text, 0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ergodyn",
        description="Transfer-operator ergodic theory toolkit for noisy systems",
    )
    ap.add_argument("--version", action="version", version=f"ergodyn {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="run configuration file (INI)")
    common.add_argument("--kernel", help="kernel file path (overrides config)")
    common.add_argument("--out", help="output directory")
    common.add_argument("--seed", type=integer, default=None, help="master seed (u64)")
    common.add_argument("--tol", type=float, default=None, help="check tolerance")
    common.add_argument("--n-max", dest="n_max", type=int, default=None, help="sup truncation horizon")
    common.add_argument("--trials", type=int, default=None, help="randomized trial count")
    common.add_argument("--measure", help="measure file to use/decompose")
    common.add_argument("--checks", help="comma list of check names or 'all'")
    sub.add_parser("kernel-build", parents=[common], help="discretize a configured system")
    sub.add_parser("measure", parents=[common], help="solve stationary/periodic measures")
    sub.add_parser("verify", parents=[common], help="run theorem checks")
    sub.add_parser("simulate", parents=[common], help="sample trajectories and estimates")
    return ap


_COMMANDS = {
    "kernel-build": cmd_kernel_build,
    "measure": cmd_measure,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 0 after --help/--version, 2 on bad usage
        return e.code
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, InvalidArgumentError) as e:
        print(f"error: invalid configuration: {e}", file=sys.stderr)
        return 2
    except (InvalidKernelError, InvalidMeasureError, DimensionError) as e:
        print(f"error: invalid data: {e}", file=sys.stderr)
        return 3
    except ConvergenceError as e:
        print(f"error: no convergence: {e}", file=sys.stderr)
        return 4
    except (PreconditionError, NotStationaryError) as e:
        print(f"error: precondition violated: {e}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
