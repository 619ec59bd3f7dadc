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
significant digits, which round-trips IEEE doubles exactly. Next to each
kernel file, ``kernel-build`` writes a binary copy of its records
(``kernel.txt.records``), which loaders take only while its digest matches
the text; the text stays the canonical file.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import io
import math
import os
import stat
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from . import __version__, _backend, _format
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
from .kernel import (
    MAP_PARAMS,
    NOISE_PARAMS,
    NoisySystem,
    TransitionKernel,
    _csr_to_kernel,
    kernel_power,
    ulam_discretize,
)
from .measures import (
    closed_classes,
    ergodic_decomposition,
    is_ergodic,
    periodic_measures,
    require_stationary,
    stationary_measures,
)
from .mc import estimate_Lj_phi_steps, sample_trajectories
from .space import Measure, Observable, Partition, make_uniform_partition
from .theorems import (
    _COROLLARIES,
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
)
from .transfer import stationarity_residual

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

#: One ``row col probability`` record of a kernel file, in the sidecar's
#: byte order (little-endian on every host).
_RECORD = np.dtype([("row", "<i8"), ("col", "<i8"), ("prob", "<f8")])

_DIGEST_BYTES = hashlib.sha256().digest_size
_HASH_CHUNK = 1 << 20


def save_kernel(P: TransitionKernel, path) -> None:
    """Write a kernel file, one ``row col probability`` record per nonzero,
    and its record sidecar, in one pass over the records.

    Each ``_WRITE_BLOCK`` of records goes to the text and to the sidecar
    from the same slices, so neither file is held in memory as a whole.
    ``_format.records`` formats a block by array arithmetic; a block with a
    probability it cannot certify is formatted by CPython's ``%`` instead,
    to the same bytes. The sidecar is a digest that binds the text's bytes
    to the record bytes, then the nnz records as raw ``_RECORD``. Both files
    are hashed as they are written and the digest goes in last, so a write
    that stops early leaves a sidecar no loader takes.
    """
    rows = np.repeat(np.arange(P.K), np.diff(P.indptr))
    fields = _format.int_fields(P.K)
    text, records = hashlib.sha256(), hashlib.sha256()
    with open(path, "wb") as fh, _sidecar_sink(path) as side:
        def put(data):
            fh.write(data)
            text.update(data)

        put(f"{KERNEL_MAGIC}\nK {P.K}\ndomain {P.partition.domain_kind}\n".encode())
        put(("boundaries " + " ".join(_fmt(b) for b in P.partition.boundaries) + "\n").encode())
        put(f"nnz {P.nnz}\n".encode())
        side.write(bytes(_DIGEST_BYTES))
        for lo in range(0, P.nnz, _WRITE_BLOCK):
            block = slice(lo, lo + _WRITE_BLOCK)
            r, c, x = rows[block], P.indices[block], P.data[block]
            data = _format.records(fields, r, c, x)
            if data is None:
                flat = [None] * (3 * r.size)
                flat[0::3], flat[1::3], flat[2::3] = r.tolist(), c.tolist(), x.tolist()
                data = (("%d %d %.17g\n" * r.size) % tuple(flat)).encode()
            put(data)
            rec = np.empty(r.size, _RECORD)
            rec["row"], rec["col"], rec["prob"] = r, c, x
            side.write(rec)
            records.update(rec)
        side.seek(0)
        side.write(_binding(text, records))


def _sidecar(path) -> Path:
    """The binary record sidecar of the kernel file at path (``save_kernel``)."""
    return Path(f"{path}.records")


def _open_regular(path, flags: int):
    """A binary file object on path opened with flags; OSError unless path is
    a regular file. O_NONBLOCK keeps a FIFO from blocking the open."""
    fd = os.open(path, flags | os.O_NONBLOCK, 0o666)
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        raise OSError(f"{path} is not a regular file")
    return os.fdopen(fd, "rb" if flags == os.O_RDONLY else "wb")


def _sidecar_sink(path):
    """The sidecar of the kernel file at path, opened for writing; the null
    device when it cannot be (a directory or a FIFO in its place), as the
    text is complete without it."""
    try:
        return _open_regular(_sidecar(path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    except OSError:
        return open(os.devnull, "wb")


def _file_digest(path):
    """SHA-256 of a file's bytes, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_HASH_CHUNK):
            digest.update(chunk)
    return digest


def _binding(text, records) -> bytes:
    """The sidecar digest: one hash of the text's and the records' hashes."""
    return hashlib.sha256(text.digest() + records.digest()).digest()


def _sidecar_records(path, nnz: int):
    """The records of the kernel file at path, read from its sidecar, or None.

    The sidecar is taken only if it is a regular file, its size is that of
    a digest and nnz records, and its digest matches the text file and the
    records read. In every other case (no sidecar, or a truncated, tampered,
    stale or older-layout one) the caller parses the text. The records are
    read only after the size check, so no read asks for more than the file
    holds.
    """
    try:
        with _open_regular(_sidecar(path), os.O_RDONLY) as fh:
            if os.fstat(fh.fileno()).st_size != _DIGEST_BYTES + nnz * _RECORD.itemsize:
                return None
            digest = fh.read(_DIGEST_BYTES)
            records = np.fromfile(fh, _RECORD, nnz)
        if _binding(_file_digest(path), hashlib.sha256(records)) != digest:
            return None
    except (OSError, ValueError):
        return None
    return records


def _ascii_lines(fh):
    """The remaining lines of a text file, each checked to be ASCII, as a
    kernel file written by ``save_kernel`` is.

    NumPy's ``loadtxt`` can crash the interpreter on some characters outside
    the Basic Multilingual Plane in a numeric field (NumPy 2.4: a
    segmentation fault on U+E093A), so no such character may reach it.
    """
    for line in fh:
        if not line.isascii():
            raise ValueError("a record holds a non-ASCII character")
        yield line


def _header_value(line: str, keyword: str) -> list:
    """The values of a header line ``keyword value ...``."""
    tokens = line.split()
    if not tokens or tokens[0] != keyword:
        raise ValueError(f"expected header {keyword!r}, found {line.strip()!r}")
    return tokens[1:]


def load_kernel(path) -> TransitionKernel:
    """Read a kernel file straight into CSR arrays; no K x K array is formed.

    The records come from the file's sidecar when ``_sidecar_records`` takes
    it, and are parsed from the text otherwise, in chunks from the open
    file, so the text is never held in memory as a whole. Both feed the same
    checks, and ``%.17g`` round-trips every double, so the kernel is the
    same either way.
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
            records = _sidecar_records(path, nnz)
            if records is None:
                with warnings.catch_warnings():  # no records: the count check below reports it
                    warnings.simplefilter("ignore", UserWarning)
                    records = np.loadtxt(_ascii_lines(fh), dtype=_RECORD, comments=None, ndmin=1)
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

#: section -> key -> (kind, default). A key whose default is None has none;
#: ``load_config`` fills every other default into each section a config has.
_SCHEMA = {
    "system": {
        "map": (str, None),
        "alpha": (float, None),
        "r": (float, None),
        "breakpoints": ("floats", None),
        "slopes": ("floats", None),
        "noise": (str, None),
        "half_width": (float, None),
        "sigma": (float, None),
        "boundary": (str, "wrap"),
        "quadrature": (int, 16),
    },
    "kernel": {"path": (str, None)},
    "partition": {"domain": (str, None), "cells": (int, None)},
    "solver": {"tol": (float, 1e-12), "max_iter": (int, 100000)},
    "checks": {
        "names": (str, "all"),
        "n_max": (int, 64),
        "alpha": (float, None),
        "beta": (float, None),
        "p": (int, 2),
        "n_cap": (int, 2**20),
        "trials": (int, 100),
        "tol": (float, 1e-10),
        "edge_threshold": (float, 1e-14),
    },
    "mc": {
        "start": (int, 0),
        "steps": (int, 5),
        "trajectories": (int, 1),
        "n_samples": (int, 10000),
        "master_seed": (int, 0),
        "observable": (str, "coordinate"),
    },
    "output": {"dir": (str, "out")},
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
    except configparser.Error as e:  # its message spans lines; the error is one
        raise ConfigError(f"cannot parse config {path}: {' '.join(str(e).split())}") from None
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
            kind, _ = _SCHEMA[section][key]
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
    for section, values in cfg.items():
        for key, (_, default) in _SCHEMA[section].items():
            if default is not None:
                values.setdefault(key, default)
    for section, key in (("solver", "tol"), ("checks", "tol")):
        if section in cfg:
            _positive(cfg[section][key], f"{key} in [{section}]")
    # no limit window (horizon 2n, n >= 1) fits under an n_cap below 2 on any kernel
    for section, key, least in (("solver", "max_iter", 1), ("checks", "n_max", 1), ("checks", "n_cap", 2)):
        if section in cfg:
            _at_least(cfg[section][key], least, f"{key} in [{section}]")
    for key in ("alpha", "beta"):
        value = cfg.get("checks", {}).get(key)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{key} in [checks] must be finite, got {value!r}")
    return cfg


def _positive(tol: float, what: str) -> float:
    """A tolerance from the config or the command line; it must be finite and
    positive (an infinite one would pass every check and accept any iterate)."""
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ConfigError(f"{what} must be finite and positive, got {tol!r}")
    return tol


def _cfg_get(cfg, section, key):
    """A config value, else its schema default (None for a key without one)."""
    return cfg.get(section, {}).get(key, _SCHEMA[section][key][1])


def _master_seed(cfg, args) -> int:
    """The run's master seed: --seed, else [mc] master_seed; it must fit in u64."""
    seed = args.seed if args.seed is not None else _cfg_get(cfg, "mc", "master_seed")
    if not 0 <= seed <= _backend._MASK64:
        raise ConfigError(f"seed {seed} is outside the u64 range [0, 2^64)")
    return seed


def _at_least(n: int, least: int, what: str) -> int:
    """A count from the command line or the config; it must be at least ``least``."""
    if n < least:
        raise ConfigError(f"{what} must be at least {least}, got {n}")
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
    """The [system] and [partition] sections as a system, a partition and a
    quadrature count.

    A map and a noise law get the config keys that ``kernel.MAP_PARAMS`` and
    ``kernel.NOISE_PARAMS`` list for them. ``NoisySystem`` rejects unknown
    maps and noise laws and missing or invalid parameters (exit 2).
    """
    sys_cfg = cfg["system"]
    part_cfg = cfg.get("partition", {})
    if "map" not in sys_cfg:
        raise ConfigError("section [system] needs a 'map' key")
    if "domain" not in part_cfg or "cells" not in part_cfg:
        raise ConfigError("section [partition] needs 'domain' and 'cells'")
    name, noise = sys_cfg["map"], sys_cfg.get("noise", "none")
    _, noise_keys = NOISE_PARAMS.get(noise, (None, ()))
    try:
        system = NoisySystem(
            name, {k: sys_cfg[k] for k in MAP_PARAMS.get(name, ()) if k in sys_cfg},
            noise, {k: sys_cfg[k] for k in noise_keys if k in sys_cfg},
            sys_cfg["boundary"],
        )
        partition = make_uniform_partition(part_cfg["domain"], part_cfg["cells"])
    except InvalidArgumentError as e:
        raise ConfigError(str(e)) from None
    return system, partition, sys_cfg["quadrature"]


def _obtain_kernel(cfg, args, config_dir: Path) -> TransitionKernel:
    if args.kernel:
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

def _mixture_measure(measures) -> Measure:
    w = sum(m.weights for m in measures) / len(measures)
    return Measure(w, measures[0].partition)


def _class_eigenfunction(P, classes) -> Observable:
    values = np.zeros(P.K)
    for k, cls in enumerate(classes):
        values[cls] = float(k)
    return Observable(values, P.partition)


def _worst(reports):
    """Aggregate trial reports into one: of the failed reports, else of all,
    the one with the smallest margin in its own direction wins the slot."""
    worst = min([r for r in reports if not r.passed] or reports, key=lambda r: r.margin)
    return replace(worst, passed=all(r.passed for r in reports), iterations_used=len(reports))


@dataclass
class _CheckRun:
    """What a check's runner draws on; the mixture measure and the closed
    classes are computed only by the checks that use them."""

    P: TransitionKernel
    stationaries: list
    cfg: dict
    rng: np.random.Generator
    trials: int

    def opt(self, key, default=None):
        """A [checks] setting; ``default`` stands in for a key without a value."""
        value = _cfg_get(self.cfg, "checks", key)
        return default if value is None else value

    def uniform(self, *shape) -> np.ndarray:
        """A block of uniform [0, 1) draws, in one call. A shape too large to
        allocate fails at once: MemoryError, or ValueError past the address
        space; both are a configuration error (exit 2)."""
        try:
            return self.rng.random(shape)
        except ValueError as e:
            raise ConfigError(f"trials {self.trials} is too large to draw: {e}") from None

    def observables(self, n=None) -> np.ndarray:
        """n (default: the trial count) observables uniform on [-1, 1), drawn
        in order, as the columns of a K x n block. 2r - 1 has the bits of
        ``rng.uniform(-1, 1)``, which computes -1 + 2r."""
        values = self.uniform(self.trials if n is None else n, self.P.K)
        return np.ascontiguousarray((2.0 * values - 1.0).T)

    @cached_property
    def mix(self) -> Measure:
        return _mixture_measure(self.stationaries)

    @cached_property
    def classes(self) -> list:
        return closed_classes(self.P, self.opt("edge_threshold"))


def _run_duality(r: _CheckRun) -> list:
    """Each trial draws an observable uniform on [-1, 1), then a measure of
    weights uniform on [1e-3, 1 + 1e-3), normalised."""
    draws = r.uniform(r.trials, 2, r.P.K)
    values = 2.0 * draws[:, 0] - 1.0
    weights = draws[:, 1] + 1e-3
    weights /= weights.sum(axis=1, keepdims=True)
    return duality_trials(r.P, np.ascontiguousarray(values.T), np.ascontiguousarray(weights.T))


def _run_corollary(name: str, r: _CheckRun) -> list:
    """corollary_c or corollary_b on every closed class, at the level its
    key in ``theorems._COROLLARIES`` sets, or at the default level."""
    values = r.observables(max(1, r.trials // max(1, len(r.classes))))
    return corollary_trials(name, r.P, r.mix, values, r.classes, r.opt(_COROLLARIES[name][1]),
                            r.opt("n_max"), r.opt("tol"))


def _run_periodic(r: _CheckRun) -> list:
    """The periodic theorem on the measures fixed by the p-step kernel. The
    measures come from P's class solves; the limits run on Q = P^p, formed once."""
    p = r.opt("p")
    fixed = [nu for nu, _ in periodic_measures(
        r.P, p, _cfg_get(r.cfg, "solver", "tol"), _cfg_get(r.cfg, "solver", "max_iter"))]
    Q = kernel_power(r.P, p)
    return periodic_trials(Q, fixed, r.observables(), r.opt("tol"), r.opt("n_cap"))


#: check name -> (expensive, runner). An expensive check squares dense
#: matrices and runs at most 20 trials. A runner takes a ``_CheckRun`` and
#: returns the trial reports. Check i draws from SeedSequence([seed, i]), so
#: the order is part of every report: a new check goes last.
CHECKS = {
    "duality": (False, _run_duality),
    "lemma1": (False, lambda r: lemma1_trials(r.P, r.observables())),
    "lemma2": (False, lambda r: lemma2_trials(r.P, r.mix, r.observables(), r.opt("tol"))),
    "maximal": (False, lambda r: maximal_trials(
        r.P, r.mix, r.observables(), r.opt("n_max"), r.opt("tol"))),
    "corollary_c": (False, partial(_run_corollary, "corollary_c")),
    "corollary_b": (False, partial(_run_corollary, "corollary_b")),
    "birkhoff": (True, lambda r: birkhoff_trials(
        r.P, r.mix, r.observables(), r.opt("tol"), r.opt("n_cap"))[1]),
    "ergodic_limit": (True, lambda r: ergodic_limit_trials(
        r.P, r.stationaries[0], r.observables(), r.opt("tol"), r.opt("n_cap"))),
    "periodic": (True, _run_periodic),
    "localization": (False, lambda r: localization_trials(
        r.P, r.mix, r.classes, r.observables(), r.opt("tol"))),
    "levelsets": (False, lambda r: [check_levelset_invariance(
        r.P, r.mix, _class_eigenfunction(r.P, r.classes), r.opt("alpha", 0.5), r.opt("tol"))]),
    "nonconvergence_empty": (True, lambda r: nonconvergence_trials(
        r.P, r.observables(), r.opt("alpha", 0.05), r.opt("beta", -0.05), r.opt("n_cap"))),
}
CHECK_NAMES = tuple(CHECKS)


def run_check(name, P, stationaries, cfg, master_seed) -> "CheckReport":
    """Run one named check with seeded randomness and aggregate its trials.

    ``CHECKS`` holds each check's runner and whether its trials are capped;
    each report carries its ``ge``/``le`` direction, by which ``_worst``
    ranks the trials. Check i draws from SeedSequence([master_seed, i]). The
    trials run together: their random inputs are drawn in one call, in
    trial order, as the columns of one K x T block, and the check's
    preconditions are evaluated once, before any trial.
    """
    expensive, run = CHECKS[name]
    seed = np.random.SeedSequence([int(master_seed) & _backend._MASK64, CHECK_NAMES.index(name)])
    trials = _cfg_get(cfg, "checks", "trials")
    trials = min(trials, 20) if expensive else trials
    return _worst(run(_CheckRun(P, stationaries, cfg, np.random.default_rng(seed), trials)))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

@contextmanager
def _writing(path):
    """Report an OSError raised while creating or writing an output at path as
    a configuration error (exit 2): where outputs go is part of the run's
    configuration."""
    try:
        yield
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from None


def _out_dir(cfg, args) -> Path:
    out = Path(args.out or _cfg_get(cfg, "output", "dir"))
    with _writing(out):
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
    with _writing(path):
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
    if args.tol is not None:
        cfg.setdefault("solver", {})["tol"] = _positive(args.tol, "--tol")
    tol = _cfg_get(cfg, "solver", "tol")
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
    with _writing(path):
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
    _at_least(_cfg_get(cfg, "checks", "trials"), 1, "trials")
    if args.tol is not None:
        cfg.setdefault("checks", {})["tol"] = _positive(args.tol, "--tol")
    if args.n_max is not None:
        cfg.setdefault("checks", {})["n_max"] = _at_least(args.n_max, 1, "--n-max")
    names = args.checks or _cfg_get(cfg, "checks", "names")
    requested = [t.strip() for t in names.split(",") if t.strip()]
    if requested == ["all"]:
        requested = list(CHECK_NAMES)
    unknown = [t for t in requested if t not in CHECKS]
    if unknown:
        raise ConfigError(f"unknown checks: {', '.join(unknown)}")
    if not requested:
        raise ConfigError(f"no check named in {names!r}")
    repeated = [t for i, t in enumerate(requested) if t in requested[:i]]
    if repeated:
        raise ConfigError(f"checks named more than once: {', '.join(dict.fromkeys(repeated))}")
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
    with _writing(path):
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
        cfg.setdefault("mc", {})["trajectories"] = _at_least(args.trials, 1, "--trials")
    n_traj = _at_least(int(_cfg_get(cfg, "mc", "trajectories")), 1, "trajectories in [mc]")
    n_samples = int(_cfg_get(cfg, "mc", "n_samples"))
    phi = _observable(cfg, P)

    paths = sample_trajectories(P, start, steps, seed, n_traj)  # path t: seed xor t
    lines = ["j,mean,stderr,exact,z\n"]
    cur = phi.values.copy()
    for j, est in enumerate(estimate_Lj_phi_steps(P, phi, start, steps, n_samples, seed)):
        exact = float(cur[start])
        z = (est.mean - exact) / est.stderr if est.stderr > 0 else 0.0
        lines.append(f"{j},{_fmt(est.mean)},{_fmt(est.stderr)},{_fmt(exact)},{_fmt(z)}\n")
        cur = P.matvec(cur)

    out = _out_dir(cfg, args)  # after every draw: a size beyond memory leaves no output
    traj_path = out / "trajectories.csv"
    with _writing(traj_path), open(traj_path, "w") as fh:
        fh.write("trial,step,state\n")
        for t, path in enumerate(paths.tolist()):
            fh.write("".join(f"{t},{s},{state}\n" for s, state in enumerate(path)))
    est_path = out / "estimates.csv"
    with _writing(est_path):
        est_path.write_text("".join(lines))
    print(f"simulate: {n_traj} trajectories, {steps + 1} estimates -> {out}")
    return 0


def integer(text: str) -> int:
    """An integer literal in any base Python accepts; argparse's error for a
    bad value names the type after this function ("invalid integer value")."""
    return int(text, 0)


#: flag -> argparse options, in help order.
_FLAGS = {
    "--config": {"help": "run configuration file (INI)"},
    "--out": {"help": "output directory"},
    "--seed": {"type": integer, "help": "master seed (u64)"},
    "--kernel": {"help": "kernel file path (overrides config)"},
    "--tol": {"type": float, "help": "solver tolerance (measure) or check tolerance (verify)"},
    "--measure": {"help": "measure file to use/decompose"},
    "--n-max": {"type": int, "help": "sup truncation horizon"},
    "--trials": {"type": int, "help": "randomized trial count"},
    "--checks": {"help": "comma list of check names or 'all'"},
}

#: command -> (runner, help, the flags it reads). A flag that sets a config
#: key writes it into the config before the config is hashed.
_COMMANDS = {
    "kernel-build": (cmd_kernel_build, "discretize a configured system", ("--config", "--out", "--seed")),
    "measure": (cmd_measure, "solve stationary/periodic measures",
                ("--config", "--out", "--seed", "--kernel", "--tol", "--measure")),
    "verify": (cmd_verify, "run theorem checks", tuple(_FLAGS)),
    "simulate": (cmd_simulate, "sample trajectories and estimates",
                 ("--config", "--out", "--seed", "--kernel", "--trials")),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ergodyn",
        description="Transfer-operator ergodic theory toolkit for noisy systems",
    )
    ap.add_argument("--version", action="version", version=f"ergodyn {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (_, summary, flags) in _COMMANDS.items():
        parser = sub.add_parser(command, help=summary)
        for flag in flags:
            parser.add_argument(flag, **_FLAGS[flag])
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 0 after --help/--version, 2 on bad usage
        return e.code
    try:
        return _COMMANDS[args.command][0](args)
    except (ConfigError, InvalidArgumentError) as e:
        print(f"error: invalid configuration: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # a configured size the machine cannot allocate
        print(f"error: invalid configuration: {e or 'out of memory'}", file=sys.stderr)
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
