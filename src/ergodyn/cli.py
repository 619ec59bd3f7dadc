"""Command-line driver: build kernels, solve measures, verify, simulate.

Commands
--------
kernel-build   discretize a configured noisy system and write a kernel file
measure        stationary/periodic measures and decompositions, as a report
verify         run named checks against a kernel, one report per run
simulate       sample trajectories and operator estimates to CSV

Exit codes: 0 success (verify: all checks passed), 1 a check failed,
2 invalid configuration (including an output, stdout too, that cannot be
written), 3 invalid kernel data, 4 an iterative solve did not converge, 5 a
check precondition (including stationarity) was violated, 130 interrupted.

File formats are plain text and deterministic: reruns with the same seed
and configuration are byte-identical. Floats are written with 17
significant digits, which round-trips IEEE doubles exactly. Next to each
kernel file, ``kernel-build`` writes the kernel's CSR arrays as a binary
sidecar (``kernel.txt.records``), which loaders take only while its digest
matches the text; the text stays the canonical file.
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
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace
from functools import cached_property
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
    _limit_group,
    _windowed_limit,
    birkhoff_trials,
    check_levelset_invariance,
    corollary_trials,
    duality_trials,
    ergodic_limit_trials,
    lemma1_trials,
    lemma2_trials,
    localization_trials,
    maximal_trials,
    nonconvergence_tol,
    nonconvergence_trials,
    partial_sum_extremes,
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

#: One ``row col probability`` record of a kernel file, as the text parse
#: reads it.
_RECORD = np.dtype([("row", "<i8"), ("col", "<i8"), ("prob", "<f8")])

#: The sidecar's payload: ``indptr``, ``indices`` and ``data``, in this order
#: and these types (little-endian on every host).
_INDPTR, _INDICES, _DATA = np.dtype("<i8"), np.dtype("<i4"), np.dtype("<f8")

#: The largest K whose columns fit ``_INDICES``; a wider kernel gets no sidecar.
_SIDECAR_MAX_K = int(np.iinfo(_INDICES).max)

#: The sidecar's layout, hashed into its digest: a file of any other layout,
#: even one of the same size, never matches.
_SIDECAR_TAG = b"ergodyn-kernel-csr 1: indptr <i8, indices <i4, data <f8\n"

_DIGEST_BYTES = hashlib.sha256().digest_size
_HASH_CHUNK = 1 << 20


def save_kernel(P: TransitionKernel, path) -> None:
    """Write a kernel file, one ``row col probability`` record per nonzero,
    and its CSR sidecar.

    Each ``_WRITE_BLOCK`` of records goes to the text from slices of P's
    arrays, so the text is never held in memory as a whole.
    ``_format.records`` formats a block by array arithmetic; a block with a
    probability it cannot certify is formatted by CPython's ``%`` instead,
    to the same bytes. The sidecar is a digest, then the payload: P's
    ``indptr``, ``indices`` and ``data`` as raw ``_INDPTR``, ``_INDICES``
    and ``_DATA``, 32 + 8 (K + 1) + 12 nnz bytes in all. The digest binds
    the layout tag, the text's bytes and the payload's bytes (``_binding``).
    Both files are hashed as they are written and the digest goes in last,
    so a write that stops early leaves a sidecar no loader takes. A kernel
    whose columns do not fit ``<i4`` (K > 2^31 - 1) gets no sidecar.
    """
    rows = np.repeat(np.arange(P.K), np.diff(P.indptr))
    fields = _format.int_fields(P.K)
    text, payload = hashlib.sha256(), hashlib.sha256()
    with open(path, "wb") as fh, _sidecar_sink(path, P.K) as side:
        def put(data):
            fh.write(data)
            text.update(data)

        def put_side(array):
            side.write(array)
            payload.update(array)

        put(f"{KERNEL_MAGIC}\nK {P.K}\ndomain {P.partition.domain_kind}\n".encode())
        put(("boundaries " + " ".join(_fmt(b) for b in P.partition.boundaries) + "\n").encode())
        put(f"nnz {P.nnz}\n".encode())
        side.write(bytes(_DIGEST_BYTES))
        put_side(P.indptr.astype(_INDPTR, copy=False))
        for lo in range(0, P.nnz, _WRITE_BLOCK):
            block = slice(lo, lo + _WRITE_BLOCK)
            r, c, x = rows[block], P.indices[block], P.data[block]
            data = _format.records(fields, r, c, x)
            if data is None:
                flat = [None] * (3 * r.size)
                flat[0::3], flat[1::3], flat[2::3] = r.tolist(), c.tolist(), x.tolist()
                data = (("%d %d %.17g\n" * r.size) % tuple(flat)).encode()
            put(data)
            put_side(c.astype(_INDICES))
        put_side(P.data.astype(_DATA, copy=False))
        side.seek(0)
        side.write(_binding(text, payload))


def _sidecar(path) -> Path:
    """The binary CSR sidecar of the kernel file at path (``save_kernel``)."""
    return Path(f"{path}.records")


def _open_regular(path, flags: int):
    """A binary file object on path opened with flags; OSError unless path is
    a regular file. O_NONBLOCK keeps a FIFO from blocking the open."""
    fd = os.open(path, flags | os.O_NONBLOCK, 0o666)
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        raise OSError(f"{path} is not a regular file")
    return os.fdopen(fd, "rb" if flags == os.O_RDONLY else "wb")


def _sidecar_sink(path, k: int):
    """The sidecar of the kernel file at path, opened for writing; the null
    device when it cannot be (a directory or a FIFO in its place) or when
    columns of a K x K kernel do not fit ``_INDICES``, as the text is
    complete without it."""
    if k > _SIDECAR_MAX_K:
        return open(os.devnull, "wb")
    try:
        return _open_regular(_sidecar(path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    except OSError:
        return open(os.devnull, "wb")


def _file_digest(path):
    """SHA-256 of a file's bytes, read into one 1 MiB buffer chunk by chunk."""
    digest, chunk = hashlib.sha256(), bytearray(_HASH_CHUNK)
    view = memoryview(chunk)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(chunk):
            digest.update(view[:n])
    return digest


def _binding(text, payload) -> bytes:
    """The sidecar digest: one hash of the layout tag and of the text's and
    the payload's hashes."""
    return hashlib.sha256(_SIDECAR_TAG + text.digest() + payload.digest()).digest()


def _sidecar_csr(path, k: int, nnz: int):
    """The CSR arrays (indptr, indices, data) of the kernel file at path,
    read from its sidecar, or None.

    The sidecar is taken only if it is a regular file, its size is that of a
    digest and the payload of a K x K kernel with nnz entries, and its digest
    matches the text file and the arrays read. In every other case (no
    sidecar, or a truncated, tampered, stale or older-layout one) the caller
    parses the text. The arrays are read only after the size check, so no
    read asks for more than the file holds. They are the kernel's own CSR
    arrays, so the caller hands them to the validator with no sort.
    """
    layout = ((_INDPTR, k + 1), (_INDICES, nnz), (_DATA, nnz))
    size = _DIGEST_BYTES + sum(dt.itemsize * n for dt, n in layout)
    try:
        with _open_regular(_sidecar(path), os.O_RDONLY) as fh:
            if min(k, nnz) < 0 or os.fstat(fh.fileno()).st_size != size:
                return None
            digest = fh.read(_DIGEST_BYTES)
            arrays = tuple(np.fromfile(fh, dt, n) for dt, n in layout)
        payload = hashlib.sha256()
        for array in arrays:
            payload.update(array)
        if _binding(_file_digest(path), payload) != digest:
            return None
    except (OSError, ValueError):
        return None
    return arrays


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

    The arrays come from the file's sidecar when ``_sidecar_csr`` takes it,
    and go to the kernel's validator with no sort. Otherwise the records are
    parsed from the text, in chunks from the open file, so the text is never
    held in memory as a whole; they are range-checked, stably sorted into
    row-major order and checked for duplicates. ``%.17g`` round-trips every
    double, so the kernel is the same either way.
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
            csr = _sidecar_csr(path, k, nnz)
            if csr is None:
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
    if csr is not None:
        return _csr_to_kernel(*csr, partition, f"kernel file {path}")
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
        "p": (int, 2),
        "n_cap": (int, 2**20),
        "trials": (int, 100),
        "tol": (float, 1e-10),
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
    # a converged limit needs windows at horizons 2L and 4L (L >= 1): none fits under n_cap < 4
    for section, key, least in (("solver", "max_iter", 1), ("checks", "n_max", 1), ("checks", "n_cap", 4)):
        if section in cfg:
            _at_least(cfg[section][key], least, f"{key} in [{section}]")
    if "checks" in cfg:
        _within_cap(cfg["checks"]["n_max"], cfg["checks"]["n_cap"], "n_max in [checks]")
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


def _within_cap(n_max: int, n_cap: int, what: str) -> int:
    """The partial-sum horizon n_max; it may not pass the horizon cap n_cap,
    so that one key bounds every horizon a check runs."""
    if n_max > n_cap:
        raise ConfigError(f"{what} must be at most n_cap ({n_cap}), got {n_max}")
    return n_max


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
    """One check's part of a verify run: its name, random stream and trial
    count, and the run whose shared passes, mixture measure and closed
    classes it reads."""

    name: str
    P: TransitionKernel
    stationaries: list
    cfg: dict
    rng: np.random.Generator
    trials: int
    shared: "_Verify"

    def opt(self, key):
        """A [checks] setting."""
        return _cfg_get(self.cfg, "checks", key)

    def uniform(self, *shape) -> np.ndarray:
        """A block of uniform [0, 1) draws, in one call. A shape too large to
        allocate fails at once, before any draw: past the address space with
        InvalidArgumentError, beyond memory with MemoryError (both exit 2)."""
        _backend.require_addressable(f"trials {self.trials}", *shape)
        return self.rng.random(shape)

    def observables(self, n=None) -> np.ndarray:
        """n (default: the trial count) observables uniform on [-1, 1), drawn
        in order, as the columns of a K x n block. 2r - 1 has the bits of
        ``rng.uniform(-1, 1)``, which computes -1 + 2r."""
        values = self.uniform(self.trials if n is None else n, self.P.K)
        return np.ascontiguousarray((2.0 * values - 1.0).T)

    @property
    def mix(self) -> Measure:
        return self.shared.mix

    @property
    def classes(self) -> list:
        return self.shared.classes

    def sums(self):
        """This check's first columns of the run's partial-sum block and of
        its ``partial_sum_extremes``: (values, (max S_n, max S_n / n,
        min S_n / n))."""
        n = _SUM_READERS[self.name](self)
        values, extremes = self.shared.sums
        return values[:, :n], tuple(a[:, :n] for a in extremes)


#: check -> the number of columns it reads of the partial-sum block: a
#: corollary reads trials // (number of closed classes), at least one.
_SUM_READERS = {"maximal": lambda r: r.trials, **dict.fromkeys(
    ("corollary_c", "corollary_b"), lambda r: max(1, r.trials // max(1, len(r.classes))))}

#: check -> its group in the limit pass, from its run and its observables.
#: periodic's columns are its observables, each once per measure that
#: P^p fixes, and their horizons count steps of P^p.
_LIMIT_READERS = {
    "birkhoff": lambda r, v: _limit_group(r.P, 1, v, [r.mix], r.opt("tol")),
    "ergodic_limit": lambda r, v: _limit_group(r.P, 1, v, r.stationaries[:1], r.opt("tol")),
    "periodic": lambda r, v: _limit_group(r.shared.power, r.opt("p"), v, r.shared.fixed, r.opt("tol")),
    "nonconvergence_empty": lambda r, v: (
        r.P, 1, v, [np.arange(r.P.K)] * v.shape[1], [nonconvergence_tol(0.05, -0.05)] * v.shape[1]),
}


class _Verify:
    """One verify run of the named checks, with the work they share done once.

    Two passes are shared, each a cached property, run by the first check
    that reads it: ``sums``, one stream of partial sums over one K x T block
    drawn from maximal's stream, which ``maximal`` and both corollaries read;
    and ``limits``, one doubling-horizon pass with a group of columns for
    each of ``birkhoff``, ``ergodic_limit``, ``periodic`` and
    ``nonconvergence_empty``. periodic's group has stride p and, for p a
    power of two up to 2^10, reads P's own squares, so the four checks share
    one squaring sequence. After each check, a pass that no later named check
    reads is dropped, so it holds no memory past its readers, and so are
    periodic's measures and P^p after periodic. A shared pass raises for no
    column: each check raises for its own columns, in its turn, as it would
    on its own. The mixture measure and the closed classes are found once
    per run.
    """

    def __init__(self, P, stationaries, cfg, master_seed, names):
        self.P, self.stationaries, self.cfg, self.master_seed = P, stationaries, cfg, master_seed
        self.names = list(names)

    def check(self, name) -> _CheckRun:
        """Check name's run: SeedSequence([master_seed, i]) for its index i in
        ``CHECKS``, and its trial count, capped at 20 for an expensive check."""
        seed = np.random.SeedSequence(
            [int(self.master_seed) & _backend._MASK64, CHECK_NAMES.index(name)])
        trials = _cfg_get(self.cfg, "checks", "trials")
        trials = min(trials, 20) if CHECKS[name][0] else trials
        rng = np.random.default_rng(seed)
        return _CheckRun(name, self.P, self.stationaries, self.cfg, rng, trials, self)

    def trial_reports(self, name) -> list:
        """Run check name; then drop each pass that no later named check reads."""
        reports = CHECKS[name][1](self.check(name))
        later = self.names[self.names.index(name) + 1:]
        for key, readers in (("sums", _SUM_READERS), ("limits", _LIMIT_READERS),
                             ("fixed", ("periodic",)), ("power", ("periodic",))):
            if not any(n in readers for n in later):
                self.__dict__.pop(key, None)
        return reports

    @cached_property
    def mix(self) -> Measure:
        return _mixture_measure(self.stationaries)

    @cached_property
    def classes(self) -> list:
        return closed_classes(self.P)

    @cached_property
    def sums(self):
        """The partial-sum block, as wide as its widest named reader, and its
        ``partial_sum_extremes``."""
        width = max(_SUM_READERS[n](self.check(n)) for n in self.names if n in _SUM_READERS)
        r = self.check("maximal")
        values = r.observables(width)
        return values, partial_sum_extremes(self.P, values, r.opt("n_max"))

    @cached_property
    def fixed(self) -> list:
        """The measures that P^p fixes, from P's class solves."""
        return [nu for nu, _ in periodic_measures(
            self.P, _cfg_get(self.cfg, "checks", "p"), _cfg_get(self.cfg, "solver", "tol"),
            _cfg_get(self.cfg, "solver", "max_iter"))]

    @cached_property
    def power(self) -> TransitionKernel:
        """The p-step kernel P^p, formed once."""
        return kernel_power(self.P, _cfg_get(self.cfg, "checks", "p"))

    @cached_property
    def limits(self) -> dict:
        """Each named limit check -> (its observables, its group's result of
        one limit pass: limits, previous windows, residuals and horizons)."""
        runs = [self.check(n) for n in self.names if n in _LIMIT_READERS]
        blocks = [r.observables() for r in runs]
        groups = [_LIMIT_READERS[r.name](r, values) for r, values in zip(runs, blocks)]
        shares = _windowed_limit(self.P, groups, _cfg_get(self.cfg, "checks", "n_cap"))
        return {r.name: (values, share) for r, values, share in zip(runs, blocks, shares)}


def _run_duality(r: _CheckRun) -> list:
    """Each trial draws an observable uniform on [-1, 1), then a measure of
    weights uniform on [1e-3, 1 + 1e-3), normalised."""
    draws = r.uniform(r.trials, 2, r.P.K)
    values = 2.0 * draws[:, 0] - 1.0
    weights = draws[:, 1] + 1e-3
    weights /= weights.sum(axis=1, keepdims=True)
    return duality_trials(r.P, np.ascontiguousarray(values.T), np.ascontiguousarray(weights.T))


def _run_maximal(r: _CheckRun) -> list:
    values, extremes = r.sums()
    return maximal_trials(r.P, r.mix, values, r.opt("n_max"), r.opt("tol"), extremes)


def _run_corollary(r: _CheckRun) -> list:
    """corollary_c or corollary_b on every closed class, at the sharp level
    of each column and class, on its first columns of the partial-sum block."""
    values, extremes = r.sums()
    return corollary_trials(r.name, r.P, r.mix, values, r.classes, None,
                            r.opt("n_max"), r.opt("tol"), extremes)


def _run_birkhoff(r: _CheckRun) -> list:
    values, share = r.shared.limits["birkhoff"]
    return birkhoff_trials(r.P, r.mix, values, r.opt("tol"), r.opt("n_cap"), share)[1]


def _run_ergodic_limit(r: _CheckRun) -> list:
    values, share = r.shared.limits["ergodic_limit"]
    return ergodic_limit_trials(r.P, r.stationaries[0], values, r.opt("tol"), r.opt("n_cap"), share)


def _run_nonconvergence(r: _CheckRun) -> list:
    """No state may oscillate above 0.05 and below -0.05."""
    values, share = r.shared.limits["nonconvergence_empty"]
    return nonconvergence_trials(r.P, values, 0.05, -0.05, r.opt("n_cap"), share)


def _run_levelsets(r: _CheckRun) -> list:
    """The class eigenfunction (class k takes the value k) split at every
    k + 1/2 between two classes; one class has the split at 1/2 alone."""
    phi = _class_eigenfunction(r.P, r.classes)
    return [check_levelset_invariance(r.P, r.mix, phi, k + 0.5, r.opt("tol"))
            for k in range(max(len(r.classes) - 1, 1))]


def _run_periodic(r: _CheckRun) -> list:
    """The periodic theorem on the measures fixed by the p-step kernel P^p,
    read from P's class solves; P^p is formed once per run."""
    values, share = r.shared.limits["periodic"]
    return periodic_trials(r.P, r.opt("p"), r.shared.fixed, values, r.opt("tol"), r.opt("n_cap"),
                           share, r.shared.power)


#: check name -> (expensive, runner). An expensive check reads the limit
#: pass, which squares dense matrices, and runs at most 20 trials. A runner takes a ``_CheckRun`` and
#: returns the check's trial reports. Check i draws from
#: SeedSequence([seed, i]), except that maximal and both corollaries read one
#: block drawn from maximal's stream, so the order is part of every report: a
#: new check goes last.
CHECKS = {
    "duality": (False, _run_duality),
    "lemma1": (False, lambda r: lemma1_trials(r.P, r.observables())),
    "lemma2": (False, lambda r: lemma2_trials(r.P, r.mix, r.observables(), r.opt("tol"))),
    "maximal": (False, _run_maximal),
    "corollary_c": (False, _run_corollary),
    "corollary_b": (False, _run_corollary),
    "birkhoff": (True, _run_birkhoff),
    "ergodic_limit": (True, _run_ergodic_limit),
    "periodic": (True, _run_periodic),
    "localization": (False, lambda r: localization_trials(
        r.P, r.mix, r.classes, r.observables(), r.opt("tol"))),
    "levelsets": (False, _run_levelsets),
    "nonconvergence_empty": (True, _run_nonconvergence),
}
CHECK_NAMES = tuple(CHECKS)


def run_check(name, P, stationaries, cfg, master_seed, run=None) -> "CheckReport":
    """Run one named check with seeded randomness and aggregate its trials.

    run is the ``_Verify`` run the check belongs to, whose shared passes it
    reads; by default a run of this check alone. Its trials run together:
    their random inputs are drawn in one call, in trial order, as the
    columns of one K x T block, and the check's preconditions are evaluated
    once, before any trial. Each report carries its ``ge``/``le`` direction,
    by which ``_worst`` ranks the trials. The check draws from its own
    stream in any run, so its report is the one it gets alone.
    """
    if run is None:
        run = _Verify(P, stationaries, cfg, master_seed, [name])
    return _worst(run.trial_reports(name))


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


def _emit(stream, line: str, end: str = "\n") -> None:
    """Print a line to stream and flush it (print skips a stdout of None).

    On a failed write the stream's file descriptor is pointed at the null
    device before the OSError goes on, so that what is left in its buffer
    is not written again, and does not fail again, at exit.
    """
    try:
        print(line, end=end, file=stream, flush=True)
    except OSError:
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)
        except (OSError, ValueError):  # no file descriptor behind the stream
            pass
        raise


def _say(line: str, end: str = "\n") -> None:
    """Print a line to stdout; a failed write is an output the run cannot
    make (exit 2)."""
    try:
        _emit(sys.stdout, line, end)
    except OSError as e:
        raise ConfigError(f"cannot write stdout: {e}") from None


def _complain(line: str) -> None:
    """Print an error line to stderr. A stderr that cannot be written (full,
    or closed) loses the line but not the run's exit code."""
    if sys.stderr is not None:  # print(file=None) would write the line to stdout
        with suppress(OSError):
            _emit(sys.stderr, line)


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
    _say(f"kernel-build: K={P.K} nnz={P.nnz} max_row_dev={dev:.3e} -> {path}")
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
    _say(f"measure: {len(ms)} stationary, {len(per)} periodic(p={p}) -> {path}")
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
        n_max = _at_least(args.n_max, 1, "--n-max")
        cfg.setdefault("checks", {})["n_max"] = _within_cap(
            n_max, _cfg_get(cfg, "checks", "n_cap"), "--n-max")
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
    run = _Verify(P, stationaries, cfg, seed, requested)
    results = []
    for name in requested:
        rep = run_check(name, P, stationaries, cfg, seed, run)
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
    _say(f"verify: {n_pass}/{len(results)} checks passed -> {path}")
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
    _say(f"simulate: {n_traj} trajectories, {steps + 1} estimates -> {out}")
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
    """Run one command; return its exit code. No traceback reaches the user:
    each failure is one line on stderr (``_complain``) and a code of the
    exit-code table."""
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:  # argparse exits 0 after --help/--version, 2 on bad usage
            code = e.code
        else:
            code = _COMMANDS[args.command][0](args)
        _say("", end="")  # flush what argparse printed
        return code
    except KeyboardInterrupt:
        code, line = 130, "interrupted"
    except (ConfigError, InvalidArgumentError) as e:
        code, line = 2, f"invalid configuration: {e}"
    except MemoryError as e:  # a configured size the machine cannot allocate
        code, line = 2, f"invalid configuration: {e or 'out of memory'}"
    except (InvalidKernelError, InvalidMeasureError, DimensionError) as e:
        code, line = 3, f"invalid data: {e}"
    except ConvergenceError as e:
        code, line = 4, f"no convergence: {e}"
    except (PreconditionError, NotStationaryError) as e:
        code, line = 5, f"precondition violated: {e}"
    _complain(f"error: {line}")
    return code


if __name__ == "__main__":
    sys.exit(main())
