"""End-to-end benchmark of the ergodyn CLI, with an optional traced run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verify-rotation-k512 --seed 1 --seconds 60 --trace 0

One client drives ``ergodyn.cli.main(argv)`` in this process through a closed
loop: ``kernel-build``, ``measure``, ``verify`` and ``simulate`` run in order,
each after the previous one returned, and the loop repeats while the next
iteration still fits in ``--seconds``, counted from the start of the run.
Every iteration passes the correctness gate in ``gate.py`` or counts its
commands as failed.

``--trace 0`` reports the end-to-end metrics (medians over the run's
iterations). ``--trace 1`` alternates untraced and traced iterations and
reports the per-layer metrics from ``tracing.py`` plus the tracing overhead.
The last line of standard output is the result object; the line before it
holds the details (environment, sample counts, spreads, failures).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

from tracing import RUN_CHECK, TARGETS, Tracer
from workloads import COMMAND_METRIC, COMMANDS, MC, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
MASK64 = (1 << 64) - 1

#: Fresh interpreters timed for ``setup_s`` (after one untimed warm-up that
#: fills the bytecode cache, which users do not pay on every run).
SETUP_SAMPLES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Files each command writes, for the same-seed determinism check.
OUTPUTS = {
    "kernel-build": ("kernel.txt",),
    "measure": ("measure_report.txt",),
    "verify": ("verify_report.txt",),
    "simulate": ("trajectories.csv", "estimates.csv"),
}

END_TO_END = {
    "wall_s": "s", "kernel_build_s": "s", "measure_s": "s", "verify_s": "s",
    "simulate_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
}

#: ergodyn.cli.CHECK_NAMES, which cannot be imported before the threads are pinned.
CHECK_NAMES = ("duality", "lemma1", "lemma2", "maximal", "corollary_c", "corollary_b",
               "birkhoff", "ergodic_limit", "periodic", "localization", "levelsets",
               "nonconvergence_empty")
#: Computed, not timed: K and nnz and the file size are gated against the
#: reference, flops = 2 nnz matvec-calls; the source line count is recorded only.
COMPUTED = {
    "computed.kernel.K": "count", "computed.kernel.nnz": "count",
    "computed.cli.kernel_file.bytes": "bytes", "computed.backend.matvec.flops": "flop",
    "computed.src.lines": "lines",
}
PER_LAYER = {
    **{f"{prefix}.{field}": unit
       for _, _, prefix in TARGETS
       for field, unit in (("s", "s"), ("self_s", "s"), ("calls", "count"))},
    **{f"{RUN_CHECK[2]}.{name}.s": "s" for name in CHECK_NAMES},
    **COMPUTED,
    "trace.overhead_s": "s",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads() -> int:
    """Fix the BLAS/OpenMP pool size; must run before NumPy is imported."""
    threads = nproc()
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def measure_setup() -> list:
    """Seconds for a fresh interpreter to ``import ergodyn.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import ergodyn.cli"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True, stdin=subprocess.DEVNULL)
        if i:
            samples.append(time.perf_counter() - t0)
    return samples


def import_ergodyn():
    sys.path.insert(0, str(SRC))
    import ergodyn
    import ergodyn.cli

    if Path(ergodyn.__file__).resolve().parent != SRC / "ergodyn":
        raise RuntimeError(f"imported ergodyn from {ergodyn.__file__}, not {SRC}")
    return ergodyn


def run_iteration(main, wl, cfg: Path, out: Path, seed: int, tracer=None) -> dict:
    """One closed-loop pass over the four commands; only the commands are timed."""
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    times, codes = {}, {}
    sink = io.StringIO()
    with (tracer.active() if tracer else nullcontext()), redirect_stdout(sink), redirect_stderr(sink):
        t_start = time.perf_counter()
        for command in COMMANDS:
            t0 = time.perf_counter()
            try:
                codes[command] = main(wl.argv(command, cfg, out, seed))
            except (Exception, SystemExit) as e:  # a traceback is a failed operation
                codes[command] = f"raised {type(e).__name__}: {e}"
            times[command] = time.perf_counter() - t0
        wall = time.perf_counter() - t_start
    return {"wall": wall, "times": times, "codes": codes, "log": sink.getvalue()}


def digests(out: Path) -> dict:
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        if (out / name).is_file() else None
        for names in OUTPUTS.values() for name in names
    }


class Gate:
    """Checks each iteration; the first in full, later ones by output digest."""

    def __init__(self, ref: dict, seed: int):
        self.ref, self.seed = ref, seed
        self.first = None  # digests of the first iteration
        self.kernel = {}  # K, nnz and file bytes of the first iteration's kernel
        self.attempted = 0
        self.failures = []  # (command, first message), one per failed command run

    def __call__(self, it: dict, out: Path) -> None:
        import gate  # imports NumPy, so only after pin_threads()

        fail = {c: [] for c in COMMANDS}
        for command, code in it["codes"].items():
            if code != 0:
                fail[command].append(code if isinstance(code, str) else f"exit code {code}")
        found = digests(out)
        if self.first is None:
            self.first = found
            checked, self.kernel = gate.check(out, self.ref, self.seed, MC)
            for command, msgs in checked.items():
                fail[command] += msgs
        else:
            for command, names in OUTPUTS.items():
                if any(found[n] != self.first[n] for n in names):
                    fail[command].append("outputs differ from the first iteration (same seed)")
        self.attempted += len(COMMANDS)
        self.failures += [(c, m) for c in COMMANDS for m in fail[c][:1]]


def sample_stats(values: list) -> dict:
    return {"n": len(values), "median": statistics.median(values),
            "min": min(values), "max": max(values), "values": values}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Returns (result object, detail object).

    ``seconds`` bounds the whole run, set-up and warm-up included: another
    pass starts only while one more pass of the last pass's length fits.
    """
    t_begin = time.perf_counter()
    wl = WORKLOADS[workload]
    threads = pin_threads()
    setup = measure_setup()
    ergodyn = import_ergodyn()
    import numpy
    import scipy

    if tuple(ergodyn.cli.CHECK_NAMES) != CHECK_NAMES:
        raise RuntimeError("ergodyn.cli.CHECK_NAMES changed; update perfbench/run.py")

    ref = json.loads((REFERENCE_DIR / f"{workload}.json").read_text())
    checker = Gate(ref, seed)
    untraced, traced = [], []
    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        warm = wl.small()
        cfg, out = work / "warm.cfg", work / "out"
        cfg.write_text(warm.config_text(out))
        run_iteration(ergodyn.cli.main, warm, cfg, out, seed)
        cfg = work / "run.cfg"
        cfg.write_text(wl.config_text(out))
        while True:
            t_pass = time.perf_counter()
            for tracer in ((None, Tracer()) if trace else (None,)):
                it = run_iteration(ergodyn.cli.main, wl, cfg, out, seed, tracer)
                checker(it, out)
                if tracer:
                    it["layers"] = tracer.summary()
                (traced if tracer else untraced).append(it)
            now = time.perf_counter()
            if (now - t_begin) + (now - t_pass) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    samples = {"wall_s": [it["wall"] for it in untraced]}
    for command, metric in COMMAND_METRIC.items():
        samples[metric] = [it["times"][command] for it in untraced]
    samples["setup_s"] = setup
    if trace:
        metrics = layer_metrics(traced, untraced, checker.kernel)
    else:
        metrics = {name: statistics.median(samples[name]) for name in samples}
        metrics["peak_rss_mb"] = peak_rss_mb
    expected = PER_LAYER if trace else END_TO_END
    env_ok = ergodyn.BACKEND == "numpy"
    failed = len(checker.failures)
    result = {
        "correct": failed == 0 and env_ok,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in expected.items()},
    }
    detail = {
        "workload": workload,
        "why": wl.why,
        "loop": "closed, 1 client, commands in order",
        "seed": seed,
        "reference_seed": ref["seed"],
        "held_out_seed": seed != ref["seed"],
        "trace": trace,
        "iterations": {"untraced": len(untraced), "traced": len(traced)},
        "samples": {name: sample_stats(v) for name, v in samples.items()},
        "peak_rss_mb": {"n": 1, "value": peak_rss_mb},
        "error_rate": {"value": failed / max(checker.attempted, 1), "failed": failed,
                       "attempted": checker.attempted},
        "failures": [f"{c}: {m}" for c, m in checker.failures[:10]],
        "env": {
            "nproc": nproc(), "blas_threads": threads, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "ergodyn": ergodyn.__version__, "backend": ergodyn.BACKEND,
            "backend_ok": env_ok,
        },
    }
    return result, detail


def layer_metrics(traced: list, untraced: list, kernel: dict) -> dict:
    """Per-layer medians over traced iterations, plus computed counters."""
    metrics = {}
    for name in PER_LAYER:
        if name.startswith(("computed.", "trace.")):
            continue
        prefix, field = name.rsplit(".", 1)
        metrics[name] = statistics.median(
            it["layers"].get(prefix, {}).get(field, 0) for it in traced
        )
    metrics["computed.kernel.K"] = kernel.get("K", 0)
    metrics["computed.kernel.nnz"] = kernel.get("nnz", 0)
    metrics["computed.cli.kernel_file.bytes"] = kernel.get("bytes", 0)
    metrics["computed.backend.matvec.flops"] = (
        2 * metrics["computed.kernel.nnz"] * metrics["backend.matvec.calls"])
    metrics["computed.src.lines"] = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "ergodyn").rglob("*.py"))
    )
    metrics["trace.overhead_s"] = (statistics.median(it["wall"] for it in traced)
                                   - statistics.median(it["wall"] for it in untraced))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="seed for verify and simulate")
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ergodyn" / "cli.py").is_file():
        print(f"perfbench: no ergodyn sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    result, detail = run(args.workload, args.seed & MASK64, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
