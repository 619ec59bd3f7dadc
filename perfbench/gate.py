"""Correctness gate for one iteration's output files.

The ``read_*`` functions reduce each command's files to the quantities the
gate compares (``summarize`` gathers all of them for ``record.py``).
``check`` judges each command on its own files, against the recorded
reference and against an independent re-computation from the kernel file:

* integer outputs (K, nnz, supports, class and pass counts, minimal periods,
  sampled states) must match exactly;
* float outputs must agree within the tolerances the library asserts, never
  byte for byte, so a change of summation order passes.

Sampled states and Monte Carlo means are checked for every seed by replaying
the splitmix64 inverse-CDF sampler here, on the kernel read from the file;
at the reference seed they are also compared with the recorded values.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix

MASK64 = (1 << 64) - 1
_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV53 = 1.0 / 9007199254740992.0

#: Tolerances, taken from what the library and its tests assert.
SOLVER_TOL = 1e-12  # [solver] tol default: stationary residual bound
ROW_SUM_TOL = 1e-12  # TransitionKernel row-sum check
ULAM_ROW_TOL = 1e-13  # per-entry drift allowed in Ulam rows
MEASURE_TOL = 1e-8  # stationary measure l1 bound of the Ulam fidelity criterion
KERNEL_BYTES_SHARE = 0.05  # printed length shifts when float rounding shifts


# ---------------------------------------------------------------------------
# Reading the outputs
# ---------------------------------------------------------------------------

def read_report(path: Path) -> dict:
    """key=value report -> {section title: {key: value}}; header under ''."""
    sections = {"": {}}
    current = sections[""]
    for line in path.read_text().splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], {})
        elif "=" in line:
            key, value = line.split("=", 1)
            current[key] = value
    return sections


def read_kernel(path: Path) -> dict:
    with open(path) as fh:
        head = [next(fh).split() for _ in range(5)]
    if head[0] != ["ergodyn-kernel", "1"]:
        raise ValueError(f"bad kernel header {head[0]}")
    k, nnz = int(head[1][1]), int(head[4][1])
    body = np.loadtxt(path, skiprows=5, ndmin=2)
    rows, cols = body[:, 0].astype(np.int64), body[:, 1].astype(np.int64)
    if rows.size and not (0 <= min(rows.min(), cols.min()) and max(rows.max(), cols.max()) < k):
        raise ValueError("kernel index out of range")
    return {
        "K": k,
        "nnz": nnz,
        "entries": body.shape[0],
        "bytes": path.stat().st_size,
        "boundaries": np.array([float(t) for t in head[3][1:]]),
        "rows": rows,
        "cols": cols,
        "data": body[:, 2],
        "indptr": np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=k)))),
    }


def ranges(indices) -> str:
    """Sorted integers -> compact '0-3,7,9-12' form."""
    out, idx = [], [int(i) for i in indices]
    i = 0
    while i < len(idx):
        j = i
        while j + 1 < len(idx) and idx[j + 1] == idx[j] + 1:
            j += 1
        out.append(str(idx[i]) if i == j else f"{idx[i]}-{idx[j]}")
        i = j + 1
    return ",".join(out)


def _rows_text(states) -> list:
    return [" ".join(str(int(s)) for s in row) for row in states]


def _support_text(text: str) -> str:
    return ranges(int(t) for t in text.split(",") if t)


def _row_fingerprints(kern: dict) -> np.ndarray:
    """sum_j P_ij sin(1.3 j + 0.1) for every row i: moves when any entry of row i moves."""
    weighted = kern["data"] * np.sin(1.3 * kern["cols"] + 0.1)
    return np.add.reduceat(weighted, kern["indptr"][:-1]) if weighted.size else weighted


def read_measure(out_dir: Path) -> dict:
    meas = read_report(out_dir / "measure_report.txt")
    stationary = []
    for k in range(int(meas[""]["stationary_count"])):
        sec = meas[f"stationary {k}"]
        w = np.array([float(t) for t in sec["weights"].split()])
        x = np.arange(w.size) / w.size
        stationary.append({
            "support": _support_text(sec["support"]),
            "ergodic": sec["ergodic"] == "true",
            "residual": float(sec["residual"]),
            "moments": [math.fsum(w * x**m) for m in range(4)],
            "weights": w,
        })
    per_title = next(t for t in meas if t.startswith("periodic p="))
    per = meas[per_title]
    periodic = [
        {"minimal_period": int(per[f"minimal_period_{k}"]),
         "support": _support_text(per[f"support_{k}"])}
        for k in range(int(per["count"]))
    ]
    return {"stationary": stationary, "periodic_title": per_title, "periodic": periodic}


def read_verify(out_dir: Path) -> dict:
    ver = read_report(out_dir / "verify_report.txt")
    checks = {}
    for title, sec in ver.items():
        if title.startswith("check "):
            checks[title[len("check "):]] = {
                "passed": sec["passed"] == "true",
                "witnesses": sec["witnesses"] if sec["witnesses"] == "-"
                else _support_text(sec["witnesses"]),
                "iterations_used": int(sec["iterations_used"]),
            }
    return {"checks": checks, "verify_passed": int(ver["summary"]["passed"]),
            "verify_total": int(ver["summary"]["total"])}


def read_simulate(out_dir: Path) -> dict:
    traj = np.loadtxt(out_dir / "trajectories.csv", delimiter=",", skiprows=1,
                      dtype=np.int64, ndmin=2)
    n_traj = int(traj[:, 0].max()) + 1
    est = np.loadtxt(out_dir / "estimates.csv", delimiter=",", skiprows=1, ndmin=2)
    return {"trajectories": _rows_text(traj[:, 2].reshape(n_traj, -1)), "estimates": est}


def summarize(out_dir: Path) -> dict:
    """Everything the gate compares, from one iteration's files."""
    return {"kernel": read_kernel(out_dir / "kernel.txt"), **read_measure(out_dir),
            **read_verify(out_dir), **read_simulate(out_dir)}


# ---------------------------------------------------------------------------
# Independent replay of the samplers
# ---------------------------------------------------------------------------

def _mix64(z):
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _row_cumsums(kern: dict) -> np.ndarray:
    # per-row running sums, in the same order as the sampler's, so the
    # inverse-CDF comparisons below see identical partial sums
    cum = np.empty_like(kern["data"])
    ip = kern["indptr"]
    for i in range(kern["K"]):
        cum[ip[i]:ip[i + 1]] = np.cumsum(kern["data"][ip[i]:ip[i + 1]])
    return cum


def _draw(kern, cum, states, stream):
    """Advance each stream once and take one inverse-CDF step per state."""
    stream = stream + _GOLD
    u = (_mix64(stream) >> np.uint64(11)).astype(np.float64) * _INV53
    lo, hi = kern["indptr"][states], kern["indptr"][states + 1]
    a, b = lo.copy(), hi.copy()
    while True:  # first position in the row whose running sum exceeds u
        active = a < b
        if not active.any():
            break
        mid = (a + b) // 2
        go = active & (cum[np.minimum(mid, cum.size - 1)] <= u)
        a = np.where(go, mid + 1, a)
        b = np.where(active & ~go, mid, b)
    return kern["cols"][np.minimum(a, hi - 1)], stream


def replay(kern: dict, seed: int, start: int, steps: int, n_traj: int, n_samples: int):
    """Trajectories and endpoint estimates the simulate command must produce."""
    cum = _row_cumsums(kern)
    master = np.uint64(seed & MASK64)
    stream = _mix64(master ^ np.arange(n_traj, dtype=np.uint64))
    states = np.full(n_traj, start, dtype=np.int64)
    paths = [states]
    for _ in range(steps):
        states, stream = _draw(kern, cum, states, stream)
        paths.append(states)
    phi = 0.5 * (kern["boundaries"][:-1] + kern["boundaries"][1:])
    estimates = []
    for j in range(steps + 1):
        stream = _mix64(master ^ np.arange(n_samples, dtype=np.uint64))
        ends = np.full(n_samples, start, dtype=np.int64)
        for _ in range(j):
            ends, stream = _draw(kern, cum, ends, stream)
        vals = phi[ends]
        mean = math.fsum(vals) / n_samples
        var = math.fsum((vals - mean) ** 2) / (n_samples - 1)
        estimates.append((mean, math.sqrt(var / n_samples)))
    return _rows_text(np.stack(paths, axis=1)), estimates


def exact_column(kern: dict, start: int, steps: int) -> list:
    """(L^j phi)(start) for j = 0..steps with phi the cell midpoints."""
    P = csr_matrix((kern["data"], kern["cols"], kern["indptr"]), shape=(kern["K"],) * 2)
    cur = 0.5 * (kern["boundaries"][:-1] + kern["boundaries"][1:])
    out = []
    for _ in range(steps + 1):
        out.append(float(cur[start]))
        cur = P @ cur
    return out


# ---------------------------------------------------------------------------
# Reference record and comparison
# ---------------------------------------------------------------------------

def reference_record(summary: dict, seed: int) -> dict:
    """What ``record.py`` stores for a workload (seed code, reference seed)."""
    kern = summary["kernel"]
    return {
        "seed": seed,
        "kernel": {"K": kern["K"], "nnz": kern["nnz"], "bytes": kern["bytes"],
                   "row_fingerprints": _row_fingerprints(kern).tolist()},
        "stationary": [{k: v for k, v in s.items() if k not in ("residual", "weights")}
                       for s in summary["stationary"]],
        "periodic_title": summary["periodic_title"],
        "periodic": summary["periodic"],
        "checks": summary["checks"],
        "exact": summary["estimates"][:, 3].tolist(),
        "at_seed": {
            "trajectories": summary["trajectories"],
            "mean": summary["estimates"][:, 1].tolist(),
            "stderr": summary["estimates"][:, 2].tolist(),
        },
    }


def _close(a, b, tol) -> bool:
    return bool(np.all(np.abs(np.asarray(a, float) - np.asarray(b, float)) <= tol))


def check_kernel(kern: dict, rk: dict) -> list:
    """kernel-build: exact structure, stochastic rows, entries within the Ulam drift."""
    msgs = []
    for key in ("K", "nnz"):
        if kern[key] != rk[key]:
            msgs.append(f"kernel {key} {kern[key]} != reference {rk[key]}")
    if kern["entries"] != kern["nnz"]:
        msgs.append(f"kernel file has {kern['entries']} entries, header says {kern['nnz']}")
    if abs(kern["bytes"] - rk["bytes"]) > KERNEL_BYTES_SHARE * rk["bytes"]:
        msgs.append(f"kernel file {kern['bytes']} bytes, reference {rk['bytes']}")
    if kern["boundaries"].size != kern["K"] + 1:
        msgs.append("boundary count does not match K")
    if kern["entries"]:
        sums = np.add.reduceat(kern["data"], kern["indptr"][:-1])
        if not _close(sums, 1.0, ROW_SUM_TOL) or kern["data"].min() < 0.0:
            msgs.append("kernel rows are not stochastic within 1e-12")
        if np.any(np.diff(kern["rows"]) < 0):
            msgs.append("kernel rows are not in order")
    if kern["K"] == rk["K"] and not np.all(
        np.abs(_row_fingerprints(kern) - rk["row_fingerprints"])
        <= ULAM_ROW_TOL * np.diff(kern["indptr"])
    ):
        msgs.append("kernel rows drifted from the reference beyond 1e-13 per entry")
    return msgs


def check_measure(got: dict, kern: dict, ref: dict) -> list:
    """measure: structure exact, residuals within the solver tolerance."""
    msgs = []
    P = csr_matrix((kern["data"], kern["cols"], kern["indptr"]), shape=(kern["K"],) * 2)
    if len(got["stationary"]) != len(ref["stationary"]):
        msgs.append("stationary measure count differs from the reference")
    for have, want in zip(got["stationary"], ref["stationary"]):
        w = have["weights"]
        if have["support"] != want["support"] or have["ergodic"] != want["ergodic"]:
            msgs.append("stationary support or ergodicity differs from the reference")
        if not have["residual"] <= SOLVER_TOL:
            msgs.append(f"reported residual {have['residual']:.3e} above {SOLVER_TOL:g}")
        if not float(np.abs(P.T @ w - w).sum()) <= 10 * SOLVER_TOL:
            msgs.append("recomputed stationarity residual above 10x the solver tolerance")
        if not _close(have["moments"], want["moments"], MEASURE_TOL):
            msgs.append("stationary measure moments drifted beyond 1e-8")
    if (got["periodic_title"], got["periodic"]) != (ref["periodic_title"], ref["periodic"]):
        msgs.append("periodic measures (count, periods, supports) differ from the reference")
    return msgs


def check_verify(got: dict, ref: dict, seed: int) -> list:
    """verify: every check passes; integer fields exact at the reference seed."""
    msgs = []
    checks = got["checks"]
    if list(checks) != list(ref["checks"]):
        msgs.append("verify ran other checks than the reference")
    if not (got["verify_passed"] == got["verify_total"] == len(checks)):
        msgs.append(f"verify passed {got['verify_passed']} of {got['verify_total']}")
    for name, rep in checks.items():
        if not rep["passed"]:
            msgs.append(f"check {name} failed")
        elif seed == ref["seed"] and rep != ref["checks"].get(name):
            msgs.append(f"check {name} witnesses/iterations differ at the reference seed")
    return msgs


def check_simulate(got: dict, kern: dict, ref: dict, seed: int, mc: dict) -> list:
    """simulate: replayed states exact, estimates within rounding."""
    msgs = []
    paths, estimates = replay(kern, seed, mc["start"], mc["steps"],
                              mc["trajectories"], mc["n_samples"])
    est = got["estimates"]
    if got["trajectories"] != paths:
        msgs.append("trajectory states differ from the replayed sampler")
    if est.shape != (mc["steps"] + 1, 5) or not np.array_equal(est[:, 0], np.arange(mc["steps"] + 1)):
        return msgs + ["estimates.csv has the wrong shape"]
    mean, stderr = np.array(estimates).T
    if not _close(est[:, 1], mean, 1e-12):
        msgs.append("estimate means differ from the replayed sampler")
    if not _close(est[:, 2], stderr, 1e-12):
        msgs.append("estimate stderrs differ from the replayed sampler")
    if not (_close(est[:, 3], ref["exact"], 1e-12)
            and _close(est[:, 3], exact_column(kern, mc["start"], mc["steps"]), 1e-12)):
        msgs.append("exact column differs from L^j phi beyond 1e-12")
    if seed == ref["seed"]:
        at = ref["at_seed"]
        if got["trajectories"] != at["trajectories"]:
            msgs.append("trajectory states differ from the reference seed's record")
        if not (_close(est[:, 1], at["mean"], 1e-12) and _close(est[:, 2], at["stderr"], 1e-12)):
            msgs.append("estimates differ from the reference seed's record")
    return msgs


#: What a missing or malformed output file raises while it is read.
READ_ERRORS = (OSError, ValueError, KeyError, IndexError, StopIteration)


def check(out_dir: Path, ref: dict, seed: int, mc: dict) -> tuple:
    """({command: [failure, ...]}, kernel counters) for one iteration's files.

    Each command is judged on its own files; an output that cannot be read
    (or cannot be checked because the kernel file cannot) is a failure.
    """
    fail = {}
    try:
        kern = read_kernel(out_dir / "kernel.txt")
        fail["kernel-build"] = check_kernel(kern, ref["kernel"])
        counters = {k: kern[k] for k in ("K", "nnz", "bytes")}
    except READ_ERRORS as e:
        kern, counters = None, {}
        fail["kernel-build"] = [f"unreadable output: {type(e).__name__}: {e}"]
    steps = (
        ("measure", lambda: check_measure(read_measure(out_dir), kern, ref)),
        ("verify", lambda: check_verify(read_verify(out_dir), ref, seed)),
        ("simulate", lambda: check_simulate(read_simulate(out_dir), kern, ref, seed, mc)),
    )
    for command, run_check in steps:
        if kern is None and command != "verify":
            fail[command] = ["not checked: the kernel file is unreadable"]
            continue
        try:
            fail[command] = run_check()
        except READ_ERRORS as e:
            fail[command] = [f"unreadable output: {type(e).__name__}: {e}"]
    return fail, counters
