"""Record the reference outputs the correctness gate compares against.

    python3 perfbench/record.py [workload ...]

Runs one untimed iteration of each workload at REFERENCE_SEED and writes
``perfbench/reference/<workload>.json``. Seed-independent outputs (kernel
structure, measures, check names, the exact column) are compared on every
run; the sampled states and estimates are compared exactly only when a run
uses the reference seed, so any other seed serves as a held-out seed.
Re-record only when a change is meant to alter the outputs, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS

REFERENCE_SEED = 1807


def record(name: str) -> dict:
    import gate

    wl = WORKLOADS[name]
    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=run.ROOT))
    try:
        cfg, out = work / "run.cfg", work / "out"
        cfg.write_text(wl.config_text(out))
        it = run.run_iteration(run.import_ergodyn().cli.main, wl, cfg, out, REFERENCE_SEED)
        if any(code != 0 for code in it["codes"].values()):
            raise SystemExit(f"{name}: a command failed: {it['codes']}\n{it['log']}")
        return gate.reference_record(gate.summarize(out), REFERENCE_SEED)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(names) -> None:
    run.pin_threads()
    for name in names or sorted(WORKLOADS):
        path = run.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(record(name), indent=1) + "\n")
        print(f"recorded {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
