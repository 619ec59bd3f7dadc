"""Workload definitions: one run configuration and one command sequence each.

Every workload is a closed loop with a single client: the four CLI commands
run in order, each one after the previous returned, as a user would type
them. The kernel travels between commands through the kernel file written
by ``kernel-build``. The benchmark seed goes to ``--seed`` of ``verify`` and
``simulate``; the configuration itself is fixed per workload.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

#: Commands of one iteration, in the order they run.
COMMANDS = ("kernel-build", "measure", "verify", "simulate")

#: The [mc] section, shared by every workload.
MC = {"start": 0, "steps": 5, "trajectories": 100, "n_samples": 10000}

#: Metric name of each command's wall time.
COMMAND_METRIC = {
    "kernel-build": "kernel_build_s",
    "measure": "measure_s",
    "verify": "verify_s",
    "simulate": "simulate_s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    system: str  # the [system] section body
    domain: str
    cells: int
    checks: str
    trials: int

    def config_text(self, out_dir: Path) -> str:
        return (
            f"[system]\n{self.system}\n"
            f"[partition]\ndomain = {self.domain}\ncells = {self.cells}\n\n"
            f"[checks]\nnames = {self.checks}\ntrials = {self.trials}\np = 2\n\n"
            "[mc]\n" + "".join(f"{k} = {v}\n" for k, v in MC.items()) + "\n"
            f"[output]\ndir = {out_dir}\n"
        )

    def small(self) -> "Workload":
        """The same commands at K=64: an untimed warm-up pass runs it so that
        lazy imports and first-call costs stay out of the timed passes."""
        return replace(self, cells=64)

    def argv(self, command: str, cfg: Path, out_dir: Path, seed: int) -> list[str]:
        argv = [command, "--config", str(cfg), "--out", str(out_dir)]
        if command != "kernel-build":
            argv += ["--kernel", str(out_dir / "kernel.txt")]
        if command in ("verify", "simulate"):
            argv += ["--seed", str(seed)]
        return argv


#: Checks that need only matrix-vector products: on the large pipeline
#: kernel ``verify`` pays its fixed cost (kernel load, stationary solve)
#: without the dense-squaring limit machinery.
CHEAP_CHECKS = "duality,lemma1,lemma2,localization,levelsets"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verify-rotation-k512",
            why="all 12 theorem checks at K=512: partial-sum loops and dense limit squaring dominate",
            system=(
                "map = rotation\nalpha = 0.37\nnoise = uniform\nhalf_width = 0.1\n"
                "boundary = wrap\nquadrature = 16\n"
            ),
            domain="circle",
            cells=512,
            checks="all",
            trials=100,
        ),
        Workload(
            name="pipeline-logistic-k4096",
            why="2.5%-dense K=4096 kernel: dense KxK and n_samples x K intermediates dominate",
            system=(
                "map = logistic\nr = 3.9\nnoise = wrapped_gaussian\nsigma = 0.002\n"
                "boundary = clamp\nquadrature = 16\n"
            ),
            domain="unit_interval",
            cells=4096,
            checks=CHEAP_CHECKS,
            trials=5,
        ),
    )
}
