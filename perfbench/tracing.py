"""Span tracer that wraps ergodyn's public functions from outside the package.

Nothing inside ``src/`` is changed. Each target function is replaced, for the
duration of a ``Tracer.active()`` block, by a wrapper that records a span
(name, start, end, parent). A module that imported the function by name holds
its own binding, so every ``ergodyn`` module attribute that *is* the original
function object is patched; a binding left unpatched would be missed silently.

Self time of a span is its duration minus the durations of its direct
children. Inclusive time of a name counts only its outermost spans, so a
function that (indirectly) calls itself is not counted twice.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: (defining module, function, metric prefix). The prefix is the layer name
#: used in metric names; ``ergodyn._backend`` is reported as ``backend``
#: because a metric name must start with a letter.
TARGETS = (
    ("ergodyn.cli", "load_kernel", "cli.load_kernel"),
    ("ergodyn.cli", "save_kernel", "cli.save_kernel"),
    ("ergodyn.kernel", "ulam_discretize", "kernel.ulam_discretize"),
    ("ergodyn.kernel", "kernel_power", "kernel.kernel_power"),
    ("ergodyn.measures", "stationary_measures", "measures.stationary_measures"),
    ("ergodyn.measures", "periodic_measures", "measures.periodic_measures"),
    ("ergodyn.measures", "closed_classes", "measures.closed_classes"),
    ("ergodyn.theorems", "maximal_function", "theorems.maximal_function"),
    ("ergodyn.theorems", "sublevel_sets", "theorems.sublevel_sets"),
    ("ergodyn.theorems", "birkhoff_limit", "theorems.birkhoff_limit"),
    ("ergodyn.theorems", "check_nonconvergence_set_empty",
     "theorems.check_nonconvergence_set_empty"),
    ("ergodyn.theorems", "_windowed_limit", "theorems._windowed_limit"),
    ("ergodyn.mc", "estimate_Lj_phi", "mc.estimate_Lj_phi"),
    ("ergodyn.mc", "sample_trajectory", "mc.sample_trajectory"),
    ("ergodyn._backend", "matvec", "backend.matvec"),
    ("ergodyn._backend", "rmatvec", "backend.rmatvec"),
    ("ergodyn._backend", "ulam_rows", "backend.ulam_rows"),
    ("ergodyn._backend", "sample_endpoints", "backend.sample_endpoints"),
    ("ergodyn._backend", "sample_path", "backend.sample_path"),
)

#: ``cli.run_check`` gets one span name per check: ``cli.run_check.<check>``.
RUN_CHECK = ("ergodyn.cli", "run_check", "cli.run_check")


class Tracer:
    """Collects spans in memory; one tracer per traced iteration."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []

    def _wrap(self, fn, name):
        """``name`` is the span name, or a function of the call's arguments."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = name(args, kwargs) if callable(name) else name
            spans.append([span, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def active(self):
        """Patch every ergodyn binding of every target while the block runs."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ergodyn" or n.startswith("ergodyn."))]
        check_span = lambda args, kwargs: f"{RUN_CHECK[2]}.{args[0] if args else kwargs['name']}"
        patches = []  # (module, attribute, original)
        for mod_name, fn_name, name in (*TARGETS, (*RUN_CHECK[:2], check_span)):
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self._wrap(original, name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patches.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds ``s`` and ``self_s``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[i]
            if not self._has_ancestor_named(parent, name):
                row["s"] += end - start
        return dict(out)

    def _has_ancestor_named(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
