"""Spans around femtoq's public callables, recorded from outside the package.

The tracer patches each target callable wherever a loaded ``femtoq`` module
holds a reference to it (``from .channel import build_gain_matrix`` copies
the name into the importing module), so calls made inside the package are
seen too. A target that no longer exists is listed in ``missing`` instead
of failing the run: later refactors may rename internals.

``DensityStep.step`` runs tens of thousands of times per sweep, so its
calls are not kept as spans; their durations are collected per enclosing
span and summarised as count, total, p50 and p99.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# (span name, module, attribute path)
SPAN_TARGETS = (
    ("config.build_topology", "femtoq.config", "build_topology"),
    ("topology.generate_layout", "femtoq.topology", "generate_layout"),
    ("channel.build_gain_matrix", "femtoq.channel", "build_gain_matrix"),
    ("coordinator.Simulation.__init__", "femtoq.coordinator", "Simulation.__init__"),
    ("coordinator.Simulation.run", "femtoq.coordinator", "Simulation.run"),
    ("coordinator.DensityStep.run", "femtoq.coordinator", "DensityStep.run"),
    ("cli.write_run_artifacts", "femtoq.cli", "write_run_artifacts"),
    ("cli.run_oracle", "femtoq.cli", "run_oracle"),
    ("oracle.exhaustive_search", "femtoq.oracle", "exhaustive_search"),
)
STEP_TARGET = ("coordinator.DensityStep.step", "femtoq.coordinator", "DensityStep.step")


def _resolve(module_name: str, path: str):
    """Return (owner, attribute name, object) for a dotted attribute path."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        # each span: [name, start_ns, end_ns, parent index or -1]
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._step_ns: dict[int, list[int]] = {}
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, module_name, path in SPAN_TARGETS:
            self._patch(name, module_name, path, self._span_wrapper)
        self._patch(*STEP_TARGET, self._step_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, name, module_name, path, make_wrapper) -> None:
        try:
            owner, attr, original = _resolve(module_name, path)
        except (ImportError, AttributeError):
            self.missing.append(name)
            return
        wrapper = make_wrapper(name, original)
        if isinstance(owner, type):
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "femtoq" and not mod_name.startswith("femtoq."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapper)

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter_ns(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter_ns()

        return wrapper

    def _step_wrapper(self, name, fn):
        stack, step_ns = self._stack, self._step_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter_ns() - start
            parent = stack[-1] if stack else -1
            samples = step_ns.get(parent)
            if samples is None:
                samples = step_ns[parent] = []
            samples.append(elapsed)
            return result

        return wrapper

    # -- summaries -------------------------------------------------------

    def step_summaries(self) -> list[dict]:
        """One aggregated ``step`` record per enclosing span (a density step)."""
        out = []
        for parent, samples in self._step_ns.items():
            arr = np.asarray(samples, dtype=np.int64)
            out.append(
                {
                    "name": STEP_TARGET[0],
                    "parent": parent,
                    "count": int(arr.size),
                    "total_ns": int(arr.sum()),
                    "p50_ns": float(np.percentile(arr, 50)),
                    "p99_ns": float(np.percentile(arr, 99)),
                }
            )
        return out

    def step_samples_ns(self) -> np.ndarray:
        """Every recorded step duration, pooled over all density steps."""
        parts = [np.asarray(s, dtype=np.int64) for s in self._step_ns.values()]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its children (and steps) cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        for parent, samples in self._step_ns.items():
            if parent >= 0:
                own[parent] -= sum(samples)
        return own

    def export(self) -> dict:
        """JSON-ready spans (with self time), step aggregates and missing targets."""
        self_times = self.self_ns()
        return {
            "spans": [
                {
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    "dur_ns": end - start,
                    "parent": parent,
                    "self_ns": self_times[i],
                }
                for i, (name, start, end, parent) in enumerate(self.spans)
            ],
            "steps": self.step_summaries(),
            "missing": list(self.missing),
        }
