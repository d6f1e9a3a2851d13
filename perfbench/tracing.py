"""Spans around the calls into each qnls layer, kept in memory.

The tracer wraps public functions from the benchmark's side; nothing under
``src/`` knows it exists. Each wrapper is patched into every loaded qnls
module that holds the original function, so ``experiments.step``,
``flow.synthesize``, ``energy.synthesize`` and the rest all report. A span is
(name, parent span, start, end) in flat arrays; self time is computed after
the pass, outside the timed region.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from array import array
from collections import Counter

# (span name, module, attribute). Several attributes may share a span name.
LAYER_TARGETS = (
    ("spectral.synthesize", "qnls.spectral", "synthesize"),
    ("spectral.analyze", "qnls.spectral", "analyze"),
    ("flow.step", "qnls.flow", "step"),
    ("flow.rhs", "qnls.flow", "_rhs_coeffs"),
    ("flow.evolve", "qnls.flow", "evolve"),
    ("energy.full_breakdown", "qnls.energy", "full_breakdown"),
    ("energy.e2", "qnls.energy", "e2"),
    ("energy.e2_directional", "qnls.energy", "e2_directional"),
    ("energy.smoothing_bound", "qnls.energy", "smoothing_bound"),
    ("densities.continuity_residuals", "qnls.densities", "continuity_residuals"),
    ("densities.eleele_residual", "qnls.densities", "eleele_residual"),
    ("densities.j0_diag", "qnls.densities", "j0_diag"),
    ("measure.sample_mu", "qnls.measure", "sample_mu"),
    ("measure.observables", "qnls.measure", "observables"),
    ("measure.ks_statistic", "qnls.measure", "ks_statistic"),
    ("experiments.io", "qnls.experiments", "_write_csv"),
    ("experiments.io", "qnls.experiments", "_write_breakdowns"),
    ("experiments.io", "qnls.measure", "write_ensemble"),
    ("experiments.io", "qnls.experiments", "_sha256"),
)


def _synthesize_size(coeffs, modes, size):
    return size


def _analyze_size(values, modes):
    return len(values)


# span name -> function of the call's arguments giving the FFT size it runs
FFT_SIZE = {"spectral.synthesize": _synthesize_size, "spectral.analyze": _analyze_size}


class Tracer:
    """In-memory spans and per-boundary counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.fft_calls: Counter = Counter()  # transform size -> calls
        self.raised: Counter = Counter()  # (span name, exception type) -> count
        self._patches: list[tuple[object, str, object]] = []

    def _sid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """`fn` recording one span named `name` per call."""
        sid = self._sid(name)
        fft_size = FFT_SIZE.get(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, fft_calls, raised = self._stack, self.fft_calls, self.raised
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if fft_size is not None:
                fft_calls[fft_size(*args, **kwargs)] += 1
            idx = len(start)
            name_id.append(sid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside one span named `name`."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self, targets=LAYER_TARGETS) -> None:
        """Patch a traced wrapper in wherever a target function is bound."""
        originals = [
            (name, getattr(importlib.import_module(module), attr)) for name, module, attr in targets
        ]
        modules = [m for n, m in sys.modules.items() if n == "qnls" or n.startswith("qnls.")]
        for name, original in originals:
            traced = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, traced)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def reset(self) -> None:
        """Drop recorded spans and counts; installed wrappers keep working."""
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self.fft_calls.clear()
        self.raised.clear()

    def totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, summed self time in seconds)."""
        selfs = self_times(self.parent, self.start, self.end)
        calls: Counter = Counter()
        busy: Counter = Counter()
        for sid, s in zip(self.name_id, selfs):
            calls[sid] += 1
            busy[sid] += s
        return {self.names[sid]: (calls[sid], busy[sid]) for sid in calls}


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Spans must be ordered by start time (the tracer appends them that way);
    children that overlap each other are counted once.
    """
    n = len(start)
    covered = [0.0] * n
    reach = list(start)  # per span: end of the covered prefix of its interval
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def fft_cost(fft_calls) -> tuple[float, float]:
    """Computed (not measured) flops and bytes of complex128 FFTs by size.

    5 n log2 n flops per transform, and its input read plus output written
    once: 2 * 16 n bytes.
    """
    flops = sum(c * 5.0 * n * math.log2(n) for n, c in fft_calls.items() if n > 1)
    moved = sum(c * 32.0 * n for n, c in fft_calls.items())
    return flops, moved
