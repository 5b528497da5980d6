"""Per-layer spans for the traced run, recorded from the benchmark's side.

:class:`LayerTracer` replaces module attributes that callers resolve at
call time (``repro.pipeline.core.hierarchical_distribute`` and friends)
with timing wrappers, so the program itself is unchanged.  Spans
(name, start, end, parent, phase) stay in memory; a layer's self time is
its span's duration minus the spans nested inside it.  The program's own
obs spans and counters are read alongside through
``obs.tracing(CollectorSink())``.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

#: (span name, module path, attribute).  ``Class.method`` attributes
#: are wrapped on the class.  ``balance_clusters`` is wrapped under both
#: names callers use: clustering binds it at import, the distribute
#: stage imports it from ``repro.mapping.balance`` at call time.
WRAPPED = (
    ("lang.compile", "repro.lang", "compile_source"),
    ("blocks.tag", "repro.pipeline.core", "tag_iterations"),
    ("pipeline.map_nest", "repro.pipeline.core", "MappingPipeline.map_nest"),
    ("mapping.distribute", "repro.pipeline.core", "hierarchical_distribute"),
    ("mapping.balance", "repro.mapping.clustering", "balance_clusters"),
    ("mapping.balance", "repro.mapping.balance", "balance_clusters"),
    ("mapping.refine", "repro.mapping.refine", "refine_assignment"),
    ("mapping.schedule", "repro.pipeline.core", "schedule_groups"),
    ("runtime.plan", "repro.mapping.distribute", "MappingResult.plan"),
    ("sim.simulate", "repro.runtime.executor", "simulate_plan"),
)


class LayerTracer:
    """In-memory span recorder; install with :meth:`installed`."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, phase]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.phase = "setup"

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            record = [name, time.perf_counter(), None, parent, self.phase]
            self.spans.append(record)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every :data:`WRAPPED` attribute; restore them on exit."""
        originals = []
        try:
            for name, module_path, attr in WRAPPED:
                owner = importlib.import_module(module_path)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                originals.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(name, original))
            yield self
        finally:
            for owner, leaf, original in reversed(originals):
                setattr(owner, leaf, original)

    def totals(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms within ``phase``."""
        child_ms = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _, span_phase) in enumerate(self.spans):
            if span_phase != phase:
                continue
            entry = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            duration = (end - start) * 1e3
            entry["calls"] += 1
            entry["ms"] += duration
            entry["self_ms"] += duration - child_ms[index]
        return out

    def durations_ms(self, name: str) -> list[float]:
        """Inclusive durations of every ``name`` span, any phase."""
        return [(s[2] - s[1]) * 1e3 for s in self.spans if s[0] == name]
