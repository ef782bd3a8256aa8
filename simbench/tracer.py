"""Span tracer that wraps each simulator layer's public entry points.

:func:`install` replaces the entry-point methods listed in
:data:`ENTRY_POINTS` on their classes (and on every subclass that
overrides them) with timing wrappers, so it must run *before* the machine
is built.  Each call records one span: layer name, start, end and the
index of the enclosing span.  Spans stay in memory until the run ends.

A layer's self time is the time of its spans minus the time of the spans
they enclose; ``engine`` is the root span around ``Machine.run`` (or
``run_workloads``) minus every layer span, so it includes the engine's
own dispatch and the resumes of workload generators.  Kernel samples that the
benchmark's probe takes during the run are recorded as ``probe`` spans
under the span they interrupted, so no layer is charged for them.  By
construction the self times of all layers, ``probe`` included, sum to the
root span.
"""

from __future__ import annotations

import importlib
import time
from array import array
from typing import Dict, List, Tuple

#: layer -> [(module, class, [method, ...]), ...]; methods are wrapped on
#: the class and on every subclass that defines its own version.
ENTRY_POINTS: Dict[str, List[Tuple[str, str, List[str]]]] = {
    "fabric": [("repro.core.fabric", "VirtualTimeFabric",
                ["advance", "set_active", "set_idle", "commit",
                 "refresh_shadows", "floor"])],
    "sync": [("repro.core.sync", "SyncPolicy",
              ["may_run", "on_idle", "on_activation", "on_no_runnable"])],
    "network": [("repro.network.noc", "Noc", ["delivery_time"])],
    "memory": [("repro.memory.base", "MemoryModel",
                ["access", "cell_access"]),
               ("repro.memory.coherence", "CoherenceModel",
                ["on_read", "on_write"])],
    "runtime": [("repro.runtime.runtime", "Runtime",
                 ["try_spawn", "on_task_dequeued", "join",
                  "on_task_finished", "on_core_idle", "acquire",
                  "release"])],
    "timing": [("repro.timing.annotator", "BlockAnnotator",
                ["cost", "cost_repeated", "dynamic_cost"])],
}

ROOT = "engine"
PROBE = "probe"
LAYERS = [ROOT] + list(ENTRY_POINTS) + [PROBE]
#: Entry points whose truthy results count as admissions.
_ADMIT = ("SyncPolicy", "may_run")


def _class_tree(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _class_tree(sub)


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self.names = array("b")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.method_calls: Dict[str, int] = {}
        self.admitted = 0
        self._stack: List[int] = []
        self._patched: List[Tuple[type, str, object]] = []

    # -- recording -------------------------------------------------------
    def open(self, layer: str) -> int:
        idx = len(self.starts)
        self.names.append(self.layer_ids[layer])
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def top(self) -> int:
        """Index of the innermost open span, -1 outside every span."""
        return self._stack[-1] if self._stack else -1

    def _wrap(self, fn, layer: str, key: str, admit: bool):
        lid = self.layer_ids[layer]
        names, parents = self.names, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter
        calls = self.method_calls
        calls.setdefault(key, 0)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(lid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                calls[key] += 1
            if admit and result:
                tracer.admitted += 1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every entry point; call before building the machine."""
        for layer, targets in ENTRY_POINTS.items():
            for module, cls_name, methods in targets:
                base = getattr(importlib.import_module(module), cls_name)
                for cls in _class_tree(base):
                    for method in methods:
                        fn = cls.__dict__.get(method)
                        if fn is None:
                            continue
                        key = f"{cls.__name__}.{method}"
                        admit = (cls_name, method) == _ADMIT
                        self._patched.append((cls, method, fn))
                        setattr(cls, method,
                                self._wrap(fn, layer, key, admit))
        return self

    def uninstall(self) -> None:
        for cls, method, fn in reversed(self._patched):
            setattr(cls, method, fn)
        self._patched.clear()

    # -- analysis --------------------------------------------------------
    def _probe_parent(self, top: int, t0: float, t1: float) -> int:
        # A signal can land while a wrapper is between pushing its span
        # and stamping its start, or between stamping its end and popping
        # it; walk out to the innermost span that really encloses it.
        while top != -1 and not (self.starts[top] <= t0
                                 and t1 <= self.ends[top]):
            top = self.parents[top]
        return top

    def self_times(self, probes=()) -> Dict[str, float]:
        """Seconds per layer, excluding time in enclosed spans.

        ``probes`` are ``(innermost open span, start, end)`` intervals of
        kernel samples taken during the run.
        """
        import numpy as np

        n = len(self.starts)
        names = np.frombuffer(self.names, dtype=np.int8, count=n)
        parents = np.frombuffer(self.parents, dtype=np.int64, count=n)
        dur = (np.frombuffer(self.ends, dtype=np.float64, count=n)
               - np.frombuffer(self.starts, dtype=np.float64, count=n))
        child = np.bincount(parents + 1, weights=dur, minlength=n + 1)[1:]
        own = np.bincount(names, weights=dur - child,
                          minlength=len(LAYERS))
        for top, t0, t1 in probes:
            parent = self._probe_parent(top, t0, t1)
            if parent != -1:
                own[names[parent]] -= t1 - t0
            own[self.layer_ids[PROBE]] += t1 - t0
        return {layer: float(own[i]) for i, layer in enumerate(LAYERS)}

    def layer_calls(self) -> Dict[str, int]:
        """Wrapped calls per layer (the root span counts once)."""
        import numpy as np

        counts = np.bincount(
            np.frombuffer(self.names, dtype=np.int8, count=len(self.names)),
            minlength=len(LAYERS))
        return {layer: int(counts[i]) for i, layer in enumerate(LAYERS)}

    def write(self, path) -> None:
        """Dump the spans (name id, parent, start, end) as ``.npz``."""
        import numpy as np

        np.savez(path, layers=np.array(LAYERS),
                 names=np.frombuffer(self.names, dtype=np.int8),
                 parents=np.frombuffer(self.parents, dtype=np.int64),
                 starts=np.frombuffer(self.starts, dtype=np.float64),
                 ends=np.frombuffer(self.ends, dtype=np.float64))
