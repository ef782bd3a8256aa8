"""Fixed reference kernel that measures how fast the host runs Python now.

Every host-time metric of the benchmark is reported in *reference
seconds*: ``raw_s * K_NOMINAL / k_measured``, where ``k_measured`` is the
mean time of :func:`kernel` on the CPUs the run used, sampled while the
run is in progress.  A host that is 20% slower for a while makes both the
run and the kernel 20% slower, so the ratio cancels the drift.

The kernel is a tiny discrete-event loop: a heap of timestamped events,
generator resumes, slotted objects, dict and list traffic and float
arithmetic, the operations the simulator's hot path spends its time on.
On a 2-vCPU host whose speed swung 1.8x while a connected-components run
was repeated, this loop tracked the run's slowdown almost one for one
(log-log slope 1.12, normalised spread 7% against 41% raw), while a
pointer chase through megabytes of objects tracked it poorly (slope 1.7
to 2.6): the simulator is bound by interpreter throughput, not memory
latency.  The kernel imports only the standard library, so changes to
``repro`` can never change it.  Changing this file or ``K_NOMINAL``
rebases every reference second the benchmark has ever reported.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Seconds :func:`kernel` takes on the host the benchmark was defined on
#: (2-vCPU Xeon VM, CPython 3.11, quiet); the unit of a reference second.
K_NOMINAL = 0.0012

# Fixed work per call; changing either rebases every number.
EVENTS = 1_000
CORES = 32


class _Core:
    __slots__ = ("cid", "vtime", "done", "queue")

    def __init__(self, cid):
        self.cid = cid
        self.vtime = 0.0
        self.done = 0
        self.queue = []


def _task(core, seed):
    x = seed
    while True:
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        core.queue.append(x & 0xFF)
        if len(core.queue) > 8:
            core.queue.pop(0)
        yield 1.0 + (x % 97) * 0.25


def run_events(n_events: int) -> int:
    """The kernel's event loop; returns a checksum."""
    cores = [_Core(c) for c in range(CORES)]
    tasks = [_task(c, c.cid + 1) for c in cores]
    heap = [(0.0, c) for c in range(CORES)]
    stats = {}
    for _ in range(n_events):
        t, cid = heapq.heappop(heap)
        core = cores[cid]
        delay = next(tasks[cid])
        core.vtime = t + delay
        core.done += 1
        key = (cid, core.done & 7)
        stats[key] = stats.get(key, 0) + 1
        heapq.heappush(heap, (core.vtime, (cid * 7 + core.done) % CORES))
    return sum(c.done for c in cores) + len(stats)


def kernel() -> float:
    """Run the fixed kernel once with GC paused; return its seconds."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        run_events(EVENTS)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
