"""One repetition of one workload, in a fresh process.

``run.py`` starts this file once per repetition so that each run's peak
resident memory is its own and no heap is left over from an earlier run.
It prints one JSON object with raw host seconds, the reference-kernel
samples that convert them to reference seconds, the simulated counts, the
simulator's own counters and, for a traced repetition, per-layer self
times and call counts.  Failures are reported in the object, not raised.

Kernel samples are taken on the CPUs the run uses: ten right before the
run, one every :data:`PROBE_INTERVAL_S` during it (from a timer signal,
so they see the same host conditions as the simulation around them; their
time is subtracted from the run's), and ten right after it, once the
run's objects are freed.  The simulation is paused while a sample is
taken: a serial run because the handler runs in its only thread, a
sharded run because its workers are stopped for the sample, so the kernel
is never timed against the benchmark's own load.  Each set-up is
bracketed by one sample on either side.

Usage (normally only from ``run.py``)::

    python3 simbench/rep.py --workload cc_dist_64 --seed 0 --cpus 0 \\
        --src src [--traced] [--spans DIR]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import sys
import time
import traceback
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from refkernel import kernel  # noqa: E402  (stdlib only, no repro)

#: Kernel samples per CPU right before and right after the run.
EDGE_SAMPLES = 10
#: Seconds between kernel samples during the run.
PROBE_INTERVAL_S = 0.02
#: Longest wait for stopped workers to reach the stopped state.
STOP_WAIT_S = 0.1
#: Set-ups per repetition; ``setup_s`` is their median.
SETUPS = 7


def kernel_on(cpus) -> float:
    """One kernel sample, averaged over the given CPUs."""
    original = os.sched_getaffinity(0)
    if original == set(cpus):  # a serial run is pinned to its one CPU
        return kernel()
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(kernel())
    finally:
        os.sched_setaffinity(0, original)
    return sum(times) / len(times)


def child_pids() -> List[int]:
    """Processes this one has started and not yet reaped (Linux)."""
    pids = []
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/children") as f:
                pids += [int(p) for p in f.read().split()]
        except OSError:  # the thread has just ended
            pass
    return pids


def is_stopped(pid: int) -> bool:
    """Whether the process is stopped, or gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return True
    return state in "TtZX"


def stop_children() -> List[int]:
    """Stop every child process and wait until each has stopped."""
    pids = child_pids()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGSTOP)
        except ProcessLookupError:
            pass
    deadline = time.perf_counter() + STOP_WAIT_S
    while (not all(is_stopped(p) for p in pids)
           and time.perf_counter() < deadline):
        pass
    return pids


def continue_children(pids) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGCONT)
        except ProcessLookupError:
            pass


class Probe:
    """Samples the kernel from a timer signal while a run is in progress.

    With ``pause_children`` (a sharded run, whose workers keep every CPU
    busy) the workers are stopped for each sample, so it times the kernel
    on idle CPUs as in a serial run.  With a tracer, each sample is also
    recorded as an interval so the tracer can take it out of the span it
    interrupted.
    """

    def __init__(self, cpus, tracer=None, pause_children=False) -> None:
        self.cpus = cpus
        self.tracer = tracer
        self.pause_children = pause_children
        self.samples = []
        #: (innermost open tracer span or -1, start, end) per sample.
        self.intervals = []
        self._old = None

    def _fire(self, signum, frame) -> None:
        top = self.tracer.top() if self.tracer else -1
        # One CPU per sample, in turn, keeps the probe's share of a
        # multi-CPU run the same as of a single-CPU one.
        cpu = self.cpus[len(self.samples) % len(self.cpus)]
        t0 = time.perf_counter()
        stopped = stop_children() if self.pause_children else []
        try:
            self.samples.append(kernel_on([cpu]))
        finally:
            continue_children(stopped)
        self.intervals.append((top, t0, time.perf_counter()))

    def time_within(self, start: float, end: float) -> float:
        """Seconds of sampling that fell inside ``[start, end]``."""
        return sum(b - a for _, a, b in self.intervals
                   if start <= a and b <= end)

    def __enter__(self) -> "Probe":
        self._old = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)


def current_rss_kb() -> float:
    """This process's resident memory now, in KiB (Linux)."""
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1024.0


def combined_rss_mb(own_kb: float, child_kb: float, workers: int,
                    fork_kb: float) -> float:
    """Peak of a process plus the growth of its forked workers, in MB.

    A forked worker's peak starts at the resident pages it inherits from
    the coordinator (``fork_kb``), which the coordinator's own peak
    already counts; only what a worker adds beyond them is its own.  The
    kernel reports only the largest reaped child's peak, so the workers'
    share is that growth times the worker count (the shards of a workload
    are the same size).
    """
    return (own_kb + workers * max(child_kb - fork_kb, 0.0)) / 1024.0


def peak_rss_mb(workers: int, fork_kb: float) -> float:
    """Peak resident memory of this process plus its worker processes."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return combined_rss_mb(own, child, workers, fork_kb)


def run_rep(wl, seed: int, cpus, setups: int = SETUPS, traced: bool = False,
            spans_dir=None) -> dict:
    """Set up ``setups`` times, simulate once, verify; return the record."""
    import workloads

    out = {"workload": wl.name, "seed": seed, "cpus": list(cpus),
           "traced": traced, "ok": False, "error": None}
    # A sharded run's workers inherit the affinity; they use every CPU.
    os.sched_setaffinity(0, set(cpus))
    tracer = None
    prep = results = None
    fork_kb = 0.0
    try:
        if traced:
            from tracer import Tracer

            tracer = Tracer().install()
        setup_k = [kernel_on(cpus)]
        dataset, build = [], []
        for _ in range(setups):
            prep = None
            gc.collect()
            prep = workloads.prepare(wl, seed)
            setup_k.append(kernel_on(cpus))
            dataset.append(prep.dataset_s)
            build.append(prep.build_s)
        out.update(setup_k=setup_k, dataset_s=dataset, build_s=build)
        gc.collect()
        out["k_before"] = [kernel_on(cpus) for _ in range(EDGE_SAMPLES)]
        probe = Probe(cpus, tracer, pause_children=bool(wl.shards))
        fork_kb = current_rss_kb()  # the workers are forked by simulate
        with probe:
            root = tracer.open("engine") if tracer else None
            t0 = time.perf_counter()
            results = workloads.simulate(prep)
            t1 = time.perf_counter()
            if tracer:
                tracer.close(root)
        if tracer:
            t0, t1 = tracer.starts[root], tracer.ends[root]
        out["sim_s"] = t1 - t0 - probe.time_within(t0, t1)
        out["k_during"] = probe.samples
        out["model"] = workloads.model_counts(prep, results)
        out["counters"] = workloads.program_counters(prep)
        if tracer:
            tracer.uninstall()
            out["self_s"] = tracer.self_times(probe.intervals)
            out["layer_calls"] = tracer.layer_calls()
            out["method_calls"] = dict(tracer.method_calls)
            out["admitted"] = tracer.admitted
            if spans_dir is not None:
                Path(spans_dir).mkdir(parents=True, exist_ok=True)
                tracer.write(Path(spans_dir) / f"{wl.name}-seed{seed}.npz")
        workloads.verify(prep, results)
        out["ok"] = True
    except Exception:  # one failed repetition must not stop the benchmark
        out["error"] = traceback.format_exc(limit=3)
    finally:
        if tracer:
            tracer.uninstall()
    out["peak_rss_mb"] = peak_rss_mb(wl.shards, fork_kb)
    prep = results = tracer = None
    gc.collect()
    out["k_after"] = [kernel_on(cpus) for _ in range(EDGE_SAMPLES)]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cpus", default="0",
                    help="comma-separated CPUs the run is pinned to")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--spans", default=None,
                    help="directory to write the traced run's spans to")
    ap.add_argument("--src", required=True,
                    help="the checkout's src/ directory holding repro")
    args = ap.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import repro
    import repro.arch
    import repro.parallel  # noqa: F401  (imported before any timing)

    if Path(repro.__file__).resolve().parent != src / "repro":
        print(f"repro imported from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads

    record = run_rep(workloads.WORKLOADS[args.workload], args.seed,
                     [int(c) for c in args.cpus.split(",")],
                     traced=args.traced, spans_dir=args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
