"""The benchmark's four SiMany workloads, driven through the public API.

Each workload is built with ``get_workload`` plus ``build_machine`` (or
``build_backend`` for the sharded one) and simulated with ``Machine.run``
(or ``ShardedMachine.run_workloads``).  Nothing here reaches into
``repro`` internals: outputs are checked with each workload's own
``verify`` and every count comes from the stats objects.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Any, Dict, List


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a dwarf on a preset machine."""

    name: str
    why: str
    benchmark: str
    memory: str      # dataset flavour: shared / numa / distributed
    preset: str      # repro.arch preset function name
    cores: int
    scale: str = "paper"
    #: >0 runs the sharded backend with ``roots_per_shard`` roots in
    #: each shard region.
    shards: int = 0
    roots_per_shard: int = 1
    #: Dataset overrides passed to ``get_workload`` (e.g. array size).
    dataset: tuple = ()

    def root_seeds(self, seed: int) -> List[int]:
        """Dataset seeds of the roots; one root unless sharded."""
        n = max(self.shards, 1) * self.roots_per_shard
        return [seed * n + i for i in range(n)]

    def root_cores(self) -> List[int]:
        """Core of each root: spread evenly over each shard region."""
        if not self.shards:
            return [0]
        per_shard = self.cores // self.shards
        step = per_shard // self.roots_per_shard
        return [s * per_shard + j * step for s in range(self.shards)
                for j in range(self.roots_per_shard)]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "cc_dist_64",
        "message- and drift-bound connected components on distributed "
        "memory: engine, fabric and NoC dominate (Figs. 9-11 collapse case)",
        "connected_components", "distributed", "dist_mesh", 64),
    Workload(
        "dijkstra_numa_64",
        "action-heavy Dijkstra on NUMA directory memory: the only workload "
        "where memory/coherence, timing and workload code are visible",
        "dijkstra", "numa", "numa_mesh", 64,
        dataset=(("nodes", 800), ("edges", 2_400))),
    Workload(
        "qs_shared_1024",
        "quicksort at the paper's 1024-core scaling point: fabric relax "
        "work is largest here, memory almost absent",
        "quicksort", "shared", "shared_mesh", 1024),
    Workload(
        "qs_shared_64x2_sharded",
        "sharded backend, 2 workers, four quicksort roots per shard: the "
        "only workload that exercises the parallel round protocol",
        "quicksort", "shared", "shared_mesh", 64, shards=2,
        roots_per_shard=4, dataset=(("n", 25_000),)),
)}


@dataclass
class Prepared:
    """A workload's datasets plus the machine or backend that runs them."""

    workload: Workload
    seeds: List[int]         # dataset seed per root
    runs: List[Any]          # WorkloadRun per root (verify + root)
    machine: Any             # Machine or ShardedMachine
    dataset_s: float
    build_s: float


def prepare(wl: Workload, seed: int) -> Prepared:
    """Generate the datasets and build the machine; time both parts."""
    import repro.arch as arch
    from repro import get_workload

    seeds = wl.root_seeds(seed)
    t0 = time.perf_counter()
    runs = [get_workload(wl.benchmark, scale=wl.scale, seed=s,
                         memory=wl.memory, **dict(wl.dataset))
            for s in seeds]
    t1 = time.perf_counter()
    cfg = getattr(arch, wl.preset)(wl.cores)
    if wl.shards:
        cfg = dataclasses.replace(cfg, shards=wl.shards, backend="sharded")
        machine = arch.build_backend(cfg)
    else:
        machine = arch.build_machine(cfg)
    t2 = time.perf_counter()
    return Prepared(wl, seeds, runs, machine, t1 - t0, t2 - t1)


def simulate(prep: Prepared) -> List[Any]:
    """Run the prepared roots to completion; return one result per root."""
    wl = prep.workload
    if not wl.shards:
        return [prep.machine.run(prep.runs[0].root)]
    from repro.parallel import WorkloadSpec

    specs = [WorkloadSpec(wl.benchmark, scale=wl.scale, seed=s,
                          memory=wl.memory, root_core=core,
                          kwargs=dict(wl.dataset))
             for s, core in zip(prep.seeds, wl.root_cores())]
    return prep.machine.run_workloads(specs)


def verify(prep: Prepared, results: List[Any]) -> None:
    """Check every root's output with the workload's own verifier."""
    if len(results) != len(prep.runs):
        raise AssertionError(
            f"{len(results)} results for {len(prep.runs)} roots")
    for run, result in zip(prep.runs, results):
        run.verify(result["output"])


def model_counts(prep: Prepared, results: List[Any]) -> Dict[str, float]:
    """Simulated quantities: a change meant only for speed keeps them."""
    stats = prep.machine.stats
    return {
        "events": stats.actions + stats.total_messages,
        "actions": stats.actions,
        "messages": stats.total_messages,
        "work_vtime": max(r["work_vtime"] for r in results),
        "completion_vtime": stats.completion_vtime,
    }


def program_counters(prep: Prepared) -> Dict[str, float]:
    """The simulator's own per-layer counters, from its stats objects.

    Counters a sharded run does not merge back to the coordinator are
    absent; the caller reports them as unmeasured.
    """
    machine = prep.machine
    stats = machine.stats
    out = {
        "context_switches": stats.context_switches,
        "shadow_recomputes": stats.shadow_recomputes,
        "drift_stalls": stats.drift_stalls,
        "mem_accesses": stats.mem_accesses,
        "cell_accesses": stats.cell_accesses,
        "remote_cell_accesses": stats.remote_cell_accesses,
        "noc_messages": stats.noc.get("messages", 0),
        "noc_hops": stats.noc.get("total_hops", 0),
        "noc_contention_cycles": stats.noc.get("contention_cycles", 0.0),
    }
    if prep.workload.shards:
        proto = machine.protocol
        out.update({
            "rounds": proto["rounds"],
            "waivers": proto["waivers"],
            "bytes_shipped": proto["bytes_shipped"],
            "parallel_efficiency": proto["parallel_efficiency"],
        })
    else:
        coherence = getattr(machine.memory, "coherence", None)
        out["coherence_invalidations"] = (
            coherence.stats.invalidated_copies if coherence else 0)
        out["steals_successful"] = machine.runtime.steals_successful
    return out
