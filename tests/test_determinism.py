"""Reproducibility: identical seeds must give bit-identical simulations.

Design-space exploration requires deterministic reruns (the paper sweeps
hundreds of configurations); any hidden nondeterminism (set iteration,
id()-keyed maps, unseeded RNGs) would poison comparisons.
"""

import dataclasses

import pytest

from repro.arch import build_machine, dist_mesh, shared_mesh
from repro.workloads import BENCHMARKS, get_workload


def run_once(name, cfg, seed):
    return run_machine(name, cfg, seed)[1]


def run_machine(name, cfg, seed):
    """Run one workload; return the machine and its observables."""
    workload = get_workload(name, scale="tiny", seed=seed, memory=cfg.memory)
    machine = build_machine(cfg)
    result = machine.run(workload.root)
    stats = machine.stats
    return machine, {
        "vtime": result["work_vtime"],
        "output": result["output"],
        "tasks": stats.tasks_started,
        "remote": stats.tasks_spawned_remote,
        "inline": stats.tasks_run_inline,
        "messages": dict(stats.messages_by_kind),
        "stalls": stats.drift_stalls,
        "ooo": stats.out_of_order_msgs,
        "actions": stats.actions,
    }


@pytest.mark.parametrize("name", BENCHMARKS)
def test_identical_reruns_shared(name):
    cfg = shared_mesh(16)
    first = run_once(name, cfg, seed=3)
    second = run_once(name, cfg, seed=3)
    assert first == second


@pytest.mark.parametrize("name", ["dijkstra", "quicksort"])
def test_identical_reruns_distributed(name):
    cfg = dist_mesh(9)
    assert run_once(name, cfg, seed=1) == run_once(name, cfg, seed=1)


def test_different_seeds_differ():
    cfg = shared_mesh(16)
    a = run_once("quicksort", cfg, seed=1)
    b = run_once("quicksort", cfg, seed=2)
    assert a["output"] != b["output"]  # different datasets


@pytest.mark.parametrize("policy", ["spatial", "conservative", "laxp2p"])
def test_identical_reruns_per_policy(policy):
    cfg = dataclasses.replace(shared_mesh(16), sync=policy)
    assert run_once("octree", cfg, seed=0) == run_once("octree", cfg, seed=0)


def test_identical_reruns_with_stealing():
    cfg = dataclasses.replace(shared_mesh(16), work_stealing=True)
    assert run_once("octree", cfg, seed=0) == run_once("octree", cfg, seed=0)


#: Seeded configs spanning the sync policies, memory models and drift
#: regimes whose admission decisions the engine fast-paths (cached drift
#: floors, wave-batched floor priming).
FAST_PATH_SWEEP = [
    ("quicksort", dataclasses.replace(shared_mesh(16)), 3),
    ("dijkstra", dataclasses.replace(dist_mesh(9)), 1),
    ("octree", dataclasses.replace(shared_mesh(16), sync="conservative"), 0),
    ("octree", dataclasses.replace(shared_mesh(16), sync="laxp2p"), 0),
    ("connected_components",
     dataclasses.replace(shared_mesh(16), drift_bound=1e9), 2),
    ("quicksort",
     dataclasses.replace(shared_mesh(16), work_stealing=True), 5),
]


@pytest.mark.parametrize("case", range(len(FAST_PATH_SWEEP)),
                         ids=lambda i: "-".join(
                             (FAST_PATH_SWEEP[i][0], FAST_PATH_SWEEP[i][1].sync,
                              str(FAST_PATH_SWEEP[i][2]))))
def test_sanitized_run_bit_identical(case):
    """A sanitized run checks the shipped fast paths and changes nothing.

    The sanitizer cross-checks every drift admission and the cached
    floor bound behind it; a violation raises, so completing the run
    means zero violations.  Its observables must equal the plain run's
    bit for bit: the golden numbers, trace digests and the differential
    fuzzer all assume one canonical result per (config, seed).
    """
    name, cfg, seed = FAST_PATH_SWEEP[case]
    plain = run_once(name, cfg, seed)
    machine, checked = run_machine(
        name, dataclasses.replace(cfg, sanitize=True), seed)
    assert checked == plain
    checks = machine.sanitizer.checks
    if cfg.sync == "spatial":
        assert checks["floor-cache"] > 0
        assert checks["drift-admission"] > 0


def test_machine_seed_controls_branch_sampling():
    """Different machine seeds resample probabilistic branch outcomes."""
    a = build_machine(dataclasses.replace(shared_mesh(4), seed=1))
    b = build_machine(dataclasses.replace(shared_mesh(4), seed=2))

    from repro.timing.annotator import Block
    from repro.timing.isa import InstrClass

    block = Block("b", instr_counts={InstrClass.INT_ALU: 1}, cond_branches=50)

    def root(ctx):
        t0 = yield ctx.now()
        for _ in range(40):
            yield ctx.compute(block=block)
        t1 = yield ctx.now()
        return t1 - t0

    assert a.run(root) != b.run(root)
