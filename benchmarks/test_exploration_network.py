"""Exploration E2: link latency/bandwidth sensitivity (Section III).

"The latency and bandwidth of individual links are also independently
tunable."  This benchmark sweeps the base link latency on distributed-
memory meshes: data-contended benchmarks (cell traffic on every hop) must
degrade with latency while data-light benchmarks barely move — the same
sensitivity split the clustered experiment (Fig. 12) exploits.  The grid
runs through the design-space exploration engine (``repro.dse``).
"""

import tempfile

from repro.dse import expand_sweep, run_sweep
from repro.harness.report import format_table

from conftest import bench_scale, bench_seeds, emit

BENCHMARKS = ("connected_components", "spmxv")
LATENCIES = (1.0, 4.0, 16.0)


def _run():
    plan = expand_sweep({
        "name": "exploration-network",
        "base": {
            "arch": {"preset": "dist_mesh", "n_cores": 64},
            "workload": {"scale": bench_scale()},
        },
        "axes": {
            "workload.benchmark": list(BENCHMARKS),
            "arch.link_latency": list(LATENCIES),
            "workload.seed": list(bench_seeds()),
        },
    })
    with tempfile.TemporaryDirectory() as store:
        outcome = run_sweep(plan, store_dir=store, jobs=2)
    # Mean work virtual time over seeds, per (benchmark, latency).
    samples = {}
    for cell in outcome.frame["cells"]:
        assert cell["status"] == "ok", cell
        params = cell["params"]
        key = (params["workload.benchmark"], params["arch.link_latency"])
        samples.setdefault(key, []).append(cell["metrics"]["work_vtime"])
    return {key: sum(v) / len(v) for key, v in samples.items()}


def test_exploration_link_latency(benchmark):
    vtimes = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = [[name] + [vtimes[name, lat] for lat in LATENCIES]
            for name in BENCHMARKS]
    text = format_table(
        ["benchmark"] + [f"link_latency={lat}" for lat in LATENCIES], rows,
        title="Virtual time vs base link latency "
              "(distributed memory, 64 cores)")
    emit("exploration_network", text)

    def vt(name, latency):
        return vtimes[name, latency]

    # Cell-contended CC degrades markedly with link latency...
    assert vt("connected_components", 16.0) > \
        1.5 * vt("connected_components", 1.0)
    # ...while SpMxV (no cell traffic) barely moves.
    assert vt("spmxv", 16.0) < 1.5 * vt("spmxv", 1.0)
