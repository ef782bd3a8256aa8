"""SiMany speed benchmark: four workloads in reference-normalised seconds.

Run from the root of a checkout::

    python3 simbench/run.py --workload cc_dist_64 --seed 0 --seconds 20 --trace 0
    python3 simbench/run.py --write-spec      # regenerate BENCHMARK.json

Each repetition runs in a fresh process (``rep.py``) pinned to one CPU
(all CPUs for the sharded workload).  Repetitions continue until
``--seconds`` have passed.  Every host time is converted to reference
seconds with the kernel timed on the same CPUs during the repetition,
with the simulation paused (see ``refkernel.py`` and ``rep.py``), and
the medians over repetitions are reported.  ``--trace 1`` adds one traced
repetition that gives the per-layer numbers.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; everything above it is for people.  See
``simbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from refkernel import K_NOMINAL  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_SECONDS = 25
#: Repetitions a run makes even when ``--seconds`` has already passed.
MIN_REPS = 3
#: Value reported for a per-layer metric that this run could not measure
#: (the layer ran in a worker process, bypassed its wrapped entry point,
#: or does not exist on the workload).  Never a measurement.
UNMEASURED = -1.0
#: Wall-clock limit of a whole run; a run must end within 180 s, so a
#: repetition that would pass it is stopped and counts as failed.
DEADLINE_S = 165

# name, unit, better, bound.  ``sim_s`` is printed but not listed: runs
# are compared across seeds, and a seed changes how much work a workload
# is (on the paper's Dijkstra graph, events range from 178k to 256k over
# seeds 0-4), so only the work-normalised ``events_per_s`` is steady.
END_TO_END = [
    ("events_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("success_rate", "ratio", "higher", 0.01),
]
#: Printed beside the listed end-to-end metrics.
SIM_S = ("sim_s", "s")

# name, unit, better
PER_LAYER = [
    ("workloads.dataset_s", "s", "lower"),
    ("arch.build_s", "s", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.us_per_event", "us", "lower"),
    ("engine.context_switches", "count", "lower"),
    ("fabric.self_s", "s", "lower"),
    ("fabric.calls", "count", "lower"),
    ("fabric.shadow_recomputes", "count", "lower"),
    ("sync.self_s", "s", "lower"),
    ("sync.admissions", "count", "lower"),
    ("sync.admit_ratio", "ratio", "higher"),
    ("sync.drift_stalls", "count", "lower"),
    ("network.self_s", "s", "lower"),
    ("network.deliveries", "count", "lower"),
    ("network.hops", "count", "lower"),
    ("network.contention_cycles", "cycles", "lower"),
    ("memory.self_s", "s", "lower"),
    ("memory.accesses", "count", "lower"),
    ("memory.remote_cell_accesses", "count", "lower"),
    ("memory.coherence_invalidations", "count", "lower"),
    ("runtime.self_s", "s", "lower"),
    ("runtime.calls", "count", "lower"),
    ("runtime.steal_success", "count", "higher"),
    ("timing.self_s", "s", "lower"),
    ("timing.calls", "count", "lower"),
    ("parallel.rounds", "count", "lower"),
    ("parallel.waiver_ratio", "ratio", "lower"),
    ("parallel.bytes_shipped", "bytes", "lower"),
    ("parallel.efficiency", "ratio", "higher"),
    ("parallel.s_per_round", "s", "lower"),
    ("model.events", "count", "lower"),
    ("model.actions", "count", "lower"),
    ("model.messages", "count", "lower"),
    ("model.work_vtime", "cycles", "lower"),
    ("model.completion_vtime", "cycles", "lower"),
    ("trace.overhead", "ratio", "lower"),
]

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Cross-checks of span counts against the simulator's own counters:
#: layer -> [(wrapped method keys, counter source, counter name), ...].
CROSS_CHECKS = {
    "network": [(("Noc.delivery_time",), "model", "messages")],
    "memory": [
        (("SharedMemoryModel.access", "NumaMemoryModel.access",
          "DistributedMemoryModel.access", "MemoryModel.access"),
         "counters", "mem_accesses"),
        (("SharedMemoryModel.cell_access", "NumaMemoryModel.cell_access",
          "DistributedMemoryModel.cell_access", "MemoryModel.cell_access"),
         "counters", "cell_accesses"),
    ],
    "runtime": [(("Runtime.on_task_dequeued",), "counters",
                 "context_switches")],
}


# -- spec ---------------------------------------------------------------------
def benchmark_spec() -> dict:
    """The content of ``BENCHMARK.json``, generated from the tables above."""
    return {
        "command": ["python3", "simbench/run.py"],
        "paths": ["simbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def check_names() -> None:
    """Every metric and workload name and unit fits the result charset."""
    names = ([n for n, *_ in END_TO_END] + [n for n, *_ in PER_LAYER]
             + list(WORKLOADS))
    bad = [n for n in names if not NAME_RE.match(n)]
    bad += [u for _, u, *_ in END_TO_END + PER_LAYER if not UNIT_RE.match(u)]
    dup = [n for n, c in Counter(names).items() if c > 1]
    if bad or dup:
        raise ValueError(f"bad names/units {bad}, duplicates {dup}")


# -- arithmetic -----------------------------------------------------------------
def run_kernel_s(rep: dict) -> float:
    """K_measured of a run: the mean kernel sample taken during it.

    In-run samples see the host exactly as the simulation around them
    does (a scratch trial on a 2-vCPU host: run-to-run spread 26% raw,
    18% normalised by before/after samples, 3% by in-run samples).  The
    samples right before and after stand in only for a run too short to
    be sampled.
    """
    samples = rep["k_during"] or rep["k_before"] + rep["k_after"]
    return sum(samples) / len(samples)


def sim_ref_s(rep: dict) -> float:
    """The run's host seconds in reference seconds."""
    return rep["sim_s"] * K_NOMINAL / run_kernel_s(rep)


def setup_ref_s(rep: dict, parts=("dataset_s", "build_s")) -> float:
    """Median set-up seconds in reference seconds; each set-up is
    normalised by the kernel samples on either side of it."""
    k = rep["setup_k"]
    return statistics.median(
        sum(rep[p][i] for p in parts) * K_NOMINAL / ((k[i] + k[i + 1]) / 2)
        for i in range(len(rep["dataset_s"])))


def successful(reps: List[dict]) -> List[bool]:
    """A repetition succeeds when it completed, verified, and its model
    counts equal those of every other completed repetition (the most
    common count set is taken as the reference)."""
    models = [json.dumps(r["model"], sort_keys=True)
              for r in reps if r.get("ok")]
    if not models:
        return [False] * len(reps)
    reference = Counter(models).most_common(1)[0][0]
    return [bool(r.get("ok"))
            and json.dumps(r["model"], sort_keys=True) == reference
            for r in reps]


def end_to_end(reps: List[dict], good: List[bool]) -> Dict[str, float]:
    """End-to-end metrics from the untraced successful repetitions."""
    measured = [r for r, g in zip(reps, good) if g and not r["traced"]]
    sim = statistics.median(sim_ref_s(r) for r in measured)
    events = measured[0]["model"]["events"]
    return {
        "sim_s": sim,
        "events_per_s": events / sim,
        "setup_s": statistics.median(setup_ref_s(r) for r in measured),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in measured),
        "success_rate": sum(good) / len(reps),
    }


def unmeasured_layers(rep: dict, sharded: bool) -> List[str]:
    """Layers whose traced numbers cannot be trusted for this run."""
    if sharded:  # the layers run in worker processes the tracer cannot see
        return ["engine", "fabric", "sync", "network", "memory", "runtime",
                "timing"]
    out = []
    calls = rep["method_calls"]
    for layer, checks in CROSS_CHECKS.items():
        for keys, source, counter in checks:
            spans = sum(calls.get(k, 0) for k in keys)
            if spans != rep[source][counter]:
                out.append(layer)
                break
    return out


def per_layer(reps: List[dict], good: List[bool], wl):
    """Per-layer metrics: host times from the traced repetition, counts
    from the measured ones.  Returns the metrics and, for each host time
    among them, its raw seconds."""
    measured = [r for r, g in zip(reps, good) if g and not r["traced"]]
    traced = [r for r, g in zip(reps, good) if g and r["traced"]][0]
    model, ctr = measured[0]["model"], measured[0]["counters"]
    sharded = bool(wl.shards)
    skip = set(unmeasured_layers(traced, sharded))
    scale = K_NOMINAL / run_kernel_s(traced)
    own = {k: v * scale for k, v in traced["self_s"].items()}
    spans = traced["layer_calls"]
    calls = traced["method_calls"]
    may_run = sum(v for k, v in calls.items() if k.endswith(".may_run"))
    untraced_sim = statistics.median(sim_ref_s(r) for r in measured)

    def layer(name, value):
        return UNMEASURED if name.split(".")[0] in skip else value

    def counter(key):
        return ctr.get(key, UNMEASURED)

    out = {
        "workloads.dataset_s": setup_ref_s(traced, ("dataset_s",)),
        "arch.build_s": setup_ref_s(traced, ("build_s",)),
        "engine.us_per_event": layer(
            "engine", own["engine"] / model["events"] * 1e6),
        "engine.context_switches": ctr["context_switches"],
        "fabric.calls": layer("fabric", spans["fabric"]),
        "fabric.shadow_recomputes": ctr["shadow_recomputes"],
        "sync.admissions": layer("sync", traced["admitted"]),
        "sync.admit_ratio": layer(
            "sync", traced["admitted"] / may_run if may_run else UNMEASURED),
        "sync.drift_stalls": ctr["drift_stalls"],
        "network.deliveries": layer("network", spans["network"]),
        "network.hops": ctr["noc_hops"],
        "network.contention_cycles": ctr["noc_contention_cycles"],
        "memory.accesses": ctr["mem_accesses"] + ctr["cell_accesses"],
        "memory.remote_cell_accesses": ctr["remote_cell_accesses"],
        "memory.coherence_invalidations": counter("coherence_invalidations"),
        "runtime.calls": layer("runtime", spans["runtime"]),
        "runtime.steal_success": counter("steals_successful"),
        "timing.calls": layer("timing", spans["timing"]),
        "trace.overhead": sim_ref_s(traced) / untraced_sim,
    }
    for name in ("engine", "fabric", "sync", "network", "memory",
                 "runtime", "timing"):
        out[f"{name}.self_s"] = layer(name, own[name])
    if sharded:
        rounds = ctr["rounds"]
        out.update({
            "parallel.rounds": rounds,
            "parallel.waiver_ratio": ctr["waivers"] / rounds,
            "parallel.bytes_shipped": ctr["bytes_shipped"],
            "parallel.efficiency": ctr["parallel_efficiency"],
            "parallel.s_per_round": untraced_sim / rounds,
        })
    else:
        out.update({f"parallel.{k}": UNMEASURED for k in (
            "rounds", "waiver_ratio", "bytes_shipped", "efficiency",
            "s_per_round")})
    out.update({f"model.{k}": v for k, v in model.items()})
    raw = {f"{k}.self_s": v for k, v in traced["self_s"].items()}
    raw["workloads.dataset_s"] = statistics.median(traced["dataset_s"])
    raw["arch.build_s"] = statistics.median(traced["build_s"])
    if sharded:
        raw["parallel.s_per_round"] = statistics.median(
            r["sim_s"] for r in measured) / rounds
    return out, raw


def self_time_sum_ok(rep: dict) -> bool:
    """Layer self times plus engine self time equal the traced sim_s."""
    total = sum(v for k, v in rep["self_s"].items() if k != "probe")
    return abs(total - rep["sim_s"]) <= 1e-6 * max(rep["sim_s"], 1.0)


# -- running --------------------------------------------------------------------
def run_rep(wl, seed: int, cpus: List[int], traced: bool,
            spans_dir: Path, timeout: float) -> dict:
    """One repetition in a fresh process; failures become records."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", wl.name,
           "--seed", str(seed), "--cpus", ",".join(map(str, cpus)),
           "--src", str(ROOT / "src")]
    if traced:
        cmd += ["--traced", "--spans", str(spans_dir)]
    failed = {"workload": wl.name, "seed": seed, "cpus": cpus,
              "traced": traced, "ok": False}
    # Its own session, so a stopped repetition takes its workers with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return dict(failed, error=f"stopped after {timeout:.0f} s")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return dict(failed, error=stderr.strip()[-2000:]
                    or f"exit code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return dict(failed, error=f"unreadable record: {lines[-1][:200]}")


def mean(xs) -> float:
    return sum(xs) / len(xs) if xs else float("nan")


def describe_rep(i: int, rep: dict, good: bool) -> str:
    if "sim_s" not in rep or "k_after" not in rep:
        return f"  rep {i}: FAILED {rep.get('error')}"
    status = "ok" if good else (
        f"FAILED {rep.get('error') or 'model counts differ'}")
    raw_setup = statistics.median(
        d + b for d, b in zip(rep["dataset_s"], rep["build_s"]))
    return (f"  rep {i} cpus={rep['cpus']}"
            f"{' traced' if rep['traced'] else ''}:"
            f" sim {sim_ref_s(rep):.4f} ref s (raw {rep['sim_s']:.4f} s,"
            f" kernel before {mean(rep['k_before']) * 1e3:.3f} ms,"
            f" during {mean(rep['k_during']) * 1e3:.3f} ms"
            f" x{len(rep['k_during'])},"
            f" after {mean(rep['k_after']) * 1e3:.3f} ms);"
            f" setup {setup_ref_s(rep):.5f} ref s (raw {raw_setup:.5f} s,"
            f" kernel {mean(rep['setup_k']) * 1e3:.3f} ms);"
            f" rss {rep['peak_rss_mb']:.1f} MB; {status}")


def measure(wl, seed: int, seconds: float, trace: bool,
            spans_dir: Path) -> List[dict]:
    """Repetitions until ``seconds`` pass, then the traced one if asked."""
    cpus = sorted(os.sched_getaffinity(0))
    budget = seconds / 2.0 if trace else seconds
    min_reps = 1 if trace else MIN_REPS
    reps: List[dict] = []
    start = time.monotonic()

    def left() -> float:
        return DEADLINE_S - (time.monotonic() - start)

    while ((len(reps) < min_reps or time.monotonic() - start < budget)
           and left() > 1):
        use = cpus if wl.shards else [cpus[len(reps) % len(cpus)]]
        reps.append(run_rep(wl, seed, use, False, spans_dir, left()))
    if trace and left() > 1:
        use = cpus if wl.shards else [cpus[0]]
        reps.append(run_rep(wl, seed, use, True, spans_dir, left()))
    return reps


def report(wl, reps: List[dict], trace: bool) -> dict:
    good = successful(reps)
    for i, rep in enumerate(reps):
        if good[i] and rep["traced"] and not self_time_sum_ok(rep):
            good[i] = False
            rep["error"] = "layer self times do not sum to the traced sim_s"
    for i, (rep, g) in enumerate(zip(reps, good)):
        print(describe_rep(i, rep, g))
    traced_reps = [r for r, g in zip(reps, good) if g and r["traced"]]
    if not any(g and not r["traced"] for r, g in zip(reps, good)):
        return {"correct": False, "attempted": len(reps),
                "failed": len(reps), "metrics": {}}
    e2e = end_to_end(reps, good)
    measured = [r for r, g in zip(reps, good) if g and not r["traced"]]
    raw_sim = statistics.median(r["sim_s"] for r in measured)
    raw_setup = statistics.median(statistics.median(
        d + b for d, b in zip(r["dataset_s"], r["build_s"]))
        for r in measured)
    kb = statistics.median(mean(r["k_before"]) for r in measured)
    kd = statistics.median(mean(r["k_during"]) for r in measured)
    ka = statistics.median(mean(r["k_after"]) for r in measured)
    ks = statistics.median(mean(r["setup_k"]) for r in measured)
    units = {n: u for n, u, *_ in END_TO_END + [SIM_S]}
    units.update({n: u for n, u, _ in PER_LAYER})
    note = {
        "sim_s": (f"raw {raw_sim:.4f} s; kernel before {kb * 1e3:.3f} ms,"
                  f" during {kd * 1e3:.3f} ms, after {ka * 1e3:.3f} ms"),
        "setup_s": (f"raw {raw_setup:.5f} s; kernel around set-ups"
                    f" {ks * 1e3:.3f} ms"),
        "success_rate": (f"{len(reps) - sum(good)} failed of {len(reps)}"
                         f" attempted"),
    }
    print(f"{wl.name}: {sum(good)}/{len(reps)} repetitions verified;"
          f" medians over {len(measured)} untraced repetitions;"
          f" K_nominal {K_NOMINAL * 1e3:.3f} ms")
    for name, value in e2e.items():
        extra = f"  ({note[name]})" if name in note else ""
        print(f"  {name:<32} {value:>16.6g} {units[name]}{extra}")
    metrics = {n: e2e[n] for n, *_ in END_TO_END}
    if trace:
        if not traced_reps:
            return {"correct": False, "attempted": len(reps),
                    "failed": len(reps) - sum(good), "metrics": {}}
        metrics, raw = per_layer(reps, good, wl)
        t = traced_reps[0]
        print(f"  traced rep: sim {sim_ref_s(t):.4f} ref s (raw"
              f" {t['sim_s']:.4f} s, kernel during"
              f" {run_kernel_s(t) * 1e3:.3f} ms)")
        for name, unit, _ in PER_LAYER:
            value = metrics[name]
            shown = "unmeasured" if value == UNMEASURED else f"{value:.6g}"
            extra = ""
            if name in raw and value != UNMEASURED:
                extra = f"  (raw {raw[name]:.6g} s)"
            print(f"  {name:<32} {shown:>16} {unit}{extra}")
    failed = len(reps) - sum(good)
    return {"correct": failed == 0, "attempted": len(reps), "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json at the checkout root and exit")
    args = ap.parse_args(argv)
    check_names()
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(benchmark_spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    reps = measure(wl, args.seed, args.seconds, bool(args.trace),
                   ROOT / ".simbench" / "spans")
    result = report(wl, reps, bool(args.trace))
    if not result["metrics"]:
        print("no repetition succeeded", file=sys.stderr)
        for rep in reps:
            if rep.get("error"):
                print(rep["error"], file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
