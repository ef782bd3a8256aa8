"""Tests of the benchmark itself (not of the simulator).

Run from the checkout root::

    python3 -m pytest simbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import refkernel  # noqa: E402
import rep  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: A seconds-long paper workload is too slow for a unit test; this one
#: goes through the same code paths in well under a second.
TINY = workloads.Workload("tiny_qs", "unit-test workload", "quicksort",
                          "shared", "shared_mesh", 16, scale="tiny")


def fake_rep(sim_s=2.0, k_during=(0.002,), k_edges=(0.004,), model=None,
             ok=True, traced=False):
    return {
        "ok": ok, "traced": traced, "error": None, "cpus": [0],
        "sim_s": sim_s, "k_during": list(k_during),
        "k_before": list(k_edges), "k_after": list(k_edges),
        "setup_k": [0.001, 0.002, 0.001], "dataset_s": [0.01, 0.03],
        "build_s": [0.02, 0.03], "peak_rss_mb": 70.0,
        "model": model or {"events": 1000, "actions": 400,
                           "messages": 600, "work_vtime": 5.0,
                           "completion_vtime": 6.0},
    }


def run_tiny(**kw):
    cpus = sorted(os.sched_getaffinity(0))
    try:
        return rep.run_rep(TINY, 0, cpus, 2, **kw)
    finally:
        os.sched_setaffinity(0, set(cpus))


# -- normalisation arithmetic ----------------------------------------------------
def test_reference_seconds_scale_by_nominal_over_measured_kernel():
    r = fake_rep(sim_s=2.0, k_during=[0.001, 0.003])
    expect = 2.0 * refkernel.K_NOMINAL / 0.002
    assert run.sim_ref_s(r) == pytest.approx(expect)
    # A host twice as slow doubles the raw time and the kernel alike.
    slow = fake_rep(sim_s=4.0, k_during=[0.002, 0.006])
    assert run.sim_ref_s(slow) == pytest.approx(expect)


def test_edge_samples_stand_in_only_for_an_unsampled_run():
    sampled = fake_rep(k_during=[0.002], k_edges=[0.010])
    assert run.run_kernel_s(sampled) == pytest.approx(0.002)
    unsampled = fake_rep(k_during=[], k_edges=[0.004])
    assert run.run_kernel_s(unsampled) == pytest.approx(0.004)


def test_a_forked_worker_adds_only_its_growth_beyond_inherited_pages():
    # Coordinator peak 70 MiB; it held 60 MiB when it forked two workers,
    # the larger of which peaked at 75 MiB: each added 15 MiB of its own.
    mib = 1024.0
    assert rep.combined_rss_mb(70 * mib, 75 * mib, 2, 60 * mib) == (
        pytest.approx(100.0))
    assert rep.combined_rss_mb(70 * mib, 0.0, 0, 60 * mib) == (
        pytest.approx(70.0))
    # A worker cannot count for less than nothing.
    assert rep.combined_rss_mb(70 * mib, 50 * mib, 2, 60 * mib) == (
        pytest.approx(70.0))


def test_each_setup_is_normalised_by_the_samples_around_it():
    r = fake_rep()  # set-ups 0.03 s and 0.06 s; kernels 1, 2, 1 ms
    k = refkernel.K_NOMINAL
    first = 0.03 * k / 0.0015
    second = 0.06 * k / 0.0015
    assert run.setup_ref_s(r) == pytest.approx((first + second) / 2)
    assert run.setup_ref_s(r, ("dataset_s",)) == pytest.approx(
        (0.01 + 0.03) * k / 0.0015 / 2)


def test_events_per_s_is_events_over_median_reference_seconds():
    reps = [fake_rep(sim_s=s) for s in (1.0, 3.0, 2.0)]
    e2e = run.end_to_end(reps, run.successful(reps))
    median = 2.0 * refkernel.K_NOMINAL / 0.002
    assert e2e["sim_s"] == pytest.approx(median)
    assert e2e["events_per_s"] == pytest.approx(1000 / median)


def test_a_sample_in_a_sharded_run_stops_the_workers_and_resumes_them():
    child = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        assert not rep.is_stopped(child.pid)
        assert rep.stop_children() == [child.pid]
        assert rep.is_stopped(child.pid)
        rep.continue_children([child.pid])
        assert not rep.is_stopped(child.pid)
    finally:
        child.kill()
        child.wait()


# -- names and the spec ------------------------------------------------------------
def test_metric_names_and_units_fit_the_charset():
    run.check_names()
    for bad in ("", ".x", "a b", "x" * 65, "é"):
        assert not run.NAME_RE.match(bad)
    assert run.NAME_RE.match("engine.self_s")
    assert run.UNIT_RE.match("1/s") and not run.UNIT_RE.match("per second")


def test_committed_benchmark_json_matches_the_tables():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == run.benchmark_spec()
    names = [m["name"] for m in committed["end_to_end"]]
    assert "setup_s" in names
    assert all(m["bound"] <= 0.25 for m in committed["end_to_end"])


# -- correctness accounting ----------------------------------------------------------
def test_injected_verify_failure_lowers_success_rate(monkeypatch):
    good = run_tiny()
    assert good["ok"], good["error"]

    def broken(prep, results):
        raise AssertionError("injected verify failure")

    monkeypatch.setattr(workloads, "verify", broken)
    bad = run_tiny()
    assert not bad["ok"] and "injected" in bad["error"]
    reps = [good, bad, good]
    flags = run.successful(reps)
    assert flags == [True, False, True]
    assert run.end_to_end(reps, flags)["success_rate"] == pytest.approx(2 / 3)


def test_a_run_whose_model_counts_differ_is_failed():
    odd = fake_rep(model={"events": 1001, "actions": 401, "messages": 600,
                          "work_vtime": 5.0, "completion_vtime": 6.0})
    assert run.successful([fake_rep(), odd, fake_rep()]) == [True, False,
                                                             True]


# -- tracing -------------------------------------------------------------------------
def test_traced_run_self_times_sum_to_sim_and_match_counters():
    plain = run_tiny()
    traced = run_tiny(traced=True)
    assert traced["ok"], traced["error"]
    assert traced["model"] == plain["model"]  # tracing observes only
    assert run.self_time_sum_ok(traced)
    assert run.unmeasured_layers(traced, sharded=False) == []
    assert traced["layer_calls"]["network"] == traced["model"]["messages"]


def test_a_bypassed_entry_point_is_reported_unmeasured():
    traced = run_tiny(traced=True)
    traced["method_calls"]["Noc.delivery_time"] = 0
    assert run.unmeasured_layers(traced, sharded=False) == ["network"]


# -- running from a checkout -----------------------------------------------------------
def test_fails_without_the_simulator_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "simbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "simbench/run.py", "--workload", "cc_dist_64",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_held_out_seed_changes_the_model_and_still_verifies(name):
    """Seed 1 is held out from tuning: its inputs differ from seed 0's
    (so do the simulated counts) and every output still verifies."""
    wl = workloads.WORKLOADS[name]
    cpus = sorted(os.sched_getaffinity(0))
    use = cpus if wl.shards else cpus[:1]
    try:
        records = [rep.run_rep(wl, seed, use, 1) for seed in (0, 1)]
    finally:
        os.sched_setaffinity(0, set(cpus))
    for r in records:
        assert r["ok"], r["error"]
        assert r["k_during"], "the run was not sampled"
    assert records[0]["model"] != records[1]["model"]
