"""Every metric the runner prints is declared in BENCHMARK.json."""

import types

from perfbench import run
from perfbench.run import BENCHMARK, END_TO_END, HOST_METRICS, PER_LAYER
from perfbench.tracing import Tracer
from perfbench.workloads import Observer, _layer_metrics, _sweep_layer_metrics


def test_host_metrics_are_declared_and_setup_has_the_largest_bound():
    assert HOST_METRICS <= set(END_TO_END)
    bounds = {e["name"]: e["bound"] for e in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_pass_seeds_repeat_pass_zero_last():
    seeds = run.pass_seeds(7)
    assert len(seeds) == run.SIM_PASSES + 1
    assert seeds[0] == seeds[-1] == 7
    assert len(set(seeds[: run.SIM_PASSES])) == run.SIM_PASSES


def fake_pass(**sim):
    return {"read_latencies": [1.0, 2.0, 3.0], "sim": sim}


def test_untraced_metrics_are_the_declared_end_to_end_metrics():
    passes = [fake_pass(bandwidth_mbps=1.0, jain=0.5)] * run.SIM_PASSES
    assert set(run.pooled_sim_metrics(passes)) == set(END_TO_END) - HOST_METRICS


def test_traced_metrics_are_the_declared_per_layer_metrics():
    counts = {
        key: 0
        for key in (
            "pipeline_reads pipeline_writes pipeline_trims device_reads device_writes "
            "device_trims host_programs gc_programs wl_programs erases buffer_read_hits"
        ).split()
    }
    probe = types.SimpleNamespace(fired_total=0, heap_high_water=0)
    sim_layers = _layer_metrics(Tracer(), Observer(), probe, [], [], counts, 0.0, 0, [])
    suite = types.SimpleNamespace(points_total=1, cache_hits=0, jobs=2)
    pool = types.SimpleNamespace(first_submit_s=0.0)
    sweep_layers = _sweep_layer_metrics(Tracer(), pool, suite, [suite], [1.0], 1.0)
    assert set(sim_layers) | set(sweep_layers) | {"trace.overhead_frac"} == set(PER_LAYER)
    assert not set(sim_layers) & set(sweep_layers)

