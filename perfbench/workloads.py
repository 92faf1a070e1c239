"""The four benchmark workloads, one pass each.

A pass builds the system from the seed, runs it to a fixed simulated
horizon (or, for the sweep, over a fixed set of points), checks the
outputs and returns host timings, simulated results and a digest of
every simulated output.  :mod:`perfbench.rep` runs one pass per fresh
process; :mod:`perfbench.run` repeats passes and aggregates them.

All simulated clients live in the one process, closed loop, with no
threads or sockets.  Only ``fig_sweep`` starts worker processes.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional

from repro.harness import orchestrator, parallel
from repro.harness.kvcluster import KvCluster, KvClusterConfig
from repro.harness.parallel import WorkerPool
from repro.harness.testbed import Testbed, TestbedConfig
from repro.kv import LsmConfig
from repro.metrics.histogram import LatencyHistogram
from repro.obs.probe import KernelProbe
from repro.workloads import FioSpec
from repro.workloads.population import DEFAULT_TENANT_CLASSES, TenantClass, TenantPopulation

from perfbench import stats
from perfbench.hostspeed import HostSpeed
from perfbench.stats import check
from perfbench.tracing import Tracer

SIM_LAYERS = ("sim", "fabric", "core", "ssd", "kv", "workloads", "metrics", "testbed", "kvcluster")

#: Closed-loop fio shapes.  ``sampled`` names the workers whose read
#: latency the end-to-end percentiles cover.
FIO_SHAPES = {
    # Paper Fig 4/7: a 4 KiB reader (the victim) beside a 4 KiB random
    # writer and a 128 KiB reader on one fragmented SSD under Gimbal.
    # Congestion control, token buckets, DRR/virtual slots, the write
    # cost estimator, GC and the write buffer all do real work here.
    "noisy_neighbour": {
        "scheme": "gimbal",
        "condition": "fragmented",
        "num_ssds": 1,
        "workers": (
            ("victim", 1, 32, 1.0, 0),
            ("writer", 1, 128, 0.0, 0),
            ("bulk-reader", 32, 8, 1.0, 0),
        ),
        "sampled": ("victim",),
        "warmup_us": 100_000.0,
        "horizon_us": 1_600_000.0,
    },
    # Eight 4 KiB random readers at QD32, two per clean SSD, through the
    # fused pass-through scheduler: the kernel, the fabric wire path and
    # the single-page read path carry all the work, ``core`` none.
    "read_storm": {
        "scheme": "vanilla",
        "condition": "clean",
        "num_ssds": 4,
        "workers": tuple((f"reader{i}", 1, 32, 1.0, i % 4) for i in range(8)),
        "sampled": tuple(f"reader{i}" for i in range(8)),
        "warmup_us": 10_000.0,
        "horizon_us": 100_000.0,
    },
}

#: Simulated time after warm-up at which a fio pass takes its
#: checkpoint digest.  The pass that repeats a seed stops there.
CHECKPOINT_US = {"noisy_neighbour": 100_000.0, "read_storm": 10_000.0}
#: Pages of LBA space each fio tenant addresses.
REGION_PAGES = 8192
#: Simulated time allowed after the horizon for in-flight IO to finish.
DRAIN_STEP_US = 10_000.0
DRAIN_STEPS = 50

#: rack_churn shape: the only workload where the KV stack and tenant
#: lifecycle (arrive, load, run, depart) do real work.
RACK_TENANTS = 24
RACK_HORIZON_US = 150_000.0
RACK_CHURN = 0.8
RACK_SKEW = 0.9
#: The tenant mix is drawn once from this constant seed; the workload
#: seed drives every tenant's request stream.  Drawing the mix per seed
#: moved the read p99 by about 35% between seeds, which would drown
#: any change to the program.
RACK_POPULATION_SEED = 5
#: The default rack classes with doubled client concurrency, so that
#: storage reads queue behind each other.
RACK_CLASSES = tuple(
    TenantClass(c.name, c.workload, c.record_counts, tuple(2 * q for q in c.concurrencies))
    for c in DEFAULT_TENANT_CLASSES
)
#: A 32-record memtable keeps most tenant data on flash.  At the
#: 256 KiB default most tenants fit in memory, and the median YCSB read
#: is a 1 us memtable hit that reads the same for every seed.
RACK_LSM = LsmConfig(memtable_bytes=32 * 1024)

#: fig_sweep: two figure sweeps in quick mode, cold then warm cache.
SWEEP_EXPERIMENTS = ("fig02", "fig14")
SWEEP_JOBS = 2
#: Warm replays per pass; ``sweep_warm_s`` is the median replay.  A
#: replay is only about 0.15 s of work, so one replay's time is noisy.
WARM_REPLAYS = 6
#: fig14's closed-loop queue depth (its default, stated so the
#: benchmark can turn the rows' IOPS into latency by Little's law).
FIG14_QUEUE_DEPTH = 32


class ExactHistogram(LatencyHistogram):
    """A latency histogram that also keeps every sample.

    The program's histograms bucket at ~2%, so a percentile drawn from
    them can read the same for different seeds; the benchmark reports
    exact nearest-rank percentiles instead.
    """

    def __init__(self) -> None:
        super().__init__()
        self.samples: List[float] = []

    def record(self, value: float) -> None:
        self.samples.append(value)
        LatencyHistogram.record(self, value)


class BenchCluster(KvCluster):
    """A :class:`KvCluster` that keeps every runner it ever created.

    Departed tenants leave ``KvCluster.runners``; the benchmark still
    needs their operation counts, LSM counters and read latencies.
    """

    def __init__(self, config: KvClusterConfig):
        super().__init__(config)
        self.all_runners = []

    def add_instance(self, name, workload, record_count=2048, concurrency=4):
        runner = super().add_instance(
            name, workload, record_count=record_count, concurrency=concurrency
        )
        begin = runner.begin_measurement

        def begin_exact() -> None:
            begin()
            runner.read_latency = ExactHistogram()

        runner.begin_measurement = begin_exact
        self.all_runners.append(runner)
        return runner


def _sampled_worker(jobs: int, log_dir: str) -> None:  # runs in worker processes
    """Pool initializer: warm the worker, then sample its core's speed.

    The sampler lives as long as the worker: its signal handler holds it.
    """
    parallel._warm_worker(jobs)
    HostSpeed(log=Path(log_dir) / f"speed-{os.getpid()}.log").start()


class _TimedPool(WorkerPool):
    """Worker pool that notes when the first sweep point is dispatched.

    With ``speed_dir`` each worker samples its own core's speed (see
    :mod:`perfbench.hostspeed`) into a log there; :meth:`worker_speeds`
    reads the logs back.
    """

    def __init__(self, jobs: int, speed_dir: Optional[Path] = None):
        super().__init__(jobs)
        self.first_dispatch: Optional[float] = None
        self.first_submit_s = 0.0
        self.speed_dir = speed_dir

    @property
    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None and self.speed_dir is not None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_sampled_worker,
                initargs=(self.jobs, str(self.speed_dir)),
            )
        return super().executor

    def worker_speeds(self) -> List[HostSpeed]:
        if self.speed_dir is None:
            return []
        return [HostSpeed.load(log) for log in sorted(self.speed_dir.glob("speed-*.log"))]

    def submit(self, fn, *args):
        if self.first_dispatch is not None:
            return super().submit(fn, *args)
        start = time.perf_counter()
        future = super().submit(fn, *args)
        self.first_submit_s = time.perf_counter() - start
        self.first_dispatch = time.monotonic()
        return future


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _tail(samples: List[float], checks: List[dict], label: str) -> Dict[str, float]:
    """Exact p50/p99 of ``samples``; p99 must be reportable."""
    ordered = sorted(samples)
    count = len(ordered)
    check(
        checks,
        f"{label}: p99 has >= {stats.MIN_SAMPLES_BEYOND} samples beyond it",
        stats.reportable(count, 99.0),
        {"samples": count, "highest_reportable": stats.highest_reportable(count)},
    )
    if not ordered:
        return {"p50": 0.0, "p99": 0.0}
    return {"p50": stats.percentile(ordered, 50.0), "p99": stats.percentile(ordered, 99.0)}


def _pct(samples: List[float], pct: float) -> float:
    return stats.percentile(sorted(samples), pct) if samples else 0.0


# ----------------------------------------------------------------------
# Traced-run observers
# ----------------------------------------------------------------------
class Observer:
    """Simulated per-IO samples the traced run collects through hooks.

    The hooks only read request timestamps (and, on ``rack_churn``,
    wrap LSM completion callbacks); they schedule nothing, so the
    traced pass simulates exactly what the untraced one does -- the
    digest comparison in :mod:`perfbench.run` proves it.
    """

    def __init__(self) -> None:
        self.session_wait: List[float] = []
        self.queue_wait: List[float] = []
        self.device_read: List[float] = []
        self.blob_pages_written = 0
        self.acked: Dict[str, set] = {}
        self.reads_checked = 0
        self.lost_reads = 0

    def hooks(self, kv: bool) -> Dict[str, object]:
        hooks = {
            "TenantSession.deliver_completion": self._deliver,
            "SsdPipeline._device_completed": self._device_completed,
        }
        if kv:
            hooks["Blobstore.write"] = self._blob_write
            hooks["LsmTree.put"] = self._put
            hooks["LsmTree.get"] = self._get
        return hooks

    def _deliver(self, fn, session, request):
        self.session_wait.append(request.t_wire_submit - request.t_client_submit)
        return fn(session, request)

    def _device_completed(self, fn, pipeline, command):
        request = command.tag
        self.queue_wait.append(request.t_device_submit - request.t_target_arrival)
        if command.op.is_read:
            self.device_read.append(command.complete_time - command.submit_time)
        return fn(pipeline, command)

    def _blob_write(self, fn, store, file, offset, npages, *args, **kwargs):
        self.blob_pages_written += npages
        return fn(store, file, offset, npages, *args, **kwargs)

    def _put(self, fn, tree, key, on_done):
        acked = self.acked.setdefault(tree.name, set())

        def done() -> None:
            acked.add(key)
            on_done()

        return fn(tree, key, done)

    def _get(self, fn, tree, key, on_done):
        # A read issued after its key's put was acknowledged must find it.
        expected = key in self.acked.get(tree.name, ())

        def done(found: bool) -> None:
            if expected:
                self.reads_checked += 1
                if not found:
                    self.lost_reads += 1
            on_done(found)

        return fn(tree, key, done)


def _traced_build(tracer: Optional[Tracer], kv: bool) -> Optional[Observer]:
    if tracer is None:
        return None
    observer = Observer()
    tracer.install_layers(SIM_LAYERS, around=observer.hooks(kv))
    return observer


# ----------------------------------------------------------------------
# Shared device/pipeline accounting
# ----------------------------------------------------------------------
def _pipelines(targets) -> list:
    return [p for target in targets for p in target.pipelines.values()]


def _devices(targets) -> list:
    return [p.device for p in _pipelines(targets)]


def _pipeline_ios(pipelines) -> int:
    return sum(p.stats.reads + p.stats.writes + p.stats.trims for p in pipelines)


def _device_bytes(devices) -> int:
    return sum(d.stats.read_bytes + d.stats.write_bytes for d in devices)


def _counts(pipelines, devices) -> dict:
    ftl = [d.ftl.stats for d in devices]
    return {
        "pipeline_reads": sum(p.stats.reads for p in pipelines),
        "pipeline_writes": sum(p.stats.writes for p in pipelines),
        "pipeline_trims": sum(p.stats.trims for p in pipelines),
        "device_reads": sum(d.stats.read_commands for d in devices),
        "device_writes": sum(d.stats.write_commands for d in devices),
        "device_trims": sum(d.stats.trim_commands for d in devices),
        "device_read_bytes": sum(d.stats.read_bytes for d in devices),
        "device_write_bytes": sum(d.stats.write_bytes for d in devices),
        "buffer_read_hits": sum(d.stats.buffer_read_hits for d in devices),
        "host_programs": sum(s.host_programs for s in ftl),
        "gc_programs": sum(s.gc_programs for s in ftl),
        "wl_programs": sum(s.wl_programs for s in ftl),
        "erases": sum(s.erases for s in ftl),
        "outstanding": sum(d.outstanding for d in devices),
    }


def _reconcile_checks(checks: List[dict], counts: dict) -> None:
    check(
        checks,
        "pipeline reads == device read commands",
        counts["pipeline_reads"] == counts["device_reads"],
        [counts["pipeline_reads"], counts["device_reads"]],
    )
    check(
        checks,
        "pipeline writes == device write commands",
        counts["pipeline_writes"] == counts["device_writes"],
        [counts["pipeline_writes"], counts["device_writes"]],
    )
    check(
        checks,
        "pipeline trims == device trim commands",
        counts["pipeline_trims"] == counts["device_trims"],
        [counts["pipeline_trims"], counts["device_trims"]],
    )
    outstanding = counts["outstanding"]
    check(checks, "no device command outstanding", outstanding == 0, outstanding)


def _layer_metrics(
    tracer: Tracer,
    observer: Observer,
    probe: KernelProbe,
    pipelines,
    devices,
    counts: dict,
    nic_busy_frac: float,
    client_ops: int,
    checks: List[dict],
    trees=(),
    shadow_frac: float = 0.0,
) -> dict:
    """Per-layer metrics of one traced simulation pass."""
    ios = counts["pipeline_reads"] + counts["pipeline_writes"] + counts["pipeline_trims"]
    commands = counts["device_reads"] + counts["device_writes"] + counts["device_trims"]
    gimbal = [p.scheduler for p in pipelines if p.scheduler.name == "gimbal"]
    programs = counts["host_programs"] + counts["gc_programs"] + counts["wl_programs"]
    gets = sum(t.stats.gets for t in trees)
    puts = sum(t.stats.puts for t in trees)
    metrics_calls = tracer.calls("metrics")
    # Conditioning runs entirely inside the ssd layer before the first
    # event; it is reported apart from the layer's run-time self time.
    conditioning_s = tracer.inclusive_s("ssd:precondition_clean", "ssd:precondition_fragmented")
    ssd_run_s = tracer.self_s("ssd") - conditioning_s

    def per(value: float, count: int, scale: float = 1.0) -> float:
        return value / count * scale if count else 0.0

    # The layers' own counters must agree with the wrapped call counts.
    submits = tracer.count("SsdDevice.submit")
    check(
        checks,
        "SsdDevice.submit calls == device commands",
        submits == commands,
        [submits, commands],
    )
    if gimbal:
        enqueues = tracer.count("GimbalScheduler.enqueue")
        check(checks, "scheduler enqueues == pipeline IOs", enqueues == ios, [enqueues, ios])
    return {
        "sim.events": probe.fired_total,
        "sim.self_s": tracer.self_s("sim"),
        "sim.ns_per_event": per(tracer.self_s("sim"), probe.fired_total, 1e9),
        "sim.heap_high_water": probe.heap_high_water,
        "fabric.calls": tracer.calls("fabric"),
        "fabric.self_s": tracer.self_s("fabric"),
        "fabric.us_per_io": per(tracer.self_s("fabric"), ios, 1e6),
        "fabric.nic_busy_frac": nic_busy_frac,
        "fabric.session_wait_us_p99": _pct(observer.session_wait, 99.0),
        "core.calls": tracer.calls("core"),
        "core.self_s": tracer.self_s("core"),
        "core.us_per_io": per(tracer.self_s("core"), ios, 1e6),
        "core.queue_wait_us_p50": _pct(observer.queue_wait, 50.0),
        "core.queue_wait_us_p99": _pct(observer.queue_wait, 99.0),
        "core.slot_deferrals": sum(s.drr.deferrals for s in gimbal),
        "core.write_cost": per(sum(s.write_cost.cost for s in gimbal), len(gimbal)),
        "ssd.calls": tracer.calls("ssd"),
        "ssd.self_s": ssd_run_s,
        "ssd.us_per_cmd": per(ssd_run_s, commands, 1e6),
        "ssd.read_commands": counts["device_reads"],
        "ssd.write_commands": counts["device_writes"],
        "ssd.gc_programs": counts["gc_programs"],
        "ssd.erases": counts["erases"],
        "ssd.write_amplification": per(programs, counts["host_programs"]),
        "ssd.buffer_read_hits": counts["buffer_read_hits"],
        "ssd.device_read_us_p99": _pct(observer.device_read, 99.0),
        "ssd.conditioning_s": conditioning_s,
        "kv.calls": tracer.calls("kv"),
        "kv.self_s": tracer.self_s("kv"),
        "kv.us_per_op": per(tracer.self_s("kv"), client_ops, 1e6) if trees else 0.0,
        "kv.table_reads_per_get": per(sum(t.stats.table_reads for t in trees), gets),
        "kv.memtable_hit_frac": per(sum(t.stats.memtable_hits for t in trees), gets),
        "kv.flushes": sum(t.stats.flushes for t in trees),
        "kv.compactions": sum(t.stats.compactions for t in trees),
        "kv.stalled_puts": sum(t.stats.stalled_puts for t in trees),
        "kv.pages_written_per_put": per(observer.blob_pages_written, puts),
        "kv.shadow_read_frac": shadow_frac,
        "kv.alloc_calls": tracer.count(
            "LocalBlobAllocator.allocate_micro", "GlobalBlobAllocator.allocate_mega"
        ),
        "workloads.self_s": tracer.self_s("workloads"),
        "workloads.us_per_op": per(tracer.self_s("workloads"), client_ops, 1e6),
        "workloads.population_s": tracer.inclusive_s("TenantPopulation.generate"),
        "metrics.self_s": tracer.self_s("metrics"),
        "metrics.us_per_sample": per(tracer.self_s("metrics"), metrics_calls, 1e6),
        "testbed.build_s": tracer.inclusive_s(
            "Testbed.__init__", "Testbed.add_worker", "KvCluster.__init__"
        ),
        "kvcluster.add_instance_s": tracer.inclusive_s("KvCluster.add_instance"),
        "kvcluster.depart_instance_s": tracer.inclusive_s("KvCluster.depart_instance"),
    }


# ----------------------------------------------------------------------
# noisy_neighbour / read_storm
# ----------------------------------------------------------------------
def _repeat_result(setup_s: float, checkpoint: str) -> dict:
    """What a pass that only repeats a seed up to its checkpoint returns."""
    return {
        "setup_s": setup_s,
        "checkpoint": checkpoint,
        "attempted": 0,
        "failed": 0,
        "checks": [],
    }


def run_fio(
    name: str, seed: int, t0: float, tracer: Optional[Tracer], speed: HostSpeed, repeat: bool
) -> dict:
    shape = FIO_SHAPES[name]
    checks: List[dict] = []
    observer = _traced_build(tracer, kv=False)
    build_start = time.perf_counter()
    testbed = Testbed(
        TestbedConfig(
            scheme=shape["scheme"],
            condition=shape["condition"],
            num_ssds=shape["num_ssds"],
            seed=stats.derive_seed(seed, "testbed"),
        )
    )
    workers = [
        testbed.add_worker(
            FioSpec(wname, io_pages=pages, queue_depth=qd, read_ratio=ratio),
            ssd=f"ssd{ssd}",
            region_pages=REGION_PAGES,
        )
        for wname, pages, qd, ratio, ssd in shape["workers"]
    ]
    probe = None
    if tracer is not None:
        probe = testbed.sim.probe = KernelProbe(detailed=False)
    sim = testbed.sim
    pipelines = _pipelines([testbed.target])
    devices = _devices([testbed.target])
    for worker in workers:
        worker.start()
    setup_s = speed.reference_s(t0)

    run_start = time.monotonic()
    sim.run(until_us=shape["warmup_us"])
    sampled = []
    for worker in workers:
        worker.begin_measurement()
        if worker.spec.name in shape["sampled"]:
            worker.read_latency = ExactHistogram()
            sampled.append(worker)
    ios_before = _pipeline_ios(pipelines)
    bytes_before = _device_bytes(devices)
    window_start = time.monotonic()
    sim.run(until_us=shape["warmup_us"] + CHECKPOINT_US[name])
    checkpoint_start = time.monotonic()
    checkpoint = stats.digest(
        {
            "counts": _counts(pipelines, devices),
            "latencies": [v for w in sampled for v in w.read_latency.samples],
            "now": sim.now,
        }
    )
    checkpoint_end = time.monotonic()
    if repeat:
        return _repeat_result(setup_s, checkpoint)
    sim.run(until_us=shape["horizon_us"])
    window_end = time.monotonic()
    # Host time of the checkpoint digest itself is left out.
    digest_s = speed.reference_s(checkpoint_start, checkpoint_end)
    window_s = speed.reference_s(window_start, window_end) - digest_s
    ios = _pipeline_ios(pipelines) - ios_before
    client_ops = sum(w.throughput.ops for w in workers)
    moved = _device_bytes(devices) - bytes_before
    sim_window_s = (shape["horizon_us"] - shape["warmup_us"]) / 1e6
    results = [w.results() for w in workers]
    busy_us = sum(core.busy_us_total for core in testbed.target.cores)
    cold_s = speed.reference_s(t0, window_end) - digest_s

    # Drain: stop issuing, let in-flight IO finish, then every issued
    # IO must have completed and the layers' counters must agree.
    for worker in workers:
        worker.stop()
    sessions = [w.session for w in workers]
    for _ in range(DRAIN_STEPS):
        if not any(s.inflight or s.queued for s in sessions):
            break
        sim.run(until_us=sim.now + DRAIN_STEP_US)
    pass_s = speed.reference_s(t0)
    traced_wall_s = time.perf_counter() - build_start
    counts = _counts(pipelines, devices)
    issued = sum(s.submitted + s.queued for s in sessions)
    completed = sum(s.completed for s in sessions)
    check(
        checks,
        "every issued IO completed after the drain",
        issued == completed,
        [issued, completed],
    )
    _reconcile_checks(checks, counts)
    check(checks, "IOs completed in the timed window", ios > 0, ios)

    latencies = [v for w in sampled for v in w.read_latency.samples]
    tail = _tail(latencies, checks, "read latency")
    per_worker_bytes = [w.throughput.bytes for w in workers]
    sim_metrics = {
        "read_p50_us": tail["p50"],
        "read_p99_us": tail["p99"],
        "bandwidth_mbps": moved / sim_window_s / 1e6,
        "jain": stats.jain(per_worker_bytes),
    }
    out = {
        "setup_s": setup_s,
        "host": {
            "ios_per_s": ios / window_s,
            "kv_ops_per_s": client_ops / window_s,
            "sweep_cold_s": cold_s,
            "sweep_warm_s": speed.reference_s(run_start, window_end) - digest_s,
        },
        "sim": sim_metrics,
        "read_latencies": latencies,
        "pass_s": pass_s,
        "checkpoint": checkpoint,
        "attempted": issued,
        "failed": issued - completed,
        "digest": stats.digest(
            {
                "sim": sim_metrics,
                "workers": results,
                "latencies": latencies,
                "counts": counts,
                "window_ios": ios,
                "client_ops": client_ops,
                "core_busy_us": busy_us,
                "now": sim.now,
            }
        ),
    }
    if tracer is not None:
        out["layers"] = _layer_metrics(
            tracer,
            observer,
            probe,
            pipelines,
            devices,
            counts,
            busy_us / (len(testbed.target.cores) * shape["horizon_us"]),
            client_ops=sum(s.completed for s in sessions),
            checks=checks,
        )
        out["traced_wall_s"] = traced_wall_s
    out["checks"] = checks
    return out


# ----------------------------------------------------------------------
# rack_churn
# ----------------------------------------------------------------------
def run_rack(seed: int, t0: float, tracer: Optional[Tracer], speed: HostSpeed) -> dict:
    """One rack_churn pass.  Its checkpoint is its digest: the population
    runs in one call, so a repeat pass runs it whole."""
    checks: List[dict] = []
    observer = _traced_build(tracer, kv=True)
    build_start = time.perf_counter()
    cluster = BenchCluster(
        KvClusterConfig(
            scheme="gimbal",
            condition="clean",
            num_jbofs=2,
            ssds_per_jbof=2,
            lsm=RACK_LSM,
            seed=stats.derive_seed(seed, "cluster"),
        )
    )
    specs = TenantPopulation(
        tenants=RACK_TENANTS,
        horizon_us=RACK_HORIZON_US,
        classes=RACK_CLASSES,
        skew=RACK_SKEW,
        churn=RACK_CHURN,
        seed=RACK_POPULATION_SEED,
    ).generate()
    probe = None
    if tracer is not None:
        probe = cluster.sim.probe = KernelProbe(detailed=False)
    pipelines = _pipelines(cluster.targets)
    devices = _devices(cluster.targets)
    setup_s = speed.reference_s(t0)

    run_start = time.monotonic()
    outcome = cluster.run_population(specs)
    run_end = time.monotonic()
    traced_wall_s = time.perf_counter() - build_start
    run_s = speed.reference_s(run_start, run_end)
    cold_s = speed.reference_s(t0, run_end)
    pass_s = cold_s
    runners = cluster.all_runners
    ops = sum(r.ops.ops for r in runners)
    counts = _counts(pipelines, devices)
    ios = counts["pipeline_reads"] + counts["pipeline_writes"] + counts["pipeline_trims"]
    check(checks, "no mega blob leaked", outcome["megas_leaked"] == 0, outcome["megas_leaked"])
    check(
        checks,
        "every tenant departed",
        cluster.tenants_departed == len(specs) == len(outcome["tenants"]),
        [cluster.tenants_departed, len(specs)],
    )
    check(checks, "no tenant left resident", not cluster.instances, len(cluster.instances))
    _reconcile_checks(checks, counts)
    check(checks, "YCSB operations completed", ops > 0, ops)

    latencies = [v for r in runners for v in r.read_latency.samples]
    tail = _tail(latencies, checks, "YCSB read latency")
    kops = [tenant["kops"] for tenant in outcome["tenants"]]
    drained_s = outcome["drained_us"] / 1e6
    sim_metrics = {
        "read_p50_us": tail["p50"],
        "read_p99_us": tail["p99"],
        "bandwidth_mbps": (counts["device_read_bytes"] + counts["device_write_bytes"])
        / drained_s
        / 1e6,
        "jain": stats.jain(kops),
    }
    failed = 0
    out = {
        "setup_s": setup_s,
        "host": {
            "ios_per_s": ios / run_s,
            "kv_ops_per_s": ops / run_s,
            "sweep_cold_s": cold_s,
            "sweep_warm_s": run_s,
        },
        "sim": sim_metrics,
        "read_latencies": latencies,
        "pass_s": pass_s,
        "attempted": ops,
        "digest": stats.digest(
            {
                "sim": sim_metrics,
                "outcome": outcome,
                "latencies": latencies,
                "counts": counts,
                "ops": ops,
            }
        ),
    }
    out["checkpoint"] = out["digest"]
    if tracer is not None:
        shadow = outcome["reads_to_primary"] + outcome["reads_to_shadow"]
        cores = [core for target in cluster.targets for core in target.cores]
        out["layers"] = _layer_metrics(
            tracer,
            observer,
            probe,
            pipelines,
            devices,
            counts,
            sum(core.busy_us_total for core in cores) / (len(cores) * outcome["drained_us"]),
            client_ops=ops,
            checks=checks,
            trees=[r.tree for r in runners],
            shadow_frac=outcome["reads_to_shadow"] / shadow if shadow else 0.0,
        )
        out["traced_wall_s"] = traced_wall_s
        failed = observer.lost_reads
        check(
            checks,
            "reads after an acknowledged put find their key",
            observer.lost_reads == 0,
            {"checked": observer.reads_checked, "lost": observer.lost_reads},
        )
    out["failed"] = failed
    out["checks"] = checks
    return out


# ----------------------------------------------------------------------
# fig_sweep
# ----------------------------------------------------------------------
def _sweep_ios(results: dict, specs) -> int:
    """IOs the sweep's points simulated in their measured windows.

    Derived from each row's reported rate: fig14 reports kIOPS over
    ``duration_us``; fig02 runs QD1, so a point completes one IO per
    mean latency over ``measure_us``.
    """
    kwargs = {spec.name: spec.kwargs for spec in specs}
    ios = 0
    for row in results["fig14"]["rows"]:
        ios += round(row["kiops"] * 1000.0 * kwargs["fig14"]["duration_us"] / 1e6)
    for row in results["fig02"]["rows"]:
        ios += round(kwargs["fig02"]["measure_us"] / row["avg_latency_us"])
    return ios


def _sweep_read_latencies(results: dict) -> List[float]:
    """Mean IO latency of each fig14 point, by Little's law.

    fig02 runs at QD1 on an idle clean SSD, so its latencies do not
    depend on the seed; fig14's QD32 points queue, so theirs do.
    """
    return [FIG14_QUEUE_DEPTH / (row["kiops"] * 1e3) * 1e6 for row in results["fig14"]["rows"]]


def _sweep_sim_metrics(results: dict) -> dict:
    latencies = sorted(_sweep_read_latencies(results))
    by_ratio: Dict[float, List[float]] = {}
    for row in results["fig14"]["rows"]:
        by_ratio.setdefault(row["read_ratio"], []).append(row["kiops"])
    # 1.0 when a fragmented SSD sustains the clean one's IOPS.
    parity = [stats.jain(pair) for pair in by_ratio.values()]
    fig14 = results["fig14"]["rows"]
    return {
        "read_p50_us": stats.percentile(latencies, 50.0),
        "read_p99_us": latencies[-1],
        "bandwidth_mbps": sum(r["read_mbps"] + r["write_mbps"] for r in fig14)
        / len(fig14)
        * 1.048576,
        "jain": statistics.fmean(parity),
    }


def _sweep_layer_metrics(
    tracer: Tracer, pool, cold, warms: list, computed: List[float], cold_s: float
) -> dict:
    """Per-layer metrics of the sweep stack over the cold and warm passes."""
    point_compute = sum(computed)
    warm_hits = sum(warm.cache_hits for warm in warms)
    warm_points = sum(warm.points_total for warm in warms)
    return {
        "orchestrator.points": cold.points_total + warm_points,
        "orchestrator.plan_s": tracer.self_s("orchestrator.plan"),
        "parallel.pool_start_s": pool.first_submit_s,
        "parallel.point_compute_s": point_compute,
        "parallel.efficiency": point_compute / (cold_s * cold.jobs),
        "cache.hits": cold.cache_hits + warm_hits,
        "cache.misses": cold.points_total - cold.cache_hits + warm_points - warm_hits,
        "cache.fingerprint_s": tracer.self_s("cache.fingerprint"),
        "cache.lookup_s": tracer.self_s("cache.lookup"),
        "cache.store_s": tracer.self_s("cache.store"),
    }


def run_sweep_workload(
    seed: int, t0: float, tracer: Optional[Tracer], speed: HostSpeed, out_dir: Path, repeat: bool
) -> dict:
    """One fig_sweep pass.  Its checkpoint is the digest of the cold
    results; a repeat pass runs the cold sweep and no warm replays."""
    checks: List[dict] = []
    if tracer is not None:
        tracer.install_targets()
    build_start = time.perf_counter()
    cache_dir = out_dir / f"cache-{os.getpid()}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    specs = orchestrator.suite_experiments(quick=True, names=list(SWEEP_EXPERIMENTS))
    for spec in specs:
        spec.kwargs["root_seed"] = stats.derive_seed(seed, f"sweep:{spec.name}")
        if spec.name == "fig14":
            spec.kwargs["queue_depth"] = FIG14_QUEUE_DEPTH
    computed: List[float] = []

    def progress(event: str, payload: dict) -> None:
        if event == "point":
            computed.append(payload["elapsed_s"])

    try:
        # While the two workers keep both cores busy, a sample taken here
        # would wait for a core and read that as slowness: the workers
        # sample their own cores instead.
        speed_dir = None
        if speed.running:
            speed_dir = out_dir / f"speed-{os.getpid()}"
            shutil.rmtree(speed_dir, ignore_errors=True)
            speed_dir.mkdir()
        pool = _TimedPool(SWEEP_JOBS, speed_dir)
        cold_start = time.monotonic()
        speed.pause()
        try:
            cold = orchestrator.run_suite(
                specs, cache=str(cache_dir), pool=pool, progress=progress
            )
        finally:
            pool.close()
            speed.resume()
        cold_end = time.monotonic()
        workers = pool.worker_speeds()
        if speed_dir is not None:
            shutil.rmtree(speed_dir, ignore_errors=True)
        if workers:
            cold_s = statistics.fmean(w.reference_s(cold_start, cold_end) for w in workers)
        else:
            cold_s = speed.reference_s(cold_start, cold_end)
        warm_runs = []
        for _ in range(0 if repeat else WARM_REPLAYS):
            warm_start = time.monotonic()
            warm = orchestrator.run_suite(
                specs, cache=str(cache_dir), pool=_TimedPool(SWEEP_JOBS)
            )
            warm_runs.append((speed.reference_s(warm_start), warm))
        traced_wall_s = time.perf_counter() - build_start
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    pass_s = speed.reference_s(t0)
    setup_s = speed.reference_s(t0, pool.first_dispatch)
    ios = _sweep_ios(cold.results, specs)
    digest = stats.digest({"results": cold.results, "ios": ios})
    if repeat:
        return _repeat_result(setup_s, digest)

    cold_results = cold.results
    cold_digest = stats.digest(cold_results)
    mismatched = sum(stats.digest(warm.results) != cold_digest for _, warm in warm_runs)
    warm_misses = sum(warm.points_total - warm.cache_hits for _, warm in warm_runs)
    check(checks, "a point was dispatched", pool.first_dispatch is not None)
    check(checks, "warm results byte-identical to cold", not mismatched, mismatched)
    check(checks, "cold pass has zero cache hits", cold.cache_hits == 0, cold.cache_hits)
    check(checks, "warm passes have zero cache misses", warm_misses == 0, warm_misses)
    check(
        checks,
        "every pass covered the same points",
        all(warm.points_total == cold.points_total > 0 for _, warm in warm_runs),
        [cold.points_total] + [warm.points_total for _, warm in warm_runs],
    )
    sim_metrics = _sweep_sim_metrics(cold_results)
    out = {
        "setup_s": setup_s,
        "host": {
            "ios_per_s": ios / cold_s,
            "kv_ops_per_s": ios / cold_s,
            "sweep_cold_s": cold_s,
            "sweep_warm_s": statistics.median(elapsed for elapsed, _ in warm_runs),
        },
        "sim": sim_metrics,
        "read_latencies": _sweep_read_latencies(cold_results),
        "pass_s": pass_s,
        "attempted": cold.points_total * (1 + WARM_REPLAYS),
        "failed": cold.cache_hits + warm_misses + mismatched * cold.points_total,
        "digest": digest,
        "checkpoint": digest,
        "checks": checks,
    }
    if tracer is not None:
        out["layers"] = _sweep_layer_metrics(
            tracer, pool, cold, [warm for _, warm in warm_runs], computed, cold_s
        )
        out["traced_wall_s"] = traced_wall_s
    return out


def run_pass(
    name: str,
    seed: int,
    t0: float,
    tracer: Optional[Tracer],
    speed: HostSpeed,
    out_dir: Path,
    repeat: bool = False,
) -> dict:
    """One pass of workload ``name``; adds peak memory to the result.

    Host times are in reference seconds of ``speed`` (see
    :mod:`perfbench.hostspeed`), measured from ``t0``.  Every pass
    returns a ``checkpoint`` digest; a ``repeat`` pass only re-simulates
    its seed far enough to compute it, and returns nothing else but its
    ``setup_s``.
    """
    if name in FIO_SHAPES:
        out = run_fio(name, seed, t0, tracer, speed, repeat)
    elif name == "rack_churn":
        out = run_rack(seed, t0, tracer, speed)
    elif name == "fig_sweep":
        out = run_sweep_workload(seed, t0, tracer, speed, out_dir, repeat)
    else:
        raise KeyError(f"unknown workload {name!r}")
    if "host" in out:
        out["host"]["peak_rss_mb"] = peak_rss_mib()
    return out
