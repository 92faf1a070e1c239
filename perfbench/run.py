"""Run one benchmark workload and print every metric with its unit.

Usage (from the repository root)::

    python3 perfbench/run.py --workload noisy_neighbour --seed 1 --seconds 30 --trace 0

``--trace 0`` runs :data:`SIM_PASSES` + 1 fresh-process passes of the
workload.  The first :data:`SIM_PASSES` simulate distinct seeds derived
from ``--seed``; their simulated metrics are pooled and their host
metrics, in reference seconds (see :mod:`perfbench.hostspeed`), are
medians over them.  The last pass repeats pass 0's seed up to pass 0's
checkpoint and must reach the same checkpoint digest; ``setup_s`` is
the median over all passes.  A run takes about
``run_seconds`` in ``BENCHMARK.json``; ``--seconds`` is recorded but
does not change the work, so that every run measures the same passes.
``--trace 1`` runs one untraced and one traced pass of ``--seed`` and
reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment, digests and every check.  The exit code is
0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402
from perfbench.stats import check  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(entry["name"] for entry in BENCHMARK["workloads"])
#: Metric name -> unit, untraced (``--trace 0``) and traced (``--trace 1``).
END_TO_END = {entry["name"]: entry["unit"] for entry in BENCHMARK["end_to_end"]}
PER_LAYER = {entry["name"]: entry["unit"] for entry in BENCHMARK["per_layer"]}
#: End-to-end metrics timed on the host; the rest are simulated and
#: repeat exactly for a given seed.
HOST_METRICS = frozenset(
    {"setup_s", "ios_per_s", "kv_ops_per_s", "peak_rss_mb", "sweep_cold_s", "sweep_warm_s"}
)

#: Passes whose simulated outputs are pooled; each simulates its own
#: seed.  One more pass repeats pass 0's seed.
SIM_PASSES = 2
PASS_TIMEOUT_S = 170.0
OUT_DIR = ROOT / ".perfbench_out"

#: Ambient settings that would change the program being measured.
PINNED_ENV = {
    "REPRO_KERNEL_BACKEND": "reference",
    "REPRO_CACHE": "0",
    "PYTHONHASHSEED": "0",
}
CLEARED_ENV = ("REPRO_SHARDS", "REPRO_CACHE_DIR", "REPRO_EFFECTIVE_JOBS", "REPRO_SHARD_PROFILE")


def pinned_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def source_digest() -> str:
    """SHA-256 over the program's sources (the checkout may lack git)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else "unknown"
    return ref


def run_pass(
    workload: str, seed: int, trace: bool, tag: str, timed: bool = True, repeat: bool = False
) -> dict:
    out = OUT_DIR / f"{workload}-seed{seed}-{tag}.json"
    if out.exists():
        out.unlink()
    cmd = [
        sys.executable,
        str(ROOT / "perfbench" / "rep.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        str(int(trace)),
        "--out",
        str(out),
    ] + ([] if timed else ["--host-seconds"]) + (["--repeat"] if repeat else [])
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)],
        cwd=str(ROOT),
        env=pinned_env(),
        stdout=sys.stderr,
        timeout=PASS_TIMEOUT_S,
    )
    wall = time.monotonic() - t0
    if proc.returncode != 0 or not out.is_file():
        raise RuntimeError(f"{workload} pass {tag} failed with exit code {proc.returncode}")
    result = json.loads(out.read_text())
    out.unlink()
    result["wall_s"] = wall
    return result


def environment(load_before, passes) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "kernel_backend": sorted({result["kernel_backend"] for result in passes}),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "commit": commit(),
        "source_sha256": source_digest(),
    }


def pass_seeds(seed: int) -> list:
    """Pass seeds: ``seed``, ``SIM_PASSES - 1`` derived seeds, ``seed`` again."""
    derived = [stats.derive_seed(seed, f"pass{index}") for index in range(1, SIM_PASSES)]
    return [seed, *derived, seed]


def pooled_sim_metrics(passes: list) -> dict:
    """Simulated metrics pooled over the first :data:`SIM_PASSES` passes.

    Each pass simulates its own seed; pooling them averages out the
    slow oscillations of the modelled control loops that make a single
    seed's figures swing by 10-20%.
    """
    latencies = sorted(v for r in passes[:SIM_PASSES] for v in r["read_latencies"])
    return {
        "read_p50_us": stats.percentile(latencies, 50.0),
        "read_p99_us": stats.percentile(latencies, 99.0),
        "bandwidth_mbps": statistics.fmean(r["sim"]["bandwidth_mbps"] for r in passes[:SIM_PASSES]),
        "jain": statistics.fmean(r["sim"]["jain"] for r in passes[:SIM_PASSES]),
    }


def untraced(workload: str, seed: int):
    seeds = pass_seeds(seed)
    passes = [
        run_pass(workload, pass_seed, False, f"p{index}", repeat=index == SIM_PASSES)
        for index, pass_seed in enumerate(seeds)
    ]
    full = passes[:SIM_PASSES]
    checks = []
    for index, result in enumerate(passes):
        checks += [
            dict(item, name=f"pass {index}: {item['name']}")
            for item in result["checks"]
            if index == 0 or not item["ok"]
        ]
    digests = [result["digest"] for result in full]
    checkpoints = [passes[0]["checkpoint"], passes[SIM_PASSES]["checkpoint"]]
    check(
        checks,
        "passes of distinct seeds simulate distinct outputs",
        len(set(digests)) == SIM_PASSES,
        digests,
    )
    check(
        checks,
        "the pass that repeats pass 0's seed reaches the same checkpoint",
        checkpoints[0] == checkpoints[1],
        checkpoints,
    )
    sim = pooled_sim_metrics(full)
    metrics = {}
    for name, unit in END_TO_END.items():
        if name == "setup_s":
            value = statistics.median(r["setup_s"] for r in passes)
        elif name in HOST_METRICS:
            value = statistics.median(r["host"][name] for r in full)
        else:
            value = sim[name]
        metrics[name] = {"value": value, "unit": unit}
    detail = {
        "pass_digests": digests,
        "checkpoints": checkpoints,
        "read_samples": sum(len(r["read_latencies"]) for r in full),
        "per_pass": [
            {
                "seed": seeds[i],
                "setup_s": r["setup_s"],
                "wall_s": r["wall_s"],
                "slowness": r["slowness"],
                "speed_samples": r["speed_samples"],
                **r.get("host", {}),
                **r.get("sim", {}),
            }
            for i, r in enumerate(passes)
        ],
    }
    return passes, checks, metrics, detail


def traced(workload: str, seed: int):
    # Host seconds on both passes: the layer timers would charge the
    # speed samples to whichever layer they interrupt.
    plain = run_pass(workload, seed, False, "untraced", timed=False)
    tracing = run_pass(workload, seed, True, "traced", timed=False)
    checks = [dict(item, name=f"untraced: {item['name']}") for item in plain["checks"]]
    checks += [dict(item, name=f"traced: {item['name']}") for item in tracing["checks"]]
    check(
        checks,
        "traced pass simulated the same outputs as the untraced pass",
        plain["digest"] == tracing["digest"],
        [plain["digest"], tracing["digest"]],
    )
    layers = {name: 0 for name in PER_LAYER}
    layers.update(tracing["layers"])
    layers["trace.overhead_frac"] = tracing["pass_s"] / plain["pass_s"] - 1.0
    unknown = sorted(set(layers) - set(PER_LAYER))
    check(checks, "every layer metric is declared in BENCHMARK.json", not unknown, unknown)
    metrics = {name: {"value": layers[name], "unit": PER_LAYER[name]} for name in PER_LAYER}
    detail = {
        "layer_self_s": tracing["layer_self_s"],
        "spans_file": tracing["spans_file"],
        "spans_written": tracing["spans_written"],
        "untraced_pass_s": plain["pass_s"],
        "traced_pass_s": tracing["pass_s"],
    }
    return [plain, tracing], checks, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    start = time.monotonic()
    load_before = os.getloadavg()
    if args.trace:
        passes, checks, metrics, detail = traced(args.workload, args.seed)
    else:
        passes, checks, metrics, detail = untraced(args.workload, args.seed)
    attempted = sum(result["attempted"] for result in passes)
    failed = sum(result["failed"] for result in passes)
    check(checks, "no operation failed", failed == 0, {"attempted": attempted, "failed": failed})
    correct = all(item["ok"] for item in checks)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds_requested": args.seconds,
        "run_s": time.monotonic() - start,
        "digest": passes[0]["digest"],
        "ops_attempted": attempted,
        "ops_failed": failed,
        "failure_ratio": stats.failure_ratio(attempted, failed),
        "environment": environment(load_before, passes),
        "checks": checks,
        **detail,
    }
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps(record))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
