"""One pass of one workload in a fresh process (started by ``run.py``).

Usage: ``python3 perfbench/rep.py --workload NAME --seed N --t0 T
--trace 0|1 [--host-seconds] [--repeat] --out FILE``.  ``T`` is the parent's
``time.monotonic()`` just before it started this process, so
``setup_s`` covers interpreter start and imports too.  Host times are
in reference seconds (:mod:`perfbench.hostspeed`) unless ``--host-seconds``
is given.  ``--repeat`` re-simulates the seed only up to its checkpoint
digest (see :func:`perfbench.workloads.run_pass`).  The pass result is
written to ``FILE`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Layer self times may miss the traced wall time by this share (the
#: benchmark's own glue between spans is untimed).
RECONCILE_TOLERANCE = 0.05


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--host-seconds",
        action="store_true",
        help="take no host speed samples; report host times in host seconds",
    )
    parser.add_argument("--repeat", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.hostspeed import HostSpeed

    # Sample the host's speed from before the heavy imports, so that
    # setup_s is in reference seconds too (see perfbench.hostspeed).
    speed = HostSpeed()
    if not args.host_seconds:
        speed.start()
    try:
        from perfbench.stats import check
        from perfbench.tracing import Tracer
        from perfbench.workloads import run_pass
        from repro.sim import make_simulator

        tracer = Tracer() if args.trace else None
        out_path = Path(args.out)
        try:
            result = run_pass(
                args.workload, args.seed, args.t0, tracer, speed, out_path.parent, args.repeat
            )
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        speed.stop()
    result["slowness"] = speed.mean_slowness()
    result["speed_samples"] = len(speed.samples)
    result["kernel_backend"] = type(make_simulator()).__name__
    if tracer is not None:
        layer_self = {layer: acc[0] for layer, acc in tracer.layers.items()}
        total = sum(layer_self.values())
        wall = result["traced_wall_s"]
        result["layer_self_s"] = layer_self
        check(
            result["checks"],
            f"layer self times sum to the traced wall time within {RECONCILE_TOLERANCE:.0%}",
            abs(total - wall) <= RECONCILE_TOLERANCE * wall,
            {"self_sum_s": total, "traced_wall_s": wall},
        )
        spans_path = out_path.with_suffix(".spans.jsonl")
        result["spans_file"] = spans_path.name
        result["spans_written"] = tracer.write_spans(str(spans_path))
    out_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
