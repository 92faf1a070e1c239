"""Class-level timing wrappers that attribute host time to layers.

The traced run replaces the methods of the program's classes with
wrappers *before* any testbed or cluster is built.  Several hot paths
cache bound methods at construction (``TenantSession._arrive`` holds
``pipeline.handle_arrival``; devices and the network register their
completion callbacks as kernel populations), so a wrapper installed
afterwards would miss those calls.

Each wrapper pushes a frame on one span stack.  On return, the span's
duration minus the time its child spans covered is the layer's self
time, so the self times of all layers partition the time spent inside
the outermost spans.  Calls the kernel dispatches into a layer are
wrapped too (they are the same methods), so only unwrapped closures
and the loop itself are charged to ``sim``.

Spans of one IO share the ``FabricRequest`` id.  Full spans are kept
only for request ids divisible by :data:`SAMPLE_EVERY`, at most
:data:`MAX_SPANS` of them; everything else is aggregated in memory.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import types
from typing import Callable, Dict, Iterable, List, Optional

#: Program layers -> the modules whose classes (and module-level
#: functions) belong to them.  ``nvme`` namespace translation folds into
#: ``fabric`` because only the pipeline calls it; the baseline
#: schedulers report under ``core``.
LAYER_MODULES: Dict[str, tuple] = {
    "sim": ("repro.sim.engine",),
    "fabric": (
        "repro.fabric.initiator",
        "repro.fabric.network",
        "repro.fabric.pipeline",
        "repro.fabric.target",
        "repro.fabric.smartnic",
        "repro.fabric.policies",
        "repro.nvme.namespace",
    ),
    "core": (
        "repro.core.switch",
        "repro.core.scheduler",
        "repro.core.virtual_slot",
        "repro.core.write_cost",
        "repro.core.rate_control",
        "repro.core.congestion",
        "repro.baselines.base",
        "repro.baselines.fifo",
        "repro.baselines.reflex",
        "repro.baselines.flashfq",
    ),
    "ssd": (
        "repro.ssd.device",
        "repro.ssd.ftl",
        "repro.ssd.write_buffer",
        "repro.ssd.mapping_cache",
        "repro.ssd.conditioning",
    ),
    "kv": (
        "repro.kv.lsm",
        "repro.kv.blobstore",
        "repro.kv.allocator",
        "repro.kv.backend",
        "repro.kv.runner",
        "repro.kv.bloom",
    ),
    "workloads": (
        "repro.workloads.fio",
        "repro.workloads.patterns",
        "repro.workloads.ycsb",
        "repro.workloads.population",
    ),
    "metrics": (
        "repro.metrics.histogram",
        "repro.metrics.throughput",
        "repro.metrics.ewma",
        "repro.metrics.timeline",
        "repro.metrics.fairness",
    ),
    "testbed": ("repro.harness.testbed",),
    "kvcluster": ("repro.harness.kvcluster",),
}

#: The sweep stack is wrapped method by method: its worker processes
#: are forked from the traced process, and generic wrappers on the
#: point-execution path would only slow the workers down unobserved.
SWEEP_TARGETS = (
    ("orchestrator", "repro.harness.orchestrator", "run_suite"),
    ("orchestrator", "repro.harness.orchestrator", "suite_experiments"),
    ("orchestrator.plan", "repro.harness.orchestrator", "plan_dispatch"),
    ("orchestrator.plan", "repro.harness.orchestrator", "CostModel.from_cache"),
    ("orchestrator.plan", "repro.harness.orchestrator", "CostModel.predict"),
    ("parallel", "repro.harness.parallel", "WorkerPool.submit"),
    ("parallel", "repro.harness.parallel", "WorkerPool.close"),
    ("cache.lookup", "repro.harness.cache", "ResultCache.lookup"),
    ("cache.store", "repro.harness.cache", "ResultCache.store"),
    ("cache", "repro.harness.cache", "ResultCache.record_run"),
    ("cache.fingerprint", "repro.harness.cache", "point_fingerprint"),
)

#: Full spans are kept for request ids divisible by SAMPLE_EVERY, at
#: most MAX_SPANS of them per pass.
SAMPLE_EVERY = 4096
MAX_SPANS = 200_000

#: Constructors timed as spans (other dunders are never wrapped).
TIMED_CONSTRUCTORS = frozenset({"Testbed", "KvCluster"})

#: Methods whose first argument after ``self`` is the IO (a request,
#: or a device command tagged with its request): their spans carry
#: the request id.
IO_ENTRY_METHODS = frozenset(
    {
        "handle_arrival",
        "_fetch_write_data",
        "_write_data_arrived",
        "_scheduler_enqueue",
        "_direct_device_submit",
        "device_submit",
        "_device_completed",
        "_send_response",
        "deliver_completion",
        "enqueue",
        "notify_completion",
        "submit",
        "_complete",
    }
)


def _request_id(arg) -> Optional[int]:
    rid = getattr(arg, "request_id", None)
    if rid is None:
        rid = getattr(getattr(arg, "tag", None), "request_id", None)
    return rid


class Tracer:
    """Span-stack timer aggregating self time per layer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: layer -> [self seconds, calls]
        self.layers: Dict[str, list] = {}
        #: qualified name -> [calls, inclusive seconds]
        self.by_name: Dict[str, list] = {}
        #: Sampled spans: (request id, layer, name, parent, start, end).
        self.spans: List[tuple] = []
        self._stack: List[list] = []
        self._sample: list = [None]
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        layer: str,
        name: str,
        io_entry: bool = False,
        around: Optional[Callable] = None,
    ) -> Callable:
        """Return ``fn`` timed as a span of ``layer``.

        ``around(fn, *args, **kwargs)``, when given, runs inside the
        span in place of ``fn`` (the workloads use it to observe or
        re-route arguments without touching the program).
        """
        clock = self.clock
        stack = self._stack
        sample = self._sample
        spans = self.spans
        acc = self.layers.setdefault(layer, [0.0, 0])
        rec = self.by_name.setdefault(name, [0, 0.0])
        target = fn if around is None else functools.partial(around, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            previous = sample[0]
            if io_entry and previous is None and len(args) > 1:
                rid = _request_id(args[1])
                if rid is not None and rid % SAMPLE_EVERY == 0 and len(spans) < MAX_SPANS:
                    sample[0] = rid
            start = clock()
            try:
                return target(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                stack.pop()
                acc[0] += duration - frame[0]
                acc[1] += 1
                rec[0] += 1
                rec[1] += duration
                if stack:
                    parent = stack[-1]
                    parent[0] += duration
                else:
                    parent = None
                rid = sample[0]
                if rid is not None:
                    spans.append(
                        (rid, layer, name, parent[1] if parent else None, start, end)
                    )
                    sample[0] = previous

        return wrapper

    def patch(self, owner, attr: str, layer: str, name: str, around=None) -> None:
        """Replace ``owner.attr`` (a class or module member) by its wrapper."""
        raw = owner.__dict__[attr]
        io_entry = attr in IO_ENTRY_METHODS
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap(raw.__func__, layer, name, io_entry, around))
        else:
            wrapped = self.wrap(raw, layer, name, io_entry, around)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
        if isinstance(owner, types.ModuleType):
            # Module-level functions are also bound by name in the
            # modules that imported them (``from x import f``).
            for module in list(sys.modules.values()):
                space = getattr(module, "__dict__", None)
                if (
                    module is not owner
                    and space is not None
                    and getattr(module, "__name__", "").startswith("repro")
                    and space.get(attr) is raw
                ):
                    self._patches.append((module, attr, raw))
                    setattr(module, attr, wrapped)

    def install_layers(
        self, layers: Iterable[str], around: Optional[Dict[str, Callable]] = None
    ) -> None:
        """Wrap every function and method defined in each layer's modules.

        ``around`` maps ``"Class.method"`` names to hooks (see :meth:`wrap`).
        """
        around = dict(around or {})
        for layer in layers:
            for module_name in LAYER_MODULES[layer]:
                module = importlib.import_module(module_name)
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value.__module__ == module_name:
                        self.patch(module, attr, layer, f"{layer}:{attr}", around.pop(attr, None))
                    elif inspect.isclass(value) and value.__module__ == module_name:
                        for method in _methods(value):
                            qual = f"{value.__name__}.{method}"
                            self.patch(value, method, layer, qual, around.pop(qual, None))
        if around:
            raise KeyError(f"hooks for unwrapped methods: {sorted(around)}")

    def install_targets(self) -> None:
        """Wrap the sweep stack's :data:`SWEEP_TARGETS`."""
        for layer, module_name, path in SWEEP_TARGETS:
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name)
            self.patch(owner, attr, layer, path)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def self_s(self, layer: str) -> float:
        return self.layers.get(layer, [0.0, 0])[0]

    def calls(self, layer: str) -> int:
        return self.layers.get(layer, [0.0, 0])[1]

    def inclusive_s(self, *names: str) -> float:
        return sum(self.by_name.get(name, [0, 0.0])[1] for name in names)

    def count(self, *names: str) -> int:
        return sum(self.by_name.get(name, [0, 0.0])[0] for name in names)

    def write_spans(self, path: str) -> int:
        """Write sampled spans as JSON lines; returns how many."""
        with open(path, "w") as handle:
            for rid, layer, name, parent, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "request": rid,
                            "layer": layer,
                            "name": name,
                            "parent": parent,
                            "start_s": start,
                            "end_s": end,
                        }
                    )
                    + "\n"
                )
        return len(self.spans)


def _methods(cls) -> List[str]:
    names = []
    for attr, value in vars(cls).items():
        if attr.startswith("__") and attr.endswith("__"):
            if not (attr == "__init__" and cls.__name__ in TIMED_CONSTRUCTORS):
                continue
        if inspect.isfunction(value) or isinstance(value, (classmethod, staticmethod)):
            names.append(attr)
    return names
