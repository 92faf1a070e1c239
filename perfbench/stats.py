"""Helpers shared by the benchmark runner, the workloads and the tests.

Everything here is pure Python over plain lists so it can be unit
tested without building a simulation (and imported before the program
is known to be there).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from typing import Iterable, List, Optional, Sequence

#: Percentiles a latency distribution may report, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)

#: A percentile is reportable only when at least this many samples lie
#: beyond it; fewer and one outlier decides the value.
MIN_SAMPLES_BEYOND = 10


def reportable(count: int, pct: float) -> bool:
    """True when ``pct`` has at least :data:`MIN_SAMPLES_BEYOND` beyond it.

    The comparison is done in integer hundredths of a sample so that,
    for example, exactly 1000 samples make p99 reportable despite
    ``1000 * 0.01`` not being exactly 10.0 in binary floating point.
    """
    if count < 0:
        raise ValueError("sample count must be non-negative")
    return round(count * (100.0 - pct) * 100) >= MIN_SAMPLES_BEYOND * 100 * 100


def highest_reportable(count: int, candidates: Sequence[float] = PERCENTILES) -> Optional[float]:
    """The highest candidate percentile reportable with ``count`` samples."""
    best = None
    for pct in sorted(candidates):
        if reportable(count, pct):
            best = pct
    return best


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence.

    Nearest rank returns an observed sample (no interpolation), so a
    percentile over exact simulated latencies is itself exact.
    """
    if not sorted_values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile out of range: {pct}")
    rank = math.ceil(pct / 100.0 * len(sorted_values))
    return sorted_values[max(rank, 1) - 1]


def failure_ratio(attempted: int, failed: int) -> float:
    """Failed operations as a share of attempted ones."""
    if not isinstance(attempted, int) or not isinstance(failed, int):
        raise TypeError("attempted and failed must be whole numbers")
    if attempted < 1:
        raise ValueError("at least one operation must be attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def jain(values: Iterable[float]) -> float:
    """Jain's fairness index: 1.0 is perfectly even, 1/n is one winner."""
    values = list(values)
    if not values or any(v < 0 for v in values):
        raise ValueError("need non-negative allocations")
    square_sum = sum(v * v for v in values)
    if square_sum == 0.0:
        raise ValueError("all allocations are zero")
    return sum(values) ** 2 / (len(values) * square_sum)


def self_times(spans: List[tuple]) -> dict:
    """Self time per name from ``(name, start, end)`` spans.

    A span's self time is its duration minus the part of it that its
    direct children cover.  Spans must be properly nested (as calls
    are); the tracer computes the same thing incrementally with a
    stack, and this function is its reference for tests.
    """
    result: dict = {}
    stack: List[list] = []  # [name, start, end, time covered by children]

    def close() -> None:
        name, start, end, covered = stack.pop()
        result[name] = result.get(name, 0.0) + (end - start) - covered
        if stack:
            stack[-1][3] += end - start

    for name, start, end in sorted(spans, key=lambda span: (span[1], -span[2])):
        while stack and stack[-1][2] <= start:
            close()
        stack.append([name, start, end, 0.0])
    while stack:
        close()
    return result


def derive_seed(seed: int, name: str) -> int:
    """A seed for the input ``name``, drawn from the workload seed."""
    return random.Random(f"{seed}:{name}").randrange(1, 2**31)


def check(checks: List[dict], name: str, ok: bool, detail=None) -> None:
    """Record one named correctness check."""
    checks.append({"name": name, "ok": bool(ok), "detail": detail})


def digest(obj) -> str:
    """SHA-256 over a canonical JSON rendering (floats keep every digit)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
