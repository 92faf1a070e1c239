"""Host seconds scaled to a reference host speed.

The benchmark runs on shared machines whose per-core speed swings by a
half or more for seconds at a time: on a 2-core VM the same 100 ms of
read_storm took from 3.0 to 5.8 host seconds depending on what the
neighbours did.  A host time taken as it is measures the neighbours as
much as the program.

:class:`HostSpeed` samples the machine's current speed while the program
runs.  A POSIX interval timer interrupts the process every
:data:`INTERVAL_S` seconds and the signal handler times a fixed
calibration loop (:func:`calibration_loop`).  The loop's time divided by
:data:`REFERENCE_S` is the host's *slowness* at that moment.  A host
interval is converted to *reference seconds* by dividing each stretch
between two samples by the slowness around it; the calibration itself
is excluded.  A reference second is the time the same work would have
taken on a host where the loop takes :data:`REFERENCE_S`.

The handler only reads the clock and runs its own loop; it touches no
program state, so the simulated outputs are the same with and without
it.  On the same 2-core VM, the quartile spread of read_storm's
``ios_per_s`` over ten runs was 28-29% of the median in host seconds
and 4-4.5% in reference seconds.

A :class:`HostSpeed` that was never started takes no samples and
reports host seconds unchanged; the traced run uses it so, since its
layer timers would otherwise charge the calibration to the layers.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from pathlib import Path
from typing import List, Optional

#: Seconds between speed samples.  With a loop of 3-6 ms this spends
#: about 5% of the host time on calibration.
INTERVAL_S = 0.1
#: Objects one calibration loop allocates and pushes through its heap.
CALIBRATION_ITEMS = 2000
#: Integer operations one calibration loop does without allocating.
CALIBRATION_STEPS = 15000
#: Seconds one calibration loop takes on the reference host (a 2-core
#: x86-64 VM running CPython 3.11 took 3-6 ms as its load varied).
#: Fixed: changing it rescales every host metric.
REFERENCE_S = 0.0035
#: Samples on each side of a stretch whose median gives its slowness,
#: so that one sample cut short or preempted does not decide it.
SMOOTH = 2


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = key * 2

    def add(self, other: int) -> int:
        return self.value + other


def calibration_loop() -> int:
    """Fixed work whose duration measures the host's current speed.

    Two halves.  Allocating objects and pushing them through a heap
    slowed down more than the simulator did when the host got busier,
    and plain integer arithmetic slowed down less.  Over 100 read_storm
    windows on a 2-core VM, the log of the simulator's IO rate followed
    the log of the first half's speed with a slope of 0.82 and of the
    second's with 1.18; the sum followed it with 0.93, and dividing by
    it left a spread (standard deviation) of 3.8% in the rates, against
    4.9% for the first half alone and 15% for no correction.
    """
    heap: list = []
    table: dict = {}
    for index in range(CALIBRATION_ITEMS):
        item = _Item(index)
        heapq.heappush(heap, ((index * 7919) % 1009, index, item))
        table[index & 255] = item.add(index)
        if len(heap) > 64:
            heapq.heappop(heap)
    total = 0
    for index in range(CALIBRATION_STEPS):
        total += (index * index) % 7
    return len(table) + total


class HostSpeed:
    """Speed samples taken on a timer; converts host to reference time.

    All times are :func:`time.monotonic` readings, which are comparable
    across processes on one machine.  Only one instance may run at a
    time in a process (it owns ``SIGALRM``).
    """

    def __init__(self, log: Optional[Path] = None) -> None:
        #: ``(start, end, slowness)`` of every calibration sample.
        self.samples: List[tuple] = []
        self._running = False
        #: File each sample is also appended to as it is taken, so that
        #: a worker process's samples reach its parent.
        self._log = open(log, "a", encoding="ascii") if log is not None else None

    @classmethod
    def load(cls, log: Path) -> "HostSpeed":
        """The samples another process's :class:`HostSpeed` logged."""
        speed = cls()
        for line in Path(log).read_text(encoding="ascii").splitlines():
            speed.samples.append(tuple(float(field) for field in line.split()))
        return speed

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        """Take a first sample now, then one every :data:`INTERVAL_S`."""
        signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        self.resume()

    def pause(self) -> None:
        """Stop sampling until :meth:`resume`.

        For stretches where the program's own worker processes keep every
        core busy: a sample would then wait for a core and read the
        contention as slowness.  The paused stretch takes the slowness
        of the samples on either side of it.
        """
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def resume(self) -> None:
        if self._running:
            self._tick()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        if self._running:
            self.pause()
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._running = False

    def _tick(self, *_signal) -> None:
        start = time.monotonic()
        calibration_loop()
        end = time.monotonic()
        sample = (start, end, (end - start) / REFERENCE_S)
        self.samples.append(sample)
        if self._log is not None:
            self._log.write("%r %r %r\n" % sample)
            self._log.flush()

    def reference_s(self, begin: float, end: Optional[float] = None) -> float:
        """Reference seconds of the program's work between two readings.

        Calibration samples inside ``[begin, end]`` are left out.  A
        stretch between two samples is scaled by the mean of their
        smoothed slowness; stretches before the first sample or after
        the last take the nearest sample's.  Without samples this is
        ``end - begin``.
        """
        if end is None:
            end = time.monotonic()
        samples = list(self.samples)  # the timer may append meanwhile
        if not samples:
            return end - begin
        slow = [sample[2] for sample in samples]
        smooth = [
            statistics.median(slow[max(0, i - SMOOTH) : i + SMOOTH + 1]) for i in range(len(slow))
        ]
        # Gaps between samples: (gap start, gap end, slowness).
        gaps = [(float("-inf"), samples[0][0], smooth[0])]
        for i in range(1, len(samples)):
            slowness = (smooth[i - 1] + smooth[i]) / 2.0
            gaps.append((samples[i - 1][1], samples[i][0], slowness))
        gaps.append((samples[-1][1], float("inf"), smooth[-1]))
        total = 0.0
        for gap_start, gap_end, slowness in gaps:
            overlap = min(end, gap_end) - max(begin, gap_start)
            if overlap > 0.0:
                total += overlap / slowness
        return total

    def mean_slowness(self) -> float:
        """Mean slowness over every sample (1.0 without samples)."""
        samples = list(self.samples)
        if not samples:
            return 1.0
        return statistics.fmean(sample[2] for sample in samples)
