"""Machine-speed calibration for the untraced timings.

The benchmark runs on a few cores of a shared host.  While a neighbour
is busy, the same work runs up to half again slower, in bursts that
come and go through a run, so raw wall times of one seed spread by a
fifth from run to run.  A fixed calibration slice, timed between the
benchmark's own steps every :data:`INTERVAL` seconds, slows down with
the program during those bursts; dividing a stage's time by the slices
timed during it takes most of the host's drift out.

Each normalised time is the stage's wall time (slices excluded) times
``(NOMINAL_SLICE_S / mean slice) ** SENSITIVITY``: the time the stage
would take on a machine where one slice takes :data:`NOMINAL_SLICE_S`,
which is about what it takes on a quiet 2-vCPU Xeon VM.  The slice is
plain Python of the same kind as the program (objects, a heap, dict
updates) and shares no code with it, so a change to the program moves
only the stage times.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time

#: Seconds of work between two calibration slices.
INTERVAL = 0.1
#: The slice's duration on the nominal machine the timings are scaled to.
NOMINAL_SLICE_S = 0.008
#: How much the program slows for a given slowdown of the slice, as the
#: slope of log stage time on log mean slice time over repeats of one
#: stage under varying contention.  On a 2-vCPU Xeon VM it was 0.71 to
#: 0.79 for the simulate stage of every workload and 0.70 for TAPO's
#: analysis: contention hurts the tight slice more than the program.
#: Scaling by the full ratio over-corrects contended runs.
SENSITIVITY = 0.75


class _Event:
    __slots__ = ("at", "key", "data")

    def __init__(self, at, key, data):
        self.at = at
        self.key = key
        self.data = data

    def __lt__(self, other):
        return self.at < other.at


def calibration_slice() -> float:
    """Run the fixed calibration work once; return its wall time.

    The collector is paused so the slice never pays for a collection
    of the program's heap; everything it allocates is freed by
    reference counting before it returns.
    """
    rng = random.Random(5)
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    heap: list = []
    totals: dict = {}
    for i in range(5_000):
        heapq.heappush(heap, _Event(rng.random(), i % 977, (i, i + 1)))
        if len(heap) > 300:
            event = heapq.heappop(heap)
            totals[event.key] = totals.get(event.key, 0) + event.data[1]
    elapsed = time.perf_counter() - start
    del heap, totals
    if enabled:
        gc.enable()
    return elapsed


class Metronome:
    """Interleaves calibration slices with the work and keeps a work
    clock that leaves them out."""

    def __init__(self):
        self.slices: list[float] = []
        self.paused = 0.0
        self._last = time.perf_counter()

    def now(self) -> float:
        """Seconds of work: ``perf_counter`` minus the slices so far."""
        return time.perf_counter() - self.paused

    def tick(self, force: bool = False) -> None:
        """Time one slice if :data:`INTERVAL` has passed since the last
        one (or ``force``)."""
        start = time.perf_counter()
        if not force and start - self._last < INTERVAL:
            return
        self.slices.append(calibration_slice())
        self._last = time.perf_counter()
        self.paused += self._last - start

    def mark(self) -> int:
        return len(self.slices)

    def scale(self, since: int = 0) -> float:
        """The factor that takes a stage's time to the nominal machine,
        from the slices timed since ``mark()`` returned ``since``
        (timing one first if there are none)."""
        if since >= len(self.slices):
            self.tick(force=True)
        mean = statistics.fmean(self.slices[since:])
        return (NOMINAL_SLICE_S / mean) ** SENSITIVITY


class Wallclock:
    """The same interface without calibration: raw wall time, scale 1.
    Used where timings are not the result (traced runs, tests)."""

    slices: list = []

    def now(self) -> float:
        return time.perf_counter()

    def tick(self, force: bool = False) -> None:
        pass

    def mark(self) -> int:
        return 0

    def scale(self, since: int = 0) -> float:
        return 1.0
