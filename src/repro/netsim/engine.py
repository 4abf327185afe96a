"""Discrete event simulation engine.

A single-threaded event loop over a binary heap.  Components schedule
callbacks at absolute or relative times and receive a :class:`Timer`
handle that supports cancellation and rescheduling — the exact facility
a TCP retransmission timer needs.

Heap entries are plain ``[time, tie, callback]`` lists, so ``heapq``
orders them with C-level list comparison.  ``tie`` is a per-loop
monotonic counter and unique, so two entries never compare equal on
both leading items and the callback is never compared.  Cancelling a
timer sets its entry's callback slot to ``None``; the loop discards
such entries when they reach the top of the heap.

Determinism: events at the same timestamp fire in scheduling order
(the tie-breaker is part of the heap key), so simulations are
bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from heapq import heappop, heappush


class SimulationError(RuntimeError):
    """Raised on engine misuse (e.g. scheduling in the past)."""


class Timer:
    """Handle for a scheduled callback.

    ``cancel()`` is idempotent; ``pending`` tells whether the callback
    is still going to fire.
    """

    __slots__ = ("_engine", "_entry")

    def __init__(self, engine: "EventLoop", entry: list):
        self._engine = engine
        self._entry = entry

    @property
    def pending(self) -> bool:
        entry = self._entry  # [time, tie, callback]
        return entry[2] is not None and entry[0] >= self._engine.now

    @property
    def fire_time(self) -> float:
        return self._entry[0]

    def cancel(self) -> None:
        entry = self._entry
        observer = self._engine.observer
        if observer is not None and entry[2] is not None:
            observer.on_cancel(entry[0])
        entry[2] = None


class EventLoop:
    """The simulation clock and event queue.

    ``observer`` is the engine's tracing hook: an object with
    ``on_schedule(time, callback)``, ``on_fire(time, callback)`` and
    ``on_cancel(time)`` methods (see
    :class:`repro.obs.recorder.EngineProbe`).  It defaults to ``None``
    and costs one ``is None`` check per operation when unset, so the
    untraced simulation is unchanged.
    """

    __slots__ = ("now", "_heap", "_tie", "events_run", "observer")

    def __init__(self, start_time: float = 0.0):
        self.now = start_time
        self._heap: list[list] = []
        self._tie = itertools.count()
        self.events_run = 0
        self.observer = None

    def _push(self, time: float, callback: Callable[[], None]) -> list:
        """Queue ``callback`` at ``time``; return its heap entry."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time:.6f}, now is {self.now:.6f}"
            )
        entry = [time, next(self._tie), callback]
        heappush(self._heap, entry)
        if self.observer is not None:
            self.observer.on_schedule(time, callback)
        return entry

    def call_at(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute simulation time ``time``.

        The handle-free form of :meth:`schedule_at`, for events nobody
        cancels (packet deliveries): it allocates no :class:`Timer`.
        """
        self._push(time, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Timer:
        """Run ``callback`` at absolute simulation time ``time``."""
        return Timer(self, self._push(time, callback))

    def schedule(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Run ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay:.6f}")
        return Timer(self, self._push(self.now + delay, callback))

    def peek_time(self) -> float | None:
        """Timestamp of the next pending event, or None when idle."""
        heap = self._heap
        while heap and heap[0][2] is None:
            heappop(heap)
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Run the next event; return False when the queue is empty."""
        return self._drain(math.inf, 1) > 0

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
    ) -> None:
        """Drain the queue, optionally bounded by time or event count.

        With ``until``, events after that time stay queued and the clock
        is left at ``until``.
        """
        horizon = math.inf if until is None else until
        budget = -1 if max_events is None else max(max_events, 0)
        if self._drain(horizon, budget) == budget or until is None:
            return  # stopped by the event budget: the clock stays put
        if self._heap:
            self.now = until  # the next event lies past the horizon
        elif until > self.now:
            self.now = until

    def _drain(self, horizon: float, budget: int) -> int:
        """Fire events due at or before ``horizon``, at most ``budget``
        of them (``-1``: unbounded); return how many fired.

        This is the simulator's hottest loop — every packet, timer and
        app event passes through it.  Each entry is popped before its
        time is checked; the one entry past the horizon is pushed back,
        which leaves the pop order unchanged (ties are unique).
        """
        heap = self._heap
        observer = self.observer
        fired = 0
        try:
            while fired != budget and heap:
                entry = heappop(heap)
                callback = entry[2]
                if callback is None:
                    continue
                time = entry[0]
                if time > horizon:
                    heappush(heap, entry)
                    break
                self.now = time
                fired += 1
                if observer is not None:
                    observer.on_fire(time, callback)
                callback()
        finally:
            self.events_run += fired
        return fired

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
