"""Event loop tests."""

import pytest

from repro.netsim.engine import EventLoop, SimulationError


class TestScheduling:
    def test_runs_in_time_order(self):
        engine = EventLoop()
        order = []
        engine.schedule(0.3, lambda: order.append("c"))
        engine.schedule(0.1, lambda: order.append("a"))
        engine.schedule(0.2, lambda: order.append("b"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_ties_run_in_scheduling_order(self):
        engine = EventLoop()
        order = []
        for name in "abcd":
            engine.schedule(1.0, lambda n=name: order.append(n))
        engine.run()
        assert order == list("abcd")

    def test_clock_advances_to_event_time(self):
        engine = EventLoop()
        seen = []
        engine.schedule(2.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [2.5]

    def test_schedule_at_absolute(self):
        engine = EventLoop(start_time=10.0)
        seen = []
        engine.schedule_at(12.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [12.0]

    def test_nested_scheduling(self):
        engine = EventLoop()
        order = []

        def outer():
            order.append("outer")
            engine.schedule(0.1, lambda: order.append("inner"))

        engine.schedule(0.1, outer)
        engine.run()
        assert order == ["outer", "inner"]

    def test_rejects_past(self):
        engine = EventLoop(start_time=5.0)
        with pytest.raises(SimulationError):
            engine.schedule_at(4.0, lambda: None)
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)


class TestTimer:
    def test_cancel_prevents_firing(self):
        engine = EventLoop()
        fired = []
        timer = engine.schedule(1.0, lambda: fired.append(1))
        timer.cancel()
        engine.run()
        assert not fired

    def test_cancel_idempotent(self):
        engine = EventLoop()
        timer = engine.schedule(1.0, lambda: None)
        timer.cancel()
        timer.cancel()
        engine.run()

    def test_pending(self):
        engine = EventLoop()
        timer = engine.schedule(1.0, lambda: None)
        assert timer.pending
        timer.cancel()
        assert not timer.pending

    def test_fire_time(self):
        engine = EventLoop()
        timer = engine.schedule(2.0, lambda: None)
        assert timer.fire_time == 2.0


class TestRunBounds:
    def test_until_leaves_later_events(self):
        engine = EventLoop()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(3.0, lambda: fired.append(3))
        engine.run(until=2.0)
        assert fired == [1]
        assert engine.now == 2.0
        engine.run()
        assert fired == [1, 3]

    def test_until_advances_clock_when_idle(self):
        engine = EventLoop()
        engine.run(until=7.0)
        assert engine.now == 7.0

    def test_max_events(self):
        engine = EventLoop()
        fired = []
        for i in range(5):
            engine.schedule(float(i + 1), lambda i=i: fired.append(i))
        engine.run(max_events=2)
        assert fired == [0, 1]

    def test_step(self):
        engine = EventLoop()
        engine.schedule(1.0, lambda: None)
        assert engine.step()
        assert not engine.step()

    def test_peek_time_skips_cancelled(self):
        engine = EventLoop()
        timer = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        timer.cancel()
        assert engine.peek_time() == 2.0

    def test_clear(self):
        engine = EventLoop()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.clear()
        engine.run()
        assert not fired

    def test_events_run_counter(self):
        engine = EventLoop()
        for i in range(3):
            engine.schedule(float(i + 1), lambda: None)
        engine.run()
        assert engine.events_run == 3


class TestHeapEntries:
    """The ``[time, tie, callback]`` heap entries and their handles."""

    def test_equal_time_events_fire_fifo_across_interleaving(self):
        engine = EventLoop()
        order = []
        for name in "abc":
            engine.schedule_at(1.0, lambda n=name: order.append(n))
            engine.schedule_at(0.5, lambda n=name: order.append(n.upper()))
        engine.call_at(1.0, lambda: order.append("d"))
        engine.run()
        assert order == ["A", "B", "C", "a", "b", "c", "d"]

    def test_equal_time_event_scheduled_while_firing_runs_last(self):
        engine = EventLoop()
        order = []

        def first():
            order.append("first")
            engine.schedule(0.0, lambda: order.append("nested"))

        engine.schedule_at(1.0, first)
        engine.schedule_at(1.0, lambda: order.append("second"))
        engine.run()
        assert order == ["first", "second", "nested"]

    def test_callbacks_are_never_compared(self):
        """Equal times tie-break on the unique counter, so callbacks
        that do not support ordering are fine."""

        class Uncomparable:
            def __lt__(self, other):
                raise AssertionError("callback compared")

            __gt__ = __le__ = __ge__ = __lt__

            def __call__(self):
                fired.append(self)

        fired = []
        engine = EventLoop()
        for _ in range(20):
            engine.schedule_at(1.0, Uncomparable())
        engine.run()
        assert len(fired) == 20

    def test_cancel_skips_only_that_event(self):
        engine = EventLoop()
        fired = []
        engine.schedule_at(1.0, lambda: fired.append("a"))
        timer = engine.schedule_at(1.0, lambda: fired.append("b"))
        engine.schedule_at(1.0, lambda: fired.append("c"))
        timer.cancel()
        engine.run()
        assert fired == ["a", "c"]
        assert engine.events_run == 2

    def test_cancel_twice_notifies_observer_once(self):
        cancels = []

        class Observer:
            def on_schedule(self, time, callback):
                pass

            def on_fire(self, time, callback):
                pass

            def on_cancel(self, time):
                cancels.append(time)

        engine = EventLoop()
        engine.observer = Observer()
        timer = engine.schedule(3.0, lambda: None)
        timer.cancel()
        timer.cancel()
        assert cancels == [3.0]
        assert not timer.pending
        engine.run()
        assert engine.events_run == 0

    def test_pending_and_fire_time_track_the_clock(self):
        engine = EventLoop()
        timer = engine.schedule(2.0, lambda: None)
        later = engine.schedule(5.0, lambda: None)
        assert timer.pending and timer.fire_time == 2.0
        engine.run(until=3.0)
        assert not timer.pending  # already fired: its time has passed
        assert timer.fire_time == 2.0
        assert later.pending and later.fire_time == 5.0
        later.cancel()
        assert not later.pending
        assert later.fire_time == 5.0

    def test_peek_time_skips_cancelled_heads(self):
        engine = EventLoop()
        timers = [engine.schedule(float(t), lambda: None) for t in (1, 2, 3)]
        engine.schedule(4.0, lambda: None)
        for timer in timers:
            timer.cancel()
        assert engine.peek_time() == 4.0
        engine.run()
        assert engine.peek_time() is None
        assert engine.events_run == 1

    def test_run_until_keeps_the_event_past_the_horizon(self):
        engine = EventLoop()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(2.0, lambda: fired.append(2))
        engine.run(until=1.5)
        assert fired == [1] and engine.now == 1.5
        assert engine.peek_time() == 2.0
        engine.run(until=1.7)
        assert fired == [1] and engine.now == 1.7
        engine.run()
        assert fired == [1, 2] and engine.now == 2.0

    def test_max_events_leaves_the_clock_at_the_last_event(self):
        engine = EventLoop()
        for t in (1.0, 2.0, 3.0):
            engine.schedule(t, lambda: None)
        engine.run(until=10.0, max_events=2)
        assert engine.now == 2.0
        engine.run(max_events=0)
        assert engine.now == 2.0 and engine.events_run == 2
