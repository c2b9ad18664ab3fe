"""Unit tests for the simulation engine (clock and event loop)."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.errors import ProcessError, SchedulingError
from repro.sim.process import Hold
from repro.telemetry.events import TraceMessage


class TestScheduling:
    def test_schedule_fires_at_offset(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(7.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [7.0]

    def test_schedule_at_past_raises(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_at(0.5, lambda: None)

    def test_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.schedule(-1.0, lambda: None)

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("no"))
        sim.cancel(event)
        sim.run()
        assert fired == []

    def test_cancel_updates_pending_count(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.cancel(event)
        assert sim.pending_events == 0
        assert sim.step() is False

    def test_cancel_of_same_instant_resume_updates_pending_count(self):
        # A process launched with no delay has its first resume waiting in
        # the queue's same-instant lane, not the heap.
        sim = Simulator()
        ran = []

        def proc():
            ran.append(sim.now)
            yield Hold(1.0)

        process = sim.launch(proc())
        assert len(sim._queue._lane) == 1
        sim.cancel(process._resume_event)
        assert sim.pending_events == 0
        assert sim.step() is False
        assert ran == []

    def test_simultaneous_events_fire_fifo(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_priority_overrides_fifo(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("normal"))
        sim.schedule(1.0, lambda: order.append("urgent"), priority=-1)
        sim.run()
        assert order == ["urgent", "normal"]

    def test_callback_may_schedule_more(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(sim.now)
            if n > 0:
                sim.schedule(1.0, lambda: chain(n - 1))

        sim.schedule(0.0, lambda: chain(3))
        sim.run()
        assert fired == [0.0, 1.0, 2.0, 3.0]


class TestRunControl:
    def test_run_until_stops_clock_at_horizon(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run(until=4.0)
        assert sim.now == 4.0
        assert sim.pending_events == 1

    def test_run_until_resumable(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(True))
        sim.run(until=4.0)
        sim.run(until=20.0)
        assert fired == [True]
        assert sim.now == 20.0

    def test_clock_advances_to_horizon_when_drained(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_run_without_horizon_drains_queue(self):
        sim = Simulator()
        sim.schedule(3.0, lambda: None)
        sim.run()
        assert sim.now == 3.0
        assert sim.pending_events == 0

    def test_max_events(self):
        sim = Simulator()
        for _ in range(10):
            sim.schedule(1.0, lambda: None)
        sim.run(max_events=4)
        assert sim.events_fired == 4
        assert sim.pending_events == 6

    def test_step_on_empty_queue_returns_false(self):
        sim = Simulator()
        assert sim.step() is False

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def evil():
            with pytest.raises(ProcessError):
                sim.run()

        sim.schedule(0.0, evil)
        sim.run()

    def test_events_fired_counter(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        sim.run()
        assert sim.events_fired == 3


class TestLaunch:
    def test_launch_runs_generator(self):
        sim = Simulator()
        steps = []

        def proc():
            steps.append(sim.now)
            yield Hold(2.0)
            steps.append(sim.now)

        sim.launch(proc())
        sim.run()
        assert steps == [0.0, 2.0]

    def test_launch_with_delay(self):
        sim = Simulator()
        steps = []

        def proc():
            steps.append(sim.now)
            yield Hold(0.0)

        sim.launch(proc(), delay=5.0)
        sim.run()
        assert steps == [5.0]

    def test_trace_hook_receives_labels(self):
        lines = []
        sim = Simulator()
        sim.bus.subscribe(
            TraceMessage, lambda event: lines.append((event.time, event.label))
        )
        sim.schedule(1.0, lambda: None, label="hello")
        sim.run()
        assert (1.0, "hello") in lines
