"""Unit tests for the event objects and the future-event list."""

import math

import pytest

from repro.sim.errors import SchedulingError
from repro.sim.events import DEFAULT_PRIORITY, Event, EventQueue, validate_delay


def _noop() -> None:
    pass


class TestEvent:
    def test_defaults(self):
        event = Event(1.5, _noop)
        assert event.time == 1.5
        assert event.priority == DEFAULT_PRIORITY
        assert not event.cancelled

    def test_cancel_is_idempotent(self):
        queue = EventQueue()
        event = queue.push(Event(0.0, _noop))
        queue.cancel(event)
        queue.cancel(event)
        assert event.cancelled
        assert len(queue) == 0

    def test_ordering_by_time(self):
        early = Event(1.0, _noop)
        late = Event(2.0, _noop)
        early.seq, late.seq = 1, 0
        assert early < late
        assert not late < early

    def test_ordering_by_priority_at_same_time(self):
        urgent = Event(1.0, _noop, priority=-1)
        normal = Event(1.0, _noop)
        urgent.seq, normal.seq = 5, 0
        assert urgent < normal

    def test_ordering_fifo_at_same_time_and_priority(self):
        first = Event(1.0, _noop)
        second = Event(1.0, _noop)
        first.seq, second.seq = 0, 1
        assert first < second


class TestEventQueue:
    def test_push_pop_in_time_order(self):
        queue = EventQueue()
        times = [5.0, 1.0, 3.0, 2.0, 4.0]
        for t in times:
            queue.push(Event(t, _noop))
        popped = [queue.pop().time for _ in range(len(times))]
        assert popped == sorted(times)

    def test_fifo_among_simultaneous_events(self):
        queue = EventQueue()
        labels = []
        events = [Event(1.0, _noop, label=str(i)) for i in range(10)]
        for event in events:
            queue.push(event)
        for _ in range(10):
            labels.append(queue.pop().label)
        assert labels == [str(i) for i in range(10)]

    def test_len_counts_live_events(self):
        queue = EventQueue()
        a = queue.push(Event(1.0, _noop))
        queue.push(Event(2.0, _noop))
        assert len(queue) == 2
        queue.cancel(a)
        assert len(queue) == 1

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        a = queue.push(Event(1.0, _noop, label="a"))
        queue.push(Event(2.0, _noop, label="b"))
        queue.cancel(a)
        assert queue.pop().label == "b"

    def test_cancel_twice_does_not_corrupt_count(self):
        queue = EventQueue()
        a = queue.push(Event(1.0, _noop))
        queue.push(Event(2.0, _noop))
        queue.cancel(a)
        queue.cancel(a)
        assert len(queue) == 1

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(Event(3.0, _noop))
        queue.push(Event(1.0, _noop))
        assert queue.peek_time() == 1.0

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        a = queue.push(Event(1.0, _noop))
        queue.push(Event(2.0, _noop))
        queue.cancel(a)
        assert queue.peek_time() == 2.0

    def test_pop_empty_raises(self):
        queue = EventQueue()
        with pytest.raises(SchedulingError):
            queue.pop()

    def test_bool(self):
        queue = EventQueue()
        assert not queue
        event = queue.push(Event(1.0, _noop))
        assert queue
        queue.cancel(event)
        assert not queue

    def test_clear(self):
        queue = EventQueue()
        for t in (1.0, 2.0):
            queue.push(Event(t, _noop))
        queue.clear()
        assert len(queue) == 0
        assert queue.peek_time() is None


class TestValidateDelay:
    def test_accepts_zero_and_positive(self):
        assert validate_delay(0.0, 0.0) == 0.0
        assert validate_delay(0.0, 2.5) == 2.5

    def test_rejects_negative(self):
        with pytest.raises(SchedulingError):
            validate_delay(10.0, -0.001)

    def test_rejects_nan(self):
        with pytest.raises(SchedulingError):
            validate_delay(0.0, math.nan)

    def test_rejects_infinity(self):
        with pytest.raises(SchedulingError):
            validate_delay(0.0, math.inf)
        with pytest.raises(SchedulingError):
            validate_delay(0.0, -math.inf)


class TestCancelAfterFire:
    """Regression: cancelling a fired (or cancelled) event is a no-op.

    Before the fix, cancelling an event that had already been popped
    decremented the live counter a second time, silently corrupting
    ``len(queue)`` — exactly what the fault injector does when a crash
    retracts a same-timestamp completion event that already fired.
    """

    def test_pop_sets_fired(self):
        queue = EventQueue()
        event = queue.push(Event(1.0, _noop))
        assert not event.fired
        assert queue.pop() is event
        assert event.fired

    def test_cancel_after_fire_is_noop(self):
        queue = EventQueue()
        fired = queue.push(Event(1.0, _noop))
        queue.push(Event(2.0, _noop))
        assert queue.pop() is fired
        before = len(queue)
        queue.cancel(fired)  # documented no-op
        assert len(queue) == before == 1
        assert not fired.cancelled  # it ran; it was never retracted
        assert queue.pop().time == 2.0

    def test_double_cancel_counts_once(self):
        queue = EventQueue()
        victim = queue.push(Event(1.0, _noop))
        queue.push(Event(2.0, _noop))
        queue.cancel(victim)
        queue.cancel(victim)
        assert len(queue) == 1
        assert queue.pop().time == 2.0
