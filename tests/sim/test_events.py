"""Unit tests for the event objects and the future-event list."""

import math

import pytest

from repro.sim.errors import SchedulingError
from repro.sim.events import DEFAULT_PRIORITY, Event, EventQueue, validate_delay


def _noop() -> None:
    pass


def _pop(queue: EventQueue) -> Event:
    event = queue.pop_due(math.inf)
    assert event is not None
    return event


def _drain(queue: EventQueue) -> list:
    events = []
    while (event := queue.pop_due(math.inf)) is not None:
        events.append(event)
    return events


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

    # Events order by (time, priority, seq); the queue's entries carry
    # that key, so ordering is observed through the pops.
    def test_ordering_by_time(self):
        queue = EventQueue()
        late = queue.push(Event(2.0, _noop))
        early = queue.push(Event(1.0, _noop))
        assert early.seq > late.seq
        assert _drain(queue) == [early, late]

    def test_ordering_by_priority_at_same_time(self):
        queue = EventQueue()
        normal = queue.push(Event(1.0, _noop))
        urgent = queue.push(Event(1.0, _noop, priority=-1))
        assert _drain(queue) == [urgent, normal]

    def test_ordering_fifo_at_same_time_and_priority(self):
        queue = EventQueue()
        first = queue.push(Event(1.0, _noop))
        second = queue.push(Event(1.0, _noop))
        assert _drain(queue) == [first, second]


class TestEventQueue:
    def test_push_pop_in_time_order(self):
        queue = EventQueue()
        times = [5.0, 1.0, 3.0, 2.0, 4.0]
        for t in times:
            queue.push(Event(t, _noop))
        popped = [_pop(queue).time for _ in range(len(times))]
        assert popped == sorted(times)

    def test_fifo_among_simultaneous_events(self):
        queue = EventQueue()
        labels = []
        events = [Event(1.0, _noop, label=str(i)) for i in range(10)]
        for event in events:
            queue.push(event)
        for _ in range(10):
            labels.append(_pop(queue).label)
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
        assert _pop(queue).label == "b"

    def test_cancel_twice_does_not_corrupt_count(self):
        queue = EventQueue()
        a = queue.push(Event(1.0, _noop))
        queue.push(Event(2.0, _noop))
        queue.cancel(a)
        queue.cancel(a)
        assert len(queue) == 1

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
        assert queue.pop_due(math.inf) is None


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
        assert _pop(queue) is event
        assert event.fired

    def test_cancel_after_fire_is_noop(self):
        queue = EventQueue()
        fired = queue.push(Event(1.0, _noop))
        queue.push(Event(2.0, _noop))
        assert _pop(queue) is fired
        before = len(queue)
        queue.cancel(fired)  # documented no-op
        assert len(queue) == before == 1
        assert not fired.cancelled  # it ran; it was never retracted
        assert _pop(queue).time == 2.0

    def test_double_cancel_counts_once(self):
        queue = EventQueue()
        victim = queue.push(Event(1.0, _noop))
        queue.push(Event(2.0, _noop))
        queue.cancel(victim)
        queue.cancel(victim)
        assert len(queue) == 1
        assert _pop(queue).time == 2.0
