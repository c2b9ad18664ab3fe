"""Property-based tests: the future-event list vs a naive reference.

Hypothesis drives randomized operation sequences against
:class:`~repro.sim.events.EventQueue` and checks them against an
obviously-correct sorted-list model.  The pinned
contract:

* total order by ``(time, priority, insertion order)``;
* ``cancel`` after fire (or double-cancel) is a no-op;
* ``pop_due`` returns ``None`` exactly when no live event is due;
* FIFO among simultaneous equal-priority events;
* rents due at the current instant wait in the same-instant lane, and
  the merged lane + heap order is exactly the single-heap order.

Times are drawn from a small grid *and* a continuous range so that ties
(the interesting case for the heap's comparison path) occur constantly.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from repro.sim.events import Event, EventQueue  # noqa: E402

QUEUE_FACTORIES = [pytest.param(EventQueue, id="heap")]

#: Mostly grid times (maximal tie pressure) with some continuous spice.
times = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 10.0]),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False),
)
priorities = st.sampled_from([-2, -1, 0, 1, 5])


class ReferenceQueue:
    """The obviously-correct model: a list scanned for the minimum key."""

    def __init__(self):
        self._entries = []  # (time, priority, seq, tag, cancelled-flag list)
        self._seq = 0

    def push(self, time, priority, tag):
        self._entries.append([time, priority, self._seq, tag, False])
        self._seq += 1

    def cancel(self, tag):
        for entry in self._entries:
            if entry[3] == tag:
                entry[4] = True
                return

    def _live(self):
        return [entry for entry in self._entries if not entry[4]]

    def __len__(self):
        return len(self._live())

    def peek_time(self):
        live = self._live()
        if not live:
            return None
        return min(live, key=lambda entry: entry[:3])[0]

    def pop(self):
        live = self._live()
        entry = min(live, key=lambda entry: entry[:3])
        self._entries.remove(entry)
        return entry[3]


def _pop(queue):
    """The next live event, which must exist."""
    event = queue.pop_due(math.inf)
    assert event is not None
    return event


@pytest.mark.parametrize("factory", QUEUE_FACTORIES)
@given(items=st.lists(st.tuples(times, priorities), max_size=40))
@settings(max_examples=60, deadline=None)
def test_drain_order_matches_reference(factory, items):
    queue = factory()
    model = ReferenceQueue()
    events = []
    for tag, (time, priority) in enumerate(items):
        event = Event(time, lambda: None, priority=priority, label=str(tag))
        queue.push(event)
        events.append(event)
        model.push(time, priority, tag)
    while queue:
        assert int(_pop(queue).label) == model.pop()
    assert queue.pop_due(math.inf) is None
    assert len(model) == 0


@pytest.mark.parametrize("factory", QUEUE_FACTORIES)
@given(
    items=st.lists(st.tuples(times, priorities), min_size=1, max_size=30),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_interleaved_cancel_matches_reference(factory, items, data):
    queue = factory()
    model = ReferenceQueue()
    events = {}
    for tag, (time, priority) in enumerate(items):
        event = Event(time, lambda: None, priority=priority, label=str(tag))
        queue.push(event)
        events[tag] = event
        model.push(time, priority, tag)
    cancelled = data.draw(
        st.lists(st.sampled_from(sorted(events)), unique=True, max_size=len(events))
    )
    for tag in cancelled:
        queue.cancel(events[tag])
        model.cancel(tag)
    assert len(queue) == len(model)
    while queue:
        assert int(_pop(queue).label) == model.pop()
    assert len(model) == 0
    assert queue.pop_due(math.inf) is None


@pytest.mark.parametrize("factory", QUEUE_FACTORIES)
@given(items=st.lists(st.tuples(times, priorities), min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_cancel_after_fire_is_noop(factory, items):
    queue = factory()
    for tag, (time, priority) in enumerate(items):
        queue.push(Event(time, lambda: None, priority=priority, label=str(tag)))
    size_before = len(queue)
    fired = _pop(queue)
    assert fired.fired
    queue.cancel(fired)  # documented no-op
    assert not fired.cancelled
    assert len(queue) == size_before - 1
    # Double-cancel of a live event is also a no-op for the live count.
    if queue:
        victim = _pop(queue)
        requeued = Event(victim.time, lambda: None, priority=victim.priority)
        queue.push(requeued)
        queue.cancel(requeued)
        queue.cancel(requeued)
        assert len(queue) == size_before - 2


@pytest.mark.parametrize("factory", QUEUE_FACTORIES)
@given(count=st.integers(min_value=2, max_value=50), time=times)
@settings(max_examples=40, deadline=None)
def test_fifo_among_simultaneous(factory, count, time):
    queue = factory()
    for tag in range(count):
        queue.push(Event(time, lambda: None, label=str(tag)))
    drained = [int(_pop(queue).label) for _ in range(count)]
    assert drained == list(range(count))


@pytest.mark.parametrize("factory", QUEUE_FACTORIES)
@given(items=st.lists(times, min_size=1, max_size=30))
@settings(max_examples=40, deadline=None)
def test_rent_orders_like_push_and_reuses_objects(factory, items):
    """Rented events drain in (time, insertion) order; recycling reuses."""
    queue = factory()
    for tag, time in enumerate(items):
        queue.rent(time, lambda: None, str(tag))
    model = sorted(range(len(items)), key=lambda tag: (items[tag], tag))
    seen = []
    drained = []
    while queue:
        event = _pop(queue)
        drained.append(int(event.label))
        seen.append(event)
        queue.recycle(event)
    assert drained == model
    # The free-list hands back the recycled objects rather than allocating.
    reused = queue.rent(0.0, lambda: None, "reused")
    assert reused in seen


@pytest.mark.parametrize("factory", QUEUE_FACTORIES)
@given(
    items=st.lists(st.tuples(times, priorities), min_size=1, max_size=25),
    horizon=times,
)
@settings(max_examples=60, deadline=None)
def test_pop_due_respects_horizon(factory, items, horizon):
    queue = factory()
    model = ReferenceQueue()
    for tag, (time, priority) in enumerate(items):
        queue.push(Event(time, lambda: None, priority=priority, label=str(tag)))
        model.push(time, priority, tag)
    while True:
        due = queue.pop_due(horizon)
        if due is None:
            break
        assert due.time <= horizon
        assert int(due.label) == model.pop()
    remaining = model.peek_time()
    assert remaining is None or remaining > horizon
    if remaining is None:
        assert queue.pop_due(math.inf) is None
    else:
        assert int(_pop(queue).label) == model.pop()


#: Offsets from "now" for future rents (never 0: those are lane rents).
future_delays = st.one_of(
    st.sampled_from([0.5, 1.0, 2.5]),
    st.floats(min_value=0.01, max_value=10.0, allow_nan=False, allow_infinity=False),
)
#: One step of the lane property test's loop.
lane_ops = st.one_of(
    st.just(("rent_now",)),
    st.tuples(st.just("rent"), future_delays),
    st.tuples(
        st.just("push"),
        # EventQueue itself takes any time (Simulator refuses the past),
        # so some pushes land before "now".
        st.one_of(st.sampled_from([0.0, -0.5]), future_delays),
        st.integers(min_value=-2, max_value=5),
    ),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=1000)),
    st.just(("pop",)),
)


@given(ops=st.lists(lane_ops, max_size=80))
# A past event leaves the heap while the lane holds entries: the current
# instant must not move back, or the next lane rent sorts behind them.
@example(
    ops=[
        ("rent", 1.0),
        ("pop",),
        ("rent_now",),
        ("push", -0.5, 0),
        ("pop",),
        ("rent_now",),
        ("pop",),
    ]
)
@settings(max_examples=300, deadline=None)
def test_same_instant_lane_matches_reference(ops):
    """Rents at "now" take the lane; the merged order is still the heap's.

    The loop pops events to advance "now", as the engine does, and
    recycles each popped rented event, so free-listed objects are
    reincarnated by later rents.  Only pending handles are cancelled:
    the engine's holders drop theirs once an event fires or is dropped.
    """
    queue = EventQueue()
    model = ReferenceQueue()
    pending = {}  # tag -> handle of a live event
    now = 0.0

    def check_pop(event, tag):
        assert event is not None
        assert int(event.label) == tag
        assert event.time == now
        del pending[tag]
        if event.recyclable:
            queue.recycle(event)

    for tag, op in enumerate(ops):
        kind = op[0]
        if kind == "rent_now":
            pending[tag] = queue.rent(now, lambda: None, str(tag))
            model.push(now, 0, tag)
        elif kind == "rent":
            pending[tag] = queue.rent(now + op[1], lambda: None, str(tag))
            model.push(now + op[1], 0, tag)
        elif kind == "push":
            event = Event(now + op[1], lambda: None, priority=op[2], label=str(tag))
            pending[tag] = queue.push(event)
            model.push(now + op[1], op[2], tag)
        elif kind == "cancel":
            if pending:
                victim = sorted(pending)[op[1] % len(pending)]
                queue.cancel(pending.pop(victim))
                model.cancel(victim)
        elif model:
            now = model.peek_time()
            event = queue.pop_due(now)
            check_pop(event, model.pop())
        else:
            assert queue.pop_due(now + 100.0) is None
        assert len(queue) == len(model)
    while model:
        now = model.peek_time()
        check_pop(queue.pop_due(now), model.pop())
    assert not queue
    assert queue.pop_due(math.inf) is None
