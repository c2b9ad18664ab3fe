"""Event objects and the future-event list for the simulation kernel.

The kernel is event-driven at its core: every state change happens inside an
:class:`Event` that fires at a simulated time.  Process-oriented modelling
(:mod:`repro.sim.process`) is layered on top by turning each generator resume
into an event.

The future-event list, :class:`EventQueue`, keeps a total order by
``(time, priority, seq)`` with lazy deletion.  It is a binary heap of
``(time, priority, seq, event)`` *tuples*, so every sift comparison runs at
C speed instead of calling :meth:`Event.__lt__`, plus a free-list that
recycles the :class:`Event` objects of kernel-internal resume events (see
:meth:`EventQueue.rent`).  Rented events due at the current instant, which
is about half of all events in a paper run (every zero-delay process
resume), skip the heap: they wait in a FIFO *same-instant lane* that the
pop operations merge with the heap by the same full key.

The monotonically increasing sequence number guarantees deterministic FIFO
ordering among events scheduled for the same instant, which in turn makes
whole simulation runs exactly reproducible for a given random seed.  The
golden-trace suite (``tests/golden/``) pins this: the kernel must replay
recorded runs byte-identically.

The queue's internal structure is deliberately private: reprolint rule
RL012 forbids ``heapq`` (and ``_heap`` access) everywhere else in
``repro``, so the ordering/lazy-deletion invariants have exactly one home.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Protocol, Tuple

from repro.sim.errors import SchedulingError

#: Default event priority.  Lower values fire earlier among simultaneous
#: events.  Model code rarely needs to change this; the kernel uses elevated
#: priorities internally for bookkeeping events that must precede model logic.
DEFAULT_PRIORITY = 0

_INFINITY = float("inf")


def _discarded_callback() -> None:  # pragma: no cover - never scheduled
    raise SchedulingError("a recycled event's callback fired")


class Event:
    """A callback scheduled to run at a simulated time.

    Events are created through :meth:`repro.sim.engine.Simulator.schedule`
    rather than directly.  The only way to retract one is
    :meth:`repro.sim.engine.Simulator.cancel` (:meth:`EventQueue.cancel`):
    cancelled events stay in the queue but are silently discarded when
    popped (lazy deletion).

    Attributes:
        time: Simulated time at which the event fires.
        priority: Tie-break among simultaneous events (lower fires first).
        seq: Monotone sequence number assigned by the event queue;
            final FIFO tie-break.
        callback: Zero-argument callable invoked when the event fires.
        label: Optional human-readable tag used in traces and error messages.
        fired: Whether the event has already been popped by the engine.
            A fired event can no longer be cancelled (cancelling it is a
            no-op, see :meth:`EventQueue.cancel`).
        recyclable: Whether the object belongs to the queue's free-list
            (kernel-internal resume events whose handles provably never
            escape, see :meth:`EventQueue.rent`).  External code never
            sees a recyclable event.
    """

    __slots__ = (
        "time",
        "priority",
        "seq",
        "callback",
        "label",
        "fired",
        "recyclable",
        "_cancelled",
    )

    def __init__(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = DEFAULT_PRIORITY,
        label: Optional[str] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = -1  # assigned on push
        self.callback = callback
        self.label = label
        self.fired = False
        self.recyclable = False
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        """Whether the event has been retracted and will not fire."""
        return self._cancelled

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" {self.label!r}" if self.label else ""
        state = " cancelled" if self._cancelled else ""
        return f"<Event t={self.time:.6g} p={self.priority}{tag}{state}>"


#: One future-event-list entry.  The ``seq`` element is unique, so tuple
#: comparison never reaches the (incomparable-by-design) ``Event`` element,
#: and the global order is exactly ``(time, priority, seq)`` — identical to
#: the pre-overhaul ``Event.__lt__`` heap.
_Entry = Tuple[float, int, int, Event]


class EventQueue:
    """Future-event list: a lazy-deletion heap plus a same-instant lane.

    The queue never raises on cancelled events; they are skipped during
    :meth:`pop`.  ``len(queue)`` counts live (non-cancelled) events.

    Hot-path design (see ``docs/performance.md``):

    * entries are ``(time, priority, seq, event)`` tuples so ``heapq``
      sift comparisons stay in C — the pre-overhaul heap called the
      Python-level ``Event.__lt__`` O(log n) times per push/pop;
    * :meth:`rent`/:meth:`recycle` reuse :class:`Event` objects for the
      engine's internal resume events (one slot-write burst instead of an
      allocation per event);
    * a rented event due at the current instant goes into the
      *same-instant lane*, a FIFO ``deque`` of entries, instead of the
      heap: one append and one ``popleft`` instead of two O(log n) sifts;
    * :meth:`pop_due` fuses the engine loop's "peek, bounds-check, pop"
      triple into a single call that drops cancelled entries as it goes.

    The lane's invariant: every lane entry has the same time, the
    queue's current instant, and the entries sit in ``seq`` order.  The
    current instant starts at ``0.0`` and becomes the time of each event
    that leaves the heap while the lane is empty; it cannot change while
    the lane holds entries.  Rented entries carry
    :data:`DEFAULT_PRIORITY`, so the lane is sorted by the full
    ``(time, priority, seq)`` key, and the pop operations take the lane
    head only when the heap top's key is greater: events fire in exactly
    the order a single heap would give them.
    """

    __slots__ = ("_heap", "_lane", "_now", "_seq", "_live", "_free")

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._lane: Deque[_Entry] = deque()
        self._now = 0.0
        self._seq = 0
        self._live = 0
        self._free: List[Event] = []

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, event: Event) -> Event:
        """Insert *event* and stamp its FIFO sequence number."""
        seq = self._seq
        self._seq = seq + 1
        event.seq = seq
        heapq.heappush(self._heap, (event.time, event.priority, seq, event))
        self._live += 1
        return event

    def rent(
        self, time: float, callback: Callable[[], None], label: Optional[str]
    ) -> Event:
        """Insert a *recyclable* event, reusing a free-listed object.

        Only for call sites whose handle provably never escapes the
        kernel (the process layer's resume events): the caller must drop
        its reference once the event fires or is cancelled, because the
        object returns to the free-list via :meth:`recycle` and will be
        reincarnated with a fresh ``seq``.  Stale queue entries of a
        recycled event are impossible — recycling happens only when the
        event's entry leaves the queue.  Rented events always carry
        :data:`DEFAULT_PRIORITY`; one due at the current instant goes
        into the same-instant lane.
        """
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.callback = callback
            event.label = label
            event.fired = False
            event._cancelled = False
        else:
            event = Event(time, callback, label=label)
            event.recyclable = True
        seq = self._seq
        self._seq = seq + 1
        event.seq = seq
        if time == self._now:
            self._lane.append((time, DEFAULT_PRIORITY, seq, event))
        else:
            heapq.heappush(self._heap, (time, DEFAULT_PRIORITY, seq, event))
        self._live += 1
        return event

    def recycle(self, event: Event) -> None:
        """Return a fired-or-skipped recyclable event to the free-list.

        Called by the engine after the callback ran, and internally when a
        cancelled recyclable entry is dropped; never call it while the
        event still has a queue entry.
        """
        event.callback = _discarded_callback
        self._free.append(event)

    def cancel(self, event: Event) -> None:
        """Retract *event* (lazy deletion).

        Cancelling an event that already fired, or one that was already
        cancelled, is a documented no-op.  This matters when a retraction
        races a completion at the same timestamp: whichever fires first
        wins, and the loser's ``cancel`` must not corrupt the live-event
        count.  Callers (resource teardown, fault injection) can therefore
        hold on to stale event handles without bookkeeping.
        """
        if event._cancelled or event.fired:
            return
        event._cancelled = True
        self._live -= 1

    def peek_time(self) -> Optional[float]:
        """Return the time of the next live event, or ``None`` if empty."""
        lane = self._lane
        while lane and lane[0][3]._cancelled:
            event = lane.popleft()[3]
            if event.recyclable:
                self.recycle(event)
        heap = self._heap
        while heap and heap[0][3]._cancelled:
            event = heapq.heappop(heap)[3]
            if event.recyclable:
                self.recycle(event)
        if lane and not (heap and heap[0] < lane[0]):
            return lane[0][0]
        if heap:
            return heap[0][0]
        return None

    def pop(self) -> Event:
        """Remove and return the next live event.

        Raises:
            SchedulingError: If the queue holds no live events.
        """
        event = self._pop_due(_INFINITY)
        if event is None:
            raise SchedulingError("event queue is empty")
        return event

    def pop_due(self, until: float) -> Optional[Event]:
        """Pop the next live event with ``time <= until``, else ``None``.

        The engine's inner loop runs on this: it fuses ``peek_time`` +
        horizon check + ``pop`` into one call (pass ``math.inf`` for an
        unbounded run).  Cancelled entries encountered on the way are
        dropped and their recyclable events free-listed.  The lane head
        is taken unless the heap top's key is smaller.
        """
        lane = self._lane
        heap = self._heap
        while True:
            if lane and not (heap and heap[0] < lane[0]):
                entry = lane[0]
                event = entry[3]
                if event._cancelled:
                    lane.popleft()
                    if event.recyclable:
                        self.recycle(event)
                    continue
                if entry[0] > until:
                    return None
                lane.popleft()
            elif heap:
                entry = heap[0]
                event = entry[3]
                if event._cancelled:
                    heapq.heappop(heap)
                    if event.recyclable:
                        self.recycle(event)
                    continue
                time = entry[0]
                if time > until:
                    return None
                heapq.heappop(heap)
                if not lane:
                    self._now = time
            else:
                return None
            event.fired = True
            self._live -= 1
            return event

    #: :meth:`pop` runs the same loop without looking up ``pop_due``, so
    #: wrappers of both (the kernel profiler, ``repro.sanitize``) see a
    #: ``pop`` as one operation.
    _pop_due = pop_due

    def clear(self) -> None:
        """Discard every pending event."""
        self._heap.clear()
        self._lane.clear()
        self._live = 0


class _SupportsLessThan(Protocol):
    def __lt__(self, other: Any) -> bool: ...  # pragma: no cover - protocol



class MinHeap(List[Any]):
    """A slim kernel-internal min-heap over totally ordered entries.

    Resource implementations (e.g. the PS server's virtual-finish order)
    use this instead of touching :mod:`heapq` themselves, keeping every
    heap invariant in this module (enforced by reprolint RL012).
    Entries must be tuples whose comparable prefix is unique, exactly
    like the future-event list's.  It is a ``list`` subclass so that
    ``len()`` and truth tests stay in C; use only :meth:`push`,
    :meth:`pop`, :meth:`peek` and ``clear`` on it.
    """

    __slots__ = ()

    def push(self, item: _SupportsLessThan) -> None:
        heapq.heappush(self, item)

    def pop(self) -> Any:  # type: ignore[override]
        """Remove and return the smallest entry (raises IndexError if empty)."""
        return heapq.heappop(self)

    def peek(self) -> Any:
        """The smallest entry without removing it (raises IndexError if empty)."""
        return self[0]


def validate_delay(now: float, delay: float, what: str = "delay") -> float:
    """Validate a non-negative, finite scheduling delay and return it.

    Args:
        now: Current simulated time (used only for the error message).
        delay: Proposed delay relative to *now*.
        what: Name of the quantity for error messages.

    Raises:
        SchedulingError: If *delay* is negative, NaN, or infinite.
    """
    if delay != delay or delay in (float("inf"), float("-inf")):
        raise SchedulingError(f"{what} must be finite, got {delay!r} at t={now}")
    if delay < 0:
        raise SchedulingError(f"{what} must be >= 0, got {delay!r} at t={now}")
    return delay


__all__ = [
    "DEFAULT_PRIORITY",
    "Event",
    "EventQueue",
    "MinHeap",
    "validate_delay",
]
