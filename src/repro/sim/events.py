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
:meth:`EventQueue.rent`).

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
from typing import Any, Callable, List, Optional, Protocol, Tuple

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
    rather than directly.  An event may be *cancelled*, which is the only
    safe way to retract it: cancelled events stay in the heap but are
    silently discarded when popped (lazy deletion).

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

    def cancel(self) -> None:
        """Retract the event.

        Cancelling an event that has already fired or was already cancelled
        is a no-op; this keeps resource code simple (it may hold on to stale
        completion events).
        """
        self._cancelled = True

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
    """Future-event list: a lazy-deletion binary heap of entry tuples.

    The queue never raises on cancelled events; they are skipped during
    :meth:`pop`.  ``len(queue)`` counts live (non-cancelled) events.

    Hot-path design (see ``docs/performance.md``):

    * entries are ``(time, priority, seq, event)`` tuples so ``heapq``
      sift comparisons stay in C — the pre-overhaul heap called the
      Python-level ``Event.__lt__`` O(log n) times per push/pop;
    * :meth:`rent`/:meth:`recycle` reuse :class:`Event` objects for the
      engine's internal resume events (one slot-write burst instead of an
      allocation per event);
    * :meth:`pop_due` fuses the engine loop's "peek, bounds-check, pop"
      triple into a single call that drops cancelled entries as it goes.
    """

    __slots__ = ("_heap", "_seq", "_live", "_free")

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
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
        reincarnated with a fresh ``seq``.  Stale heap entries of a
        recycled event are impossible — recycling happens only when the
        event's entry leaves the heap.  Rented events always carry
        :data:`DEFAULT_PRIORITY`.
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
        heapq.heappush(self._heap, (time, DEFAULT_PRIORITY, seq, event))
        self._live += 1
        return event

    def recycle(self, event: Event) -> None:
        """Return a fired-or-skipped recyclable event to the free-list.

        Called by the engine after the callback ran, and internally when a
        cancelled recyclable entry is dropped; never call it while the
        event still has a heap entry.
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
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[3]
            if not event._cancelled:
                return entry[0]
            heapq.heappop(heap)
            if event.recyclable:
                self.recycle(event)
        return None

    def pop(self) -> Event:
        """Remove and return the next live event.

        Raises:
            SchedulingError: If the queue holds no live events.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if event._cancelled:
                if event.recyclable:
                    self.recycle(event)
                continue
            event.fired = True
            self._live -= 1
            return event
        raise SchedulingError("event queue is empty")

    def pop_due(self, until: float) -> Optional[Event]:
        """Pop the next live event with ``time <= until``, else ``None``.

        The engine's inner loop runs on this: it fuses ``peek_time`` +
        horizon check + ``pop`` into one call (pass ``math.inf`` for an
        unbounded run).  Cancelled entries encountered on the way are
        dropped and their recyclable events free-listed.
        """
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            entry = heap[0]
            event = entry[3]
            if event._cancelled:
                heappop(heap)
                if event.recyclable:
                    self.recycle(event)
                continue
            if entry[0] > until:
                return None
            heappop(heap)
            event.fired = True
            self._live -= 1
            return event
        return None

    def clear(self) -> None:
        """Discard every pending event."""
        self._heap.clear()
        self._live = 0


class _SupportsLessThan(Protocol):
    def __lt__(self, other: Any) -> bool: ...  # pragma: no cover - protocol



class MinHeap:
    """A slim kernel-internal min-heap over totally ordered entries.

    Resource implementations (e.g. the PS server's virtual-finish order)
    use this instead of touching :mod:`heapq` themselves, keeping every
    heap invariant in this module (enforced by reprolint RL012).
    Entries must be tuples whose comparable prefix is unique, exactly
    like the future-event list's.
    """

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items: List[Any] = []

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def push(self, item: _SupportsLessThan) -> None:
        heapq.heappush(self._items, item)

    def pop(self) -> Any:
        """Remove and return the smallest entry (raises IndexError if empty)."""
        return heapq.heappop(self._items)

    def peek(self) -> Any:
        """The smallest entry without removing it (raises IndexError if empty)."""
        return self._items[0]

    def clear(self) -> None:
        self._items.clear()


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
