"""The simulation engine: clock, event loop, and process management.

:class:`Simulator` is the single object that owns the simulated clock and
the future-event list.  Model components (resources, processes, monitors)
hold a reference to it.  The engine is deliberately free of any modelling
vocabulary — queries, sites, and networks live in :mod:`repro.model`.

Typical use::

    sim = Simulator(seed=42)
    cpu = PSServer(sim, name="cpu")

    def job(demand: float):
        yield cpu.service(demand)

    sim.launch(job(1.5))
    sim.run(until=100.0)

Hot-path layout (see ``docs/performance.md``): the unbounded
:meth:`Simulator.run` loop is *subscription-swapped* — it runs a tight
fast loop (pop, advance clock, call) while nobody subscribes to
:class:`~repro.telemetry.events.TraceMessage`, and switches to a tracing
loop only while an explicit subscriber exists.  Both loops drive the
queue through :meth:`~repro.sim.events.EventQueue.pop_due`, which fuses
the peek / horizon-check / pop triple of the pre-overhaul loop into one
call.  The golden suite (``tests/golden/``) pins that every layout
replays recorded runs byte-identically.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Generator, Optional

from repro.sim.errors import ProcessError, SchedulingError
from repro.sim.events import DEFAULT_PRIORITY, Event, EventQueue, validate_delay
from repro.sim.rng import RandomStreams
from repro.telemetry.bus import EventBus
from repro.telemetry.events import TraceMessage

_INFINITY = math.inf


class Simulator:
    """Discrete-event simulation engine.

    Attributes:
        now: Current simulated time.  Starts at 0 and only moves forward.
        seed: The master seed the engine was constructed with.
        rng: Named random-number streams (see :class:`~repro.sim.rng.RandomStreams`).
        bus: The run's typed telemetry event bus (see
            :mod:`repro.telemetry.bus`).  Labelled kernel events are
            published as :class:`~repro.telemetry.events.TraceMessage`
            — but only when something subscribed to ``TraceMessage``
            specifically, so an idle bus costs one attribute test per event.

    Args:
        seed: Master seed for the run's random streams.
    """

    __slots__ = (
        "now",
        "seed",
        "rng",
        "bus",
        "_queue",
        "_running",
        "_process_count",
        "_event_count",
        "current_process",
    )

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.seed = seed
        self.rng = RandomStreams(seed)
        self.bus = EventBus()
        self._queue = EventQueue()
        self._running = False
        self._process_count = 0
        self._event_count = 0
        #: The process whose generator is currently executing, or ``None``
        #: when control is in plain event callbacks.  Maintained by
        #: :class:`~repro.sim.process.Process`; model code reads it to
        #: learn "who am I" inside a ``yield from`` chain (the fault layer
        #: uses it to register the executing process at a site).
        self.current_process: Optional[Any] = None

    # ------------------------------------------------------------------
    # Event scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = DEFAULT_PRIORITY,
        label: Optional[str] = None,
    ) -> Event:
        """Schedule *callback* to run ``delay`` time units from now.

        Args:
            delay: Non-negative, finite offset from the current time.
            callback: Zero-argument callable run when the event fires.
            priority: Tie-break among simultaneous events (lower first).
            label: Optional tag for traces.

        Returns:
            The scheduled :class:`Event`; keep it if you may need to cancel.
        """
        if not 0.0 <= delay < _INFINITY:
            # NaN fails the chained comparison too; validate_delay raises
            # the precise diagnostic for all three invalid shapes.
            validate_delay(self.now, delay)
        event = Event(self.now + delay, callback, priority=priority, label=label)
        return self._queue.push(event)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = DEFAULT_PRIORITY,
        label: Optional[str] = None,
    ) -> Event:
        """Schedule *callback* at absolute simulated time *time*."""
        if time < self.now:
            raise SchedulingError(f"cannot schedule at t={time} < now={self.now}")
        return self.schedule(time - self.now, callback, priority=priority, label=label)

    def cancel(self, event: Event) -> None:
        """Retract a previously scheduled event.

        Cancelling an event that has already fired or was already
        cancelled is a documented no-op.  The fault injector relies on
        this: when a site crash and a service completion land on the same
        timestamp, event ``priority`` decides who runs first and the
        loser's retraction is silently ignored.
        """
        self._queue.cancel(event)

    # ------------------------------------------------------------------
    # Process management (see repro.sim.process for the Process class)
    # ------------------------------------------------------------------
    def launch(self, generator: Generator[Any, Any, Any], name: Optional[str] = None, delay: float = 0.0):
        """Wrap *generator* in a :class:`~repro.sim.process.Process` and start it.

        The process's first step runs ``delay`` time units from now (default:
        at the current instant, after already-scheduled simultaneous events).

        Returns:
            The new :class:`~repro.sim.process.Process`.
        """
        from repro.sim.process import Process  # local import to avoid a cycle

        process = Process(self, generator, name=name)
        process.activate(delay=delay)
        self._process_count += 1
        return process

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single next event.

        Returns:
            ``True`` if an event fired, ``False`` if the queue was empty.
        """
        queue = self._queue
        if not queue:
            return False
        event = queue.pop()
        if event.time < self.now:
            raise SchedulingError(
                f"time went backwards: event at {event.time} < now {self.now}"
            )
        self.now = event.time
        self._event_count += 1
        # Guarded emit: TraceMessage is high-volume, so it is produced only
        # for subscribers that name it (bus.trace_wanted).
        if self.bus.trace_wanted and event.label is not None:
            self.bus.emit(TraceMessage(time=self.now, label=event.label))
        event.callback()
        if event.recyclable:
            queue.recycle(event)
        return True

    def _drive(self, limit: float) -> None:
        """The unbounded inner loop: fire every event with time <= limit.

        Two hand-specialized loops with hoisted locals; control hops
        between them only when a ``TraceMessage`` subscription appears or
        disappears mid-run.  The fired-event tally is flushed to
        ``self._event_count`` even when a callback raises.
        """
        queue = self._queue
        pop_due = queue.pop_due
        recycle = queue.recycle
        bus = self.bus
        fired = 0
        try:
            while True:
                if not bus.trace_wanted:
                    while True:
                        event = pop_due(limit)
                        if event is None:
                            return
                        self.now = event.time
                        fired += 1
                        event.callback()
                        if event.recyclable:
                            recycle(event)
                        if bus.trace_wanted:
                            break
                else:
                    emit = bus.emit
                    while True:
                        event = pop_due(limit)
                        if event is None:
                            return
                        self.now = event.time
                        fired += 1
                        label = event.label
                        if label is not None:
                            emit(TraceMessage(time=event.time, label=label))
                        event.callback()
                        if event.recyclable:
                            recycle(event)
                        if not bus.trace_wanted:
                            break
        finally:
            self._event_count += fired

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the event loop.

        Args:
            until: Stop once the clock would pass this time.  The clock is
                advanced to exactly ``until`` on a timed stop so that
                time-weighted statistics close out correctly.
            max_events: Stop after firing this many events (safety valve for
                tests); ``None`` means unlimited.

        Returns:
            The simulated time at which the loop stopped.
        """
        if self._running:
            raise ProcessError("simulator is already running (re-entrant run())")
        self._running = True
        try:
            if max_events is None:
                self._drive(_INFINITY if until is None else until)
                if until is not None and (
                    self._queue.peek_time() is not None or self.now < until
                ):
                    # Timed stop (pending events beyond the horizon) or a
                    # drained event list: pin the clock to the horizon so
                    # callers measuring over [0, until] get consistent
                    # denominators.
                    self.now = until
            else:
                # Bounded runs are a test-only safety valve; they keep the
                # straightforward peek/step loop.  Note the clock is *not*
                # pinned to the horizon when the event budget runs out
                # with work still due before it.
                fired = 0
                while fired < max_events:
                    next_time = self._queue.peek_time()
                    if next_time is None:
                        break
                    if until is not None and next_time > until:
                        self.now = until
                        break
                    self.step()
                    fired += 1
                if (
                    until is not None
                    and self.now < until
                    and self._queue.peek_time() is None
                ):
                    self.now = until
        finally:
            self._running = False
        return self.now

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events in the future-event list."""
        return len(self._queue)

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far."""
        return self._event_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator t={self.now:.6g} pending={self.pending_events} "
            f"fired={self._event_count}>"
        )


__all__ = ["Simulator"]
