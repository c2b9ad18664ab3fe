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

Hot-path layout (see ``docs/performance.md``): :meth:`Simulator.run` is
one tight loop (pop, advance clock, call, recycle) that drives the queue
through :meth:`~repro.sim.events.EventQueue.pop_due`, which fuses the
peek / horizon-check / pop triple into one call.  The kernel publishes
nothing on the bus; :func:`repro.sanitize.capture_trace` records every
fired event when a run needs to be seen event by event.  The golden
suite (``tests/golden/``) pins that the loop replays recorded runs
byte-identically.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Generator, Optional

from repro.sim.errors import ProcessError, SchedulingError
from repro.sim.events import DEFAULT_PRIORITY, Event, EventQueue, validate_delay
from repro.sim.rng import RandomStreams
from repro.telemetry.bus import EventBus

_INFINITY = math.inf


class Simulator:
    """Discrete-event simulation engine.

    Attributes:
        now: Current simulated time.  Starts at 0 and only moves forward.
        seed: The master seed the engine was constructed with.
        rng: Named random-number streams (see :class:`~repro.sim.rng.RandomStreams`).
        bus: The run's typed telemetry event bus (see
            :mod:`repro.telemetry.bus`), shared by the model components.

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
        return process

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Fire every event due up to *until* (all of them when ``None``).

        Args:
            until: The horizon.  The clock ends at exactly ``until``, with
                or without events pending beyond it, so that time-weighted
                statistics close out over ``[0, until]``.

        Returns:
            The simulated time at which the loop stopped.

        Raises:
            SchedulingError: If *until* lies before the current time or
                is NaN.
            ProcessError: On a re-entrant call from inside a callback.
        """
        if self._running:
            raise ProcessError("simulator is already running (re-entrant run())")
        if until is not None and not until >= self.now:
            # NaN fails the comparison too: as a horizon it would let
            # every event fire, so a closed model would never stop.
            raise SchedulingError(f"cannot run until t={until} from now={self.now}")
        queue = self._queue
        pop_due = queue.pop_due
        recycle = queue.recycle
        limit = _INFINITY if until is None else until
        fired = 0
        self._running = True
        try:
            while True:
                event = pop_due(limit)
                if event is None:
                    break
                self.now = event.time
                fired += 1
                event.callback()
                if event.recyclable:
                    recycle(event)
        finally:
            self._running = False
            self._event_count += fired
        if until is not None:
            self.now = until
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
