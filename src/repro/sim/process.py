"""Process-oriented modelling on top of the event kernel.

A *process* is a Python generator driven by the simulator.  The generator
yields kernel commands and is resumed when the command completes:

* ``yield Hold(delay)`` — sleep for ``delay`` simulated time units.
* ``yield Passivate()`` — suspend until another component calls
  :meth:`Process.reactivate`.  The value passed to ``reactivate`` becomes the
  value of the ``yield`` expression.
* ``yield server.service(demand)`` — request ``demand`` units of service from
  a resource (see :mod:`repro.sim.resources`); the process resumes when the
  service completes.
* ``yield continuation`` — a :class:`Continuation` takes the process's
  place in resource queues and issues several services in a row from
  inside their completions; the process resumes after the last one.

Sub-behaviours compose with plain ``yield from``, since the driver only ever
sees the flattened stream of commands.

This mirrors the process-interaction worldview of the DISS simulation
methodology used by the paper [Melm84], where model entities are active
processes that alternate between holding, queueing for service, and
passivating.

Hot-path layout (see ``docs/performance.md``): every generator resume is
one kernel event, so :meth:`Process._schedule_resume` is among the
hottest call sites in a run.  It rents a recyclable event from the
future-event list (no per-resume ``Event``/lambda allocation) whose
callback is the process itself, with the pending value parked in a
slot, and a precomputed trace label.  The rented event's handle never
leaves the process (``_resume_event`` is cleared before the generator
runs), which is what makes the queue's free-list reuse safe.  A
zero-delay resume (:meth:`Process.resume_now`, ``activate()``,
``Hold(0)``) is due at the current instant, so it waits in the queue's
same-instant lane instead of the heap.  A :class:`Continuation` rents no
event at all: each completion runs its next step inside the
completion's own callback, so a chain of services costs no generator
resume, no ``yield from`` frames, no command object and no resume
event per service.
"""

from __future__ import annotations

import enum
import math
from typing import Any, Callable, Generator, List, Optional

from repro.sim.errors import ProcessError
from repro.sim.events import Event, validate_delay

_INFINITY = math.inf


class Command:
    """Base class for objects a process may yield to the kernel."""

    __slots__ = ()

    def execute(self, process: "Process") -> None:
        """Arrange for *process* to be resumed when the command completes."""
        raise NotImplementedError


class Hold(Command):
    """Sleep for a fixed simulated duration."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        self.delay = delay

    def execute(self, process: "Process") -> None:
        delay = self.delay
        if not 0.0 <= delay < _INFINITY:
            # NaN fails the chained comparison too; validate_delay raises
            # the precise diagnostic.
            validate_delay(process.sim.now, delay, "hold delay")
        process._schedule_resume(delay, None)


class Passivate(Command):
    """Suspend until :meth:`Process.reactivate` is called by someone else."""

    __slots__ = ()

    def execute(self, process: "Process") -> None:
        process._state = ProcessState.PASSIVE


class WaitFor(Command):
    """Suspend until an externally armed callback fires.

    ``arm`` is called with a single ``resume(value=None)`` function; the
    process stays WAITING until some component invokes it.  This is the
    bridge between processes and callback-style components (e.g. waiting for
    the token ring to deliver a message)::

        yield WaitFor(lambda resume: ring.send(Message(..., deliver=resume)))
    """

    __slots__ = ("arm",)

    def __init__(self, arm: Callable[[Callable[..., None]], None]) -> None:
        self.arm = arm

    def execute(self, process: "Process") -> None:
        def resume(value: Any = None) -> None:
            process.resume_now(value)

        self.arm(resume)


class Continuation(Command):
    """A command that keeps its process parked across several services.

    A plain command hands its process to one resource, which resumes the
    process when the service completes.  A continuation is handed to
    resources *in the process's place*: a resource calls its
    :meth:`resume_now` at each completion, and :meth:`advance` runs at
    once, inside the completion's callback.  It either hands the
    continuation to the next resource or steps the generator itself
    (``process._step``); no resume event is rented on the way.

    The process stays WAITING for as long as a resource holds the
    continuation, so :meth:`resume_now` checks that state as
    :meth:`Process.resume_now` does.  There is no pending resume for
    :meth:`Process.interrupt` to cancel: whoever interrupts must first
    flush the resources serving the continuation (``Server.abort_all``),
    or their next completion finds the process in the wrong state and
    raises :class:`~repro.sim.errors.ProcessError`.  Subclasses
    implement :meth:`begin` (the first service, issued when the process
    yields the continuation) and :meth:`advance`.
    """

    __slots__ = ("process",)

    def execute(self, process: "Process") -> None:
        self.process = process
        self.begin()

    def begin(self) -> None:
        """Hand the continuation to its first resource."""
        raise NotImplementedError

    def advance(self) -> None:
        """Run inside a completion: serve on, or step the process."""
        raise NotImplementedError

    def resume_now(self) -> None:
        """A resource finished serving the continuation (the process's twin)."""
        process = self.process
        if process._state is not ProcessState.WAITING:
            raise ProcessError(
                f"{process.name}: resume_now() on a {process._state.value} process"
            )
        self.advance()


class ProcessState(enum.Enum):
    """Lifecycle states of a :class:`Process`."""

    CREATED = "created"
    SCHEDULED = "scheduled"  # a resume event is pending
    RUNNING = "running"  # currently executing a step
    WAITING = "waiting"  # waiting on a resource or custom command
    PASSIVE = "passive"  # explicitly passivated
    TERMINATED = "terminated"


class Process:
    """A simulated process wrapping a command-yielding generator.

    Create processes with :meth:`repro.sim.engine.Simulator.launch`.
    A process is the callback of its own rented resume events: calling
    it delivers the parked value to the generator.

    Attributes:
        sim: The owning simulator.
        name: Optional label used in traces and error messages.
        state: Current :class:`ProcessState`.
    """

    __slots__ = (
        "sim",
        "pid",
        "name",
        "result",
        "_generator",
        "_state",
        "_resume_event",
        "_resume_value",
        "_resume_label",
        "_on_terminate",
        "_queue",
    )

    _ids = iter(range(1, 1 << 62))

    def __init__(self, sim, generator: Generator[Any, Any, Any], name: Optional[str] = None) -> None:
        self.sim = sim
        self.pid = next(Process._ids)
        self.name = name or f"process-{self.pid}"
        self._generator = generator
        self._state = ProcessState.CREATED
        self._resume_event: Optional[Event] = None
        self._resume_value: Any = None
        self._resume_label = self.name + ":resume"
        self._on_terminate: List[Callable[["Process"], None]] = []
        self._queue = sim._queue
        self.result: Any = None

    # ------------------------------------------------------------------
    # Public control surface
    # ------------------------------------------------------------------
    @property
    def state(self) -> ProcessState:
        return self._state

    @property
    def terminated(self) -> bool:
        return self._state is ProcessState.TERMINATED

    def activate(self, delay: float = 0.0) -> None:
        """Schedule the process's first step ``delay`` units from now."""
        if self._state is not ProcessState.CREATED:
            raise ProcessError(f"{self.name}: activate() on a {self._state.value} process")
        if not 0.0 <= delay < _INFINITY:
            validate_delay(self.sim.now, delay, "resume delay")
        self._schedule_resume(delay, None)

    def reactivate(self, value: Any = None, delay: float = 0.0) -> None:
        """Resume a passivated process, delivering *value* to its ``yield``."""
        if self._state is not ProcessState.PASSIVE:
            raise ProcessError(
                f"{self.name}: reactivate() on a {self._state.value} process"
            )
        if not 0.0 <= delay < _INFINITY:
            validate_delay(self.sim.now, delay, "resume delay")
        self._schedule_resume(delay, value)

    def interrupt(self, exception: BaseException) -> None:
        """Throw *exception* into the process at the current instant.

        The process may catch it to implement preemption/migration logic; an
        uncaught exception terminates the process and propagates.  A
        pending resume is cancelled.  A resource still serving the
        process (or its :class:`Continuation`) is not told: flush it
        first (``Server.abort_all``), or its completion later finds the
        process in the wrong state and raises :class:`ProcessError`.
        """
        if self._state in (ProcessState.TERMINATED, ProcessState.RUNNING):
            raise ProcessError(
                f"{self.name}: cannot interrupt a {self._state.value} process"
            )
        if self._resume_event is not None:
            self.sim.cancel(self._resume_event)
        self._state = ProcessState.SCHEDULED
        # Record the throw event so a subsequent interrupt (or resume)
        # supersedes this one instead of double-firing.
        self._resume_event = self.sim.schedule(
            0.0, lambda: self._throw(exception), label=f"{self.name}:interrupt"
        )

    def on_terminate(self, callback: Callable[["Process"], None]) -> None:
        """Register *callback* to run when the process finishes."""
        if self.terminated:
            callback(self)
        else:
            self._on_terminate.append(callback)

    # ------------------------------------------------------------------
    # Kernel-side driving machinery
    # ------------------------------------------------------------------
    def _schedule_resume(self, delay: float, value: Any) -> None:
        # Delay validation happens at the public entry points (activate,
        # reactivate, Hold.execute); resume_now inlines this body for 0.
        self._state = ProcessState.SCHEDULED
        self._resume_value = value
        self._resume_event = self._queue.rent(
            self.sim.now + delay, self, self._resume_label
        )

    def __call__(self) -> None:
        # The process is its own resume callback: a bound method kept on
        # it would make a reference cycle per process.
        value = self._resume_value
        self._resume_value = None
        self._step(value)

    def resume_now(self, value: Any = None) -> None:
        """Resume a WAITING process at the current instant (resource use).

        Resources call this when a service completes.  Unlike
        :meth:`reactivate` it expects the WAITING state.
        """
        if self._state is not ProcessState.WAITING:
            raise ProcessError(
                f"{self.name}: resume_now() on a {self._state.value} process"
            )
        # _schedule_resume(0.0, value) inlined: the rent lands in the
        # queue's same-instant lane.
        self._state = ProcessState.SCHEDULED
        self._resume_value = value
        self._resume_event = self._queue.rent(
            self.sim.now, self, self._resume_label
        )

    def _step(self, value: Any) -> None:
        self._resume_event = None
        self._state = ProcessState.RUNNING
        sim = self.sim
        previous = sim.current_process
        sim.current_process = self
        try:
            try:
                command = self._generator.send(value)
            except StopIteration as stop:
                self._finish(stop.value)
                return
        finally:
            sim.current_process = previous
        self._dispatch(command)

    def _throw(self, exception: BaseException) -> None:
        self._resume_event = None
        self._resume_value = None
        self._state = ProcessState.RUNNING
        sim = self.sim
        previous = sim.current_process
        sim.current_process = self
        try:
            try:
                command = self._generator.throw(exception)
            except StopIteration as stop:
                self._finish(stop.value)
                return
        finally:
            sim.current_process = previous
        self._dispatch(command)

    def _dispatch(self, command: Any) -> None:
        if not isinstance(command, Command):
            raise ProcessError(
                f"{self.name} yielded {command!r}, which is not a kernel Command"
            )
        # Commands either schedule a resume (Hold), park the process on a
        # resource queue (service requests -> WAITING), or passivate it.
        self._state = ProcessState.WAITING
        command.execute(self)

    def _finish(self, result: Any) -> None:
        self._state = ProcessState.TERMINATED
        self.result = result
        callbacks, self._on_terminate = self._on_terminate, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name} {self._state.value}>"


__all__ = ["Command", "Continuation", "Hold", "Passivate", "WaitFor", "Process", "ProcessState"]
