"""Service-center resources: FCFS servers and a Processor-Sharing server.

The paper's DB-site model (its Figure 2) needs exactly two service
disciplines:

* **FCFS** for disks — "the disks are modeled as FCFS servers".
  :class:`FCFSServer` implements an ``m``-server station with a single FIFO
  queue (``m=1`` gives a plain FCFS server; per-disk queues are built from
  several 1-server instances).
* **Processor Sharing** for the CPU — "the CPU is modeled as a PS server".
  :class:`PSServer` uses virtual-time fair queueing so that every
  arrival/departure costs O(log n) with *no* per-quantum events: a job's
  finish *virtual* time is fixed at arrival, and the virtual clock advances
  at rate ``1/n`` in real time while ``n`` jobs share the server.

Both servers integrate with the process layer: a model process does
``yield server.service(demand)`` and is resumed when its service completes.
Each server keeps a busy-server monitor (utilization) and a completion
count, so experiments can read statistics without instrumenting model
code.  The time-average population (queue + service) is integrated only
on request: :meth:`Server.observe_population` switches it on before the
clock moves (a telemetry session does, for its queue gauges).

A station serves *customers*: anything with a ``resume_now()`` it calls
when the customer's service completes, as the last step of the
completion's callback.  That is a :class:`Process` (through
:class:`ServiceRequest`), which rents its resume event, or a
:class:`~repro.sim.process.Continuation`, which model code hands to
``_accept`` directly and which joins its next station, or steps its
process, inside that call.

Hot-path layout (see ``docs/performance.md``): a disk read or CPU burst
is the unit of work every query repeats, so the stations carry no
per-service objects beyond what the event list needs.  An FCFS or delay
job is its own (slotted) completion callback, which starts the next
queued service itself; PS jobs are plain heap tuples, and each PS
arrival or departure rents the front job's completion inline.
Completion events are rented from the future-event list, and a station
whose population nobody observes skips that monitor.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Deque, List, Optional, Tuple, Union

from repro.sim.errors import ResourceError
from repro.sim.events import Event, heap_pop, heap_push, validate_delay
from repro.sim.monitor import TimeWeighted
from repro.sim.process import Command, Continuation, Process

_INFINITY = math.inf

#: What a station serves and resumes at completion: a process, resumed
#: by a rented event, or a continuation, which moves on inside the
#: completion's callback (the station's bookkeeping is done by then).
Customer = Union[Process, Continuation]


class ServiceRequest(Command):
    """Yielded by a process to request ``demand`` units of service."""

    __slots__ = ("server", "demand")

    def __init__(self, server: "Server", demand: float) -> None:
        self.server = server
        self.demand = demand

    def execute(self, process: Process) -> None:
        self.server._accept(process, self.demand)


class Server:
    """Common statistics plumbing for service centers."""

    def __init__(self, sim, name: str) -> None:
        self.sim = sim
        self.name = name
        #: Time-average number of customers at the station (queue +
        #: service), or ``None`` until :meth:`observe_population` asks
        #: for it: only telemetry reads it, and it costs two monitor
        #: updates per service.
        self.population: Optional[TimeWeighted] = None
        self._opened_at = sim.now
        #: Time-average number of busy servers (for utilization).
        self.busy = TimeWeighted(sim, name=f"{name}.busy")
        self.completions = 0
        # Completion events are the hottest schedule() call sites of the
        # model layer: the trace label is precomputed once per station and
        # the events are *rented* from the future-event list's free-list
        # (their handles never escape the station, see EventQueue.rent).
        self._done_label = name + ":done"
        self._equeue = sim._queue

    def service(self, demand: float) -> ServiceRequest:
        """Build the command a process yields to obtain service."""
        if not demand >= 0:  # NaN fails too
            raise self.demand_error(demand)
        return ServiceRequest(self, demand)

    def demand_error(self, demand: float) -> ResourceError:
        """The error for a negative or NaN *demand* (callers check first)."""
        return ResourceError(f"{self.name}: invalid service demand {demand!r}")

    def observe_population(self) -> TimeWeighted:
        """Integrate the station's population from now on and return it.

        Idempotent.  Must be called before the clock moves past the
        station's construction: a monitor started later would begin at
        zero with customers already present and under-count them.

        Raises:
            ResourceError: If the population is not yet observed and the
                clock has moved.
        """
        population = self.population
        if population is None:
            if self.sim.now != self._opened_at:
                raise ResourceError(
                    f"{self.name}: observe_population() at t={self.sim.now}; "
                    "the population must be observed before the clock moves"
                )
            population = self.population = TimeWeighted(
                self.sim, name=f"{self.name}.population"
            )
        return population

    def _accept(self, customer: Customer, demand: float) -> None:
        """Start or queue *demand* units of service for *customer*.

        The caller has checked *demand* (see :meth:`service`).
        """
        raise NotImplementedError

    def reset_statistics(self) -> None:
        """Truncate all monitors (warmup end)."""
        if self.population is not None:
            self.population.reset()
        self.busy.reset()
        self.completions = 0

    def utilization(self, server_count: int = 1) -> float:
        """Fraction of capacity in use over the observation window."""
        return self.busy.time_average / server_count

    def abort_all(self) -> int:
        """Flush every queued and in-service customer (fault injection).

        Pending completion events are cancelled and the station's monitors
        are corrected so that time-weighted statistics stay consistent.
        The flushed customers are **not** resumed or interrupted — the
        caller (the fault injector) owns process teardown; this method only
        tears down the station's internal bookkeeping.

        Returns:
            The number of customers flushed.
        """
        raise NotImplementedError(f"{self.name}: abort_all() not supported")


class _FCFSJob:
    """One busy server of a :class:`FCFSServer`; its own completion callback.

    At a completion it takes the queue's head, if any, in the same
    place in the station's ``_active`` list, so a busy server's
    successive services cost one job object.
    """

    __slots__ = ("server", "customer", "event")

    def __init__(self, server: "FCFSServer", customer: Customer) -> None:
        self.server = server
        self.customer = customer
        self.event: Optional[Event] = None

    def __call__(self) -> None:
        server = self.server
        customer = self.customer
        server.busy.add(-1)
        population = server.population
        if population is not None:
            population.add(-1)
        server.completions += 1
        queue = server._queue
        if queue:
            self.customer, demand = queue.popleft()
            server.busy.add(1)
            now = server.sim.now
            if not 0.0 <= demand < _INFINITY:
                validate_delay(now, demand)
            self.event = server._equeue.rent(now + demand, self, server._done_label)
        else:
            self.event = None  # the rented event is returning to the free-list
            server._active.remove(self)
        customer.resume_now()


class FCFSServer(Server):
    """An ``m``-server FCFS station with one shared FIFO queue.

    With ``servers=1`` this is a plain FCFS single server (one disk).  The
    shared-queue multi-server organization is used for the disk-ablation
    study and matches the load-dependent station of the MVA model.
    """

    def __init__(self, sim, name: str = "fcfs", servers: int = 1) -> None:
        if servers < 1:
            raise ResourceError(f"{name}: need at least one server, got {servers}")
        super().__init__(sim, name)
        self.servers = servers
        self._queue: Deque[Tuple[Customer, float]] = deque()
        self._active: List[_FCFSJob] = []

    @property
    def queue_depth(self) -> int:
        """Number of customers waiting (not yet in service)."""
        return len(self._queue)

    @property
    def busy_servers(self) -> int:
        return len(self._active)

    def _accept(self, customer: Customer, demand: float) -> None:
        population = self.population
        if population is not None:
            population.add(1)
        active = self._active
        if len(active) < self.servers:
            now = self.sim.now
            self.busy.add(1)
            job = _FCFSJob(self, customer)
            if not 0.0 <= demand < _INFINITY:
                validate_delay(now, demand)
            job.event = self._equeue.rent(now + demand, job, self._done_label)
            active.append(job)
        else:
            self._queue.append((customer, demand))

    def abort_all(self) -> int:
        flushed = len(self._active) + len(self._queue)
        for job in self._active:
            if job.event is not None:
                self.sim.cancel(job.event)
        self._active.clear()
        self._queue.clear()
        if flushed and self.population is not None:
            self.population.add(-flushed)
        self.busy.set(0)
        return flushed

    def utilization(self, server_count: Optional[int] = None) -> float:
        return super().utilization(server_count or self.servers)


class PSServer(Server):
    """An egalitarian Processor-Sharing server (virtual-time fair queueing).

    While ``n`` jobs are present each receives service at rate ``1/n``.  The
    implementation tracks a *virtual clock* ``V`` that advances at rate
    ``1/n`` in real time; a job with remaining demand ``d`` arriving at
    virtual time ``V`` finishes when the virtual clock reaches ``V + d``.
    Only the earliest virtual finish needs a scheduled event, and the event
    is rebuilt on every arrival/departure, inline in :meth:`_accept` and
    :meth:`_complete_front`.  Jobs are ``(finish_virtual, seq, customer)``
    tuples in a plain list kept as a heap by :func:`heap_push` and
    :func:`heap_pop`.
    """

    def __init__(self, sim, name: str = "cpu") -> None:
        super().__init__(sim, name)
        self._virtual = 0.0
        self._last_update = sim.now
        self._jobs: List[Tuple[float, int, Customer]] = []
        self._seq = itertools.count()
        self._completion_event: Optional[Event] = None
        self._complete_bound = self._complete_front

    @property
    def job_count(self) -> int:
        return len(self._jobs)

    def _accept(self, customer: Customer, demand: float) -> None:
        now = self.sim.now
        jobs = self._jobs
        n = len(jobs)
        if n:
            self._virtual += (now - self._last_update) / n
        self._last_update = now
        heap_push(jobs, (self._virtual + demand, next(self._seq), customer))
        population = self.population
        if population is not None:
            population.add(1)
        if not n:
            self.busy.set(1)
        # PS has no queueing phase: service starts immediately at reduced
        # rate, and the front job's completion moves.
        equeue = self._equeue
        if self._completion_event is not None:
            equeue.cancel(self._completion_event)
        remaining_virtual = jobs[0][0] - self._virtual
        if remaining_virtual < 0:  # floating-point drift guard
            remaining_virtual = 0.0
        delay = remaining_virtual * (n + 1)
        if not 0.0 <= delay < _INFINITY:
            validate_delay(now, delay)
        self._completion_event = equeue.rent(
            now + delay, self._complete_bound, self._done_label
        )

    def _complete_front(self) -> None:
        now = self.sim.now
        jobs = self._jobs
        virtual = self._virtual + (now - self._last_update) / len(jobs)
        self._last_update = now
        finish_virtual, _seq, customer = heap_pop(jobs)
        # Pin the virtual clock to the finish value to stop drift compounding.
        if finish_virtual > virtual:
            virtual = finish_virtual
        self._virtual = virtual
        population = self.population
        if population is not None:
            population.add(-1)
        self.completions += 1
        if jobs:
            remaining_virtual = jobs[0][0] - virtual
            if remaining_virtual < 0:  # floating-point drift guard
                remaining_virtual = 0.0
            delay = remaining_virtual * len(jobs)
            if not 0.0 <= delay < _INFINITY:
                validate_delay(now, delay)
            self._completion_event = self._equeue.rent(
                now + delay, self._complete_bound, self._done_label
            )
        else:
            self._completion_event = None
            self.busy.set(0)
        customer.resume_now()

    def abort_all(self) -> int:
        jobs = self._jobs
        flushed = len(jobs)
        if self._completion_event is not None:
            self.sim.cancel(self._completion_event)
            self._completion_event = None
        now = self.sim.now
        if flushed:
            self._virtual += (now - self._last_update) / flushed
        self._last_update = now
        jobs.clear()
        if flushed and self.population is not None:
            self.population.add(-flushed)
        self.busy.set(0)
        return flushed


class _DelayJob:
    """One customer at a :class:`DelayStation`; its own completion callback."""

    __slots__ = ("server", "customer")

    def __init__(self, server: "DelayStation", customer: Customer) -> None:
        self.server = server
        self.customer = customer

    def __call__(self) -> None:
        server = self.server
        if server.population is not None:
            server.population.add(-1)
        server.busy.add(-1)
        server.completions += 1
        self.customer.resume_now()


class DelayStation(Server):
    """An infinite-server (pure delay) station.

    Every customer is served immediately for exactly its demand; there is
    never any queueing.  Used for terminal think times in validation models
    (the DB model's terminals use :class:`~repro.sim.process.Hold` directly,
    but the queueing-theory cross-checks need a delay *station*).
    """

    def __init__(self, sim, name: str = "delay") -> None:
        super().__init__(sim, name)

    def _accept(self, customer: Customer, demand: float) -> None:
        now = self.sim.now
        if self.population is not None:
            self.population.add(1)
        self.busy.add(1)
        if not 0.0 <= demand < _INFINITY:
            validate_delay(now, demand)
        self._equeue.rent(now + demand, _DelayJob(self, customer), self._done_label)


__all__ = [
    "Customer",
    "ServiceRequest",
    "Server",
    "FCFSServer",
    "PSServer",
    "DelayStation",
]
