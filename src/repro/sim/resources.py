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
Each server keeps standard monitors (utilization, time-average population
and a completion count) so experiments can read statistics without
instrumenting model code.

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
job is its own (slotted) completion callback, PS jobs are plain heap
tuples, and completion events are rented from the future-event list.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Deque, List, Optional, Tuple, Union

from repro.sim.errors import ResourceError
from repro.sim.events import Event, MinHeap, validate_delay
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
        #: Time-average number of customers at the station (queue + service).
        self.population = TimeWeighted(sim, name=f"{name}.population")
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

    def _accept(self, customer: Customer, demand: float) -> None:
        """Start or queue *demand* units of service for *customer*.

        The caller has checked *demand* (see :meth:`service`).
        """
        raise NotImplementedError

    def reset_statistics(self) -> None:
        """Truncate all monitors (warmup end)."""
        self.population.reset()
        self.busy.reset()
        self.completions = 0

    def utilization(self, server_count: int = 1) -> float:
        """Fraction of capacity in use over the observation window."""
        return self.busy.time_average / server_count

    @property
    def queue_length_avg(self) -> float:
        """Time-average number of customers at the station."""
        return self.population.time_average

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
    """One in-service job at a :class:`FCFSServer`; its own completion callback."""

    __slots__ = ("server", "customer", "event")

    def __init__(self, server: "FCFSServer", customer: Customer) -> None:
        self.server = server
        self.customer = customer
        self.event: Optional[Event] = None

    def __call__(self) -> None:
        self.event = None  # the rented event is returning to the free-list
        server = self.server
        server._active.remove(self)
        server.busy.add(-1)
        server.population.add(-1)
        server.completions += 1
        if server._queue:
            server._begin(*server._queue.popleft())
        self.customer.resume_now()


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
        self.population.add(1)
        if len(self._active) < self.servers:
            self._begin(customer, demand)
        else:
            self._queue.append((customer, demand))

    def _begin(self, customer: Customer, demand: float) -> None:
        now = self.sim.now
        self.busy.add(1)
        job = _FCFSJob(self, customer)
        if not 0.0 <= demand < _INFINITY:
            validate_delay(now, demand)
        job.event = self._equeue.rent(now + demand, job, self._done_label)
        self._active.append(job)

    def abort_all(self) -> int:
        flushed = len(self._active) + len(self._queue)
        for job in self._active:
            if job.event is not None:
                self.sim.cancel(job.event)
        self._active.clear()
        self._queue.clear()
        if flushed:
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
    is rebuilt on every arrival/departure.  Jobs are
    ``(finish_virtual, seq, customer)`` tuples in a :class:`MinHeap`.
    """

    def __init__(self, sim, name: str = "cpu") -> None:
        super().__init__(sim, name)
        self._virtual = 0.0
        self._last_update = sim.now
        self._jobs: MinHeap = MinHeap()
        self._seq = itertools.count()
        self._completion_event: Optional[Event] = None
        self._complete_bound = self._complete_front

    @property
    def job_count(self) -> int:
        return len(self._jobs)

    def _advance_virtual(self) -> None:
        now = self.sim.now
        n = len(self._jobs)
        if n:
            self._virtual += (now - self._last_update) / n
        self._last_update = now

    def _accept(self, customer: Customer, demand: float) -> None:
        now = self.sim.now
        jobs = self._jobs
        n = len(jobs)
        if n:
            self._virtual += (now - self._last_update) / n
        self._last_update = now
        jobs.push((self._virtual + demand, next(self._seq), customer))
        self.population.add(1)
        if not n:
            self.busy.set(1)
        # PS has no queueing phase: service starts immediately at reduced rate.
        self._reschedule(now)

    def _reschedule(self, now: float) -> None:
        if self._completion_event is not None:
            self._equeue.cancel(self._completion_event)
            self._completion_event = None
        jobs = self._jobs
        if not jobs:
            return
        remaining_virtual = jobs.peek()[0] - self._virtual
        if remaining_virtual < 0:  # floating-point drift guard
            remaining_virtual = 0.0
        delay = remaining_virtual * len(jobs)
        if not 0.0 <= delay < _INFINITY:
            validate_delay(now, delay)
        self._completion_event = self._equeue.rent(
            now + delay, self._complete_bound, self._done_label
        )

    def _complete_front(self) -> None:
        self._completion_event = None
        now = self.sim.now
        jobs = self._jobs
        virtual = self._virtual + (now - self._last_update) / len(jobs)
        self._last_update = now
        finish_virtual, _seq, customer = jobs.pop()
        # Pin the virtual clock to the finish value to stop drift compounding.
        self._virtual = finish_virtual if finish_virtual > virtual else virtual
        self.population.add(-1)
        if not jobs:
            self.busy.set(0)
        self.completions += 1
        self._reschedule(now)
        customer.resume_now()

    def abort_all(self) -> int:
        flushed = len(self._jobs)
        if self._completion_event is not None:
            self.sim.cancel(self._completion_event)
            self._completion_event = None
        self._advance_virtual()
        self._jobs.clear()
        if flushed:
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
