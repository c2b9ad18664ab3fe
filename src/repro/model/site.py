"""A DB site: CPU, disks, and their service interfaces (paper Figure 2).

Each site owns:

* one CPU modeled as a Processor-Sharing server, and
* ``num_disks`` disks modeled as FCFS servers, in one of two organizations
  (DESIGN.md ablation A1):

  - ``per_disk`` (default, matches Figure 2's separate disk boxes): each
    disk has its own queue and a page read is directed to a uniformly
    random disk;
  - ``shared``: a single queue feeds all disks (M/G/c style).

The terminals and the outgoing message buffer live elsewhere (terminals in
:mod:`repro.workloads.closed`, the per-site buffer inside the ring), so this
class is purely the service-center bundle plus its statistics.

Hot path (see ``docs/performance.md``): a site visit's read cycles are
the unit of work of every run.  They run in one :class:`ReadCycles`
command per visit, which each server completion moves on to the next
server inside its own callback; the completion of the last CPU burst
steps the query's process, so a visit costs two kernel events per page
and no resume event.
"""

from __future__ import annotations

import random
from math import log
from typing import TYPE_CHECKING, Generator, List, Optional

from repro.model.config import DISK_SHARED, SystemConfig
from repro.sim.engine import Simulator
from repro.sim.process import Continuation, ProcessState
from repro.sim.resources import FCFSServer, PSServer
from repro.telemetry.events import ServiceFinished, ServiceStarted

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.query import Query
    from repro.model.workload import WorkloadGenerator

_WAITING = ProcessState.WAITING


class DBSite:
    """Service centers of one database processing site.

    Args:
        sim: The simulator the service centers run on.
        config: Model parameters.
        index: The site's position in the system.
        cpu_speed: CPU speed factor (1.0 = the paper's homogeneous CPU;
            2.0 serves every CPU burst twice as fast).  Disks are
            identical at every site.
    """

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        index: int,
        cpu_speed: float = 1.0,
    ) -> None:
        self.sim = sim
        self.config = config
        self.index = index
        self.cpu_speed = cpu_speed
        self.cpu = PSServer(sim, name=f"site{index}.cpu")
        spec = config.site
        if config.disk_organization == DISK_SHARED:
            self.disks: List[FCFSServer] = [
                FCFSServer(sim, name=f"site{index}.disks", servers=spec.num_disks)
            ]
        else:
            self.disks = [
                FCFSServer(sim, name=f"site{index}.disk{d}", servers=1)
                for d in range(spec.num_disks)
            ]

    # ------------------------------------------------------------------
    # Read cycles
    # ------------------------------------------------------------------
    def read_cycles(
        self,
        workload: "WorkloadGenerator",
        rng: random.Random,
        reads: int,
        page_cpu_time: float,
        query: Optional["Query"] = None,
    ) -> "ReadCycles":
        """The command that runs *reads* (>= 1) read cycles at this site.

        A process yields it once and is stepped by the last CPU burst's
        completion; see :class:`ReadCycles`.  Each burst's service time
        is added to *query*'s ``service_acquired`` when a query is given
        (update applies pass none).
        """
        return ReadCycles(self, workload, rng, reads, page_cpu_time, query)

    def execute(
        self,
        query: "Query",
        workload: "WorkloadGenerator",
        rng: random.Random,
        reads: int,
    ) -> Generator[ReadCycles, None, None]:
        """Run *reads* of *query*'s disk/CPU cycles at this site (a generator).

        The paper's execution model: alternating disk-read / CPU-burst
        cycles, drawn from the query's private random stream; each CPU
        burst is divided by the site's ``cpu_speed``.  A query runs all
        its ``actual_reads`` in one call unless the life cycle splits
        them (subquery stages, migration checks).  Sets
        ``query.started_at`` on the query's first call and
        ``query.finished_at`` on every call, and accumulates
        ``query.service_acquired``; yielded from the query life cycle via
        ``yield from``.  The cycles themselves run in one
        :class:`ReadCycles` command, so the generator yields at most once
        and rents no resume event.
        """
        sim = self.sim
        if query.started_at is None:
            query.started_at = sim.now
        bus = sim.bus
        if bus.active and bus.wants(ServiceStarted):
            bus.emit(
                ServiceStarted(
                    time=sim.now,
                    qid=query.qid,
                    site=self.index,
                    reads=reads,
                )
            )
        if reads:
            yield self.read_cycles(workload, rng, reads, query.spec.page_cpu_time, query)
        query.finished_at = sim.now
        # Opt-in: only span assembly subscribes to this, so event logs
        # without spans keep their pre-tracing digests.
        if bus.active and bus.wants(ServiceFinished):
            bus.emit(
                ServiceFinished(
                    time=sim.now,
                    qid=query.qid,
                    site=self.index,
                    service_time=query.service_acquired,
                )
            )

    def abort_all(self) -> int:
        """Flush every job from the site's CPU and disks (site crash).

        Called by the fault injector when the site goes down.  Only the
        service centers' bookkeeping is torn down; the injector interrupts
        the affected query processes itself.

        Returns:
            The number of jobs flushed across all service centers.
        """
        flushed = self.cpu.abort_all()
        for disk in self.disks:
            flushed += disk.abort_all()
        return flushed

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def reset_statistics(self) -> None:
        self.cpu.reset_statistics()
        for disk in self.disks:
            disk.reset_statistics()

    @property
    def cpu_utilization(self) -> float:
        return self.cpu.utilization()

    @property
    def disk_utilization(self) -> float:
        """Average per-disk utilization across the site's disks."""
        spec = self.config.site
        if self.config.disk_organization == DISK_SHARED:
            return self.disks[0].utilization()
        return sum(d.utilization() for d in self.disks) / spec.num_disks

    @property
    def disk_completions(self) -> int:
        return sum(d.completions for d in self.disks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DBSite {self.index} cpu_u={self.cpu_utilization:.3f}>"


class ReadCycles(Continuation):
    """One site visit's disk-read / CPU-burst cycles, run from completions.

    The process yields the command once.  It draws the first read's disk
    time (and, with several disk queues, the disk: uniformly at random,
    since replicated data is spread over the disks) and joins that
    disk's queue in the process's place.  Inside each completion's
    callback it adds the finished burst to the query's
    ``service_acquired``, then joins the CPU with an exponential burst
    divided by the site's ``cpu_speed``, or the next disk; the
    completion of the last CPU burst steps the process.

    A burst costs its completion event and nothing else: no resume
    event, no generator resume and no command object.  The draws come
    from the query's own stream in the order of one request per burst,
    and ``service_acquired`` grows burst by burst, so results equal
    those of a process that yields every burst; only the kernel's order
    of events at one instant differs.  The draws are the standard
    library's own expressions, written out: the disk time is
    ``rng.uniform``'s ``low + width * random()``, the disk is
    ``rng.randrange``'s ``getrandbits`` rejection loop and the CPU burst
    is ``rng.expovariate``'s ``-log(1 - random()) / rate``, so every
    value equals the library call's.  A negative or NaN demand raises
    :class:`~repro.sim.errors.ResourceError` as ``Server.service`` does.
    """

    __slots__ = (
        "query",
        "rng",
        "reads",
        "disks",
        "disk_count",
        "disk_bits",
        "cpu",
        "cpu_rate",
        "cpu_speed",
        "disk_low",
        "disk_width",
        "burst",
        "on_disk",
    )

    def __init__(
        self,
        site: DBSite,
        workload: "WorkloadGenerator",
        rng: random.Random,
        reads: int,
        page_cpu_time: float,
        query: Optional["Query"],
    ) -> None:
        self.query = query
        self.rng = rng
        self.reads = reads
        self.disks = site.disks
        self.disk_count = len(site.disks)
        self.disk_bits = self.disk_count.bit_length()
        self.cpu = site.cpu
        self.cpu_rate = 1.0 / page_cpu_time
        self.cpu_speed = site.cpu_speed
        self.disk_low, self.disk_width = workload.disk_time_bounds()
        self.burst = 0.0
        self.on_disk = True

    def begin(self) -> None:
        """Join a disk's queue for the next page read."""
        rng = self.rng
        width = self.disk_width
        burst = self.disk_low if width is None else self.disk_low + width * rng.random()
        count = self.disk_count
        if count == 1:
            disk = self.disks[0]
        else:
            # rng.randrange(count): the same draws, without its frames.
            bits = self.disk_bits
            index = rng.getrandbits(bits)
            while index >= count:
                index = rng.getrandbits(bits)
            disk = self.disks[index]
        if not burst >= 0:
            raise disk.demand_error(burst)
        self.burst = burst
        self.on_disk = True
        disk._accept(self, burst)

    def resume_now(self) -> None:
        if self.process._state is not _WAITING:
            raise self.state_error()
        query = self.query
        if query is not None:
            query.service_acquired += self.burst
        if self.on_disk:
            # rng.expovariate(cpu_rate), in its own float order.
            burst = -log(1.0 - self.rng.random()) / self.cpu_rate / self.cpu_speed
            if not burst >= 0:
                raise self.cpu.demand_error(burst)
            self.burst = burst
            self.on_disk = False
            self.cpu._accept(self, burst)
            return
        self.reads -= 1
        if self.reads:
            self.begin()
        else:
            self.process._step(None)


__all__ = ["DBSite", "ReadCycles"]
