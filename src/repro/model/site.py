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
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Generator, List

from repro.model.config import DISK_SHARED, SystemConfig
from repro.sim.engine import Simulator
from repro.sim.resources import FCFSServer, PSServer, ServiceRequest
from repro.telemetry.events import ServiceFinished, ServiceStarted

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.query import Query
    from repro.model.workload import WorkloadGenerator


class DBSite:
    """Service centers of one database processing site."""

    def __init__(self, sim: Simulator, config: SystemConfig, index: int) -> None:
        self.sim = sim
        self.config = config
        self.index = index
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
    # Service interfaces used by the query life cycle
    # ------------------------------------------------------------------
    def disk_service(self, duration: float, rng: random.Random) -> ServiceRequest:
        """Request one page read of the given service time.

        In the ``per_disk`` organization the disk is chosen uniformly at
        random (replicated data is spread over the disks, so any page is
        equally likely to live on any disk).  In the ``shared`` organization
        there is a single multi-server station.
        """
        if len(self.disks) == 1:
            return self.disks[0].service(duration)
        disk = self.disks[rng.randrange(len(self.disks))]
        return disk.service(duration)

    def cpu_service(self, duration: float) -> ServiceRequest:
        """Request one CPU burst."""
        return self.cpu.service(duration)

    def execute(
        self,
        query: "Query",
        workload: "WorkloadGenerator",
        rng: random.Random,
    ) -> Generator[ServiceRequest, None, None]:
        """Run *query*'s disk/CPU cycles at this site (a generator).

        The paper's execution model: ``actual_reads`` alternating
        disk-read / CPU-burst cycles, drawn from the query's private
        random stream.  Sets ``query.started_at`` / ``query.finished_at``
        and accumulates ``query.service_acquired``; yielded from the
        query life cycle via ``yield from``.
        """
        sim = self.sim
        query.started_at = sim.now
        bus = sim.bus
        if bus.active and bus.wants(ServiceStarted):
            bus.emit(
                ServiceStarted(
                    time=sim.now,
                    qid=query.qid,
                    site=self.index,
                    reads=query.actual_reads,
                )
            )
        spec = query.spec
        for _ in range(query.actual_reads):
            disk_time = workload.disk_time(rng)
            yield self.disk_service(disk_time, rng)
            query.service_acquired += disk_time
            cpu_time = rng.expovariate(1.0 / spec.page_cpu_time)
            yield self.cpu_service(cpu_time)
            query.service_acquired += cpu_time
        query.finished_at = sim.now
        # Opt-in (wants_type): catch-all event logs never see this, so
        # pre-tracing event-stream digests stay byte-identical.
        if bus.active and bus.wants_type(ServiceFinished):
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


__all__ = ["DBSite"]
