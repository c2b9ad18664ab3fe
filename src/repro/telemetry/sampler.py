"""The timeline sampler: fixed-cadence snapshots of two-dimensional load.

The paper's whole argument is about *watching* CPU-bound and I/O-bound
load separately per site; the :class:`TimelineSampler` turns that into
data.  On a fixed simulated-time cadence it records, per site:

* instantaneous CPU and disk queue lengths,
* per-interval CPU and per-disk utilizations (derived from busy-time
  integrals, so the samples **integrate exactly** to the utilizations a
  run's :class:`~repro.model.metrics.SystemResults` reports — a property
  the telemetry test suite pins to within 1e-9),
* the load board's committed I/O-bound / CPU-bound query counts, and
* the staleness (age) of the load information policies currently see
  (always 0 under the paper's oracle assumption; positive under the
  stale-information extension).

Cadence contract: sampling starts exactly at the warmup boundary (the
baseline sample, whose interval utilizations are 0 over a zero-length
interval) and always ends with a sample exactly at the end of the
measurement window, even when the interval does not divide the duration.
Sample times are computed as ``start + k * interval`` (never accumulated),
so cadence carries no floating-point drift.

Sampler events run at :data:`SAMPLE_PRIORITY` (after simultaneous model
events), and sampling only *reads* monitor state — enabling it does not
perturb the simulation: results are bit-identical with and without a
sampler attached (also pinned by the test suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, List, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.system import DistributedDatabase

#: Event priority for samples: fires after simultaneous model events so a
#: sample at time t observes the post-event state of instant t.
SAMPLE_PRIORITY = 1_000


@dataclass(frozen=True, slots=True)
class TimelineSample:
    """One site's load snapshot at one sample instant.

    Attributes:
        time: Simulated time of the sample.
        site: Site index.
        cpu_queue: Jobs currently sharing the site's CPU (PS population).
        disk_queue: Customers at the site's disks (waiting + in service).
        cpu_busy: Cumulative CPU busy-time integral since measurement start.
        disk_busy: Cumulative busy-server integral summed over the disks.
        cpu_utilization: CPU utilization over the interval since the
            previous sample (0.0 for the baseline sample).
        disk_utilization: Average per-disk utilization over the interval
            since the previous sample (0.0 for the baseline sample).
        load_io: I/O-bound queries committed to the site (load board).
        load_cpu: CPU-bound queries committed to the site (load board).
        staleness: Age of the load information policies currently see.
    """

    time: float
    site: int
    cpu_queue: int
    disk_queue: int
    cpu_busy: float
    disk_busy: float
    cpu_utilization: float
    disk_utilization: float
    load_io: int
    load_cpu: int
    staleness: float


#: Column order of the CSV exporter == field order of TimelineSample.
TIMELINE_FIELDS: Tuple[str, ...] = tuple(
    spec.name for spec in fields(TimelineSample)
)


class TimelineSampler:
    """Snapshots per-site load on a fixed simulated-time cadence.

    Args:
        system: The system to observe (any :class:`DistributedDatabase`,
            including the extension subclasses).
        interval: Simulated time between samples (> 0).

    The sampler is armed with :meth:`start` (normally called by
    :class:`~repro.telemetry.session.TelemetrySession` at the warmup
    boundary) and stops by itself at the end time.
    """

    def __init__(self, system: "DistributedDatabase", interval: float) -> None:
        if not (interval > 0) or math.isinf(interval):
            raise ValueError(f"sample interval must be finite and > 0, got {interval}")
        self.system = system
        self.interval = interval
        self._samples: List[TimelineSample] = []
        self._started = False
        self._start_time = 0.0
        self._end_time = 0.0
        self._tick = 0
        self._last_time = 0.0
        num_sites = system.config.num_sites
        self._last_cpu_busy = [0.0] * num_sites
        self._last_disk_busy = [0.0] * num_sites

    # ------------------------------------------------------------------
    # Cadence control
    # ------------------------------------------------------------------
    def start(self, end_time: float) -> None:
        """Begin sampling now; the final sample fires exactly at *end_time*.

        The first (baseline) sample is taken immediately at the current
        simulated time.  May only be called once.
        """
        sim = self.system.sim
        if self._started:
            raise ValueError("sampler already started")
        if end_time < sim.now:
            raise ValueError(f"end_time {end_time} is before now {sim.now}")
        self._started = True
        self._start_time = sim.now
        self._end_time = end_time
        self._last_time = sim.now
        self._sample_now()
        self._schedule_next()

    def _next_time(self) -> float:
        """The next sample instant: ``start + k*interval`` capped at end."""
        candidate = self._start_time + (self._tick + 1) * self.interval
        return min(candidate, self._end_time)

    def _schedule_next(self) -> None:
        sim = self.system.sim
        if sim.now >= self._end_time:
            return
        target = self._next_time()
        sim.schedule_at(
            target, self._fire, priority=SAMPLE_PRIORITY, label="telemetry:sample"
        )

    def _fire(self) -> None:
        self._tick += 1
        self._sample_now()
        self._last_time = self.system.sim.now
        self._schedule_next()

    # ------------------------------------------------------------------
    # Snapshotting
    # ------------------------------------------------------------------
    def _sample_now(self) -> None:
        system = self.system
        now = system.sim.now
        dt = now - self._last_time
        board = system.load_board
        staleness = system.load_info_age()
        num_disks = system.config.site.num_disks
        for index, site in enumerate(system.sites):
            cpu_busy = float(site.cpu.busy.integral)
            disk_busy = math.fsum(d.busy.integral for d in site.disks)
            if dt > 0:
                cpu_util = (cpu_busy - self._last_cpu_busy[index]) / dt
                disk_util = (disk_busy - self._last_disk_busy[index]) / (
                    dt * num_disks
                )
            else:
                cpu_util = 0.0
                disk_util = 0.0
            self._last_cpu_busy[index] = cpu_busy
            self._last_disk_busy[index] = disk_busy
            disk_queue = 0
            for disk in site.disks:
                disk_queue += disk.queue_depth + disk.busy_servers
            self._samples.append(
                TimelineSample(
                    time=now,
                    site=index,
                    cpu_queue=site.cpu.job_count,
                    disk_queue=disk_queue,
                    cpu_busy=cpu_busy,
                    disk_busy=disk_busy,
                    cpu_utilization=cpu_util,
                    disk_utilization=disk_util,
                    load_io=board.num_io_queries(index),
                    load_cpu=board.num_cpu_queries(index),
                    staleness=staleness,
                )
            )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def samples(self) -> Tuple[TimelineSample, ...]:
        """Every sample taken so far, in (time, site) order."""
        return tuple(self._samples)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def sample_times(self) -> Tuple[float, ...]:
        """Distinct sample instants, in order."""
        times: List[float] = []
        for sample in self._samples:
            if not times or sample.time != times[-1]:
                times.append(sample.time)
        return tuple(times)

    def integrated_utilization(self, site: int) -> Tuple[float, float]:
        """Time-integrate one site's sampled interval utilizations.

        Returns:
            ``(cpu, disk)`` utilization over the sampled window — exactly
            the quantities :class:`~repro.model.metrics.SystemResults`
            reports (per site), reconstructed purely from the timeline.
        """
        rows = [s for s in self._samples if s.site == site]
        if len(rows) < 2:
            return (0.0, 0.0)
        total = rows[-1].time - rows[0].time
        if total <= 0:
            return (0.0, 0.0)
        cpu = math.fsum(
            rows[i].cpu_utilization * (rows[i].time - rows[i - 1].time)
            for i in range(1, len(rows))
        )
        disk = math.fsum(
            rows[i].disk_utilization * (rows[i].time - rows[i - 1].time)
            for i in range(1, len(rows))
        )
        return (cpu / total, disk / total)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TimelineSampler interval={self.interval:.6g} "
            f"samples={len(self._samples)}>"
        )


#: A primitive a timeline cell may carry (CSV/JSON exchange).
CellValue = Union[float, int]


__all__ = [
    "SAMPLE_PRIORITY",
    "TIMELINE_FIELDS",
    "TimelineSample",
    "TimelineSampler",
    "CellValue",
]
