"""Performance metrics: the paper's W̄, Ŵ(x), and fairness F.

§3 defines the quantities this module computes:

* ``W̄`` — mean waiting (queueing) time of a query.  We measure a query's
  waiting time as its response time minus the service it actually acquired,
  so disk queueing, CPU sharing delay, ring-buffer time, and channel
  transfer time all count as waiting.
* ``Ŵ(x) = W̄(x) / x`` — normalized waiting time (waiting per unit of
  service demand).
* ``F = Ŵ_1 − Ŵ_2`` — the signed difference of the per-class normalized
  waits, the paper's fairness measure (class 1 = the I/O-bound class in the
  two-class experiments; Table 12 reports signed values).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, Optional, Tuple

from repro.codec import OMIT_DEFAULT, REQUIRED

from repro.model.config import SystemConfig
from repro.model.query import Query
from repro.sim.monitor import Tally
from repro.sim.stats import IntervalEstimate, batch_means
from repro.telemetry.events import QueryCompleted
from repro.telemetry.tracing.decisions import DecisionSummary
from repro.telemetry.tracing.spans import SpanSummary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.bus import EventBus


class MetricsCollector:
    """Accumulates per-query statistics during a simulation run.

    With a *bus*, every recorded completion also publishes a
    :class:`~repro.telemetry.events.QueryCompleted` event (guarded emit;
    free when nothing subscribes).  Recording here — rather than in each
    system class — means every system, including the extension
    subclasses that override the query life cycle, emits the full
    completion record.
    """

    def __init__(
        self, config: SystemConfig, *, bus: Optional["EventBus"] = None
    ) -> None:
        self.config = config
        self._bus = bus
        names = [spec.name for spec in config.classes]
        self.waiting = Tally("waiting", keep=True)
        self.response = Tally("response")
        self.normalized_waiting = Tally("normalized_waiting")
        self.by_class_waiting = [Tally(f"waiting[{n}]") for n in names]
        self.by_class_response = [Tally(f"response[{n}]") for n in names]
        self.by_class_normalized = [Tally(f"normalized[{n}]") for n in names]
        self.remote_count = 0
        self.completions = 0

    def record(self, query: Query) -> None:
        """Record one completed query."""
        k = query.class_index
        wait = query.waiting_time
        resp = query.response_time
        norm = query.normalized_waiting_time
        self.waiting.record(wait)
        self.response.record(resp)
        self.normalized_waiting.record(norm)
        self.by_class_waiting[k].record(wait)
        self.by_class_response[k].record(resp)
        self.by_class_normalized[k].record(norm)
        if query.remote:
            self.remote_count += 1
        self.completions += 1
        bus = self._bus
        if bus is not None and bus.active and bus.wants(QueryCompleted):
            bus.emit(
                QueryCompleted(
                    time=query.completed_at,
                    qid=query.qid,
                    class_name=query.spec.name,
                    home_site=query.home_site,
                    execution_site=query.execution_site,
                    remote=query.remote,
                    created_at=query.created_at,
                    allocated_at=query.allocated_at,
                    started_at=query.started_at,
                    finished_at=query.finished_at,
                    service_time=query.service_acquired,
                    waiting_time=wait,
                    migrations=query.migrations,
                )
            )

    def reset(self) -> None:
        """Truncate everything (end of warmup)."""
        self.waiting.reset()
        self.response.reset()
        self.normalized_waiting.reset()
        for tally in (
            *self.by_class_waiting,
            *self.by_class_response,
            *self.by_class_normalized,
        ):
            tally.reset()
        self.remote_count = 0
        self.completions = 0

    # ------------------------------------------------------------------
    # Derived measures
    # ------------------------------------------------------------------
    @property
    def mean_waiting_time(self) -> float:
        return self.waiting.mean

    @property
    def mean_response_time(self) -> float:
        return self.response.mean

    @property
    def fairness(self) -> float:
        """F = Ŵ(class 0) − Ŵ(class 1); requires exactly two classes."""
        if len(self.by_class_normalized) != 2:
            raise ValueError("fairness F is defined for two-class workloads")
        return self.by_class_normalized[0].mean - self.by_class_normalized[1].mean

    @property
    def remote_fraction(self) -> float:
        if self.completions == 0:
            return 0.0
        return self.remote_count / self.completions


@dataclass(frozen=True)
class AvailabilitySummary:
    """Availability metrics of one run under a fault plan.

    Produced by :meth:`repro.faults.injector.FaultInjector.availability_summary`
    over the measurement window (warmup statistics are truncated, exactly
    like every other monitor).

    Attributes:
        site_downtime: Per-site accumulated downtime (simulated time each
            site spent crashed inside the measurement window).
        crashes: Site down-transitions observed.
        recoveries: Site up-transitions observed.
        queries_aborted: In-flight queries aborted by site crashes.
        queries_retried: Aborted queries that re-entered allocation.
        queries_lost: Aborted queries that exhausted their retry budget.
        messages_dropped: Subnet transfers lost to message faults.
        degraded_completions: Completions whose query was exposed to at
            least one fault (abort or message loss) on the way.
        clean_response_time: Mean response time of fault-free completions.
        degraded_response_time: Mean response time of degraded completions
            (0.0 when there were none).
    """

    site_downtime: Tuple[float, ...]
    crashes: int
    recoveries: int
    queries_aborted: int
    queries_retried: int
    queries_lost: int
    messages_dropped: int
    degraded_completions: int
    clean_response_time: float
    degraded_response_time: float

    @property
    def total_downtime(self) -> float:
        """Downtime summed over all sites."""
        return math.fsum(self.site_downtime)

    def __str__(self) -> str:
        return (
            f"downtime={self.total_downtime:.1f} crashes={self.crashes} "
            f"aborted={self.queries_aborted} retried={self.queries_retried} "
            f"lost={self.queries_lost} dropped={self.messages_dropped} "
            f"degraded={self.degraded_completions}"
        )


@dataclass(frozen=True)
class WorkloadSummary:
    """Admission accounting of one run under an open workload.

    Produced by :meth:`repro.workloads.driver.WorkloadDriver.summary`
    over the measurement window (warmup statistics are truncated,
    exactly like every other monitor).

    Attributes:
        kind: The arrival process's kind tag (``"poisson"``, ``"mmpp"``,
            ``"diurnal"``, ``"trace"``).
        offered: Arrivals offered during the measurement window.
        admitted: Offered arrivals that passed admission control.
        shed: Offered arrivals dropped at the admission limit.
        shed_fraction: ``shed / offered`` (0.0 when nothing was offered).
    """

    kind: str
    offered: int
    admitted: int
    shed: int
    shed_fraction: float

    def __str__(self) -> str:
        return (
            f"kind={self.kind} offered={self.offered} "
            f"admitted={self.admitted} shed={self.shed} "
            f"({self.shed_fraction:.1%})"
        )


@dataclass(frozen=True)
class SystemResults:
    """Immutable summary of one simulation run.

    Attributes:
        policy: Name of the allocation policy used.
        mean_waiting_time: The paper's W̄.
        mean_response_time: Mean issue-to-results-home latency.
        fairness: The paper's F (None for workloads without exactly
            two classes).
        waiting_by_class: Per-class W̄.
        normalized_by_class: Per-class Ŵ.
        subnet_utilization: Fraction of time the ring channel was busy.
        cpu_utilization: Average CPU utilization across sites.
        disk_utilization: Average per-disk utilization across sites.
        completions: Queries completed in the measurement window.
        remote_fraction: Fraction of queries executed away from home.
        measured_time: Length of the measurement window.
        waiting_ci: Batch-means confidence interval for W̄ (None when too
            few observations were collected).
        telemetry: Optional telemetry summary of the run, as a sorted
            tuple of ``(name, value)`` pairs (see
            :meth:`repro.telemetry.session.TelemetrySession.summary`).
            ``None`` when the run collected no telemetry — note the cache
            stores results of telemetry-free runs, so cached entries
            always carry ``None`` here.
        availability: Availability metrics when a fault plan was
            installed; ``None`` for faultless runs (and for runs under a
            no-op plan, which are normalized to faultless).
        workload: Admission accounting when an open workload drove the
            run; ``None`` for closed runs (and for runs under the
            default closed spec, which are normalized to closed).
        decisions: Decision-audit roll-up when the allocation audit was
            enabled (``TelemetryConfig(decisions=True)``); ``None``
            otherwise — like ``telemetry``, never cached.
        spans: Span-stream roll-up when query-lifecycle tracing was
            enabled (``TelemetryConfig(spans=True)``); ``None``
            otherwise — like ``telemetry``, never cached.
    """

    format_version: ClassVar[int] = 1

    policy: str
    mean_waiting_time: float
    mean_response_time: float
    fairness: Optional[float]
    waiting_by_class: Tuple[float, ...]
    normalized_by_class: Tuple[float, ...]
    subnet_utilization: float
    cpu_utilization: float
    disk_utilization: float
    completions: int
    remote_fraction: float
    measured_time: float
    waiting_ci: Optional[IntervalEstimate] = None
    # Required, so cached records written before these fields existed
    # are rejected rather than read as telemetry- and fault-free.
    telemetry: Optional[Tuple[Tuple[str, float], ...]] = field(default=None, metadata=REQUIRED)
    availability: Optional[AvailabilitySummary] = field(default=None, metadata=REQUIRED)
    # Omitted while None, so payloads of runs without these features stay
    # byte-identical to older archives (golden digests, cache entries).
    workload: Optional[WorkloadSummary] = field(default=None, metadata=OMIT_DEFAULT)
    decisions: Optional[DecisionSummary] = field(default=None, metadata=OMIT_DEFAULT)
    spans: Optional[SpanSummary] = field(default=None, metadata=OMIT_DEFAULT)

    def __str__(self) -> str:
        fair = f"{self.fairness:+.4f}" if self.fairness is not None else "n/a"
        return (
            f"[{self.policy}] W={self.mean_waiting_time:.2f} "
            f"RT={self.mean_response_time:.2f} F={fair} "
            f"subnet={self.subnet_utilization:.1%} "
            f"remote={self.remote_fraction:.1%} n={self.completions}"
        )


def summarize(
    collector: MetricsCollector,
    policy: str,
    subnet_utilization: float,
    cpu_utilization: float,
    disk_utilization: float,
    measured_time: float,
    ci_batches: int = 20,
    availability: Optional[AvailabilitySummary] = None,
    workload: Optional[WorkloadSummary] = None,
) -> SystemResults:
    """Package a collector into a :class:`SystemResults`."""
    fairness: Optional[float]
    try:
        fairness = collector.fairness
    except ValueError:
        fairness = None
    waiting_ci = None
    if len(collector.waiting.observations) >= ci_batches:
        waiting_ci = batch_means(collector.waiting.observations, batches=ci_batches)
    return SystemResults(
        policy=policy,
        mean_waiting_time=collector.mean_waiting_time,
        mean_response_time=collector.mean_response_time,
        fairness=fairness,
        waiting_by_class=tuple(t.mean for t in collector.by_class_waiting),
        normalized_by_class=tuple(t.mean for t in collector.by_class_normalized),
        subnet_utilization=subnet_utilization,
        cpu_utilization=cpu_utilization,
        disk_utilization=disk_utilization,
        completions=collector.completions,
        remote_fraction=collector.remote_fraction,
        measured_time=measured_time,
        waiting_ci=waiting_ci,
        availability=availability,
        workload=workload,
    )


__all__ = [
    "MetricsCollector",
    "AvailabilitySummary",
    "WorkloadSummary",
    "SystemResults",
    "summarize",
]
