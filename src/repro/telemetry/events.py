"""The typed event taxonomy of the telemetry subsystem.

Every observable state change in a simulation run is described by one
frozen dataclass below.  Events are plain data — only floats, ints, strings
and bools — so an event stream is trivially serializable (JSONL), directly
comparable across runs (the determinism regression tests compare streams
byte for byte), and safe to hold after the run: no event references live
model objects.

Taxonomy (see ``docs/telemetry.md`` for the full narrative):

======================  =====================================================
Event                   Emitted when / by
======================  =====================================================
:class:`RunStarted`     ``DistributedDatabase.run`` begins (model/system.py)
:class:`WarmupEnded`    statistics are truncated at the warmup boundary
:class:`RunEnded`       the measurement window closes
:class:`QueryCreated`   a terminal samples a new query (model/workload.py)
:class:`QueryAllocated` the allocation policy picks a site (model/system.py)
:class:`QueryTransferred`  a query/result crosses the subnet (model/system.py)
:class:`ServiceStarted` execution begins at a DB site (model/site.py)
:class:`QueryCompleted` results arrive home & metrics record the query
                        (model/metrics.py — covers every system kind)
:class:`LoadBoardUpdated`  a query is (de)registered on the load board
                        (model/loadboard.py)
:class:`TraceMessage`   a labelled kernel event fires (sim/engine.py).
                        High-volume; only emitted when something subscribes
                        to ``TraceMessage`` specifically.
:class:`SiteCrashed`    the fault injector takes a site down
                        (faults/injector.py)
:class:`SiteRecovered`  a crashed site comes back up (faults/injector.py)
:class:`QueryAborted`   a site crash aborted an in-flight query
                        (model/system.py, degraded path)
:class:`QueryRetried`   an aborted query re-enters allocation after backoff
                        (model/system.py, degraded path)
:class:`QueryLost`      an aborted query exhausted its retry budget
                        (model/system.py, degraded path)
:class:`MessageDropped` the subnet lost a query/result transfer
                        (model/system.py, degraded path)
:class:`QueryShed`      admission control dropped an open-workload
                        arrival (workloads/driver.py)
:class:`AllocationDecided`  the full decision-audit record of one
                        ``AllocationPolicy.select`` (model/system.py).
                        Opt-in; only emitted when something subscribes to
                        ``AllocationDecided`` specifically.
:class:`ServiceFinished`  a query finished its disk/CPU cycles at its
                        execution site (model/site.py).  Opt-in; only
                        emitted for explicit subscribers.
======================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Tuple, Type, Union

@dataclass(frozen=True, slots=True)
class TelemetryEvent:
    """Base class of every telemetry event.

    Attributes:
        time: Simulated time at which the event occurred.
    """

    #: Records carry their class name under ``"event"`` (see
    #: :mod:`repro.codec`).
    codec_tag: ClassVar[str] = "event"

    time: float

    @property
    def name(self) -> str:
        """The event's type name (its JSONL ``event`` tag)."""
        return type(self).__name__


@dataclass(frozen=True, slots=True)
class RunStarted(TelemetryEvent):
    """A ``run()`` call began (before warmup)."""

    policy: str
    seed: int
    warmup: float
    duration: float


@dataclass(frozen=True, slots=True)
class WarmupEnded(TelemetryEvent):
    """Warmup finished; statistics were truncated at this instant."""


@dataclass(frozen=True, slots=True)
class RunEnded(TelemetryEvent):
    """The measurement window closed."""

    completions: int


@dataclass(frozen=True, slots=True)
class QueryCreated(TelemetryEvent):
    """A terminal issued a new query."""

    qid: int
    class_name: str
    home_site: int
    estimated_reads: float


@dataclass(frozen=True, slots=True)
class QueryAllocated(TelemetryEvent):
    """The allocation policy committed a query to an execution site."""

    qid: int
    class_name: str
    home_site: int
    execution_site: int


@dataclass(frozen=True, slots=True)
class QueryTransferred(TelemetryEvent):
    """A query descriptor or result set was handed to the subnet.

    Attributes:
        kind: ``"query"`` (home → execution site) or ``"result"``
            (execution site → home).
        transfer_time: Channel time the transfer will occupy.
    """

    qid: int
    source: int
    destination: int
    kind: str
    transfer_time: float


@dataclass(frozen=True, slots=True)
class ServiceStarted(TelemetryEvent):
    """A query began its disk/CPU cycles at its execution site."""

    qid: int
    site: int
    reads: int


@dataclass(frozen=True, slots=True)
class QueryCompleted(TelemetryEvent):
    """A query's results arrived back home (the full life-cycle record).

    Carries every life-cycle timestamp, so a per-query analysis (see
    ``examples/trace_analysis.py``) needs no access to model objects.
    ``time`` is the completion instant.
    """

    qid: int
    class_name: str
    home_site: int
    execution_site: int
    remote: bool
    created_at: float
    allocated_at: float
    started_at: float
    finished_at: float
    service_time: float
    waiting_time: float
    migrations: int


@dataclass(frozen=True, slots=True)
class LoadBoardUpdated(TelemetryEvent):
    """One site's committed-query counts changed on the load board.

    Attributes:
        site: The site whose counts changed.
        io_queries: I/O-bound queries now committed to the site.
        cpu_queries: CPU-bound queries now committed to the site.
        change: ``+1`` for a registration, ``-1`` for a deregistration.
    """

    site: int
    io_queries: int
    cpu_queries: int
    change: int


@dataclass(frozen=True, slots=True)
class TraceMessage(TelemetryEvent):
    """A labelled kernel event fired (the old ``trace`` hook, typed).

    High-volume: one per labelled event on the future-event list.  The
    engine only constructs these when something subscribed to
    ``TraceMessage`` by name (a session's event log does not), so bulk
    event logging stays affordable.
    """

    label: str


@dataclass(frozen=True, slots=True)
class SiteCrashed(TelemetryEvent):
    """The fault injector took a site down.

    In-flight queries at the site are aborted (each produces a
    :class:`QueryAborted`) and the site disappears from every
    :class:`~repro.model.view.SystemView` until it recovers.
    """

    site: int


@dataclass(frozen=True, slots=True)
class SiteRecovered(TelemetryEvent):
    """A crashed site came back up and rejoined the candidate set."""

    site: int


@dataclass(frozen=True, slots=True)
class QueryAborted(TelemetryEvent):
    """A site crash aborted a query mid-execution (or mid-transfer).

    Attributes:
        qid: The aborted query.
        site: The site that crashed under it.
        attempt: How many allocation attempts the query has made so far
            (1 for the first abort).
    """

    qid: int
    site: int
    attempt: int


@dataclass(frozen=True, slots=True)
class QueryRetried(TelemetryEvent):
    """An aborted query re-entered allocation after exponential backoff.

    Attributes:
        qid: The retrying query.
        attempt: The attempt number about to start (2 for the first retry).
        backoff: The backoff delay that was waited before this retry.
    """

    qid: int
    attempt: int
    backoff: float


@dataclass(frozen=True, slots=True)
class QueryLost(TelemetryEvent):
    """An aborted query exhausted its bounded retry budget and was dropped.

    Attributes:
        qid: The lost query.
        attempts: Total allocation attempts made before giving up.
    """

    qid: int
    attempts: int


@dataclass(frozen=True, slots=True)
class MessageDropped(TelemetryEvent):
    """The subnet lost a query/result transfer (token-ring message loss).

    Attributes:
        source: Sending site.
        destination: Receiving site.
        kind: ``"query"`` or ``"result"`` (mirrors
            :class:`QueryTransferred`).
        qid: The query whose transfer was dropped.
    """

    source: int
    destination: int
    kind: str
    qid: int


@dataclass(frozen=True, slots=True)
class QueryShed(TelemetryEvent):
    """Admission control dropped an open-workload arrival.

    The arrival still consumed its serial number (so derived random
    streams are independent of the admission limit); it just never
    became a query.

    Attributes:
        site: The home site the arrival was offered to.
        serial: The arrival's per-site serial number.
        pending: Admitted queries pending at the site when it was shed
            (i.e. the admission limit it ran into).
    """

    site: int
    serial: int
    pending: int


@dataclass(frozen=True, slots=True)
class AllocationDecided(TelemetryEvent):
    """The full audit record of one allocation decision.

    A decision is an ``AllocationPolicy.select`` call, a subquery stage's
    placement, or a migration move; the estimates are those of the work
    being placed (the stage, or the reads left).

    Opt-in like :class:`TraceMessage`: the system only constructs these
    when something subscribed to ``AllocationDecided`` by name (a session
    with ``TelemetryConfig(decisions=True)``), so event logs without
    decisions — and the golden event streams pinned from them — never
    see one.

    Event fields are restricted to primitives, so the per-site load
    vectors are encoded as comma-joined integer strings (``"3,1,0"``);
    :class:`repro.telemetry.tracing.decisions.DecisionRecord` decodes
    them back into tuples.

    Attributes:
        qid: The query being allocated.
        class_name: The query's class.
        home_site: Site whose terminal issued the query.
        chosen_site: The site the policy selected.
        staleness: Age of the load information the policy saw
            (``SystemView.load_info_age()``; 0.0 under the paper's
            oracle load board).
        seen_loads: Per-site query counts *as the policy saw them*
            (masked/stale under faults or the stale-info extension),
            comma-joined.
        true_loads: The live load board's per-site counts at the same
            instant, comma-joined.
        candidates: The candidate sites the view offered, comma-joined.
        est_service: The optimizer's total service estimate for the
            query (CPU plus I/O demand at the mean disk time).
        est_transfer: Figure 6's ``Transfer_Time(q)`` estimate.
        est_return: Figure 6's ``Return_Time(q)`` estimate.
        attempt: Allocation attempt number (0 for the first attempt;
            positive after fault-driven retries).
    """

    qid: int
    class_name: str
    home_site: int
    chosen_site: int
    staleness: float
    seen_loads: str
    true_loads: str
    candidates: str
    est_service: float
    est_transfer: float
    est_return: float
    attempt: int


@dataclass(frozen=True, slots=True)
class ServiceFinished(TelemetryEvent):
    """A query finished its disk/CPU cycles at its execution site.

    The closing bracket of :class:`ServiceStarted` (which has no
    end-of-service counterpart in the original taxonomy).  Opt-in like
    :class:`AllocationDecided`: only constructed for subscribers that
    name it (span assembly), so event logs without spans are unchanged.

    Attributes:
        qid: The query that finished.
        site: The execution site.
        service_time: Total disk + CPU service the query acquired there
            (cumulative across retries, matching ``service_acquired``).
    """

    qid: int
    site: int
    service_time: float


#: Every event type, in taxonomy order.
EVENT_TYPES: Tuple[Type[TelemetryEvent], ...] = (
    RunStarted,
    WarmupEnded,
    RunEnded,
    QueryCreated,
    QueryAllocated,
    QueryTransferred,
    ServiceStarted,
    QueryCompleted,
    LoadBoardUpdated,
    TraceMessage,
    SiteCrashed,
    SiteRecovered,
    QueryAborted,
    QueryRetried,
    QueryLost,
    MessageDropped,
    QueryShed,
    AllocationDecided,
    ServiceFinished,
)

#: Any one event: the tagged union an event record decodes as
#: (``repro.codec.from_dict(AnyEvent, record)``).
AnyEvent = Union[EVENT_TYPES]  # type: ignore[valid-type]


__all__ = [
    "TelemetryEvent",
    "RunStarted",
    "WarmupEnded",
    "RunEnded",
    "QueryCreated",
    "QueryAllocated",
    "QueryTransferred",
    "ServiceStarted",
    "QueryCompleted",
    "LoadBoardUpdated",
    "TraceMessage",
    "SiteCrashed",
    "SiteRecovered",
    "QueryAborted",
    "QueryRetried",
    "QueryLost",
    "MessageDropped",
    "QueryShed",
    "AllocationDecided",
    "ServiceFinished",
    "EVENT_TYPES",
    "AnyEvent",
]
