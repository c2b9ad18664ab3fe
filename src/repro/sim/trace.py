"""Per-query tracing: a typed-bus adapter for debugging runs.

:class:`QueryTracer` builds per-query life-cycle records from
:class:`~repro.telemetry.events.QueryCompleted` events on the telemetry
event bus (:mod:`repro.telemetry.bus`), which carry every timestamp the
record needs; useful when a policy misbehaves and you need to see
*which* decisions went wrong.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Iterable, List, Optional

from repro.telemetry.bus import EventBus, Subscription
from repro.telemetry.events import QueryCompleted, TelemetryEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.system import DistributedDatabase


@dataclass(frozen=True)
class QueryRecord:
    """A completed query's life cycle, flattened for inspection."""

    qid: int
    class_name: str
    home_site: int
    execution_site: int
    remote: bool
    created_at: float
    allocated_at: float
    started_at: float
    finished_at: float
    completed_at: float
    service: float
    waiting: float
    migrations: int

    @property
    def transfer_out_delay(self) -> float:
        """Allocation to execution start (0 for local queries)."""
        return self.started_at - self.allocated_at

    @property
    def return_delay(self) -> float:
        """Execution end to results-home (0 for local queries)."""
        return self.completed_at - self.finished_at


class QueryTracer:
    """Collects :class:`QueryRecord` for every completed query.

    A subscriber to the system's
    :class:`~repro.telemetry.events.QueryCompleted` stream::

        tracer = QueryTracer()
        tracer.attach(system)
        system.run(...)
        slowest = tracer.slowest(10)
    """

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._records: Deque[QueryRecord] = deque(maxlen=capacity)
        self._subscription: Optional[Subscription] = None
        self._bus: Optional[EventBus] = None

    def attach(self, system: "DistributedDatabase") -> None:
        """Subscribe to *system*'s completion events."""
        if self._subscription is not None:
            raise ValueError("QueryTracer is already attached")
        bus = system.sim.bus
        self._subscription = bus.subscribe(QueryCompleted, self._on_completed)
        self._bus = bus

    def detach(self) -> None:
        """Stop collecting (idempotent); records stay available."""
        if self._subscription is not None and self._bus is not None:
            self._bus.unsubscribe(self._subscription)
            self._subscription = None
            self._bus = None

    def _on_completed(self, event: TelemetryEvent) -> None:
        assert isinstance(event, QueryCompleted)
        self._records.append(self._record(event))

    @staticmethod
    def _record(event: QueryCompleted) -> QueryRecord:
        return QueryRecord(
            qid=event.qid,
            class_name=event.class_name,
            home_site=event.home_site,
            execution_site=event.execution_site,
            remote=event.remote,
            created_at=event.created_at,
            allocated_at=event.allocated_at,
            started_at=event.started_at,
            finished_at=event.finished_at,
            completed_at=event.time,
            service=event.service_time,
            waiting=event.waiting_time,
            migrations=event.migrations,
        )

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> List[QueryRecord]:
        return list(self._records)

    def slowest(self, count: int = 10) -> List[QueryRecord]:
        """The *count* queries with the largest waiting time."""
        return sorted(self._records, key=lambda r: r.waiting, reverse=True)[:count]

    def by_site(self, site: int) -> List[QueryRecord]:
        """Queries that executed at *site*."""
        return [r for r in self._records if r.execution_site == site]

    def remote_records(self) -> List[QueryRecord]:
        return [r for r in self._records if r.remote]

    def mean_waiting(self, class_name: Optional[str] = None) -> float:
        records: Iterable[QueryRecord] = self._records
        if class_name is not None:
            records = [r for r in records if r.class_name == class_name]
        records = list(records)
        if not records:
            return 0.0
        return sum(r.waiting for r in records) / len(records)


__all__ = ["QueryRecord", "QueryTracer"]
