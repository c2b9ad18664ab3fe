"""The span model: the query life cycle as timed, typed intervals.

A :class:`Span` is one contiguous interval of a query's life — created
purely from bus events, never from live model objects, so span streams
are comparable byte-for-byte across runs and safe to hold after a run.

Span kinds (one row per event pairing):

========================  ===================================================
Kind                      Interval
========================  ===================================================
``query``                 ``QueryCreated`` → ``QueryCompleted`` (or
                          ``QueryLost`` under faults) — the full life cycle.
``queue``                 ``QueryAllocated`` → ``ServiceStarted`` — committed
                          to a site but not yet executing (includes any subnet
                          transit toward a remote site).
``service``               ``ServiceStarted`` → ``ServiceFinished`` — the
                          disk/CPU cycles of one ``DBSite.execute`` call (a
                          whole query, a subquery stage, or a batch of reads
                          between migration checks).
``transfer.query``        one ``QueryTransferred(kind="query")`` — the channel
                          occupancy estimate of the descriptor's hop.
``transfer.result``       same for the result hop home.
``transfer.data-move``    same for a pipeline's move to its next stage.
``transfer.migration``    same for a running query's migration.
``backoff``               one ``QueryRetried`` — the exponential-backoff wait
                          before re-entering allocation.
``abort``                 instant — a site crash aborted the query.
``drop``                  instant — the subnet lost a transfer.
``lost``                  instant — the retry budget ran out.
``shed``                  instant — admission control dropped an open-workload
                          arrival (``qid`` is -1: the arrival never became a
                          query; the span ID derives from its site and serial).
========================  ===================================================

**Deterministic span IDs.** Every ID is a BLAKE2b-64 digest of
``(run seed, query serial, kind, per-query kind index)`` — see
:func:`span_id` — so serial and ``--jobs N`` replays produce identical
IDs, and two runs differing only in seed share none.

The :class:`SpanCollector` subscribes to its event types *explicitly*
(never catch-all), which is exactly what arms the opt-in
``wants_type``-guarded :class:`~repro.telemetry.events.ServiceFinished`
emission in the model.

**Deferred assembly.** During the run the collector only appends events
to a buffer (the subscribed handler *is* ``list.append``, the cheapest
possible hot-path cost); the pairing, hashing, and ``Span``
construction happen lazily — and incrementally — on the first read of
:attr:`spans` / :meth:`summary`.  Because the buffer preserves emission
order, the deferred replay is byte-identical to online assembly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Set, Tuple, Type

from repro.telemetry.bus import EventBus, Subscription
from repro.telemetry.events import (
    MessageDropped,
    QueryAborted,
    QueryAllocated,
    QueryCompleted,
    QueryCreated,
    QueryLost,
    QueryRetried,
    QueryShed,
    QueryTransferred,
    RunStarted,
    ServiceFinished,
    ServiceStarted,
    TelemetryEvent,
)


def span_id(seed: int, serial: int, kind: str, index: int) -> str:
    """The deterministic 16-hex-digit ID of one span.

    Derived from the run's master seed, the query's per-run serial
    (``qid``; the shed arrival's per-site serial for ``shed`` spans),
    the span kind, and the per-query occurrence index of that kind —
    a pure function of run identity, so IDs replay byte-identically
    serial vs ``--jobs N``.
    """
    key = f"{seed}|{serial}|{kind}|{index}".encode("ascii")
    return hashlib.blake2b(key, digest_size=8).hexdigest()


@dataclass(frozen=True)
class Span:
    """One timed interval of a query's life cycle.

    Attributes:
        span_id: Deterministic ID (see :func:`span_id`).
        kind: The span kind (see the module table).
        qid: The query's per-run serial (-1 for ``shed`` spans: the
            arrival never became a query).
        site: The site the interval belongs to (home site for
            ``query``/``backoff``/``lost``, execution site for
            ``queue``/``service``/``abort``, destination for transfers
            and drops, offered site for ``shed``).
        start: Interval start (simulated time).
        end: Interval end; equals ``start`` for instant spans.
    """

    span_id: str
    kind: str
    qid: int
    site: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        """``end - start`` (0.0 for instant spans)."""
        return self.end - self.start


@dataclass(frozen=True)
class SpanSummary:
    """Roll-up of one run's span stream (rides ``SystemResults.spans``).

    Attributes:
        count: Finished spans collected.
        queries: Distinct queries that produced at least one span.
        unfinished: Spans still open when the collector closed (query
            in flight at the end of the run); they are not reported.
        kinds: Per-kind span counts, sorted by kind name.
    """

    count: int
    queries: int
    unfinished: int
    kinds: Tuple[Tuple[str, int], ...]


class SpanCollector:
    """Assemble spans from a run's event stream.

    Subscribes on construction (build it *before* ``run()``, exactly
    like :class:`~repro.telemetry.bus.EventLog`); read :attr:`spans`
    and :meth:`summary` after the run, and :meth:`close` to detach.
    Managed automatically by
    :class:`~repro.telemetry.session.TelemetrySession` when
    ``TelemetryConfig(spans=True)``.
    """

    def __init__(self, bus: EventBus) -> None:
        self._bus = bus
        self._seed = 0
        self._finished: List[Span] = []
        #: (qid, kind) -> open span's (start, site, id)
        self._open: Dict[Tuple[int, str], Tuple[float, int, str]] = {}
        #: (qid, kind) -> how many spans of that kind the query produced
        self._indices: Dict[Tuple[int, str], int] = {}
        self._home: Dict[int, int] = {}
        self._qids: Set[int] = set()
        #: Raw events in emission order; replayed lazily (see _drain).
        self._buffer: List[TelemetryEvent] = []
        self._drained = 0
        self._handlers: Dict[
            Type[TelemetryEvent], Callable[[TelemetryEvent], None]
        ] = {
            RunStarted: self._on_run_started,
            QueryCreated: self._on_created,
            QueryAllocated: self._on_allocated,
            ServiceStarted: self._on_service_started,
            ServiceFinished: self._on_service_finished,
            QueryTransferred: self._on_transferred,
            QueryCompleted: self._on_completed,
            QueryAborted: self._on_aborted,
            QueryRetried: self._on_retried,
            QueryLost: self._on_lost,
            MessageDropped: self._on_dropped,
            QueryShed: self._on_shed,
        }
        # The hot-path handler is the buffer's own append — the model's
        # emit sites pay one list append per wanted event, nothing more.
        append = self._buffer.append
        self._subscriptions: List[Subscription] = [
            bus.subscribe(event_type, append) for event_type in self._handlers
        ]

    # ------------------------------------------------------------------
    # Span plumbing
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        """Replay buffered events not yet assembled (incremental)."""
        buffer = self._buffer
        handlers = self._handlers
        while self._drained < len(buffer):
            event = buffer[self._drained]
            self._drained += 1
            handlers[type(event)](event)

    def _next_id(self, serial: int, kind: str) -> str:
        key = (serial, kind)
        index = self._indices.get(key, 0)
        self._indices[key] = index + 1
        return span_id(self._seed, serial, kind, index)

    def _begin(self, qid: int, kind: str, start: float, site: int) -> None:
        self._open[(qid, kind)] = (start, site, self._next_id(qid, kind))

    def _finish(self, qid: int, kind: str, end: float) -> None:
        entry = self._open.pop((qid, kind), None)
        if entry is None:
            return
        start, site, sid = entry
        self._finished.append(
            Span(span_id=sid, kind=kind, qid=qid, site=site, start=start, end=end)
        )

    def _instant(self, qid: int, kind: str, time: float, site: int) -> None:
        self._finished.append(
            Span(
                span_id=self._next_id(qid, kind),
                kind=kind,
                qid=qid,
                site=site,
                start=time,
                end=time,
            )
        )

    # ------------------------------------------------------------------
    # Bus handlers
    # ------------------------------------------------------------------
    def _on_run_started(self, event: TelemetryEvent) -> None:
        assert isinstance(event, RunStarted)
        self._seed = event.seed

    def _on_created(self, event: TelemetryEvent) -> None:
        assert isinstance(event, QueryCreated)
        self._qids.add(event.qid)
        self._home[event.qid] = event.home_site
        self._begin(event.qid, "query", event.time, event.home_site)

    def _on_allocated(self, event: TelemetryEvent) -> None:
        assert isinstance(event, QueryAllocated)
        self._qids.add(event.qid)
        self._begin(event.qid, "queue", event.time, event.execution_site)

    def _on_service_started(self, event: TelemetryEvent) -> None:
        assert isinstance(event, ServiceStarted)
        self._finish(event.qid, "queue", event.time)
        self._begin(event.qid, "service", event.time, event.site)

    def _on_service_finished(self, event: TelemetryEvent) -> None:
        assert isinstance(event, ServiceFinished)
        self._finish(event.qid, "service", event.time)

    def _on_transferred(self, event: TelemetryEvent) -> None:
        assert isinstance(event, QueryTransferred)
        kind = f"transfer.{event.kind}"
        self._finished.append(
            Span(
                span_id=self._next_id(event.qid, kind),
                kind=kind,
                qid=event.qid,
                site=event.destination,
                start=event.time,
                end=event.time + event.transfer_time,
            )
        )

    def _on_completed(self, event: TelemetryEvent) -> None:
        assert isinstance(event, QueryCompleted)
        self._finish(event.qid, "query", event.time)

    def _on_aborted(self, event: TelemetryEvent) -> None:
        assert isinstance(event, QueryAborted)
        # The crash ends whatever phase the query was in at the site.
        self._finish(event.qid, "queue", event.time)
        self._finish(event.qid, "service", event.time)
        self._instant(event.qid, "abort", event.time, event.site)

    def _on_retried(self, event: TelemetryEvent) -> None:
        assert isinstance(event, QueryRetried)
        site = self._home.get(event.qid, 0)
        self._finished.append(
            Span(
                span_id=self._next_id(event.qid, "backoff"),
                kind="backoff",
                qid=event.qid,
                site=site,
                start=event.time,
                end=event.time + event.backoff,
            )
        )

    def _on_lost(self, event: TelemetryEvent) -> None:
        assert isinstance(event, QueryLost)
        site = self._home.get(event.qid, 0)
        self._instant(event.qid, "lost", event.time, site)
        self._finish(event.qid, "query", event.time)

    def _on_dropped(self, event: TelemetryEvent) -> None:
        assert isinstance(event, MessageDropped)
        self._instant(event.qid, "drop", event.time, event.destination)

    def _on_shed(self, event: TelemetryEvent) -> None:
        assert isinstance(event, QueryShed)
        # Shed arrivals never became queries: no qid exists, so the ID
        # derives from the per-site offered serial instead (unique per
        # site; the site number salts the kind to keep IDs distinct
        # across sites sharing a serial).
        self._finished.append(
            Span(
                span_id=span_id(
                    self._seed, event.serial, f"shed.s{event.site}", 0
                ),
                kind="shed",
                qid=-1,
                site=event.site,
                start=event.time,
                end=event.time,
            )
        )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def spans(self) -> Tuple[Span, ...]:
        """The finished spans, in completion order (deterministic)."""
        self._drain()
        return tuple(self._finished)

    @property
    def open_spans(self) -> int:
        """Spans begun but not yet finished (queries still in flight)."""
        self._drain()
        return len(self._open)

    def summary(self) -> SpanSummary:
        """Roll the collected stream up into a :class:`SpanSummary`."""
        self._drain()
        kinds: Dict[str, int] = {}
        for span in self._finished:
            kinds[span.kind] = kinds.get(span.kind, 0) + 1
        return SpanSummary(
            count=len(self._finished),
            queries=len(self._qids),
            unfinished=len(self._open),
            kinds=tuple(sorted(kinds.items())),
        )

    def close(self) -> None:
        """Unsubscribe from the bus (idempotent); spans stay readable."""
        for subscription in self._subscriptions:
            self._bus.unsubscribe(subscription)
        self._subscriptions = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        self._drain()
        return (
            f"<SpanCollector finished={len(self._finished)} "
            f"open={len(self._open)}>"
        )


__all__ = ["Span", "SpanCollector", "SpanSummary", "span_id"]
