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

:func:`assemble_spans` is a pure function of a run's ordered event
list: :class:`~repro.telemetry.session.TelemetrySession` buffers the
events of :data:`SPAN_EVENT_TYPES` during the run (the subscribed
handler *is* ``list.append``) and assembles them once, after the run.
Subscribing to those types by name is what arms the opt-in
:class:`~repro.telemetry.events.ServiceFinished` emission in the model.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Set, Tuple, Type

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
        count: Finished spans assembled.
        queries: Distinct queries that produced at least one span.
        unfinished: Spans still open at the end of the event list
            (queries in flight at the end of the run); they are not
            reported.
        kinds: Per-kind span counts, sorted by kind name.
    """

    count: int
    queries: int
    unfinished: int
    kinds: Tuple[Tuple[str, int], ...]


class _Assembly:
    """The pairing state of one :func:`assemble_spans` call."""

    def __init__(self) -> None:
        self.seed = 0
        self.finished: List[Span] = []
        #: (qid, kind) -> open span's (start, site, id)
        self.open: Dict[Tuple[int, str], Tuple[float, int, str]] = {}
        #: (qid, kind) -> how many spans of that kind the query produced
        self.indices: Dict[Tuple[int, str], int] = {}
        self.home: Dict[int, int] = {}
        self.qids: Set[int] = set()

    # ------------------------------------------------------------------
    # Span plumbing
    # ------------------------------------------------------------------
    def _next_id(self, serial: int, kind: str) -> str:
        key = (serial, kind)
        index = self.indices.get(key, 0)
        self.indices[key] = index + 1
        return span_id(self.seed, serial, kind, index)

    def _begin(self, qid: int, kind: str, start: float, site: int) -> None:
        self.open[(qid, kind)] = (start, site, self._next_id(qid, kind))

    def _finish(self, qid: int, kind: str, end: float) -> None:
        entry = self.open.pop((qid, kind), None)
        if entry is None:
            return
        start, site, sid = entry
        self.finished.append(
            Span(span_id=sid, kind=kind, qid=qid, site=site, start=start, end=end)
        )

    def _instant(self, qid: int, kind: str, time: float, site: int) -> None:
        self.finished.append(
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
    # Pairing rules, one per event type
    # ------------------------------------------------------------------
    def _on_run_started(self, event: TelemetryEvent) -> None:
        assert isinstance(event, RunStarted)
        self.seed = event.seed

    def _on_created(self, event: TelemetryEvent) -> None:
        assert isinstance(event, QueryCreated)
        self.qids.add(event.qid)
        self.home[event.qid] = event.home_site
        self._begin(event.qid, "query", event.time, event.home_site)

    def _on_allocated(self, event: TelemetryEvent) -> None:
        assert isinstance(event, QueryAllocated)
        self.qids.add(event.qid)
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
        self.finished.append(
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
        site = self.home.get(event.qid, 0)
        self.finished.append(
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
        site = self.home.get(event.qid, 0)
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
        self.finished.append(
            Span(
                span_id=span_id(
                    self.seed, event.serial, f"shed.s{event.site}", 0
                ),
                kind="shed",
                qid=-1,
                site=event.site,
                start=event.time,
                end=event.time,
            )
        )


#: Event type -> the pairing rule that reads it.
_RULES: Dict[Type[TelemetryEvent], Callable[[_Assembly, TelemetryEvent], None]] = {
    RunStarted: _Assembly._on_run_started,
    QueryCreated: _Assembly._on_created,
    QueryAllocated: _Assembly._on_allocated,
    ServiceStarted: _Assembly._on_service_started,
    ServiceFinished: _Assembly._on_service_finished,
    QueryTransferred: _Assembly._on_transferred,
    QueryCompleted: _Assembly._on_completed,
    QueryAborted: _Assembly._on_aborted,
    QueryRetried: _Assembly._on_retried,
    QueryLost: _Assembly._on_lost,
    MessageDropped: _Assembly._on_dropped,
    QueryShed: _Assembly._on_shed,
}

#: The event types span assembly reads, in the order a session
#: subscribes to them.  ``ServiceFinished`` is opt-in: naming it here is
#: what makes the model emit it.
SPAN_EVENT_TYPES: Tuple[Type[TelemetryEvent], ...] = tuple(_RULES)


def assemble_spans(
    events: Iterable[TelemetryEvent],
) -> Tuple[Tuple[Span, ...], SpanSummary]:
    """Pair a run's events into spans and roll them up.

    *events* is the run's event list in emission order; events of types
    outside :data:`SPAN_EVENT_TYPES` are skipped.  Returns the finished
    spans in completion order and their :class:`SpanSummary`.  Spans
    still open at the end of the list (queries in flight) are counted as
    ``unfinished`` and not returned.
    """
    assembly = _Assembly()
    for event in events:
        rule = _RULES.get(type(event))
        if rule is not None:
            rule(assembly, event)
    finished = assembly.finished
    kinds: Dict[str, int] = {}
    for span in finished:
        kinds[span.kind] = kinds.get(span.kind, 0) + 1
    summary = SpanSummary(
        count=len(finished),
        queries=len(assembly.qids),
        unfinished=len(assembly.open),
        kinds=tuple(sorted(kinds.items())),
    )
    return tuple(finished), summary


__all__ = ["SPAN_EVENT_TYPES", "Span", "SpanSummary", "assemble_spans", "span_id"]
