"""Typed telemetry for the simulation: events, summaries, timelines.

The package gives every run three machine-readable observation surfaces
(see ``docs/telemetry.md`` for the full narrative):

* a **typed event bus** (:mod:`repro.telemetry.bus`,
  :mod:`repro.telemetry.events`) — frozen dataclass events emitted by
  the kernel and the model, with subscribe-by-type dispatch and a
  guarded-emit idiom that costs nothing when disabled;
* a **timeline sampler** (:mod:`repro.telemetry.sampler`) — per-site
  CPU/disk queue lengths, utilizations, and load-information staleness
  on a fixed simulated-time cadence;
* a **tracing layer** (:mod:`repro.telemetry.tracing`) — query-lifecycle
  spans with deterministic IDs plus an allocation decision audit
  (staleness and ex-post regret per ``AllocationPolicy.select``), both
  pure functions of the event list, with byte-deterministic
  Chrome-trace/JSONL exporters;

plus **exporters** (:mod:`repro.telemetry.exporters`) for JSONL event
logs and CSV/JSON timelines, a **session** façade
(:mod:`repro.telemetry.session`) that keeps one run's events in one
buffer and derives the event log, spans, decisions and summary from it,
and a **kernel self-profiler** (:mod:`repro.telemetry.profile`,
``python -m repro.telemetry.profile``) attributing wall time to engine
phases."""

from repro.telemetry.bus import EventBus, Handler, Subscription
from repro.telemetry.events import (
    EVENT_TYPES,
    AllocationDecided,
    LoadBoardUpdated,
    MessageDropped,
    QueryAborted,
    QueryAllocated,
    QueryCompleted,
    QueryCreated,
    QueryLost,
    QueryRetried,
    QueryShed,
    QueryTransferred,
    RunEnded,
    RunStarted,
    ServiceFinished,
    ServiceStarted,
    SiteCrashed,
    SiteRecovered,
    TelemetryEvent,
    TraceMessage,
    WarmupEnded,
)
from repro.telemetry.exporters import (
    events_from_jsonl,
    events_to_jsonl,
    read_events_jsonl,
    read_timeline_csv,
    read_timeline_json,
    timeline_from_csv,
    timeline_from_json,
    timeline_to_csv,
    timeline_to_json,
    write_events_jsonl,
    write_timeline_csv,
    write_timeline_json,
)
from repro.telemetry.sampler import (
    SAMPLE_PRIORITY,
    TIMELINE_FIELDS,
    TimelineSample,
    TimelineSampler,
)
from repro.telemetry.profile import KernelProfiler, PhaseReport
from repro.telemetry.session import (
    LOGGED_EVENT_TYPES,
    TelemetryConfig,
    TelemetrySession,
)
from repro.telemetry.tracing import (
    SPAN_EVENT_TYPES,
    TRACE_FORMAT_VERSION,
    DecisionRecord,
    DecisionSummary,
    Span,
    SpanSummary,
    assemble_spans,
    decision_cost,
    decisions_from_jsonl,
    decisions_to_jsonl,
    read_decisions_jsonl,
    read_spans_chrome,
    record_from_event,
    span_id,
    summarize_decisions,
    spans_from_chrome_json,
    spans_to_chrome_json,
    write_decisions_jsonl,
    write_spans_chrome,
)

__all__ = [
    # bus
    "EventBus",
    "Handler",
    "Subscription",
    # events
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
    # sampler
    "SAMPLE_PRIORITY",
    "TIMELINE_FIELDS",
    "TimelineSample",
    "TimelineSampler",
    # exporters
    "events_to_jsonl",
    "events_from_jsonl",
    "write_events_jsonl",
    "read_events_jsonl",
    "timeline_to_csv",
    "timeline_from_csv",
    "write_timeline_csv",
    "read_timeline_csv",
    "timeline_to_json",
    "timeline_from_json",
    "write_timeline_json",
    "read_timeline_json",
    # session
    "LOGGED_EVENT_TYPES",
    "TelemetryConfig",
    "TelemetrySession",
    # tracing
    "TRACE_FORMAT_VERSION",
    "SPAN_EVENT_TYPES",
    "Span",
    "SpanSummary",
    "assemble_spans",
    "span_id",
    "DecisionRecord",
    "DecisionSummary",
    "decision_cost",
    "record_from_event",
    "summarize_decisions",
    "spans_to_chrome_json",
    "spans_from_chrome_json",
    "write_spans_chrome",
    "read_spans_chrome",
    "decisions_to_jsonl",
    "decisions_from_jsonl",
    "write_decisions_jsonl",
    "read_decisions_jsonl",
    # profiler
    "KernelProfiler",
    "PhaseReport",
]
