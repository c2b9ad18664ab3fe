"""Typed telemetry for the simulation: events, metrics, timelines.

The package gives every run three machine-readable observation surfaces
(see ``docs/telemetry.md`` for the full narrative):

* a **typed event bus** (:mod:`repro.telemetry.bus`,
  :mod:`repro.telemetry.events`) — frozen dataclass events emitted by
  the kernel and the model, with subscribe-by-type dispatch and a
  guarded-emit idiom that costs nothing when disabled;
* a **metrics registry** (:mod:`repro.telemetry.registry`) — named
  counters/gauges/histograms over the existing monitors;
* a **timeline sampler** (:mod:`repro.telemetry.sampler`) — per-site
  CPU/disk queue lengths, utilizations, and load-information staleness
  on a fixed simulated-time cadence;

* a **tracing layer** (:mod:`repro.telemetry.tracing`) — query-lifecycle
  spans with deterministic IDs plus an allocation decision audit
  (staleness and ex-post regret per ``AllocationPolicy.select``), with
  byte-deterministic Chrome-trace/JSONL exporters;

plus **exporters** (:mod:`repro.telemetry.exporters`) for JSONL event
logs and CSV/JSON timelines, a **session** façade
(:mod:`repro.telemetry.session`) that wires everything to one system,
and a **kernel self-profiler** (:mod:`repro.telemetry.profile`,
``python -m repro.telemetry.profile``) attributing wall time to engine
phases.
"""

from repro.telemetry.bus import EventBus, EventLog, Handler, Subscription
from repro.telemetry.events import (
    EVENT_REGISTRY,
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
from repro.telemetry.registry import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    Metric,
    MetricNamespace,
    MetricsRegistry,
    merge_snapshots,
)
from repro.telemetry.sampler import (
    SAMPLE_PRIORITY,
    TIMELINE_FIELDS,
    TimelineSample,
    TimelineSampler,
)
from repro.telemetry.profile import KernelProfiler, PhaseReport
from repro.telemetry.session import TelemetryConfig, TelemetrySession
from repro.telemetry.tracing import (
    TRACE_FORMAT_VERSION,
    DecisionAudit,
    DecisionRecord,
    DecisionSummary,
    Span,
    SpanCollector,
    SpanSummary,
    decision_cost,
    decisions_from_jsonl,
    decisions_to_jsonl,
    read_decisions_jsonl,
    read_spans_chrome,
    record_from_event,
    span_id,
    spans_from_chrome_json,
    spans_to_chrome_json,
    write_decisions_jsonl,
    write_spans_chrome,
)

__all__ = [
    # bus
    "EventBus",
    "EventLog",
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
    "EVENT_REGISTRY",
    # registry
    "Metric",
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "MetricsRegistry",
    "MetricNamespace",
    "merge_snapshots",
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
    "TelemetryConfig",
    "TelemetrySession",
    # tracing
    "TRACE_FORMAT_VERSION",
    "Span",
    "SpanCollector",
    "SpanSummary",
    "span_id",
    "DecisionAudit",
    "DecisionRecord",
    "DecisionSummary",
    "decision_cost",
    "record_from_event",
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
