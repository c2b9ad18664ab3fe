"""Query-lifecycle tracing and the allocation decision audit.

Two observation surfaces on top of the typed event bus (see
``docs/telemetry.md``, "Tracing & decision audit"):

* :mod:`repro.telemetry.tracing.spans` — a **span model** of the query
  life cycle (arrival, per-site queueing, service, transfers,
  retries/backoff, shed/abort) assembled purely from bus events, with
  deterministic span IDs derived from (run seed, query serial);
* :mod:`repro.telemetry.tracing.decisions` — an **allocation decision
  audit**: one record per ``AllocationPolicy.select`` capturing what
  the policy *saw* (masked/stale loads), the *true* instantaneous
  loads, and the per-decision staleness age and ex-post regret;
* :mod:`repro.telemetry.tracing.export` — byte-deterministic exporters:
  Chrome trace-event / Perfetto JSON for spans, JSONL for decision
  records.

Spans and decision records are pure functions of a run's ordered event
list (:func:`assemble_spans`, :func:`record_from_event`,
:func:`summarize_decisions`).  :class:`~repro.telemetry.session.TelemetrySession`
buffers the events during the run; subscribing to the opt-in types by
name (:class:`~repro.telemetry.events.AllocationDecided`,
:class:`~repro.telemetry.events.ServiceFinished`) is what makes the model
emit them, so without spans or decisions the instrumented sites cost one
membership test and construct nothing.
"""

from repro.telemetry.tracing.decisions import (
    DecisionRecord,
    DecisionSummary,
    decision_cost,
    record_from_event,
    summarize_decisions,
)
from repro.telemetry.tracing.export import (
    TRACE_FORMAT_VERSION,
    decisions_from_jsonl,
    decisions_to_jsonl,
    read_decisions_jsonl,
    read_spans_chrome,
    spans_from_chrome_json,
    spans_to_chrome_json,
    write_decisions_jsonl,
    write_spans_chrome,
)
from repro.telemetry.tracing.spans import (
    SPAN_EVENT_TYPES,
    Span,
    SpanSummary,
    assemble_spans,
    span_id,
)

__all__ = [
    # spans
    "SPAN_EVENT_TYPES",
    "Span",
    "SpanSummary",
    "assemble_spans",
    "span_id",
    # decisions
    "DecisionRecord",
    "DecisionSummary",
    "decision_cost",
    "record_from_event",
    "summarize_decisions",
    # export
    "TRACE_FORMAT_VERSION",
    "spans_to_chrome_json",
    "spans_from_chrome_json",
    "write_spans_chrome",
    "read_spans_chrome",
    "decisions_to_jsonl",
    "decisions_from_jsonl",
    "write_decisions_jsonl",
    "read_decisions_jsonl",
]
