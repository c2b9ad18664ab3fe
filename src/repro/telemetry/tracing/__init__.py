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

Both collectors subscribe to their event types *explicitly*, which is
what arms the opt-in ``wants_type``-guarded emissions
(:class:`~repro.telemetry.events.AllocationDecided`,
:class:`~repro.telemetry.events.ServiceFinished`): with no collector
attached the instrumented sites cost one attribute test and construct
nothing, and catch-all event logs never see the opt-in events at all.
"""

from repro.telemetry.tracing.decisions import (
    DecisionAudit,
    DecisionRecord,
    DecisionSummary,
    decision_cost,
    record_from_event,
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
    Span,
    SpanCollector,
    SpanSummary,
    span_id,
)

__all__ = [
    # spans
    "Span",
    "SpanCollector",
    "SpanSummary",
    "span_id",
    # decisions
    "DecisionAudit",
    "DecisionRecord",
    "DecisionSummary",
    "decision_cost",
    "record_from_event",
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
