"""Unit tests for the span model (`repro.telemetry.tracing.spans`).

Span assembly is driven two ways: synthetically (hand-built event lists
— every pairing rule is exercised in isolation) and from real runs (the
assembled stream is structurally consistent and deterministic).
"""

import dataclasses
from typing import Callable, List

from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy
from repro.runner import RunSpec, run
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
    RunEnded,
    RunStarted,
    ServiceFinished,
    ServiceStarted,
    TelemetryEvent,
    WarmupEnded,
)
from repro.telemetry.session import TelemetryConfig, TelemetrySession
from repro.telemetry.tracing import Span, assemble_spans, span_id

SEED = 13


def run_started() -> RunStarted:
    return RunStarted(time=0.0, policy="LERT", seed=SEED, warmup=0.0, duration=100.0)


def started() -> List[TelemetryEvent]:
    """An event list holding only the run's start (which carries the seed)."""
    return [run_started()]


def spans_of(events: List[TelemetryEvent]) -> "tuple[Span, ...]":
    return assemble_spans(events)[0]


def lifecycle(emit: Callable[[TelemetryEvent], None], qid: int = 3) -> None:
    """One complete remote query: create → allocate → serve → complete."""
    emit(
        QueryCreated(
            time=1.0, qid=qid, class_name="io", home_site=2, estimated_reads=4.0
        )
    )
    emit(
        QueryAllocated(
            time=1.0, qid=qid, class_name="io", home_site=2, execution_site=0
        )
    )
    emit(
        QueryTransferred(
            time=1.0, qid=qid, source=2, destination=0, kind="query",
            transfer_time=0.25,
        )
    )
    emit(ServiceStarted(time=1.25, qid=qid, site=0, reads=4))
    emit(ServiceFinished(time=7.0, qid=qid, site=0, service_time=5.75))
    emit(
        QueryTransferred(
            time=7.0, qid=qid, source=0, destination=2, kind="result",
            transfer_time=0.5,
        )
    )
    emit(
        QueryCompleted(
            time=7.5, qid=qid, class_name="io", home_site=2, execution_site=0,
            remote=True, created_at=1.0, allocated_at=1.0, started_at=1.25,
            finished_at=7.0, service_time=5.75, waiting_time=1.75, migrations=0,
        )
    )


class TestSpanId:
    def test_is_16_hex_chars(self):
        sid = span_id(1, 2, "queue", 0)
        assert len(sid) == 16
        int(sid, 16)  # parses as hex

    def test_deterministic(self):
        assert span_id(1, 2, "queue", 0) == span_id(1, 2, "queue", 0)

    def test_every_component_matters(self):
        base = span_id(1, 2, "queue", 0)
        assert span_id(9, 2, "queue", 0) != base
        assert span_id(1, 9, "queue", 0) != base
        assert span_id(1, 2, "service", 0) != base
        assert span_id(1, 2, "queue", 1) != base


class TestLifecyclePairing:
    def test_complete_remote_query(self):
        events = started()
        lifecycle(events.append)
        spans = {span.kind: span for span in spans_of(events)}
        assert set(spans) == {
            "query", "queue", "service", "transfer.query", "transfer.result"
        }
        assert spans["query"] == Span(
            span_id=span_id(SEED, 3, "query", 0), kind="query", qid=3,
            site=2, start=1.0, end=7.5,
        )
        assert spans["queue"].start == 1.0 and spans["queue"].end == 1.25
        assert spans["queue"].site == 0
        assert spans["service"].start == 1.25 and spans["service"].end == 7.0
        assert spans["transfer.query"].end == 1.25
        assert spans["transfer.result"].end == 7.5
        assert assemble_spans(events)[1].unfinished == 0

    def test_duration_property(self):
        events = started()
        lifecycle(events.append)
        (service,) = [s for s in spans_of(events) if s.kind == "service"]
        assert service.duration == 7.0 - 1.25

    def test_ids_are_unique_within_a_run(self):
        events = started()
        lifecycle(events.append, qid=1)
        lifecycle(events.append, qid=2)
        ids = [span.span_id for span in spans_of(events)]
        assert len(ids) == len(set(ids))

    def test_repeated_kind_bumps_index(self):
        events = started()
        events.append(QueryRetried(time=5.0, qid=4, attempt=1, backoff=2.0))
        events.append(QueryRetried(time=9.0, qid=4, attempt=2, backoff=4.0))
        first, second = spans_of(events)
        assert first.span_id == span_id(SEED, 4, "backoff", 0)
        assert second.span_id == span_id(SEED, 4, "backoff", 1)
        assert second.end == 9.0 + 4.0

    def test_unfinished_spans_are_withheld(self):
        events = started()
        events.append(
            QueryCreated(
                time=1.0, qid=3, class_name="io", home_site=2,
                estimated_reads=4.0,
            )
        )
        spans, summary = assemble_spans(events)
        assert spans == ()
        assert summary.unfinished == 1


class TestFaultSpans:
    def test_abort_closes_open_phases(self):
        events = started()
        events.append(
            QueryAllocated(
                time=1.0, qid=3, class_name="io", home_site=2, execution_site=1
            )
        )
        events.append(ServiceStarted(time=2.0, qid=3, site=1, reads=4))
        events.append(QueryAborted(time=5.0, qid=3, site=1, attempt=1))
        kinds = {span.kind: span for span in spans_of(events)}
        assert set(kinds) == {"queue", "service", "abort"}
        assert kinds["queue"].end == 2.0  # closed by the service start
        assert kinds["service"].end == 5.0
        assert kinds["abort"].start == kinds["abort"].end == 5.0

    def test_lost_ends_the_query_span(self):
        events = started()
        events.append(
            QueryCreated(
                time=1.0, qid=3, class_name="io", home_site=2,
                estimated_reads=4.0,
            )
        )
        events.append(QueryLost(time=9.0, qid=3, attempts=6))
        kinds = {span.kind: span for span in spans_of(events)}
        assert kinds["lost"].site == 2  # the remembered home site
        assert kinds["query"].end == 9.0

    def test_drop_is_instant_at_destination(self):
        events = started()
        events.append(
            MessageDropped(time=4.0, source=1, destination=0, kind="result", qid=5)
        )
        (span,) = spans_of(events)
        assert span.kind == "drop" and span.site == 0
        assert span.start == span.end == 4.0

    def test_shed_uses_serial_keyed_id(self):
        events = started()
        events.append(QueryShed(time=3.0, site=1, serial=42, pending=16))
        (span,) = spans_of(events)
        assert span.qid == -1
        assert span.site == 1
        assert span.span_id == span_id(SEED, 42, "shed.s1", 0)


class TestCollectorLifecycle:
    """Span assembly inside a :class:`TelemetrySession`."""

    @staticmethod
    def session(tiny_config) -> "tuple[DistributedDatabase, TelemetrySession]":
        system = DistributedDatabase(tiny_config, make_policy("LERT"), seed=SEED)
        session = TelemetrySession(
            system, TelemetryConfig(events=False, spans=True)
        )
        system.sim.bus.emit(run_started())
        return system, session

    def test_incremental_reads_see_later_events(self, tiny_config):
        # Reading spans mid-run must not lose events buffered afterwards.
        system, session = self.session(tiny_config)
        lifecycle(system.sim.bus.emit, qid=1)
        assert len(session.spans) == 5
        lifecycle(system.sim.bus.emit, qid=2)
        assert len(session.spans) == 10

    def test_close_stops_collection_and_is_idempotent(self, tiny_config):
        system, session = self.session(tiny_config)
        lifecycle(system.sim.bus.emit, qid=1)
        session.close()
        session.close()
        lifecycle(system.sim.bus.emit, qid=2)
        assert len(session.spans) == 5  # the post-close query is unseen

    def test_summary_counts(self):
        events = started()
        lifecycle(events.append, qid=1)
        lifecycle(events.append, qid=2)
        _, summary = assemble_spans(events)
        assert summary.count == 10
        assert summary.queries == 2
        assert summary.unfinished == 0
        assert dict(summary.kinds)["transfer.query"] == 2
        assert [kind for kind, _ in summary.kinds] == sorted(
            kind for kind, _ in summary.kinds
        )

    def test_other_event_types_are_skipped(self):
        events = started()
        lifecycle(events.append, qid=1)
        mixed = [WarmupEnded(time=0.5)] + events + [RunEnded(time=9.0, completions=1)]
        assert assemble_spans(mixed) == assemble_spans(events)


class TestRealRuns:
    SPEC = RunSpec(
        warmup=50.0,
        duration=300.0,
        seed=11,
        telemetry=TelemetryConfig(spans=True),
    )

    def test_run_produces_consistent_spans(self, tiny_config):
        report = run(tiny_config, "BNQRD", self.SPEC)
        spans = report.spans
        assert spans, "a real run must produce spans"
        ids = [span.span_id for span in spans]
        assert len(ids) == len(set(ids))
        for span in spans:
            assert span.end >= span.start
        assert report.results.spans is not None
        assert report.results.spans.count == len(spans)

    def test_spans_are_deterministic(self, tiny_config):
        first = run(tiny_config, "BNQRD", self.SPEC)
        second = run(tiny_config, "BNQRD", self.SPEC)
        assert first.spans == second.spans

    def test_spans_do_not_perturb_results(self, tiny_config):
        bare = run(
            tiny_config, "BNQRD", dataclasses.replace(self.SPEC, telemetry=None)
        )
        traced = run(tiny_config, "BNQRD", self.SPEC)
        assert (
            dataclasses.replace(
                traced.results, telemetry=None, spans=None
            )
            == bare.results
        )
