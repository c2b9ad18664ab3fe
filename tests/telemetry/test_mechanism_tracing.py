"""Telemetry of migration moves and subquery stages.

Every stage placement and every migration move is an audited allocation
decision, and every hop is a ``QueryTransferred`` event that becomes a
``transfer.migration`` or ``transfer.data-move`` span.
"""

from repro.model.mechanisms import Mechanisms
from repro.model.replication import ReplicationMap
from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy
from repro.runner import RunSpec, execute
from repro.telemetry.events import QueryTransferred
from repro.telemetry.session import TelemetryConfig
from repro.telemetry.tracing.export import read_decisions_jsonl, read_spans_chrome

TRACING = TelemetryConfig(events=True, spans=True, decisions=True)
SPEC = RunSpec(warmup=100.0, duration=1000.0, seed=3, telemetry=TRACING)


def traced(system):
    selects = []
    select = system.policy.select

    def counting_select(query, view):
        selects.append(query.qid)
        return select(query, view)

    system.policy.select = counting_select
    report = execute(system, SPEC)
    return report, len(selects)


def hops(report, kind):
    return [
        event
        for event in report.events
        if isinstance(event, QueryTransferred) and event.kind == kind
    ]


def test_migrating_run_audits_selects_and_moves(tiny_config):
    system = DistributedDatabase(
        tiny_config,
        make_policy("LERT"),
        seed=3,
        mechanisms=Mechanisms(threshold=1.1, max_migrations=2),
    )
    report, selects = traced(system)
    assert system.total_migrations > 0
    assert len(report.decisions) == selects + system.total_migrations
    assert len(hops(report, "migration")) == system.total_migrations
    kinds = {span.kind for span in report.spans}
    assert "transfer.migration" in kinds


def test_traced_pipeline_run_exports_spans_and_decisions(tiny_config, tmp_path):
    replication = ReplicationMap.round_robin_k(tiny_config.num_sites, 8, 2)
    system = DistributedDatabase(
        tiny_config,
        make_policy("LERT"),
        seed=3,
        mechanisms=Mechanisms(replication=replication, multi_prob=0.6, subquery_count=3),
    )
    report, selects = traced(system)
    assert system.distributed_queries > 0
    assert len(hops(report, "data-move")) == system.data_moves > 0
    assert len(report.decisions) > selects
    assert {"transfer.data-move", "service", "queue"} <= {
        span.kind for span in report.spans
    }
    spans_path = report.write_spans(tmp_path / "trace.json")
    decisions_path = report.write_decisions(tmp_path / "decisions.jsonl")
    assert read_spans_chrome(spans_path) == report.spans
    assert read_decisions_jsonl(decisions_path) == report.decisions
