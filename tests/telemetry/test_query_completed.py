"""``QueryCompleted`` events carry each query's whole life cycle.

A per-query analysis (the slowest queries, waits per site, transfer
delays; see ``examples/trace_analysis.py``) reads these events straight
from a session's event log, so their fields must be complete and
consistent on their own.
"""

import pytest

from repro.model.config import paper_defaults
from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy
from repro.runner import RunSpec, execute
from repro.telemetry.events import QueryCompleted
from repro.telemetry.session import TelemetryConfig


@pytest.fixture(scope="module")
def completed_run():
    config = paper_defaults(num_sites=3, mpl=4, think_time=50.0)
    system = DistributedDatabase(config, make_policy("LERT"), seed=8)
    # No warmup: the metrics counter resets at warmup end while the event
    # log keeps everything, so equality only holds from t=0.
    spec = RunSpec(warmup=0.0, duration=700.0, telemetry=TelemetryConfig())
    report = execute(system, spec)
    events = [e for e in report.events if isinstance(e, QueryCompleted)]
    return system, events


def test_one_event_per_completion(completed_run):
    system, events = completed_run
    assert events
    assert len(events) == system.metrics.completions
    assert len({e.qid for e in events}) == len(events)


def test_lifecycle_fields_are_consistent(completed_run):
    _, events = completed_run
    for e in events:
        assert e.created_at <= e.allocated_at <= e.started_at
        assert e.started_at <= e.finished_at <= e.time
        assert e.waiting_time >= -1e-9
        assert e.service_time > 0
        assert e.remote == (e.execution_site != e.home_site)


def test_execution_sites_partition_completions(completed_run):
    system, events = completed_run
    per_site = [
        sum(1 for e in events if e.execution_site == site)
        for site in range(system.config.num_sites)
    ]
    assert sum(per_site) == len(events)


def test_remote_queries_pay_both_transfer_hops(completed_run):
    _, events = completed_run
    remote = [e for e in events if e.remote]
    assert remote
    for e in remote:
        assert e.started_at - e.allocated_at > 0
        assert e.time - e.finished_at > 0
