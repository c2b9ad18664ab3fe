"""A site crash aborts migrating and pipelined queries; none is stranded.

Regression: migration and subquery pipelines once ran their own copies of
the query life cycle that never registered as executing anywhere, so a
crash flushed their service requests and nothing woke the query again.
Every query committed to a site before the outage ends must complete or
be counted as aborted or lost.
"""

import pytest

from repro.faults.plan import FaultPlan, SiteOutage
from repro.model.config import paper_defaults
from repro.model.mechanisms import Mechanisms
from repro.model.replication import ReplicationMap
from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy
from repro.telemetry.events import QueryAborted, QueryLost

CONFIG = paper_defaults()
OUTAGE = SiteOutage(site=0, at=600.0, duration=800.0)
RECOVERY = OUTAGE.at + OUTAGE.duration

MECHANISMS = {
    "migration": Mechanisms(max_migrations=2),
    "pipelines": Mechanisms(
        replication=ReplicationMap.round_robin_k(
            CONFIG.num_sites, num_items=12, copies=3
        ),
        multi_prob=0.5,
    ),
}


def run_with_outage(mechanism):
    system = DistributedDatabase(
        CONFIG,
        make_policy("LERT"),
        seed=1,
        faults=FaultPlan(site_outages=(OUTAGE,)),
        mechanisms=MECHANISMS[mechanism],
    )
    committed, completed, failed = set(), set(), set()
    register = system.load_board.register
    record = system.metrics.record

    def spy_register(query, site):
        if system.sim.now < RECOVERY:
            committed.add(query.qid)
        register(query, site)

    def spy_record(query):
        completed.add(query.qid)
        record(query)

    system.load_board.register = spy_register
    system.metrics.record = spy_record
    for event_type in (QueryAborted, QueryLost):
        system.sim.bus.subscribe(event_type, lambda event: failed.add(event.qid))
    results = system.run(warmup=500.0, duration=3000.0)
    return results, committed, completed | failed


@pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
def test_no_query_is_stranded(mechanism):
    results, committed, accounted = run_with_outage(mechanism)
    assert committed
    assert committed - accounted == set()
    assert results.availability.queries_aborted > 0
