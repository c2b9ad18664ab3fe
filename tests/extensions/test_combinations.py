"""Every pair of mechanisms either runs or is rejected up front.

Each mechanism of :class:`~repro.model.system.DistributedDatabase` — and
the fault plan and open workload it runs under — is switched on in pairs.
A pair must complete queries with the same results digest on two runs,
or raise ``ValueError`` at construction.  Only updates under a fault plan
is rejected.
"""

import hashlib
import itertools
import json

import pytest

from repro.faults.plan import FaultPlan, MessageFaults, SiteOutage
from repro.model.config import paper_defaults
from repro.model.mechanisms import Mechanisms
from repro.model.replication import ReplicationMap
from repro.model.serialization import results_to_dict
from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy
from repro.workloads.arrivals import PoissonOpen
from repro.workloads.spec import AdmissionControl, WorkloadSpec

CONFIG = paper_defaults(num_sites=3, mpl=5)
REPLICATION = ReplicationMap.round_robin_k(3, num_items=6, copies=2)
FAULTS = FaultPlan(
    site_outages=(SiteOutage(site=1, at=150.0, duration=100.0),),
    messages=MessageFaults(loss_prob=0.05),
)
OPEN = WorkloadSpec(
    arrivals=PoissonOpen(rate=0.03), admission=AdmissionControl(max_pending=8)
)

#: mechanism -> ``Mechanisms`` fields (or the ``faults``/``workload``
#: constructor arguments) that switch it on
MECHANISMS = {
    "stale": {"refresh_interval": 25.0, "broadcast_cost": 0.5},
    "speeds": {"cpu_speed_factors": (2.0, 1.0, 0.5)},
    "updates": {"update_prob": 0.2},
    "replication": {"replication": REPLICATION},
    "migration": {"max_migrations": 2, "threshold": 1.1},
    "pipelines": {"replication": REPLICATION, "multi_prob": 0.5},
    "faults": {"faults": FAULTS},
    "open": {"workload": OPEN},
}
REJECTED = {("faults", "updates")}
PAIRS = sorted(tuple(sorted(pair)) for pair in itertools.combinations(MECHANISMS, 2))


def build(pair, policy="LERT"):
    kwargs = {}
    for name in pair:
        kwargs.update(MECHANISMS[name])
    return DistributedDatabase(
        CONFIG,
        make_policy(policy),
        seed=5,
        faults=kwargs.pop("faults", None),
        workload=kwargs.pop("workload", None),
        mechanisms=Mechanisms(**kwargs),
    )


def run_digest(pair):
    results = build(pair).run(50.0, 600.0)
    assert results.completions > 0
    payload = json.dumps(results_to_dict(results), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("pair", PAIRS, ids="+".join)
def test_pair_runs_or_is_rejected(pair):
    if pair in REJECTED:
        with pytest.raises(ValueError, match="fault plan"):
            build(pair)
        return
    assert run_digest(pair) == run_digest(pair)


def test_only_updates_under_faults_is_rejected():
    assert REJECTED <= set(PAIRS)
    assert len(REJECTED) == 1


def test_pipeline_stages_migrate_among_their_own_holders():
    system = build(("migration", "pipelines"))
    placements = []
    recost = system.policy.recost

    def spy(query, view, threshold=1.0):
        site = recost(query, view, threshold)
        placements.append((query.data_item, site))
        return site

    system.policy.recost = spy
    system.run(50.0, 600.0)
    assert system.distributed_queries > 0
    assert system.total_migrations > 0
    assert placements
    for item, site in placements:
        assert site in REPLICATION.holders(item)
