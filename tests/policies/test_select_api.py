"""The policy API: ``select(query, view)`` is the one entry point."""

import pytest

from repro.model.query import make_query
from repro.model.system import DistributedDatabase
from repro.policies.base import AllocationPolicy
from repro.policies.registry import available_policies, make_policy


def _query(config, home_site=0):
    return make_query(
        config, 0, home_site=home_site, estimated_reads=5.0, created_at=0.0, qid=1
    )


class TestPolicyApi:
    def test_every_registered_policy_overrides_select(self):
        for name in available_policies():
            policy = make_policy(name)
            assert type(policy).select is not AllocationPolicy.select, name

    def test_base_select_without_override_raises(self, tiny_config):
        policy = AllocationPolicy()
        system = DistributedDatabase(tiny_config, make_policy("LOCAL"), seed=5)
        with pytest.raises(NotImplementedError):
            policy.select(_query(tiny_config), system.view_for(0))


class TestViewDrivenSelection:
    def test_policies_skip_down_sites(self, tiny_config):
        """Every load-sharing policy only ever returns available sites."""
        from repro.faults.plan import FaultPlan, SiteOutage

        plan = FaultPlan(site_outages=(SiteOutage(1, 5.0, 1e6),), max_retries=5)
        for name in ("RANDOM", "BNQ", "BNQRD", "LERT", "SQ2", "THRESHOLD"):
            system = DistributedDatabase(
                tiny_config, make_policy(name), seed=6, faults=plan
            )
            system.sim.run(until=10.0)  # past the crash
            view = system.view_for(0)
            query = _query(tiny_config)
            for trial in range(20):
                chosen = system.policy.select(query, view)
                assert chosen != 1, name
