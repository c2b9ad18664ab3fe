"""Unit tests for partial replication (the candidate-site map)."""

import pytest

from repro.faults.plan import FaultPlan, MessageFaults, SiteOutage
from repro.model.mechanisms import Mechanisms
from repro.model.replication import ReplicationMap
from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy
from repro.runner import RunSpec, execute
from repro.workloads.arrivals import PoissonOpen
from repro.workloads.spec import AdmissionControl, WorkloadSpec


def _partial(config, policy, replication, seed=0, **mechanisms):
    return DistributedDatabase(
        config,
        policy,
        seed=seed,
        mechanisms=Mechanisms(replication=replication, **mechanisms),
    )


class TestReplicationMap:
    def test_full(self):
        replication = ReplicationMap.full(4, num_items=3)
        assert replication.num_items == 3
        assert replication.holders(0) == (0, 1, 2, 3)
        assert replication.mean_copies == 4.0

    def test_random_k_properties(self):
        replication = ReplicationMap.random_k(6, num_items=20, copies=3, seed=1)
        assert replication.num_items == 20
        for item in range(20):
            holders = replication.holders(item)
            assert len(holders) == 3
            assert len(set(holders)) == 3

    def test_random_k_deterministic_by_seed(self):
        a = ReplicationMap.random_k(6, 10, 2, seed=5)
        b = ReplicationMap.random_k(6, 10, 2, seed=5)
        assert a.placement == b.placement

    def test_round_robin_balances_sites(self):
        replication = ReplicationMap.round_robin_k(4, num_items=8, copies=2)
        per_site = [0] * 4
        for item in range(8):
            for holder in replication.holders(item):
                per_site[holder] += 1
        assert len(set(per_site)) == 1  # perfectly balanced

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicationMap(2, ())
        with pytest.raises(ValueError):
            ReplicationMap(2, ((),))
        with pytest.raises(ValueError):
            ReplicationMap(2, ((0, 0),))
        with pytest.raises(ValueError):
            ReplicationMap(2, ((5,),))
        with pytest.raises(ValueError):
            ReplicationMap.random_k(4, 2, copies=5)


class TestPartialReplicationDatabase:
    def test_rejects_mismatched_map(self, tiny_config):
        replication = ReplicationMap.full(5)
        with pytest.raises(ValueError):
            _partial(
                tiny_config, make_policy("LERT"), replication
            )

    def test_queries_only_run_at_holders(self, tiny_config):
        replication = ReplicationMap.round_robin_k(
            tiny_config.num_sites, num_items=6, copies=2
        )
        system = _partial(
            tiny_config, make_policy("LERT"), replication, seed=1
        )
        violations = []
        original_record = system.metrics.record

        def spy(query):
            if query.execution_site not in replication.holders(query.data_item):
                violations.append(query.qid)
            original_record(query)

        system.metrics.record = spy
        results = system.run(warmup=100.0, duration=800.0)
        assert results.completions > 30
        assert violations == []

    def test_every_policy_works_restricted(self, tiny_config):
        replication = ReplicationMap.round_robin_k(
            tiny_config.num_sites, num_items=6, copies=1
        )
        for name in ("LOCAL", "RANDOM", "BNQ", "LERT"):
            system = _partial(
                tiny_config, make_policy(name), replication, seed=2
            )
            results = system.run(warmup=100.0, duration=500.0)
            assert results.completions > 0, name

    def test_single_copy_forces_placement(self, tiny_config):
        replication = ReplicationMap(
            tiny_config.num_sites,
            tuple((1,) for _ in range(4)),  # everything lives on site 1
        )
        system = _partial(
            tiny_config, make_policy("LERT"), replication, seed=3
        )
        seen_sites = set()
        original_record = system.metrics.record

        def spy(query):
            seen_sites.add(query.execution_site)
            original_record(query)

        system.metrics.record = spy
        system.run(warmup=50.0, duration=400.0)
        assert seen_sites == {1}

    def test_item_weights_skew_access(self, tiny_config):
        replication = ReplicationMap.full(tiny_config.num_sites, num_items=2)
        system = _partial(
            tiny_config,
            make_policy("LOCAL"),
            replication,
            seed=4,
            item_weights=(0.9, 0.1),
        )
        items = []
        original_record = system.metrics.record

        def spy(query):
            items.append(query.data_item)
            original_record(query)

        system.metrics.record = spy
        system.run(warmup=0.0, duration=1500.0)
        assert items
        hot_fraction = items.count(0) / len(items)
        assert hot_fraction > 0.75

    def test_invalid_item_weights(self, tiny_config):
        replication = ReplicationMap.full(tiny_config.num_sites, num_items=2)
        with pytest.raises(ValueError):
            _partial(
                tiny_config,
                make_policy("LOCAL"),
                replication,
                item_weights=(1.0,),
            )
        with pytest.raises(ValueError):
            _partial(
                tiny_config,
                make_policy("LOCAL"),
                replication,
                item_weights=(-1.0, 2.0),
            )

    def test_item_weights_need_a_map(self, tiny_config):
        with pytest.raises(ValueError):
            DistributedDatabase(
                tiny_config,
                make_policy("LOCAL"),
                mechanisms=Mechanisms(item_weights=(1.0, 1.0)),
            )

    def test_more_copies_do_not_hurt(self, tiny_config):
        # Same workload, more freedom: 3 copies should beat 1 copy.
        waits = {}
        for copies in (1, 3):
            replication = ReplicationMap.round_robin_k(
                tiny_config.num_sites, num_items=6, copies=copies
            )
            system = _partial(
                tiny_config, make_policy("LERT"), replication, seed=5
            )
            waits[copies] = system.run(300.0, 2000.0).mean_waiting_time
        assert waits[3] < waits[1] * 1.05


class TestWithFaultsAndOpenWorkloads:
    """The candidate-site map composes with fault plans and open arrivals."""

    PLAN = FaultPlan(
        site_outages=(SiteOutage(site=1, at=150.0, duration=100.0),),
        messages=MessageFaults(loss_prob=0.05),
    )
    OPEN = WorkloadSpec(
        arrivals=PoissonOpen(rate=0.05), admission=AdmissionControl(max_pending=8)
    )

    def _report(self, config, spec, **mechanisms):
        replication = ReplicationMap.round_robin_k(config.num_sites, 6, copies=2)
        system = DistributedDatabase(
            config,
            make_policy("LERT"),
            seed=spec.seed,
            workload=spec.workload,
            mechanisms=Mechanisms(replication=replication, **mechanisms),
        )
        violations = []
        original_record = system.metrics.record

        def spy(query):
            if query.execution_site not in replication.holders(query.data_item):
                violations.append(query.qid)
            original_record(query)

        system.metrics.record = spy
        results = execute(system, spec).results
        assert violations == []
        return results

    def test_under_a_fault_plan(self, tiny_config):
        spec = RunSpec(warmup=50.0, duration=600.0, seed=7, faults=self.PLAN)
        first = self._report(tiny_config, spec)
        assert first.completions > 0
        assert first.availability is not None
        assert first == self._report(tiny_config, spec)

    def test_under_an_open_workload(self, tiny_config):
        spec = RunSpec(warmup=50.0, duration=600.0, seed=7, workload=self.OPEN)
        first = self._report(tiny_config, spec)
        assert first.completions > 0
        assert first.workload is not None
        assert first == self._report(tiny_config, spec)

    def test_every_mechanism_at_once(self, tiny_config):
        spec = RunSpec(warmup=50.0, duration=600.0, seed=7, workload=self.OPEN)
        results = self._report(
            tiny_config,
            spec,
            refresh_interval=25.0,
            cpu_speed_factors=(2.0, 1.0, 0.5),
            update_prob=0.2,
        )
        assert results.completions > 0
