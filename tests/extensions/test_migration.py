"""Unit tests for the query-migration mechanism of DistributedDatabase."""

import hashlib
import json

import pytest

from repro.faults.plan import FaultPlan, SiteOutage
from repro.model.config import paper_defaults
from repro.model.mechanisms import Mechanisms
from repro.model.replication import ReplicationMap
from repro.model.serialization import results_to_dict
from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy


def migrating(config, policy, seed=0, faults=None, **mechanisms):
    """A system with migration on (``max_migrations=2`` unless given)."""
    mechanisms.setdefault("max_migrations", 2)
    return DistributedDatabase(
        config,
        make_policy(policy),
        seed=seed,
        faults=faults,
        mechanisms=Mechanisms(**mechanisms),
    )


def results_digest(results):
    text = json.dumps(results_to_dict(results), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestConstruction:
    def test_invalid_arguments(self, tiny_config):
        with pytest.raises(ValueError):
            migrating(tiny_config, "LERT", check_interval=0)
        with pytest.raises(ValueError):
            migrating(tiny_config, "LERT", threshold=0.9)
        with pytest.raises(ValueError):
            migrating(tiny_config, "LERT", max_migrations=-1)

    def test_off_by_default(self, tiny_config):
        system = DistributedDatabase(tiny_config, make_policy("LERT"), seed=1)
        assert system.mechanisms.max_migrations == 0
        system.run(warmup=100.0, duration=500.0)
        assert system.total_migrations == 0


class TestBehaviour:
    def test_migrations_happen_with_cost_based_policy(self, tiny_config):
        system = migrating(tiny_config, "LERT", seed=1, threshold=1.1)
        results = system.run(warmup=200.0, duration=1500.0)
        assert results.completions > 50
        assert system.total_migrations > 0

    def test_local_policy_never_migrates(self, tiny_config):
        # LOCAL is not cost-based: no cost function means no migration.
        system = migrating(tiny_config, "LOCAL", seed=1)
        system.run(warmup=200.0, duration=1000.0)
        assert system.total_migrations == 0

    def test_max_migrations_zero_disables(self, tiny_config):
        system = migrating(tiny_config, "LERT", seed=1, max_migrations=0)
        system.run(warmup=200.0, duration=1000.0)
        assert system.total_migrations == 0

    def test_max_migrations_zero_is_the_plain_system(self, tiny_config):
        off = migrating(tiny_config, "LERT", seed=1, threshold=1.1, max_migrations=0)
        plain = DistributedDatabase(tiny_config, make_policy("LERT"), seed=1)
        assert results_digest(off.run(200.0, 1000.0)) == results_digest(
            plain.run(200.0, 1000.0)
        )

    def test_huge_threshold_suppresses_migration(self, tiny_config):
        system = migrating(tiny_config, "LERT", seed=1, threshold=1000.0)
        system.run(warmup=200.0, duration=1000.0)
        assert system.total_migrations == 0

    def test_load_board_stays_consistent(self, tiny_config):
        system = migrating(tiny_config, "LERT", seed=2, threshold=1.1)
        system.run(warmup=200.0, duration=1500.0)
        population = tiny_config.num_sites * tiny_config.site.mpl
        assert 0 <= system.load_board.total_queries <= population

    def test_migration_does_not_hurt_much(self, tiny_config):
        # Conservative hysteresis should keep migration no worse than the
        # base system (common random numbers make this a paired test).
        base = DistributedDatabase(tiny_config, make_policy("LERT"), seed=3)
        w_base = base.run(300.0, 2000.0).mean_waiting_time
        w_migrating = migrating(tiny_config, "LERT", seed=3, threshold=1.5).run(
            300.0, 2000.0
        ).mean_waiting_time
        assert w_migrating < w_base * 1.25

    def test_query_migration_counter_bounded(self, tiny_config):
        system = migrating(
            tiny_config, "LERT", seed=4, threshold=1.05, max_migrations=2
        )
        collected = []
        original_record = system.metrics.record

        def spy(query):
            collected.append(query.migrations)
            original_record(query)

        system.metrics.record = spy
        system.run(warmup=0.0, duration=1500.0)
        assert collected, "no queries completed"
        assert max(collected) <= 2


def _spy_registrations(system):
    """Record ``(time, query, site)`` for every load-board registration."""
    seen = []
    original = system.load_board.register

    def register(query, site):
        seen.append((system.sim.now, query, site))
        original(query, site)

    system.load_board.register = register
    return seen


class TestEligibleTargets:
    def test_replication_map_limits_every_site_to_holders(self, tiny_config):
        replication = ReplicationMap.round_robin_k(
            tiny_config.num_sites, num_items=6, copies=2
        )
        system = migrating(
            tiny_config, "LERT", seed=5, threshold=1.05, replication=replication
        )
        seen = _spy_registrations(system)
        system.run(warmup=0.0, duration=1500.0)
        assert system.total_migrations > 0
        for _, query, site in seen:
            assert site in replication.holders(query.data_item)

    def test_fault_plan_limits_every_target_to_up_sites(self):
        config = paper_defaults()
        plan = FaultPlan(
            site_outages=(
                SiteOutage(site=0, at=300.0, duration=600.0),
                SiteOutage(site=2, at=700.0, duration=400.0),
            )
        )
        system = migrating(config, "LERT", seed=6, threshold=1.05, faults=plan)
        injector = system.fault_injector
        down = []
        original = system.load_board.register

        def register(query, site):
            if not injector.is_up(site):
                down.append((system.sim.now, query.qid, site))
            original(query, site)

        system.load_board.register = register
        system.run(warmup=0.0, duration=1500.0)
        assert system.total_migrations > 0
        assert injector.crashes == 2
        assert down == []
