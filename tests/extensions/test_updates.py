"""Unit tests for update queries and replica propagation."""

import pytest

from repro.faults.plan import FaultPlan, SiteOutage
from repro.model.mechanisms import Mechanisms
from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy


class TestConstruction:
    def test_invalid_arguments(self, tiny_config):
        with pytest.raises(ValueError):
            DistributedDatabase(
                tiny_config, make_policy("LERT"), mechanisms=Mechanisms(update_prob=1.5)
            )
        with pytest.raises(ValueError):
            DistributedDatabase(
                tiny_config,
                make_policy("LERT"),
                mechanisms=Mechanisms(update_prob=0.2, update_pages=0),
            )
        with pytest.raises(ValueError):
            DistributedDatabase(
                tiny_config,
                make_policy("LERT"),
                mechanisms=Mechanisms(update_prob=0.2, apply_cpu_time=0.0),
            )

    def test_read_only_by_default(self, tiny_config):
        system = DistributedDatabase(tiny_config, make_policy("LERT"), seed=1)
        assert system.mechanisms.update_prob is None
        system.run(100.0, 500.0)
        assert system.updates_executed == 0
        assert system.pending_applies == 0

    def test_rejected_under_a_fault_plan(self, tiny_config):
        plan = FaultPlan(site_outages=(SiteOutage(1, 50.0, 20.0),))
        with pytest.raises(ValueError, match="nothing resumes the apply process"):
            DistributedDatabase(
                tiny_config,
                make_policy("LERT"),
                faults=plan,
                mechanisms=Mechanisms(update_prob=0.2),
            )


class TestBehaviour:
    def test_zero_update_prob_matches_base_system(self, tiny_config):
        base = DistributedDatabase(tiny_config, make_policy("LERT"), seed=1)
        rb = base.run(200.0, 1000.0)
        updates = DistributedDatabase(
            tiny_config,
            make_policy("LERT"),
            seed=1,
            mechanisms=Mechanisms(update_prob=0.0),
        )
        ru = updates.run(200.0, 1000.0)
        assert updates.updates_executed == 0
        # The extra random() draw per query changes nothing else because
        # each query owns its private stream... except the draw itself, so
        # compare loosely.
        assert ru.mean_waiting_time == pytest.approx(rb.mean_waiting_time, rel=0.35)

    def test_updates_propagate_to_all_replicas(self, tiny_config):
        system = DistributedDatabase(
            tiny_config,
            make_policy("LERT"),
            seed=2,
            mechanisms=Mechanisms(update_prob=0.5),
        )
        system.run(200.0, 1500.0)
        assert system.updates_executed > 0
        expected_applies = system.updates_executed * (tiny_config.num_sites - 1)
        # Applies started equals updates * (sites - 1); a few may still be
        # in flight at the end of the run.
        assert system._applies_started == expected_applies
        assert 0 <= system.pending_applies <= expected_applies
        assert system.applies_completed > 0

    def test_update_fraction_tracks_probability(self, tiny_config):
        system = DistributedDatabase(
            tiny_config,
            make_policy("LOCAL"),
            seed=3,
            mechanisms=Mechanisms(update_prob=0.3),
        )
        results = system.run(0.0, 3000.0)
        fraction = system.updates_executed / results.completions
        assert fraction == pytest.approx(0.3, abs=0.05)

    def test_updates_increase_subnet_load(self, tiny_config):
        quiet = DistributedDatabase(
            tiny_config,
            make_policy("LERT"),
            seed=4,
            mechanisms=Mechanisms(update_prob=0.0),
        )
        loud = DistributedDatabase(
            tiny_config,
            make_policy("LERT"),
            seed=4,
            mechanisms=Mechanisms(update_prob=0.5),
        )
        u_quiet = quiet.run(200.0, 1200.0).subnet_utilization
        u_loud = loud.run(200.0, 1200.0).subnet_utilization
        assert u_loud > u_quiet

    def test_updates_slow_the_system(self, tiny_config):
        light = DistributedDatabase(
            tiny_config,
            make_policy("LERT"),
            seed=5,
            mechanisms=Mechanisms(update_prob=0.0),
        )
        heavy = DistributedDatabase(
            tiny_config,
            make_policy("LERT"),
            seed=5,
            mechanisms=Mechanisms(update_prob=0.6),
        )
        w_light = light.run(300.0, 2000.0).mean_waiting_time
        w_heavy = heavy.run(300.0, 2000.0).mean_waiting_time
        assert w_heavy > w_light

    def test_policy_ranking_survives_updates(self, tiny_config):
        waits = {}
        for policy in ("LOCAL", "LERT"):
            system = DistributedDatabase(
                tiny_config,
                make_policy(policy),
                seed=6,
                mechanisms=Mechanisms(update_prob=0.2),
            )
            waits[policy] = system.run(300.0, 2000.0).mean_waiting_time
        assert waits["LERT"] < waits["LOCAL"]
