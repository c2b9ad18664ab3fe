"""Unit tests for periodically refreshed (stale) load information."""

import pytest

from repro.model.loadboard import FrozenLoadView
from repro.model.mechanisms import Mechanisms
from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy


class TestConstruction:
    def test_zero_interval_uses_live_board(self, tiny_config):
        system = DistributedDatabase(
            tiny_config,
            make_policy("LERT"),
            seed=1,
            mechanisms=Mechanisms(refresh_interval=0.0),
        )
        assert system.load_view is system.load_board

    def test_positive_interval_uses_snapshot(self, tiny_config):
        system = DistributedDatabase(
            tiny_config,
            make_policy("LERT"),
            seed=1,
            mechanisms=Mechanisms(refresh_interval=10.0),
        )
        assert isinstance(system.load_view, FrozenLoadView)

    def test_invalid_arguments(self, tiny_config):
        with pytest.raises(ValueError):
            DistributedDatabase(
                tiny_config,
                make_policy("LERT"),
                mechanisms=Mechanisms(refresh_interval=-1.0),
            )
        with pytest.raises(ValueError):
            DistributedDatabase(
                tiny_config,
                make_policy("LERT"),
                mechanisms=Mechanisms(refresh_interval=50.0, broadcast_cost=-1.0),
            )


class TestRefreshBehaviour:
    def test_refresh_count_matches_interval(self, tiny_config):
        system = DistributedDatabase(
            tiny_config,
            make_policy("LERT"),
            seed=1,
            mechanisms=Mechanisms(refresh_interval=100.0),
        )
        system.run(warmup=0.0, duration=1000.0)
        assert system.refreshes == 10

    def test_view_is_replaced_on_refresh(self, tiny_config):
        system = DistributedDatabase(
            tiny_config,
            make_policy("LERT"),
            seed=1,
            mechanisms=Mechanisms(refresh_interval=50.0),
        )
        before = system.load_view
        system.run(warmup=0.0, duration=120.0)
        assert system.load_view is not before

    def test_broadcast_charges_the_ring(self, tiny_config):
        free = DistributedDatabase(
            tiny_config,
            make_policy("LOCAL"),
            seed=1,
            mechanisms=Mechanisms(refresh_interval=50.0),
        )
        free.run(warmup=0.0, duration=500.0)
        paid = DistributedDatabase(
            tiny_config,
            make_policy("LOCAL"),
            seed=1,
            mechanisms=Mechanisms(refresh_interval=50.0, broadcast_cost=0.5),
        )
        paid.run(warmup=0.0, duration=500.0)
        # LOCAL sends no queries; all traffic is control messages.
        assert free.ring.messages_delivered == 0
        assert paid.ring.messages_delivered > 0

    def test_fresh_beats_very_stale(self, tiny_config):
        fresh = DistributedDatabase(
            tiny_config,
            make_policy("LERT"),
            seed=2,
            mechanisms=Mechanisms(refresh_interval=0.0),
        )
        w_fresh = fresh.run(warmup=300.0, duration=1500.0).mean_waiting_time
        stale = DistributedDatabase(
            tiny_config,
            make_policy("LERT"),
            seed=2,
            mechanisms=Mechanisms(refresh_interval=500.0),
        )
        w_stale = stale.run(warmup=300.0, duration=1500.0).mean_waiting_time
        assert w_fresh < w_stale

    def test_zero_interval_matches_base_system(self, tiny_config):
        base = DistributedDatabase(tiny_config, make_policy("LERT"), seed=3)
        oracle = DistributedDatabase(
            tiny_config,
            make_policy("LERT"),
            seed=3,
            mechanisms=Mechanisms(refresh_interval=0.0),
        )
        rb = base.run(warmup=100.0, duration=500.0)
        ro = oracle.run(warmup=100.0, duration=500.0)
        assert rb.mean_waiting_time == ro.mean_waiting_time
