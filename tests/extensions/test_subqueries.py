"""Unit tests for the subquery-pipeline mechanism of DistributedDatabase."""

import pytest

from repro.model.mechanisms import Mechanisms
from repro.model.replication import ReplicationMap
from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy


def _replication(config, copies=2, items=8):
    return ReplicationMap.round_robin_k(config.num_sites, items, copies)


def pipelined(config, policy, replication, seed=0, multi_prob=0.5, **mechanisms):
    """A system that runs a *multi_prob* share of queries as pipelines."""
    return DistributedDatabase(
        config,
        policy,
        seed=seed,
        mechanisms=Mechanisms(
            replication=replication, multi_prob=multi_prob, **mechanisms
        ),
    )


class TestConstruction:
    def test_invalid_arguments(self, tiny_config):
        replication = _replication(tiny_config)
        with pytest.raises(ValueError):
            pipelined(
                tiny_config, make_policy("LERT"), replication, multi_prob=1.5
            )
        with pytest.raises(ValueError):
            pipelined(
                tiny_config, make_policy("LERT"), replication, subquery_count=1
            )

    def test_pipelines_need_a_replication_map(self, tiny_config):
        with pytest.raises(ValueError, match="replication map"):
            DistributedDatabase(
                tiny_config, make_policy("LERT"), mechanisms=Mechanisms(multi_prob=0.5)
            )

    def test_off_by_default(self, tiny_config):
        system = DistributedDatabase(
            tiny_config,
            make_policy("LERT"),
            mechanisms=Mechanisms(replication=_replication(tiny_config)),
        )
        assert system.mechanisms.multi_prob is None
        system.run(100.0, 500.0)
        assert system.distributed_queries == 0


class TestBehaviour:
    def test_zero_multi_prob_degenerates_to_partial_replication(self, tiny_config):
        replication = _replication(tiny_config)
        plain = DistributedDatabase(
            tiny_config,
            make_policy("LERT"),
            seed=1,
            mechanisms=Mechanisms(replication=replication),
        )
        staged = pipelined(
            tiny_config, make_policy("LERT"), replication, seed=1, multi_prob=0.0
        )
        rp = plain.run(200.0, 1200.0)
        rs = staged.run(200.0, 1200.0)
        assert staged.distributed_queries == 0
        assert staged.data_moves == 0
        # Same seed + no distributed queries: only the extra multi_prob
        # draw differs, which consumes one value from each query's private
        # stream — results stay in the same regime.
        assert rs.mean_waiting_time == pytest.approx(rp.mean_waiting_time, rel=0.5)

    def test_distributed_fraction_tracks_probability(self, tiny_config):
        system = pipelined(
            tiny_config,
            make_policy("LERT"),
            _replication(tiny_config),
            seed=2,
            multi_prob=0.4,
        )
        results = system.run(0.0, 3000.0)
        fraction = system.distributed_queries / results.completions
        assert fraction == pytest.approx(0.4, abs=0.06)

    def test_stages_run_only_at_holders(self, tiny_config):
        replication = _replication(tiny_config, copies=1)
        system = pipelined(
            tiny_config,
            make_policy("LERT"),
            replication,
            seed=3,
            multi_prob=1.0,
            subquery_count=2,
        )
        # With one copy per item, every stage's site is forced; the system
        # must still complete queries and count moves.
        results = system.run(200.0, 1500.0)
        assert results.completions > 20
        assert system.data_moves > 0

    def test_load_board_balanced_at_end(self, tiny_config):
        system = pipelined(
            tiny_config,
            make_policy("LERT"),
            _replication(tiny_config),
            seed=4,
            multi_prob=0.7,
            subquery_count=3,
        )
        system.run(200.0, 2000.0)
        population = tiny_config.num_sites * tiny_config.site.mpl
        assert 0 <= system.load_board.total_queries <= population

    def test_informed_allocation_still_wins_under_load(self, tiny_config):
        # The tiny fixture is nearly contention-free (waits < 1), where
        # transfers are pure overhead; shorten think time so there is load
        # worth balancing.
        loaded = tiny_config.with_site(think_time=15.0)
        waits = {}
        for name in ("LOCAL", "LERT"):
            system = pipelined(
                loaded,
                make_policy(name),
                _replication(loaded, copies=3),
                seed=5,
                multi_prob=0.5,
            )
            waits[name] = system.run(300.0, 2500.0).mean_waiting_time
        assert waits["LERT"] < waits["LOCAL"]

    def test_works_with_non_cost_policies(self, tiny_config):
        system = pipelined(
            tiny_config,
            make_policy("RANDOM"),
            _replication(tiny_config),
            seed=6,
            multi_prob=0.5,
        )
        results = system.run(100.0, 800.0)
        assert results.completions > 10

    def test_more_stages_more_moves(self, tiny_config):
        moves = {}
        for count in (2, 4):
            system = pipelined(
                tiny_config,
                make_policy("LERT"),
                _replication(tiny_config),
                seed=7,
                multi_prob=1.0,
                subquery_count=count,
            )
            system.run(100.0, 1200.0)
            moves[count] = system.data_moves
        assert moves[4] > moves[2]
