"""Unit tests for the SelectSite loop (paper Figure 3 semantics).

Uses a stub system so site costs can be scripted exactly.
"""

import pytest

from repro.model.config import paper_defaults
from repro.model.query import make_query
from repro.model.view import SystemView
from repro.policies.base import CostBasedPolicy
from repro.policies.local import LocalPolicy


class StubSystem:
    """Minimal system facade: config + candidate sites."""

    def __init__(self, num_sites=4):
        self.config = paper_defaults(num_sites=num_sites)
        self._candidates = None

    def candidate_sites(self, query):
        if self._candidates is not None:
            return self._candidates
        return range(self.config.num_sites)


class ScriptedPolicy(CostBasedPolicy):
    """Costs come from a dict; records the order sites were probed."""

    name = "SCRIPTED"

    def __init__(self, costs):
        super().__init__()
        self.costs = costs
        self.probes = []

    def site_cost(self, query, site):
        self.probes.append(site)
        return self.costs[site]


def _query(system):
    return make_query(system.config, 0, home_site=0, estimated_reads=5.0, created_at=0.0)


class TestFigure3Semantics:
    def test_picks_global_minimum(self):
        system = StubSystem()
        policy = ScriptedPolicy({0: 5.0, 1: 3.0, 2: 1.0, 3: 4.0})
        policy.bind(system)
        assert policy.select(_query(system), SystemView(system, 0)) == 2

    def test_arrival_site_wins_ties(self):
        # Strict < in Figure 3: equal-cost remote sites never displace home.
        system = StubSystem()
        policy = ScriptedPolicy({0: 2.0, 1: 2.0, 2: 2.0, 3: 2.0})
        policy.bind(system)
        for _ in range(8):
            assert policy.select(_query(system), SystemView(system, 0)) == 0

    def test_remote_ties_rotate_round_robin(self):
        # Two equally attractive remote sites should both get picked over a
        # sequence of decisions thanks to the rotating scan start.
        system = StubSystem()
        policy = ScriptedPolicy({0: 9.0, 1: 1.0, 2: 1.0, 3: 9.0})
        policy.bind(system)
        picks = {policy.select(_query(system), SystemView(system, 0)) for _ in range(8)}
        assert picks == {1, 2}

    def test_arrival_site_probed_first(self):
        system = StubSystem()
        policy = ScriptedPolicy({0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0})
        policy.bind(system)
        policy.select(_query(system), SystemView(system, 2))
        assert policy.probes[0] == 2

    def test_candidate_restriction(self):
        system = StubSystem()
        system._candidates = (1, 3)
        policy = ScriptedPolicy({0: 0.0, 1: 5.0, 2: 0.0, 3: 4.0})
        policy.bind(system)
        # Sites 0 and 2 are cheapest but not candidates.
        assert policy.select(_query(system), SystemView(system, 0)) == 3

    def test_arrival_not_candidate(self):
        system = StubSystem()
        system._candidates = (1, 2)
        policy = ScriptedPolicy({1: 7.0, 2: 4.0})
        policy.bind(system)
        assert policy.select(_query(system), SystemView(system, 0)) == 2

    def test_single_candidate_short_circuit(self):
        system = StubSystem()
        system._candidates = [0]
        policy = ScriptedPolicy({})
        policy.bind(system)
        assert policy.select(_query(system), SystemView(system, 0)) == 0
        assert policy.probes == []  # no cost evaluation needed

    def test_no_candidates_raises(self):
        system = StubSystem()
        system._candidates = ()
        policy = ScriptedPolicy({})
        policy.bind(system)
        with pytest.raises(RuntimeError):
            policy.select(_query(system), SystemView(system, 0))

    def test_unbound_policy_raises(self):
        policy = ScriptedPolicy({})
        with pytest.raises(RuntimeError):
            _ = policy.loads


class TestRecost:
    """``recost``: the mid-life-cycle placement shared by stages and migration."""

    def _recost(self, costs, arrival=1, threshold=1.0, candidates=None):
        system = StubSystem()
        system._candidates = candidates
        policy = ScriptedPolicy(costs)
        policy.bind(system)
        site = policy.recost(_query(system), SystemView(system, arrival), threshold)
        return site, policy

    def test_scans_in_order_without_rotating(self):
        site, policy = self._recost({0: 3.0, 1: 4.0, 2: 1.0, 3: 1.0})
        assert site == 2  # the first of two equal minima
        assert policy.probes == [1, 0, 2, 3]
        assert policy._scan_offset == 0

    def test_arrival_site_wins_ties(self):
        site, _ = self._recost({0: 2.0, 1: 2.0, 2: 2.0, 3: 2.0})
        assert site == 1

    def test_threshold_is_hysteresis(self):
        costs = {0: 3.0, 1: 4.0, 2: 3.5, 3: 9.0}
        assert self._recost(costs, threshold=1.25)[0] == 0
        assert self._recost(costs, threshold=1.5)[0] == 1

    def test_arrival_site_not_a_candidate(self):
        site, _ = self._recost(
            {0: 5.0, 2: 7.0, 3: 6.0}, candidates=(2, 3), threshold=100.0
        )
        assert site == 3

    def test_policies_without_costs_return_none(self):
        system = StubSystem()
        policy = LocalPolicy()
        policy.bind(system)
        assert policy.recost(_query(system), SystemView(system, 0)) is None
