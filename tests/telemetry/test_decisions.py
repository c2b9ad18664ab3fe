"""Unit and end-to-end tests for the allocation decision audit.

The load-bearing property: every stored record's ``cost_chosen`` /
``cost_best`` / ``best_site`` / ``regret`` can be recomputed from the
record's *own* raw fields (true loads, estimates, candidates) with the
public :func:`decision_cost` — the audit never needs live model state to
be checked.
"""

import dataclasses
import math

from repro.model.config import paper_defaults
from repro.model.mechanisms import Mechanisms
from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy
from repro.runner import RunSpec, run
from repro.telemetry.events import AllocationDecided
from repro.telemetry.session import TelemetryConfig, TelemetrySession
from repro.telemetry.tracing import (
    decision_cost,
    record_from_event,
    summarize_decisions,
)

SPEC = RunSpec(
    warmup=50.0,
    duration=300.0,
    seed=11,
    telemetry=TelemetryConfig(decisions=True),
)


def decided(**overrides) -> AllocationDecided:
    base = dict(
        time=10.0,
        qid=7,
        class_name="io",
        home_site=1,
        chosen_site=1,
        staleness=0.0,
        seen_loads="2,0,3",
        true_loads="2,1,3",
        candidates="0,1,2",
        est_service=4.0,
        est_transfer=0.25,
        est_return=0.5,
        attempt=0,
    )
    base.update(overrides)
    return AllocationDecided(**base)


class TestDecisionCost:
    def test_local_is_queue_scaled_service(self):
        assert decision_cost(3, 4.0, 0.25, 0.5, remote=False) == 16.0

    def test_remote_adds_both_hops(self):
        assert decision_cost(3, 4.0, 0.25, 0.5, remote=True) == 16.75

    def test_empty_queue_still_counts_self(self):
        assert decision_cost(0, 4.0, 0.0, 0.0, remote=False) == 4.0


class TestRecordFromEvent:
    def test_costs_match_brute_force(self):
        record = record_from_event(decided())
        # True loads (2, 1, 3), home 1: site 0 → 3*4+0.75, 1 → 2*4,
        # 2 → 4*4+0.75.  Best is home site 1 at cost 8.
        assert record.cost_chosen == 8.0
        assert record.best_site == 1
        assert record.cost_best == 8.0
        assert record.regret == 0.0
        assert record.optimal

    def test_regret_of_a_suboptimal_choice(self):
        record = record_from_event(decided(chosen_site=2))
        assert record.cost_chosen == 4 * 4.0 + 0.75
        assert record.cost_best == 8.0
        assert record.regret == record.cost_chosen - record.cost_best
        assert not record.optimal

    def test_ties_break_toward_lowest_site(self):
        event = decided(true_loads="2,2,2", est_transfer=0.0, est_return=0.0)
        record = record_from_event(event)
        assert record.best_site == 0

    def test_tie_break_is_order_independent(self):
        event = decided(
            true_loads="2,2,2",
            est_transfer=0.0,
            est_return=0.0,
            candidates="2,1,0",
        )
        assert record_from_event(event).best_site == 0

    def test_raw_fields_are_decoded(self):
        record = record_from_event(decided())
        assert record.seen_loads == (2, 0, 3)
        assert record.true_loads == (2, 1, 3)
        assert record.candidates == (0, 1, 2)


def audit_session(config) -> "tuple[DistributedDatabase, TelemetrySession]":
    """A system with a decisions-only session attached (not yet run)."""
    system = DistributedDatabase(config, make_policy("BNQRD"), seed=11)
    session = TelemetrySession(
        system, TelemetryConfig(events=False, decisions=True)
    )
    return system, session


class TestAuditCollection:
    def test_incremental_reads_see_later_events(self, tiny_config):
        system, session = audit_session(tiny_config)
        bus = system.sim.bus
        bus.emit(decided(qid=1))
        assert len(session.decisions) == 1
        bus.emit(decided(qid=2))
        assert [r.qid for r in session.decisions] == [1, 2]

    def test_close_stops_collection_and_is_idempotent(self, tiny_config):
        system, session = audit_session(tiny_config)
        bus = system.sim.bus
        bus.emit(decided(qid=1))
        session.close()
        session.close()
        bus.emit(decided(qid=2))
        assert [r.qid for r in session.decisions] == [1]

    def test_empty_summary_is_all_zero(self):
        summary = summarize_decisions(())
        assert summary.count == 0
        assert summary.optimal_fraction == 0.0


class TestRealRuns:
    def test_records_recompute_exactly(self, tiny_config):
        report = run(tiny_config, "BNQRD", SPEC)
        records = report.decisions
        assert records, "a real run must audit decisions"
        for record in records:
            cost_chosen = decision_cost(
                record.true_loads[record.chosen_site],
                record.est_service,
                record.est_transfer,
                record.est_return,
                remote=record.chosen_site != record.home_site,
            )
            assert record.cost_chosen == cost_chosen
            costs = {
                site: decision_cost(
                    record.true_loads[site],
                    record.est_service,
                    record.est_transfer,
                    record.est_return,
                    remote=site != record.home_site,
                )
                for site in record.candidates
            }
            best_site = min(record.candidates, key=lambda s: (costs[s], s))
            assert record.best_site == best_site
            assert record.cost_best == costs[best_site]
            assert record.regret == record.cost_chosen - record.cost_best
            assert record.regret >= 0.0

    def test_summary_matches_brute_force_aggregation(self, tiny_config):
        report = run(tiny_config, "BNQRD", SPEC)
        records = report.decisions
        summary = report.results.decisions
        assert summary is not None
        assert summary.count == len(records)
        assert summary.total_regret == math.fsum(r.regret for r in records)
        assert summary.mean_regret == summary.total_regret / summary.count
        assert summary.max_regret == max(r.regret for r in records)
        assert summary.mean_staleness == (
            math.fsum(r.staleness for r in records) / summary.count
        )
        assert summary.max_staleness == max(r.staleness for r in records)
        assert summary.optimal_fraction == (
            sum(1 for r in records if r.optimal) / summary.count
        )

    def test_audit_is_deterministic(self, tiny_config):
        first = run(tiny_config, "BNQRD", SPEC)
        second = run(tiny_config, "BNQRD", SPEC)
        assert first.decisions == second.decisions

    def test_audit_does_not_perturb_results(self, tiny_config):
        bare = run(
            tiny_config, "BNQRD", dataclasses.replace(SPEC, telemetry=None)
        )
        audited = run(tiny_config, "BNQRD", SPEC)
        assert (
            dataclasses.replace(audited.results, telemetry=None, decisions=None)
            == bare.results
        )

    def test_oracle_decisions_have_zero_staleness(self, tiny_config):
        report = run(tiny_config, "BNQRD", SPEC)
        assert all(r.staleness == 0.0 for r in report.decisions)
        assert all(r.seen_loads == r.true_loads for r in report.decisions)


class TestStaleness:
    def test_stale_views_surface_age_and_divergence(self):
        system = DistributedDatabase(
            paper_defaults(),
            make_policy("BNQRD"),
            seed=11,
            mechanisms=Mechanisms(refresh_interval=50.0),
        )
        session = TelemetrySession(
            system, TelemetryConfig(events=False, decisions=True)
        )
        system.run(warmup=100.0, duration=500.0)
        records = session.decisions
        assert records
        assert max(r.staleness for r in records) > 0.0
        assert all(r.staleness <= 50.0 for r in records)
        # Between refreshes the snapshot and the truth drift apart.
        assert any(r.seen_loads != r.true_loads for r in records)
