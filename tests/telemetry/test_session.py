"""TelemetrySession wiring tests: event logs, counters, merge, lifecycle."""

import pytest

from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy
from repro.telemetry import session as session_module
from repro.telemetry.events import (
    EVENT_TYPES,
    AllocationDecided,
    QueryCompleted,
    RunEnded,
    RunStarted,
    ServiceFinished,
    WarmupEnded,
)
from repro.telemetry.session import (
    LOGGED_EVENT_TYPES,
    TelemetryConfig,
    TelemetrySession,
)

WARMUP = 50.0
DURATION = 200.0


def make_system(config, seed=5, policy="LERT"):
    return DistributedDatabase(config, make_policy(policy), seed=seed)


class TestConfig:
    def test_defaults(self):
        config = TelemetryConfig()
        assert config.events
        assert config.sample_interval == 0.0
        assert not config.spans
        assert not config.decisions

    def test_validation(self):
        with pytest.raises(ValueError):
            TelemetryConfig(sample_interval=-1.0)


class TestEventCollection:
    def test_collects_lifecycle_and_query_events(self, tiny_config):
        system = make_system(tiny_config)
        with TelemetrySession(system) as session:
            results = system.run(warmup=WARMUP, duration=DURATION)
        names = [event.name for event in session.events]
        assert names[0] == "RunStarted"
        assert "WarmupEnded" in names
        assert names[-1] == "RunEnded"
        completions = [e for e in session.events if isinstance(e, QueryCompleted)]
        # Events from the warmup period are retained too; at least the
        # measured completions must be present.
        assert len(completions) >= results.completions
        started = next(e for e in session.events if isinstance(e, RunStarted))
        assert started.policy == "LERT"
        assert started.seed == 5
        assert started.warmup == WARMUP
        ended = next(e for e in session.events if isinstance(e, RunEnded))
        assert ended.completions == results.completions
        assert ended.time == WARMUP + DURATION

    def test_event_counters_match_log(self, tiny_config):
        system = make_system(tiny_config)
        with TelemetrySession(system) as session:
            system.run(warmup=WARMUP, duration=DURATION)
        summary = session.summary()
        for name in ("QueryCreated", "QueryAllocated", "QueryCompleted"):
            logged = sum(1 for e in session.events if e.name == name)
            assert summary[f"events.{name}"] == logged
            assert logged > 0
        assert summary["events.WarmupEnded"] == 1.0
        assert summary["events.RunEnded"] == 1.0

    def test_warmup_ended_orders_after_truncation(self, tiny_config):
        system = make_system(tiny_config)
        with TelemetrySession(system) as session:
            system.run(warmup=WARMUP, duration=DURATION)
        boundary = next(e for e in session.events if isinstance(e, WarmupEnded))
        assert boundary.time == WARMUP

    def test_events_disabled(self, tiny_config):
        system = make_system(tiny_config)
        with TelemetrySession(system, TelemetryConfig(events=False)) as session:
            system.run(warmup=WARMUP, duration=DURATION)
        assert session.events == ()
        # No event counters, but monitor bindings still report.
        summary = session.summary()
        assert not any(key.startswith("events.") for key in summary)
        assert "site.0.cpu.busy.avg" in summary


class TestRegistryBindings:
    def test_site_and_query_metrics_present(self, tiny_config):
        system = make_system(tiny_config)
        with TelemetrySession(system) as session:
            results = system.run(warmup=WARMUP, duration=DURATION)
        summary = session.summary()
        for index in range(tiny_config.num_sites):
            assert f"site.{index}.cpu.busy.avg" in summary
            assert f"site.{index}.cpu.queue.avg" in summary
            for disk in range(tiny_config.site.num_disks):
                assert f"site.{index}.disk.{disk}.busy.avg" in summary
        assert summary["queries.waiting.count"] == results.completions
        assert summary["queries.waiting.mean"] == pytest.approx(
            results.mean_waiting_time
        )

    def test_merge_folds_summary_into_results(self, tiny_config):
        system = make_system(tiny_config)
        with TelemetrySession(system) as session:
            results = system.run(warmup=WARMUP, duration=DURATION)
        merged = session.merge(results)
        assert merged.telemetry == tuple(session.summary().items())
        assert dict(merged.telemetry) == session.summary()
        # Everything else is untouched.
        assert merged.mean_waiting_time == results.mean_waiting_time

    def test_telemetry_pairs_carry_event_counts(self, tiny_config):
        system = make_system(tiny_config)
        with TelemetrySession(system) as session:
            results = system.run(warmup=WARMUP, duration=DURATION)
        pairs = session.merge(results).telemetry
        assert all(
            isinstance(name, str) and isinstance(value, float)
            for name, value in pairs
        )
        assert ("events.RunStarted", 1.0) in pairs
        assert ("events.RunEnded", 1.0) in pairs


class TestMonitorStats:
    def test_gauges_report_value_avg_max(self, tiny_config):
        system = make_system(tiny_config)
        with TelemetrySession(system) as session:
            system.run(warmup=WARMUP, duration=DURATION)
        summary = session.summary()
        for site in system.sites:
            for name, monitor in (
                (f"site.{site.index}.cpu.busy", site.cpu.busy),
                (f"site.{site.index}.disk.0.queue", site.disks[0].population),
            ):
                assert summary[f"{name}.value"] == float(monitor.value)
                assert summary[f"{name}.avg"] == float(monitor.time_average)
                assert summary[f"{name}.max"] == float(monitor.maximum)

    def test_only_a_session_integrates_queue_lengths(self, tiny_config):
        # Untraced, no station pays for a population monitor; a session
        # switches every one on before the run.
        untraced = make_system(tiny_config)
        untraced.run(warmup=WARMUP, duration=DURATION)
        stations = [
            station
            for site in untraced.sites
            for station in (site.cpu, *site.disks)
        ]
        assert stations and all(s.population is None for s in stations)
        traced = make_system(tiny_config)
        with TelemetrySession(traced):
            traced.run(warmup=WARMUP, duration=DURATION)
        assert all(
            station.population is not None
            for site in traced.sites
            for station in (site.cpu, *site.disks)
        )

    def test_tallies_report_min_max_once_observed(self, tiny_config):
        system = make_system(tiny_config)
        session = TelemetrySession(system, TelemetryConfig(events=False))
        before = session.summary()
        assert before["queries.waiting.count"] == 0.0
        assert before["queries.waiting.mean"] == 0.0
        assert before["queries.waiting.stdev"] == 0.0
        assert "queries.waiting.min" not in before
        assert "queries.waiting.max" not in before
        system.run(warmup=WARMUP, duration=DURATION)
        after = session.summary()
        tally = system.metrics.waiting
        assert after["queries.waiting.min"] == float(tally.minimum)
        assert after["queries.waiting.max"] == float(tally.maximum)

    def test_summary_is_flat_and_sorted(self, tiny_config):
        system = make_system(tiny_config)
        with TelemetrySession(system) as session:
            system.run(warmup=WARMUP, duration=DURATION)
        summary = session.summary()
        assert list(summary) == sorted(summary)
        assert all(type(value) is float for value in summary.values())
        assert summary["events.RunEnded"] == 1.0


class TestSubscriptions:
    @pytest.mark.parametrize("spans", [False, True])
    @pytest.mark.parametrize("decisions", [False, True])
    @pytest.mark.parametrize("events", [False, True])
    def test_only_named_types_are_wanted(self, tiny_config, events, spans, decisions):
        system = make_system(tiny_config)
        TelemetrySession(
            system,
            TelemetryConfig(events=events, spans=spans, decisions=decisions),
        )
        bus = system.sim.bus
        assert bus.wants(ServiceFinished) == spans
        assert bus.wants(AllocationDecided) == decisions
        if events:
            assert all(bus.wants(kind) for kind in LOGGED_EVENT_TYPES)

    def test_logged_types_are_all_but_the_opt_in_ones(self):
        opt_in = {ServiceFinished, AllocationDecided}
        assert set(LOGGED_EVENT_TYPES) == set(EVENT_TYPES) - opt_in

    def test_events_off_keeps_log_empty_with_spans_on(self, tiny_config):
        system = make_system(tiny_config)
        config = TelemetryConfig(events=False, spans=True, decisions=True)
        with TelemetrySession(system, config) as session:
            system.run(warmup=WARMUP, duration=DURATION)
        assert session.spans and session.decisions
        assert session.events == ()
        assert not any(key.startswith("events.") for key in session.summary())

    def test_counters_cover_the_opt_in_types_they_log(self, tiny_config):
        system = make_system(tiny_config)
        config = TelemetryConfig(events=True, spans=True, decisions=True)
        with TelemetrySession(system, config) as session:
            system.run(warmup=WARMUP, duration=DURATION)
        summary = session.summary()
        for kind in (ServiceFinished, AllocationDecided):
            logged = sum(1 for e in session.events if type(e) is kind)
            assert logged > 0
            assert summary[f"events.{kind.__name__}"] == logged

    def test_spans_and_decisions_are_assembled_once(self, tiny_config, monkeypatch):
        calls = []
        real = session_module.assemble_spans

        def counting(events):
            calls.append(len(events))
            return real(events)

        monkeypatch.setattr(session_module, "assemble_spans", counting)
        system = make_system(tiny_config)
        config = TelemetryConfig(events=True, spans=True, decisions=True)
        with TelemetrySession(system, config) as session:
            results = system.run(warmup=WARMUP, duration=DURATION)
        session.merge(results)
        assert session.spans is session.spans
        assert session.decisions is session.decisions
        session.summary()
        assert len(calls) == 1

    def test_each_event_is_buffered_once(self, tiny_config):
        system = make_system(tiny_config)
        config = TelemetryConfig(events=True, spans=True, decisions=True)
        with TelemetrySession(system, config) as session:
            system.run(warmup=WARMUP, duration=DURATION)
        assert len(session.events) == system.sim.bus.emitted


class TestLifecycle:
    def test_close_unsubscribes(self, tiny_config):
        system = make_system(tiny_config)
        session = TelemetrySession(system)
        assert system.sim.bus.active
        session.close()
        session.close()  # idempotent
        assert not system.sim.bus.active

    def test_events_survive_close(self, tiny_config):
        system = make_system(tiny_config)
        session = TelemetrySession(system)
        system.run(warmup=WARMUP, duration=DURATION)
        session.close()
        assert len(session.events) > 0
        assert session.summary()  # still readable

    def test_warmup_without_run_started_rejected(self, tiny_config):
        system = make_system(tiny_config)
        TelemetrySession(system, TelemetryConfig(sample_interval=10.0))
        with pytest.raises(ValueError, match="WarmupEnded seen without RunStarted"):
            system.sim.bus.emit(WarmupEnded(time=0.0))
