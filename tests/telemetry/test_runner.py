"""Tests for the top-level run facade (RunSpec / RunReport / execute / run)."""

import math

import pytest

import repro
from repro.experiments.runconfig import RunSettings
from repro.policies.registry import make_policy
from repro.runner import RunReport, RunSpec, run
from repro.telemetry.exporters import read_events_jsonl, read_timeline_csv, read_timeline_json
from repro.telemetry.session import TelemetryConfig

SPEC = RunSpec(
    warmup=50.0,
    duration=200.0,
    seed=11,
    telemetry=TelemetryConfig(sample_interval=50.0),
)


class TestRunSpec:
    def test_defaults_match_paper_settings(self):
        spec = RunSpec()
        assert spec.warmup == 3000.0
        assert spec.duration == 15000.0
        assert spec.seed == 0
        assert spec.telemetry is None

    @pytest.mark.parametrize("warmup", [-1.0, math.inf, math.nan])
    def test_bad_warmup_rejected(self, warmup):
        with pytest.raises(ValueError):
            RunSpec(warmup=warmup)

    @pytest.mark.parametrize("duration", [0.0, -5.0, math.inf, math.nan])
    def test_bad_duration_rejected(self, duration):
        with pytest.raises(ValueError):
            RunSpec(duration=duration)

    def test_from_settings_uses_replication_seed(self):
        settings = RunSettings(
            warmup=10.0, duration=20.0, replications=3, base_seed=100
        )
        spec = RunSpec.from_settings(settings, replication=2)
        assert spec.warmup == 10.0
        assert spec.duration == 20.0
        assert spec.seed == settings.seed_for(2)
        assert spec.telemetry is None
        with_telemetry = RunSpec.from_settings(
            settings, telemetry=TelemetryConfig()
        )
        assert with_telemetry.telemetry == TelemetryConfig()


class TestRun:
    def test_policy_by_name_and_instance_agree(self, tiny_config):
        by_name = run(tiny_config, "BNQRD", SPEC)
        by_instance = run(tiny_config, make_policy("BNQRD"), SPEC)
        assert by_name.results == by_instance.results

    def test_without_telemetry_report_is_bare(self, tiny_config):
        report = run(tiny_config, "LOCAL", RunSpec(warmup=10.0, duration=50.0))
        assert report.events == ()
        assert report.timeline == ()
        assert report.summary == {}
        assert report.results.telemetry is None

    def test_with_telemetry_report_is_full(self, tiny_config):
        report = run(tiny_config, "LERT", SPEC)
        assert len(report.events) > 0
        assert len(report.timeline) > 0
        assert report.summary
        assert report.summary == dict(report.results.telemetry)

    def test_top_level_reexports(self):
        assert repro.run is run
        assert repro.RunSpec is RunSpec
        assert repro.RunReport is RunReport
        assert repro.TelemetryConfig is TelemetryConfig
        for name in ("run", "execute", "RunSpec", "RunReport",
                     "TelemetryConfig", "TelemetrySession", "EventBus"):
            assert name in repro.__all__


class TestResultsSerialization:
    def test_telemetry_field_round_trips(self, tiny_config):
        from repro.model.serialization import results_from_dict, results_to_dict

        report = run(tiny_config, "LERT", SPEC)
        restored = results_from_dict(results_to_dict(report.results))
        assert restored == report.results
        assert restored.telemetry == report.results.telemetry

    def test_pre_telemetry_records_are_rejected(self, tiny_config):
        from repro.model.config import ConfigError
        from repro.model.serialization import results_from_dict, results_to_dict

        bare = run(
            tiny_config, "LOCAL", RunSpec(warmup=10.0, duration=50.0)
        ).results
        # Records written before the telemetry or faults field existed
        # lack its key; results_to_dict always writes both.
        for key in ("telemetry", "availability"):
            payload = results_to_dict(bare)
            payload.pop(key)
            with pytest.raises(ConfigError, match=key):
                results_from_dict(payload)


class TestRunReportExports:
    def test_write_events(self, tiny_config, tmp_path):
        report = run(tiny_config, "LERT", SPEC)
        path = report.write_events(tmp_path / "events.jsonl")
        assert read_events_jsonl(path) == report.events

    def test_write_timeline_csv_and_json(self, tiny_config, tmp_path):
        report = run(tiny_config, "LERT", SPEC)
        csv_path = report.write_timeline(tmp_path / "timeline.csv")
        json_path = report.write_timeline(tmp_path / "timeline.json", fmt="json")
        assert read_timeline_csv(csv_path) == report.timeline
        assert read_timeline_json(json_path) == report.timeline

    def test_unknown_timeline_format_rejected(self, tiny_config, tmp_path):
        report = run(tiny_config, "LOCAL", RunSpec(warmup=10.0, duration=50.0))
        with pytest.raises(ValueError, match="unknown timeline format"):
            report.write_timeline(tmp_path / "timeline.xml", fmt="xml")
