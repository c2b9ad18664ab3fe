"""Unit tests for config and result serialization (through repro.codec)."""

import dataclasses
import json

import pytest

from repro.codec import from_dict, load, save, to_dict
from repro.model.config import ConfigError, NetworkSpec, SystemConfig, paper_defaults
from repro.model.metrics import SystemResults
from repro.model.serialization import results_from_dict, results_to_dict
from repro.experiments.common import AveragedResults
from repro.sim.stats import IntervalEstimate



def make_results(policy="LERT", fairness=0.15, with_ci=True):
    """A fully populated SystemResults for round-trip tests."""
    ci = (
        IntervalEstimate(mean=2.5, half_width=0.4, confidence=0.9, batches=16)
        if with_ci
        else None
    )
    return SystemResults(
        policy=policy,
        mean_waiting_time=2.5,
        mean_response_time=20.0,
        fairness=fairness,
        waiting_by_class=(1.5, 3.5),
        normalized_by_class=(0.4, 0.9),
        subnet_utilization=0.35,
        cpu_utilization=0.55,
        disk_utilization=0.45,
        completions=4321,
        remote_fraction=0.3,
        measured_time=2000.0,
        waiting_ci=ci,
    )


class TestRoundTrip:
    def test_paper_defaults_round_trip(self):
        config = paper_defaults()
        rebuilt = from_dict(SystemConfig, to_dict(config))
        assert rebuilt == config

    def test_linear_network_round_trip(self):
        config = dataclasses.replace(
            paper_defaults(),
            network=NetworkSpec(msg_length=None, msg_time=0.002, page_size=512),
        )
        rebuilt = from_dict(SystemConfig, to_dict(config))
        assert rebuilt == config
        assert rebuilt.network.msg_length is None

    def test_nondefault_everything(self, tiny_config):
        config = dataclasses.replace(
            tiny_config, disk_organization="shared", integer_reads=False
        )
        rebuilt = from_dict(SystemConfig, to_dict(config))
        assert rebuilt == config

    def test_dict_is_json_compatible(self):
        payload = json.dumps(to_dict(paper_defaults()))
        assert "num_sites" in payload


class TestFileIO:
    def test_save_and_load(self, tmp_path):
        config = paper_defaults(mpl=25)
        path = tmp_path / "config.json"
        save(config, path)
        assert load(SystemConfig, path) == config

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load(SystemConfig, path)


class TestValidation:
    def test_missing_key(self):
        data = to_dict(paper_defaults())
        del data["site"]
        with pytest.raises(ConfigError):
            from_dict(SystemConfig, data)

    def test_wrong_type(self):
        with pytest.raises(ConfigError):
            from_dict(SystemConfig, "not a dict")

    def test_unknown_version(self):
        data = to_dict(paper_defaults())
        data["format_version"] = SystemConfig.format_version + 1
        with pytest.raises(ConfigError):
            from_dict(SystemConfig, data)

    def test_invalid_values_rejected_by_dataclasses(self):
        data = to_dict(paper_defaults())
        data["site"]["num_disks"] = 0
        with pytest.raises(ConfigError):
            from_dict(SystemConfig, data)

    def test_defaults_for_optional_keys(self):
        data = to_dict(paper_defaults())
        del data["disk_organization"]
        del data["integer_reads"]
        rebuilt = from_dict(SystemConfig, data)
        assert rebuilt.disk_organization == "per_disk"
        assert rebuilt.integer_reads is True

    def test_unknown_key(self):
        data = to_dict(paper_defaults())
        data["site"]["num_disk"] = 3
        with pytest.raises(ConfigError, match="num_disk"):
            from_dict(SystemConfig, data)


class TestIntervalRoundTrip:
    def test_round_trip(self):
        estimate = IntervalEstimate(
            mean=1.25, half_width=0.5, confidence=0.95, batches=12
        )
        assert from_dict(IntervalEstimate, to_dict(estimate)) == estimate

    def test_wrong_type(self):
        with pytest.raises(ConfigError):
            from_dict(IntervalEstimate, "not a dict")

    def test_missing_key(self):
        data = to_dict(
            IntervalEstimate(mean=1.0, half_width=0.1, confidence=0.9, batches=5)
        )
        del data["half_width"]
        with pytest.raises(ConfigError):
            from_dict(IntervalEstimate, data)


class TestResultsRoundTrip:
    def test_round_trip_with_ci(self):
        results = make_results()
        rebuilt = results_from_dict(results_to_dict(results))
        assert rebuilt == results
        assert rebuilt.waiting_ci == results.waiting_ci

    def test_round_trip_without_ci(self):
        results = make_results(with_ci=False)
        rebuilt = results_from_dict(results_to_dict(results))
        assert rebuilt == results
        assert rebuilt.waiting_ci is None

    def test_round_trip_null_fairness(self):
        results = make_results(fairness=None)
        rebuilt = results_from_dict(results_to_dict(results))
        assert rebuilt == results
        assert rebuilt.fairness is None

    def test_survives_json_round_trip(self):
        """Exact float equality through actual JSON text (cache contract)."""
        results = make_results()
        data = json.loads(json.dumps(results_to_dict(results)))
        assert results_from_dict(data) == results

    def test_real_simulation_results_round_trip(self, tiny_config):
        from repro.experiments.common import simulate
        from repro.experiments.runconfig import RunSettings

        settings = RunSettings(
            warmup=150.0, duration=600.0, replications=1, base_seed=42
        )
        run = simulate(tiny_config, "LOCAL", settings).per_replication[0]
        data = json.loads(json.dumps(results_to_dict(run)))
        assert results_from_dict(data) == run

    def test_wrong_type(self):
        with pytest.raises(ConfigError):
            results_from_dict(["not", "a", "dict"])

    def test_unknown_version(self):
        data = results_to_dict(make_results())
        data["format_version"] = SystemResults.format_version + 1
        with pytest.raises(ConfigError):
            results_from_dict(data)

    def test_missing_key(self):
        data = results_to_dict(make_results())
        del data["mean_waiting_time"]
        with pytest.raises(ConfigError):
            results_from_dict(data)


class TestTracingSummariesRoundTrip:
    """`SystemResults.decisions` / `.spans` serialization (conditional)."""

    def _traced(self):
        from repro.telemetry.tracing import DecisionSummary, SpanSummary

        return dataclasses.replace(
            make_results(),
            decisions=DecisionSummary(
                count=7,
                mean_staleness=1.5,
                max_staleness=12.0,
                mean_regret=0.25,
                max_regret=3.5,
                total_regret=1.75,
                optimal_fraction=0.875,
            ),
            spans=SpanSummary(
                count=30,
                queries=7,
                unfinished=1,
                kinds=(("query", 7), ("queue", 7), ("service", 16)),
            ),
        )

    def test_round_trip_with_summaries(self):
        results = self._traced()
        rebuilt = results_from_dict(
            json.loads(json.dumps(results_to_dict(results)))
        )
        assert rebuilt == results
        assert rebuilt.decisions == results.decisions
        assert rebuilt.spans == results.spans

    def test_absent_keys_stay_absent(self):
        """Tracing-off payloads are byte-identical to pre-tracing ones."""
        data = results_to_dict(make_results())
        assert "decisions" not in data
        assert "spans" not in data
        rebuilt = results_from_dict(data)
        assert rebuilt.decisions is None
        assert rebuilt.spans is None

    def test_old_archives_still_load(self):
        """A payload written before the tracing fields deserializes."""
        data = results_to_dict(make_results())
        payload = json.loads(json.dumps(data))  # a frozen old archive
        assert results_from_dict(payload) == make_results()

    def test_summary_dict_helpers_round_trip(self):
        from repro.telemetry.tracing import DecisionSummary, SpanSummary

        traced = self._traced()
        assert (
            from_dict(DecisionSummary, to_dict(traced.decisions))
            == traced.decisions
        )
        assert from_dict(SpanSummary, to_dict(traced.spans)) == traced.spans

    def test_summary_missing_key_rejected(self):
        from repro.telemetry.tracing import DecisionSummary

        data = to_dict(self._traced().decisions)
        del data["total_regret"]
        with pytest.raises(ConfigError):
            from_dict(DecisionSummary, data)


class TestAveragedResultsRoundTrip:
    def _averaged(self):
        from repro.experiments.common import average_results

        runs = [make_results(), make_results(fairness=0.25, with_ci=False)]
        return average_results("LERT", runs)

    def test_round_trip(self):
        averaged = self._averaged()
        rebuilt = from_dict(AveragedResults, to_dict(averaged))
        assert rebuilt == averaged
        assert rebuilt.per_replication == averaged.per_replication

    def test_survives_json_round_trip(self):
        averaged = self._averaged()
        data = json.loads(json.dumps(to_dict(averaged)))
        assert from_dict(AveragedResults, data) == averaged

    def test_wrong_type(self):
        with pytest.raises(ConfigError):
            from_dict(AveragedResults, 17)

    def test_unknown_version(self):
        data = to_dict(self._averaged())
        data["format_version"] = SystemResults.format_version + 1
        with pytest.raises(ConfigError):
            from_dict(AveragedResults, data)

    def test_missing_key(self):
        data = to_dict(self._averaged())
        del data["per_replication"]
        with pytest.raises(ConfigError):
            from_dict(AveragedResults, data)
