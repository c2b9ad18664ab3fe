"""Chaos determinism: the same ``(seed, FaultPlan)`` replays byte-identically.

These tests pin the headline guarantee of the fault layer:

* identical ``(seed, plan)`` pairs produce **equal** ``SystemResults``
  *and* byte-identical telemetry JSONL, serially and under the process
  pool;
* the empty :class:`FaultPlan` is a strict no-op — results are
  byte-identical to a run with no plan at all;
* the result cache separates faulted and faultless runs (and only
  those): a faulted run can never be answered from a faultless entry,
  while a no-op plan maps onto the faultless key.
"""

import dataclasses

import pytest

from repro.experiments.cache import ResultCache, cache_key
from repro.experiments.parallel import ReplicationTask, replication_tasks, run_tasks
from repro.experiments.runconfig import RunSettings
from repro.faults.plan import (
    FaultPlan,
    LoadBoardOutage,
    MessageFaults,
    RandomOutages,
    SiteOutage,
)
from repro.codec import from_dict, to_dict
from repro.model.serialization import results_from_dict, results_to_dict
from repro.runner import RunSpec, run
from repro.telemetry.exporters import events_to_jsonl
from repro.telemetry.session import TelemetryConfig

CHAOS = FaultPlan(
    site_outages=(SiteOutage(0, 120.0, 40.0),),
    random_outages=(RandomOutages(mtbf=500.0, mttr=25.0),),
    messages=MessageFaults(loss_prob=0.05, retransmit_timeout=2.0),
    loadboard_outages=(LoadBoardOutage(200.0, 50.0),),
    max_retries=10,
    retry_backoff=2.0,
)

SPEC = dict(warmup=50.0, duration=500.0, seed=1234)


def chaos_report(tiny_config, *, policy="BNQ", telemetry=None, plan=CHAOS, seed=1234):
    return run(
        tiny_config,
        policy,
        RunSpec(
            warmup=50.0,
            duration=500.0,
            seed=seed,
            telemetry=telemetry,
            faults=plan,
        ),
    )


class TestByteIdenticalReplay:
    def test_results_replay_identically(self, tiny_config):
        first = chaos_report(tiny_config).results
        second = chaos_report(tiny_config).results
        assert first == second  # frozen dataclass equality: every field

    def test_availability_replays_identically(self, tiny_config):
        first = chaos_report(tiny_config).results.availability
        second = chaos_report(tiny_config).results.availability
        assert first is not None
        assert first == second

    def test_telemetry_jsonl_is_byte_identical(self, tiny_config):
        config = TelemetryConfig(events=True)
        first = chaos_report(tiny_config, telemetry=config)
        second = chaos_report(tiny_config, telemetry=config)
        a = events_to_jsonl(first.events)
        b = events_to_jsonl(second.events)
        assert a == b
        assert "SiteCrashed" in a  # chaos really happened on the record

    def test_serialized_results_are_byte_identical(self, tiny_config):
        import json

        a = json.dumps(results_to_dict(chaos_report(tiny_config).results))
        b = json.dumps(results_to_dict(chaos_report(tiny_config).results))
        assert a == b

    def test_all_policies_replay(self, tiny_config):
        for policy in ("LOCAL", "RANDOM", "BNQ", "LERT"):
            first = chaos_report(tiny_config, policy=policy).results
            second = chaos_report(tiny_config, policy=policy).results
            assert first == second, policy

    def test_different_seed_diverges(self, tiny_config):
        a = chaos_report(tiny_config, seed=1).results
        b = chaos_report(tiny_config, seed=2).results
        assert a != b


class TestNoopPlanIsStrictNoop:
    def test_empty_plan_matches_no_plan(self, tiny_config):
        plain = run(tiny_config, "BNQ", RunSpec(**SPEC)).results
        noop = run(
            tiny_config, "BNQ", RunSpec(**SPEC, faults=FaultPlan())
        ).results
        assert noop == plain
        assert noop.availability is None  # normalized away entirely

    def test_noop_message_faults_match_no_plan(self, tiny_config):
        plain = run(tiny_config, "LERT", RunSpec(**SPEC)).results
        noop = run(
            tiny_config,
            "LERT",
            RunSpec(**SPEC, faults=FaultPlan(messages=MessageFaults())),
        ).results
        assert noop == plain

    def test_noop_plan_telemetry_matches_no_plan(self, tiny_config):
        config = TelemetryConfig(events=True)
        plain = run(
            tiny_config, "BNQ", RunSpec(**SPEC, telemetry=config)
        ).events
        noop = run(
            tiny_config,
            "BNQ",
            RunSpec(**SPEC, telemetry=config, faults=FaultPlan()),
        ).events
        assert events_to_jsonl(plain) == events_to_jsonl(noop)

    def test_settings_normalize_noop_to_none(self):
        settings = RunSettings(warmup=10.0, duration=20.0, faults=FaultPlan())
        assert settings.faults is None

    def test_task_normalizes_noop_to_none(self, tiny_config):
        task = ReplicationTask(
            config=tiny_config,
            policy="BNQ",
            seed=1,
            warmup=10.0,
            duration=20.0,
            faults=FaultPlan(),
        )
        assert task.faults is None


class TestParallelReplay:
    def test_jobs2_matches_serial(self, tiny_config):
        settings = RunSettings(
            warmup=50.0, duration=400.0, replications=2, faults=CHAOS
        )
        tasks = replication_tasks(tiny_config, "BNQ", settings)
        assert all(task.faults == CHAOS for task in tasks)
        serial = run_tasks(tasks, jobs=1)
        parallel = run_tasks(tasks, jobs=2)
        assert serial == parallel

    def test_faults_rejected_for_extension_kinds(self, tiny_config):
        # Updates are the one mechanism a fault plan cannot run under.
        with pytest.raises(ValueError, match="fault plan"):
            ReplicationTask(
                config=tiny_config,
                policy="BNQ",
                seed=1,
                warmup=10.0,
                duration=20.0,
                system_kind="updates",
                faults=CHAOS,
            )


class TestCacheSeparation:
    def test_faulted_key_differs_from_faultless(self, tiny_config):
        base = cache_key(tiny_config, "BNQ", seed=1, warmup=10.0, duration=20.0)
        faulted = cache_key(
            tiny_config, "BNQ", seed=1, warmup=10.0, duration=20.0, faults=CHAOS
        )
        assert base != faulted

    def test_none_faults_key_is_the_legacy_key(self, tiny_config):
        """``faults=None`` must hash exactly like the pre-faults payload,
        so existing cache archives stay addressable."""
        base = cache_key(tiny_config, "BNQ", seed=1, warmup=10.0, duration=20.0)
        explicit = cache_key(
            tiny_config, "BNQ", seed=1, warmup=10.0, duration=20.0, faults=None
        )
        assert base == explicit

    def test_different_plans_different_keys(self, tiny_config):
        a = cache_key(
            tiny_config, "BNQ", seed=1, warmup=10.0, duration=20.0, faults=CHAOS
        )
        b = cache_key(
            tiny_config,
            "BNQ",
            seed=1,
            warmup=10.0,
            duration=20.0,
            faults=dataclasses.replace(CHAOS, max_retries=3),
        )
        assert a != b

    def test_faulted_run_roundtrips_through_cache(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        settings = RunSettings(warmup=50.0, duration=400.0, faults=CHAOS)
        tasks = replication_tasks(tiny_config, "BNQ", settings)
        fresh = run_tasks(tasks, cache=cache)
        again = run_tasks(tasks, cache=cache)
        assert fresh == again
        assert fresh[0].availability is not None
        assert cache.stats.hits == len(tasks)

    def test_faultless_entry_never_answers_faulted_task(
        self, tiny_config, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        plain_settings = RunSettings(warmup=50.0, duration=400.0)
        plain = run_tasks(
            replication_tasks(tiny_config, "BNQ", plain_settings), cache=cache
        )
        faulted = run_tasks(
            replication_tasks(
                tiny_config, "BNQ", plain_settings.with_faults(CHAOS)
            ),
            cache=cache,
        )
        assert plain != faulted  # a cache mixup would make these equal
        assert faulted[0].availability is not None
        assert plain[0].availability is None


class TestPlanSerializationRoundTrip:
    def test_chaos_plan_roundtrips(self):
        assert from_dict(FaultPlan, to_dict(CHAOS)) == CHAOS

    def test_results_with_availability_roundtrip(self, tiny_config):
        results = chaos_report(tiny_config).results
        assert results.availability is not None
        restored = results_from_dict(results_to_dict(results))
        assert restored == results
