"""Determinism and non-interference regression tests for telemetry.

Three contracts:

* **byte-identical streams** — two runs with the same seed export the
  same JSONL event log and the same CSV timeline, byte for byte;
* **zero interference** — enabling telemetry does not change the
  simulation's results (exact equality, modulo the summary field);
* **cache invariance** — telemetry never leaks into the parallel
  backend's tasks or the result cache: cached results are telemetry-free
  and telemetry options cannot change cache keys.
"""

import dataclasses

from repro.experiments.cache import ResultCache
from repro.experiments.parallel import (
    ReplicationTask,
    RunProgress,
    replication_tasks,
    run_tasks,
)
from repro.experiments.runconfig import RunSettings
from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy
from repro.runner import RunSpec, execute, run
from repro.telemetry.exporters import events_to_jsonl, timeline_to_csv
from repro.telemetry.session import TelemetryConfig

SPEC = RunSpec(
    warmup=50.0,
    duration=200.0,
    seed=11,
    telemetry=TelemetryConfig(sample_interval=25.0),
)
SETTINGS = RunSettings(warmup=50.0, duration=200.0, replications=2, base_seed=11)


class TestByteIdenticalStreams:
    def test_same_seed_same_bytes(self, tiny_config):
        first = run(tiny_config, "LERT", SPEC)
        second = run(tiny_config, "LERT", SPEC)
        assert events_to_jsonl(first.events) == events_to_jsonl(second.events)
        assert timeline_to_csv(first.timeline) == timeline_to_csv(second.timeline)
        assert first.results == second.results

    def test_different_seed_different_stream(self, tiny_config):
        first = run(tiny_config, "LERT", SPEC)
        other = run(tiny_config, "LERT", dataclasses.replace(SPEC, seed=12))
        assert events_to_jsonl(first.events) != events_to_jsonl(other.events)


class TestZeroInterference:
    def test_results_identical_with_and_without_telemetry(self, tiny_config):
        bare = run(tiny_config, "LERT", dataclasses.replace(SPEC, telemetry=None))
        full = run(tiny_config, "LERT", SPEC)
        assert bare.results.telemetry is None
        assert full.results.telemetry is not None
        assert dataclasses.replace(full.results, telemetry=None) == bare.results
        assert bare.events == ()
        assert bare.timeline == ()

    def test_execute_matches_direct_run(self, tiny_config):
        direct = DistributedDatabase(tiny_config, make_policy("BNQ"), seed=3)
        expected = direct.run(warmup=50.0, duration=200.0)
        system = DistributedDatabase(tiny_config, make_policy("BNQ"), seed=3)
        report = execute(system, RunSpec(warmup=50.0, duration=200.0, seed=3))
        assert report.results == expected


class TestCacheInvariance:
    def test_cached_results_are_telemetry_free(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = replication_tasks(tiny_config, "LERT", SETTINGS)
        fresh = run_tasks(tasks, cache=cache)
        again = run_tasks(tasks, cache=cache)
        assert fresh == again
        for result in again:
            assert result.telemetry is None

    def test_task_keys_carry_no_telemetry_dimension(self, tiny_config):
        # ReplicationTask is the *complete* cache identity; RunSpec's
        # telemetry options have nowhere to enter it.
        task = ReplicationTask(tiny_config, "LERT", 11, 50.0, 200.0)
        assert "telemetry" not in ReplicationTask.__dataclass_fields__
        assert task.key() == ReplicationTask(tiny_config, "LERT", 11, 50.0, 200.0).key()

    def test_cached_and_telemetry_runs_agree(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = replication_tasks(
            tiny_config,
            "LERT",
            RunSettings(warmup=50.0, duration=200.0, replications=1, base_seed=11),
        )
        (cached,) = run_tasks(tasks, cache=cache)
        telemetered = run(tiny_config, "LERT", SPEC).results
        assert dataclasses.replace(telemetered, telemetry=None) == cached


class TestParallelEquivalence:
    def test_jobs_do_not_change_results(self, tiny_config):
        tasks = replication_tasks(tiny_config, "LERT", SETTINGS)
        serial = run_tasks(tasks, jobs=1)
        parallel = run_tasks(tasks, jobs=2)
        assert serial == parallel


class TestProgressReporting:
    def test_callback_sees_every_task(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = replication_tasks(tiny_config, "LERT", SETTINGS)
        ticks = []
        run_tasks(tasks, cache=cache, progress=ticks.append)
        assert len(ticks) >= 1
        assert all(isinstance(t, RunProgress) for t in ticks)
        assert ticks[-1].completed == len(tasks)
        assert ticks[-1].total == len(tasks)
        assert ticks[-1].cached == 0
        # Second pass: everything resolves from the cache.
        ticks.clear()
        run_tasks(tasks, cache=cache, progress=ticks.append)
        assert ticks[-1].completed == len(tasks)
        assert ticks[-1].cached == len(tasks)

    def test_progress_does_not_change_results(self, tiny_config):
        tasks = replication_tasks(tiny_config, "LERT", SETTINGS)
        quiet = run_tasks(tasks)
        noisy = run_tasks(tasks, progress=lambda tick: None)
        assert quiet == noisy
