"""Tests for the content-addressed result cache.

Covers the ISSUE's cache contract: hits must avoid simulation entirely,
any single-field change to the run inputs must change the key, corrupt or
version-mismatched entries must degrade to misses (never crash) and be
rewritten, and writes must be atomic under concurrency.  Property tests
(hypothesis) pin down the content-addressing invariants: keys are
insensitive to dict insertion order and to no-op dataclass copies.
"""

import dataclasses
import json
import shutil
import threading

import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.experiments.cache import (
    CACHE_DIR_ENV,
    CacheStats,
    ResultCache,
    cache_key,
    canonical_json,
    default_cache_dir,
)
from repro.experiments.common import simulate
from repro.experiments.context import StudyContext
from repro.experiments.parallel import replication_tasks, run_tasks
from repro.experiments.runconfig import RunSettings
from repro.model.config import paper_defaults
from repro.model.metrics import SystemResults
from repro.sim.stats import IntervalEstimate

#: Short but real run settings for end-to-end cache tests.
SMALL = RunSettings(warmup=150.0, duration=600.0, replications=1, base_seed=42)
SMALL2 = RunSettings(warmup=150.0, duration=600.0, replications=2, base_seed=42)

#: A syntactically valid 64-hex-char key for direct store tests.
KEY = "ab" + "0" * 62


def fake_results(policy: str = "LOCAL", with_ci: bool = True) -> SystemResults:
    """A fully populated SystemResults without running a simulation."""
    ci = (
        IntervalEstimate(mean=1.5, half_width=0.25, confidence=0.9, batches=20)
        if with_ci
        else None
    )
    return SystemResults(
        policy=policy,
        mean_waiting_time=1.5,
        mean_response_time=12.5,
        fairness=0.2,
        waiting_by_class=(1.0, 2.0),
        normalized_by_class=(0.5, 1.5),
        subnet_utilization=0.3,
        cpu_utilization=0.6,
        disk_utilization=0.4,
        completions=1234,
        remote_fraction=0.25,
        measured_time=2000.0,
        waiting_ci=ci,
    )


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


# ----------------------------------------------------------------------
# Key derivation
# ----------------------------------------------------------------------


def _key(config=None, policy="LERT", **overrides):
    base = dict(
        seed=7, warmup=100.0, duration=500.0, system_kind="standard",
        system_kwargs=(),
    )
    base.update(overrides)
    return cache_key(config if config is not None else paper_defaults(), policy, **base)


class TestCacheKey:
    def test_is_hex_digest(self):
        key = _key()
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")

    def test_deterministic(self):
        assert _key() == _key()

    def test_equal_configs_equal_keys(self):
        assert _key(paper_defaults()) == _key(paper_defaults())

    @pytest.mark.parametrize(
        "change",
        [
            {"policy": "BNQ"},
            {"seed": 8},
            {"warmup": 101.0},
            {"duration": 501.0},
            {"system_kind": "stale"},
            {"system_kwargs": (("refresh_interval", 5.0),)},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_any_single_field_change_changes_key(self, change):
        assert _key(**change) != _key()

    def test_config_change_changes_key(self):
        assert _key(paper_defaults(num_sites=4)) != _key(paper_defaults())

    def test_nested_config_change_changes_key(self):
        cfg = paper_defaults()
        bumped = dataclasses.replace(
            cfg, site=dataclasses.replace(cfg.site, mpl=cfg.site.mpl + 1)
        )
        assert _key(bumped) != _key(cfg)

    def test_int_and_float_run_lengths_share_a_key(self):
        # RunSettings(warmup=20) == RunSettings(warmup=20.0): equal run
        # lengths must address the same cache entry.
        assert _key(warmup=20, duration=150) == _key(warmup=20.0, duration=150.0)

    def test_system_kwargs_order_irrelevant(self):
        forward = _key(system_kwargs=(("a", 1), ("b", 2.0)))
        backward = _key(system_kwargs=(("b", 2.0), ("a", 1)))
        assert forward == backward

    def test_task_key_matches_cache_key(self, tiny_config):
        task = replication_tasks(tiny_config, "BNQ", SMALL)[0]
        assert task.key() == cache_key(
            tiny_config,
            "BNQ",
            seed=SMALL.seed_for(0),
            warmup=SMALL.warmup,
            duration=SMALL.duration,
        )


class TestCacheKeyProperties:
    """Hypothesis pins: content addressing is structural, not incidental."""

    @given(
        mpl=st.integers(1, 50),
        think=st.floats(1.0, 500.0, allow_nan=False),
        seed=st.integers(0, 2**31),
    )
    @hyp_settings(max_examples=25, deadline=None)
    def test_noop_replace_preserves_key(self, mpl, think, seed):
        cfg = paper_defaults(mpl=mpl, think_time=think)
        clone = dataclasses.replace(cfg)
        assert cfg == clone
        assert _key(cfg, seed=seed) == _key(clone, seed=seed)

    @given(
        payload=st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(
                st.integers(),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=8),
                st.booleans(),
                st.none(),
            ),
            max_size=6,
        )
    )
    @hyp_settings(max_examples=50, deadline=None)
    def test_canonical_json_ignores_insertion_order(self, payload):
        reordered = dict(reversed(list(payload.items())))
        assert canonical_json(payload) == canonical_json(reordered)
        # And round-trips: the canonical form parses back to the payload.
        assert json.loads(canonical_json(payload)) == payload


# ----------------------------------------------------------------------
# Store behaviour
# ----------------------------------------------------------------------


class TestResultCacheStore:
    def test_round_trip(self, cache):
        result = fake_results()
        cache.put(KEY, result)
        assert cache.get(KEY) == result
        assert cache.stats.hits == 1
        assert cache.stats.writes == 1

    def test_round_trip_without_ci(self, cache):
        result = fake_results(with_ci=False)
        cache.put(KEY, result)
        got = cache.get(KEY)
        assert got == result
        assert got.waiting_ci is None

    def test_missing_key_is_miss(self, cache):
        assert cache.get(KEY) is None
        assert cache.stats.misses == 1
        assert cache.stats.errors == 0

    def test_contains(self, cache):
        assert KEY not in cache
        cache.put(KEY, fake_results())
        assert KEY in cache

    def test_two_level_sharding(self, cache):
        path = cache.path_for(KEY)
        assert path.parent.name == KEY[:2]
        assert path.name == f"{KEY}.json"

    def test_no_temp_files_left_behind(self, cache):
        cache.put(KEY, fake_results())
        entries = sorted(p.name for p in cache.path_for(KEY).parent.iterdir())
        assert entries == [f"{KEY}.json"]

    def test_repr_and_stats_str(self, cache):
        assert str(cache.root) in repr(cache)
        assert str(CacheStats(1, 2, 3, 4)) == "1 hits, 2 misses, 3 writes, 4 errors"


class TestCacheRobustness:
    """Corrupt / stale entries are misses, never crashes, and get rewritten."""

    def test_corrupt_entry_is_miss_then_rewritten(self, cache):
        result = fake_results()
        cache.put(KEY, result)
        cache.path_for(KEY).write_text("{not json", encoding="utf-8")
        assert cache.get(KEY) is None
        assert cache.stats.errors == 1
        cache.put(KEY, result)
        assert cache.get(KEY) == result

    def test_truncated_entry_is_miss(self, cache):
        cache.put(KEY, fake_results())
        path = cache.path_for(KEY)
        path.write_text(path.read_text(encoding="utf-8")[:40], encoding="utf-8")
        assert cache.get(KEY) is None

    def test_non_object_entry_is_miss(self, cache):
        path = cache.path_for(KEY)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("[]", encoding="utf-8")
        assert cache.get(KEY) is None
        assert cache.stats.errors == 1

    def test_version_mismatch_is_miss(self, cache, tmp_path):
        cache.put(KEY, fake_results())
        future = ResultCache(cache.root, version=cache.version + 1)
        assert future.get(KEY) is None
        assert future.stats.errors == 1
        # Old-versioned readers still see their own entry.
        assert cache.get(KEY) is not None

    def test_key_mismatch_is_miss(self, cache):
        """An entry copied to the wrong filename is rejected."""
        other = "cd" + "1" * 62
        cache.put(KEY, fake_results())
        target = cache.path_for(other)
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(cache.path_for(KEY), target)
        assert cache.get(other) is None
        assert cache.stats.errors == 1

    def test_malformed_result_payload_is_miss(self, cache):
        cache.put(KEY, fake_results())
        path = cache.path_for(KEY)
        data = json.loads(path.read_text(encoding="utf-8"))
        del data["result"]["policy"]
        path.write_text(json.dumps(data), encoding="utf-8")
        assert cache.get(KEY) is None


class TestCacheAtomicity:
    def test_concurrent_writers_and_readers(self, cache):
        """Hammering one key from several threads never corrupts it."""
        result = fake_results()
        cache.put(KEY, result)  # ensure readers always find something
        bad = []

        def hammer():
            for _ in range(25):
                cache.put(KEY, result)
                got = cache.get(KEY)
                if got != result:
                    bad.append(got)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert bad == []
        leftovers = [
            p for p in cache.path_for(KEY).parent.iterdir() if p.suffix == ".tmp"
        ]
        assert leftovers == []


# ----------------------------------------------------------------------
# Integration with the execution backend
# ----------------------------------------------------------------------


class TestCacheAvoidsSimulation:
    def test_hit_skips_system_run(self, tiny_config, cache, monkeypatch):
        """A cache hit must answer without constructing/running a system."""
        from repro.model.system import DistributedDatabase

        calls = {"n": 0}
        original = DistributedDatabase.run

        def counting_run(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(DistributedDatabase, "run", counting_run)
        task = replication_tasks(tiny_config, "LOCAL", SMALL)[0]
        first = run_tasks([task], cache=cache)
        assert calls["n"] == 1
        assert cache.stats.writes == 1
        second = run_tasks([task], cache=cache)
        assert calls["n"] == 1  # no new simulation
        assert cache.stats.hits == 1
        assert first == second

    def test_simulate_cached_equals_uncached(self, tiny_config, cache):
        fresh = simulate(tiny_config, "BNQ", SMALL2)
        warmed = simulate(tiny_config, "BNQ", SMALL2, StudyContext(cache=cache))
        assert cache.stats == CacheStats(hits=0, misses=2, writes=2, errors=0)
        cached = simulate(tiny_config, "BNQ", SMALL2, StudyContext(cache=cache))
        assert cache.stats.hits == 2
        assert fresh == warmed == cached

    def test_duplicate_tasks_write_once(self, tiny_config, cache):
        task = replication_tasks(tiny_config, "LOCAL", SMALL)[0]
        run_tasks([task, task], cache=cache)
        assert cache.stats.writes == 1


# ----------------------------------------------------------------------
# Default directory
# ----------------------------------------------------------------------


class TestDefaultCacheDir:
    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"

    def test_fallback_under_home(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        path = default_cache_dir()
        assert path.parts[-3:] == (".cache", "repro", "results")
