"""Timeline-sampler cadence, exactness, and non-interference tests."""

import dataclasses
import math

import pytest

from repro.codec import from_dict, to_dict
from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy
from repro.telemetry.sampler import (
    TIMELINE_FIELDS,
    TimelineSample,
    TimelineSampler,
)
from repro.telemetry.session import TelemetryConfig, TelemetrySession

WARMUP = 50.0
DURATION = 200.0


def sampled_run(config, interval, *, warmup=WARMUP, duration=DURATION, seed=11):
    """Run a small system with a timeline sampler; return (results, sampler)."""
    system = DistributedDatabase(config, make_policy("LERT"), seed=seed)
    session = TelemetrySession(
        system, TelemetryConfig(events=False, sample_interval=interval)
    )
    results = system.run(warmup=warmup, duration=duration)
    session.close()
    assert session.sampler is not None
    return results, session.sampler, system


class TestCadence:
    def test_even_cadence_covers_warmup_to_end(self, tiny_config):
        _, sampler, _ = sampled_run(tiny_config, interval=50.0)
        # 50 divides 200: samples at 50, 100, 150, 200, 250.
        assert sampler.sample_times == (50.0, 100.0, 150.0, 200.0, 250.0)
        # One sample per site per instant.
        assert len(sampler.samples) == 5 * tiny_config.num_sites

    def test_baseline_sample_at_warmup_boundary_is_zeroed(self, tiny_config):
        _, sampler, _ = sampled_run(tiny_config, interval=50.0)
        baseline = [s for s in sampler.samples if s.time == WARMUP]
        assert len(baseline) == tiny_config.num_sites
        for sample in baseline:
            # Post-reset busy integrals and a zero-length interval.
            assert sample.cpu_busy == 0.0
            assert sample.disk_busy == 0.0
            assert sample.cpu_utilization == 0.0
            assert sample.disk_utilization == 0.0
            assert sample.staleness == 0.0

    def test_uneven_interval_still_ends_exactly_at_end(self, tiny_config):
        # 80 does not divide 200; the last interval is truncated.
        _, sampler, _ = sampled_run(tiny_config, interval=80.0)
        assert sampler.sample_times == (50.0, 130.0, 210.0, 250.0)

    def test_interval_longer_than_duration(self, tiny_config):
        # A single (truncated) interval: baseline + final sample only.
        _, sampler, _ = sampled_run(tiny_config, interval=10_000.0)
        assert sampler.sample_times == (50.0, 250.0)

    def test_no_drift_for_many_ticks(self, tiny_config):
        _, sampler, _ = sampled_run(tiny_config, interval=7.0)
        times = sampler.sample_times
        assert times[0] == 50.0
        assert times[-1] == 250.0
        for tick, time in enumerate(times[:-1]):
            assert time == 50.0 + tick * 7.0  # exact, not approximate

    def test_zero_warmup_baseline_at_time_zero(self, tiny_config):
        _, sampler, _ = sampled_run(tiny_config, interval=100.0, warmup=0.0)
        assert sampler.sample_times[0] == 0.0
        assert sampler.sample_times[-1] == DURATION


class TestExactness:
    def test_sampled_utilizations_integrate_to_results(self, tiny_config):
        results, sampler, system = sampled_run(tiny_config, interval=30.0)
        per_site_cpu = []
        per_site_disk = []
        for index, site in enumerate(system.sites):
            cpu, disk = sampler.integrated_utilization(index)
            assert cpu == pytest.approx(site.cpu_utilization, rel=1e-9, abs=1e-12)
            assert disk == pytest.approx(site.disk_utilization, rel=1e-9, abs=1e-12)
            per_site_cpu.append(cpu)
            per_site_disk.append(disk)
        # And therefore to the run's reported (site-averaged) figures.
        mean_cpu = math.fsum(per_site_cpu) / len(per_site_cpu)
        mean_disk = math.fsum(per_site_disk) / len(per_site_disk)
        assert mean_cpu == pytest.approx(results.cpu_utilization, rel=1e-2)
        assert mean_disk == pytest.approx(results.disk_utilization, rel=1e-2)

    def test_busy_integral_telescopes(self, tiny_config):
        _, sampler, _ = sampled_run(tiny_config, interval=40.0)
        rows = [s for s in sampler.samples if s.site == 0]
        for prev, cur in zip(rows, rows[1:]):
            dt = cur.time - prev.time
            assert cur.cpu_utilization * dt == pytest.approx(
                cur.cpu_busy - prev.cpu_busy, rel=1e-12, abs=1e-12
            )

    def test_sampling_does_not_perturb_results(self, tiny_config):
        plain = DistributedDatabase(tiny_config, make_policy("LERT"), seed=11)
        baseline = plain.run(warmup=WARMUP, duration=DURATION)
        sampled_results, _, _ = sampled_run(tiny_config, interval=13.0)
        assert dataclasses.replace(sampled_results, telemetry=None) == baseline


class TestValidation:
    def test_interval_must_be_positive_finite(self, tiny_config):
        system = DistributedDatabase(tiny_config, make_policy("LOCAL"), seed=1)
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                TimelineSampler(system, bad)

    def test_start_twice_rejected(self, tiny_config):
        system = DistributedDatabase(tiny_config, make_policy("LOCAL"), seed=1)
        sampler = TimelineSampler(system, 10.0)
        sampler.start(end_time=100.0)
        with pytest.raises(ValueError, match="already started"):
            sampler.start(end_time=100.0)

    def test_end_before_now_rejected(self, tiny_config):
        system = DistributedDatabase(tiny_config, make_policy("LOCAL"), seed=1)
        system.run(warmup=0.0, duration=50.0)
        sampler = TimelineSampler(system, 10.0)
        with pytest.raises(ValueError, match="before now"):
            sampler.start(end_time=10.0)


class TestSampleRecords:
    def test_dict_round_trip(self):
        sample = TimelineSample(
            time=50.0,
            site=1,
            cpu_queue=2,
            disk_queue=3,
            cpu_busy=12.5,
            disk_busy=20.25,
            cpu_utilization=0.25,
            disk_utilization=0.405,
            load_io=1,
            load_cpu=2,
            staleness=0.0,
        )
        payload = to_dict(sample)
        assert tuple(payload) == TIMELINE_FIELDS
        restored = from_dict(TimelineSample, payload)
        assert restored == sample
        assert isinstance(restored.cpu_queue, int)

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing field"):
            from_dict(TimelineSample, {"time": 1.0})
