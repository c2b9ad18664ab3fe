"""Unit tests for per-site CPU speeds and the speed-aware LERT-HET."""

import pytest

from repro.model.mechanisms import Mechanisms
from repro.model.serialization import results_to_dict
from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy
from repro.runner import RunSpec, execute
from repro.telemetry.exporters import events_to_jsonl
from repro.telemetry.session import TelemetryConfig
from repro.telemetry.tracing.export import decisions_to_jsonl, spans_to_chrome_json


def _factors(config, slow=0.5, fast=2.0):
    half = config.num_sites // 2
    return [slow] * half + [fast] * (config.num_sites - half)


def _system(config, policy, factors, seed):
    return DistributedDatabase(
        config,
        make_policy(policy),
        seed=seed,
        mechanisms=Mechanisms(cpu_speed_factors=factors),
    )


class TestConstruction:
    def test_factor_count_must_match(self, tiny_config):
        with pytest.raises(ValueError):
            _system(tiny_config, "LERT", [1.0], seed=0)

    def test_factors_must_be_positive(self, tiny_config):
        with pytest.raises(ValueError):
            _system(tiny_config, "LERT", [1.0, 0.0, 1.0], seed=0)

    def test_factors_reach_the_sites(self, tiny_config):
        system = _system(tiny_config, "LERT", [2.0, 1.0, 0.5], seed=0)
        assert [site.cpu_speed for site in system.sites] == [2.0, 1.0, 0.5]


class TestBehaviour:
    def test_unit_factors_match_base_system(self, tiny_config):
        base = DistributedDatabase(tiny_config, make_policy("LERT"), seed=1)
        rb = base.run(200.0, 1200.0)
        het = _system(tiny_config, "LERT", [1.0] * tiny_config.num_sites, seed=1)
        rh = het.run(200.0, 1200.0)
        # Same seeds, same workload, same (unit) speeds: identical runs.
        assert rh.mean_waiting_time == pytest.approx(rb.mean_waiting_time)
        assert rh.completions == rb.completions

    def test_unit_factors_trace_like_base_system(self, tiny_config):
        """Speeds of 1.0 give the plain system's results, event stream and
        decision audit byte for byte (one life cycle serves both)."""
        spec = RunSpec(
            warmup=50.0,
            duration=500.0,
            seed=3,
            telemetry=TelemetryConfig(events=True, spans=True, decisions=True),
        )
        plain = execute(
            DistributedDatabase(tiny_config, make_policy("LERT"), seed=3), spec
        )
        unit = execute(
            _system(tiny_config, "LERT", [1.0] * tiny_config.num_sites, seed=3),
            spec,
        )
        assert plain.decisions and plain.spans
        assert results_to_dict(unit.results) == results_to_dict(plain.results)
        assert events_to_jsonl(unit.events) == events_to_jsonl(plain.events)
        assert decisions_to_jsonl(unit.decisions) == decisions_to_jsonl(
            plain.decisions
        )
        assert spans_to_chrome_json(unit.spans) == spans_to_chrome_json(plain.spans)

    def test_faster_fleet_responds_faster(self, tiny_config):
        slow = _system(tiny_config, "LOCAL", [1.0] * tiny_config.num_sites, seed=2)
        fast = _system(tiny_config, "LOCAL", [2.0] * tiny_config.num_sites, seed=2)
        rt_slow = slow.run(200.0, 1500.0).mean_response_time
        rt_fast = fast.run(200.0, 1500.0).mean_response_time
        assert rt_fast < rt_slow

    def test_local_hurt_by_heterogeneity(self, tiny_config):
        # LOCAL on a mixed fleet is worse than speed-aware allocation on
        # the same fleet.
        mixed = _system(tiny_config, "LOCAL", _factors(tiny_config), seed=3)
        rt_mixed_local = mixed.run(300.0, 1500.0).mean_response_time
        informed = _system(tiny_config, "LERT-HET", _factors(tiny_config), seed=3)
        rt_informed = informed.run(300.0, 1500.0).mean_response_time
        assert rt_informed < rt_mixed_local

    def test_lert_het_prefers_fast_sites(self, tiny_config):
        factors = [0.25] + [1.0] * (tiny_config.num_sites - 1)
        system = _system(tiny_config, "LERT-HET", factors, seed=5)
        executed_at = []
        original = system.metrics.record

        def spy(query):
            executed_at.append(query.execution_site)
            original(query)

        system.metrics.record = spy
        system.run(200.0, 1200.0)
        slow_share = executed_at.count(0) / len(executed_at)
        # Site 0 is 4x slower; a speed-aware policy sends it well under its
        # fair 1/num_sites share of the work.
        assert slow_share < 1.0 / tiny_config.num_sites


class TestLertHet:
    def test_registered(self):
        assert make_policy("LERT-HET").name == "LERT-HET"

    def test_equals_lert_on_homogeneous_system(self, tiny_config):
        payloads = {}
        for name in ("LERT", "LERT-HET"):
            system = DistributedDatabase(tiny_config, make_policy(name), seed=4)
            payload = results_to_dict(system.run(100.0, 800.0))
            payload.pop("policy")  # the only field that names the policy
            payloads[name] = payload
        assert payloads["LERT-HET"] == payloads["LERT"]
