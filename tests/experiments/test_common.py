"""Unit tests for the shared experiment machinery."""

import dataclasses
import math

import pytest

from repro.experiments.common import AveragedResults, policy_grid, simulate
from repro.experiments.report import TextTable, improvement_pct
from repro.experiments.runconfig import RunSettings


class TestImprovementPct:
    def test_positive_improvement(self):
        assert improvement_pct(new=8.0, base=10.0) == pytest.approx(20.0)

    def test_negative_improvement(self):
        assert improvement_pct(new=12.0, base=10.0) == pytest.approx(-20.0)

    def test_zero_base(self):
        assert improvement_pct(5.0, 0.0) == 0.0


class TestTextTable:
    def test_render_contains_rows(self):
        table = TextTable(["a", "b"], title="demo")
        table.add_row("x", 1.5)
        text = table.render()
        assert "demo" in text
        assert "x" in text
        assert "1.50" in text

    def test_row_width_enforced(self):
        table = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only-one")

    def test_alignment_uniform(self):
        table = TextTable(["col"])
        table.add_row("xxxxxxxxxx")
        table.add_row("y")
        lines = table.render().splitlines()
        assert len(lines[-1]) == len(lines[-2])


class TestSimulate:
    def test_replications_are_averaged(self, tiny_config):
        settings = RunSettings(warmup=100.0, duration=400.0, replications=2, base_seed=1)
        result = simulate(tiny_config, "BNQ", settings)
        assert len(result.per_replication) == 2
        expected = sum(
            r.mean_waiting_time for r in result.per_replication
        ) / 2
        assert result.mean_waiting_time == pytest.approx(expected)

    def test_common_random_numbers_across_policies(self, tiny_config):
        settings = RunSettings(warmup=100.0, duration=400.0, replications=1, base_seed=9)
        # Identical seeds mean both policies face the same query stream;
        # completions differ only through queueing, not workload.
        a = simulate(tiny_config, "LOCAL", settings)
        b = simulate(tiny_config, "LOCAL", settings)
        assert a.mean_waiting_time == b.mean_waiting_time

    def test_rho_ratio(self, tiny_config):
        settings = RunSettings(warmup=100.0, duration=400.0, replications=1)
        result = simulate(tiny_config, "LOCAL", settings)
        assert result.rho_ratio == pytest.approx(
            result.disk_utilization / result.cpu_utilization
        )


class TestPolicyGrid:
    SETTINGS = RunSettings(warmup=100.0, duration=400.0, replications=1, base_seed=3)

    def test_one_dict_per_config_in_order(self, tiny_config):
        configs = [tiny_config, dataclasses.replace(tiny_config, num_sites=2)]
        grid = policy_grid(configs, ("LOCAL", "BNQ"), self.SETTINGS)
        assert len(grid) == 2
        for results in grid:
            assert list(results) == ["LOCAL", "BNQ"]
            assert all(cell.policy == name for name, cell in results.items())
        assert grid[1]["BNQ"] == simulate(configs[1], "BNQ", self.SETTINGS)

    def test_closed_fault_free_cells_have_full_availability(self, tiny_config):
        (results,) = policy_grid([tiny_config], ("LOCAL",), self.SETTINGS)
        assert results["LOCAL"].availability == 1.0
        assert results["LOCAL"].shed_rate == 0.0


def _averaged_with_utilizations(cpu: float, disk: float) -> AveragedResults:
    return AveragedResults(
        policy="LOCAL",
        mean_waiting_time=0.0,
        mean_response_time=0.0,
        fairness=None,
        subnet_utilization=0.0,
        cpu_utilization=cpu,
        disk_utilization=disk,
        remote_fraction=0.0,
        completions=0,
        per_replication=(),
    )


class TestRhoRatioEdgeCases:
    """Regression: an idle system used to report inf/inf-style garbage."""

    def test_idle_system_is_nan(self):
        assert math.isnan(_averaged_with_utilizations(0.0, 0.0).rho_ratio)

    def test_idle_cpu_busy_disk_is_inf(self):
        assert _averaged_with_utilizations(0.0, 0.5).rho_ratio == math.inf

    def test_normal_ratio_unchanged(self):
        assert _averaged_with_utilizations(0.5, 0.25).rho_ratio == 0.5
