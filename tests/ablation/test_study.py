"""Study execution and report: serial/parallel byte-identity, caching,
metric aggregation, and ranked-report determinism."""

import pytest

from repro.ablation import (
    build_study,
    expand,
    metric_delta_pct,
    metric_value,
    rank_components,
    render_study_report,
    run_study,
    variant_effects,
)
from repro.experiments.cache import ResultCache
from repro.experiments.common import average_results
from repro.experiments.context import StudyContext


@pytest.fixture(scope="module")
def smoke_outcome():
    """One serial, uncached run of the smoke study, shared by the module."""
    return run_study(build_study("smoke"))


class TestRunStudy:
    def test_outcome_covers_every_cell(self, smoke_outcome):
        grid = expand(build_study("smoke"))
        assert smoke_outcome.baseline.label == "baseline"
        assert [c.label for c in smoke_outcome.cells] == [
            c.label for c in grid.cells
        ]
        for cell in (smoke_outcome.baseline,) + smoke_outcome.cells:
            assert len(cell.averaged.per_replication) == len(cell.run_ids)

    def test_serial_vs_jobs2_byte_identity(self, smoke_outcome):
        """The acceptance contract, on a study with fault and open-workload
        cells: ``--jobs 2`` reproduces the serial outcome exactly."""
        parallel = run_study(
            build_study("smoke"), context=StudyContext(jobs=2)
        )
        assert parallel == smoke_outcome
        assert render_study_report(parallel) == render_study_report(
            smoke_outcome
        )

    def test_second_run_is_fully_cache_served(self, tmp_path, smoke_outcome):
        cache = ResultCache(tmp_path / "cache")
        spec = build_study("smoke")
        first = run_study(spec, context=StudyContext(cache=cache))
        misses_after_first = cache.stats.misses
        second = run_study(spec, context=StudyContext(cache=cache))
        assert cache.stats.misses == misses_after_first  # 100% hits
        assert cache.stats.hits >= len(expand(spec).all_tasks())
        assert first == second == smoke_outcome
        assert render_study_report(second) == render_study_report(
            smoke_outcome
        )

    def test_fault_cell_loses_availability(self, smoke_outcome):
        """The outage cell must actually exercise the fault path."""
        faulted = smoke_outcome.cell("faults:site-outage")
        assert faulted.averaged.availability <= 1.0
        assert smoke_outcome.baseline.averaged.availability == 1.0

    def test_open_workload_cell_reports_shed_rate(self, smoke_outcome):
        open_cell = smoke_outcome.cell("workload:open-poisson")
        assert 0.0 <= open_cell.averaged.shed_rate <= 1.0
        assert smoke_outcome.baseline.averaged.shed_rate == 0.0

    def test_unknown_cell_lookup(self, smoke_outcome):
        with pytest.raises(KeyError):
            smoke_outcome.cell("nope")


class TestMetricsFromRuns:
    """Folding a cell's runs into its metrics: ``average_results`` and the
    study-metric names ``metric_value`` maps onto its attributes."""

    def test_requires_runs(self):
        with pytest.raises(ValueError):
            average_results("LERT", [])

    def test_single_run_passthrough(self, smoke_outcome):
        cell = smoke_outcome.cell("workload:open-poisson")
        run = cell.averaged.per_replication[0]
        averaged = average_results(run.policy, [run])
        assert averaged.mean_response_time == run.mean_response_time
        assert averaged.mean_waiting_time == run.mean_waiting_time
        assert averaged.completions == run.completions
        assert averaged.shed_rate == run.workload.shed / run.workload.offered

    def test_availability_counts_lost_queries(self, smoke_outcome):
        cell = smoke_outcome.cell("faults:site-outage")
        runs = cell.averaged.per_replication
        lost = sum(run.availability.queries_lost for run in runs)
        completions = cell.averaged.completions
        assert cell.averaged.availability == completions / (completions + lost)

    def test_metric_names_map_to_averages(self, smoke_outcome):
        baseline = smoke_outcome.baseline
        assert metric_value(baseline, "response_time") == (
            baseline.averaged.mean_response_time
        )
        assert metric_value(baseline, "waiting_time") == (
            baseline.averaged.mean_waiting_time
        )

    def test_unknown_metric_name(self, smoke_outcome):
        with pytest.raises(KeyError):
            metric_value(smoke_outcome.baseline, "latency")


class TestDeltas:
    def test_lower_is_better_uses_improvement(self):
        assert metric_delta_pct("response_time", 50.0, 100.0) == 50.0
        assert metric_delta_pct("waiting_time", 150.0, 100.0) == -50.0

    def test_availability_improves_upward(self):
        assert metric_delta_pct("availability", 1.0, 0.8) == pytest.approx(25.0)
        assert metric_delta_pct("availability", 0.6, 0.8) == pytest.approx(-25.0)

    def test_zero_baseline_guard(self):
        assert metric_delta_pct("response_time", 5.0, 0.0) == 0.0
        assert metric_delta_pct("availability", 5.0, 0.0) == 0.0

    def test_none_propagates(self):
        assert metric_delta_pct("fairness", None, 1.0) is None
        assert metric_delta_pct("fairness", 1.0, None) is None


class TestRankedReport:
    def test_every_component_ranked_once(self, smoke_outcome):
        ranked = rank_components(smoke_outcome)
        assert sorted(r.component for r in ranked) == sorted(
            c.name for c in smoke_outcome.spec.components
        )

    def test_ranking_descends_with_name_tiebreak(self, smoke_outcome):
        ranked = rank_components(smoke_outcome)
        keys = [(-r.importance, r.component) for r in ranked]
        assert keys == sorted(keys)

    def test_effects_cover_every_variant(self, smoke_outcome):
        effects = variant_effects(smoke_outcome)
        assert [e.label for e in effects] == [
            c.label for c in smoke_outcome.cells
        ]

    def test_report_is_deterministic(self, smoke_outcome):
        rerun = run_study(build_study("smoke"))
        assert render_study_report(rerun) == render_study_report(
            smoke_outcome
        )

    def test_report_contents(self, smoke_outcome):
        text = render_study_report(smoke_outcome)
        assert "Ranked component importance" in text
        assert "Per-variant effects" in text
        assert "Baseline: policy=LERT kind=standard" in text
        for component in ("allocation", "faults", "workload"):
            assert component in text

    def test_markdown_rendering_shares_cells(self, smoke_outcome):
        text = render_study_report(smoke_outcome)
        md = render_study_report(smoke_outcome, markdown=True)
        assert "| rank |" in md.replace("  ", " ")
        # Same headline numbers appear in both renderings.
        baseline_line = next(
            line for line in text.splitlines() if "Baseline metrics" in line
        )
        assert baseline_line in md
