"""The experiment registry: the one front door to every experiment."""

import warnings

import pytest

from repro.experiments.registry import (
    Experiment,
    all_experiments,
    experiment_names,
    get_experiment,
)


class TestRegistry:
    def test_names_unique_and_ordered(self):
        names = experiment_names()
        assert len(names) == len(set(names))
        assert names[0] == "table5"  # report order: analytic first
        assert names == tuple(e.name for e in all_experiments())

    def test_tables_and_studies_registered(self):
        names = experiment_names()
        for expected in (
            "table5", "table6", "table8", "table9", "table10", "table11",
            "table12", "msg", "failures", "open", "validation",
            "ablation-stale", "ablation-disk", "ablation-updates",
            "ablation-heterogeneous", "ablation-subnet", "study-core",
        ):
            assert expected in names

    def test_every_experiment_is_described(self):
        for experiment in all_experiments():
            assert experiment.title
            assert experiment.description

    def test_only_the_analytic_tables_are_analytic(self):
        analytic = {e.name for e in all_experiments() if e.analytic}
        assert analytic == {"table5", "table6"}

    def test_get_experiment_round_trip(self):
        for name in experiment_names():
            experiment = get_experiment(name)
            assert isinstance(experiment, Experiment)
            assert experiment.name == name

    def test_unknown_name_lists_options(self):
        with pytest.raises(KeyError, match="table5"):
            get_experiment("table99")

    def test_analytic_run_ignores_settings_and_context(self):
        output = get_experiment("table5").run()
        assert "Table 5" in output


class TestEntryPoint:
    def test_registry_path_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            get_experiment("table6").run()
