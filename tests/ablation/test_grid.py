"""Grid expansion: determinism, run-ID stability, cache-key identity."""

import json
import pathlib
import subprocess
import sys

import pytest

from repro.ablation import BASELINE_LABEL, build_study, expand
from repro.ablation.spec import BaselineRun, Component, StudySpec, Variant
from repro.experiments.cache import cache_key
from repro.experiments.runconfig import RunSettings
from repro.model.config import paper_defaults

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden_smoke_run_ids.json"

SMALL = RunSettings(warmup=50.0, duration=200.0, replications=2, base_seed=7)


def two_component_spec() -> StudySpec:
    return StudySpec(
        name="two",
        title="Two components",
        description="",
        metric="waiting_time",
        config=paper_defaults(num_sites=2, mpl=3),
        baseline=BaselineRun(policy="LOCAL"),
        settings=SMALL,
        components=(
            Component(
                name="policy",
                description="",
                variants=(
                    Variant(name="bnq", policy="BNQ"),
                    Variant(name="lert", policy="LERT"),
                ),
            ),
            Component(
                name="mpl",
                description="",
                variants=(Variant(name="mpl-6", config_patches=(("site.mpl", 6),)),),
            ),
        ),
    )


class TestExpansion:
    def test_cell_layout(self):
        grid = expand(two_component_spec())
        assert grid.baseline.label == BASELINE_LABEL
        assert [c.label for c in grid.cells] == [
            "policy:bnq",
            "policy:lert",
            "mpl:mpl-6",
        ]
        # One task per replication, in replication order.
        for cell in grid.all_cells():
            assert len(cell.tasks) == SMALL.replications
            assert [t.seed for t in cell.tasks] == [
                SMALL.seed_for(0),
                SMALL.seed_for(1),
            ]

    def test_crn_pairing_shares_seeds_across_cells(self):
        grid = expand(two_component_spec())
        seeds = {tuple(t.seed for t in cell.tasks) for cell in grid.all_cells()}
        assert len(seeds) == 1  # every cell faces the same seed stream

    def test_variant_overrides_apply(self):
        grid = expand(two_component_spec())
        assert grid.cell("policy:bnq").tasks[0].policy == "BNQ"
        assert grid.cell("mpl:mpl-6").tasks[0].config.site.mpl == 6
        # Unpatched components stay at baseline.
        assert grid.cell("mpl:mpl-6").tasks[0].policy == "LOCAL"

    def test_expansion_is_pure(self):
        spec = two_component_spec()
        assert expand(spec).run_ids() == expand(spec).run_ids()

    def test_run_ids_are_cache_keys(self):
        grid = expand(two_component_spec())
        task = grid.cell("policy:bnq").tasks[0]
        expected = cache_key(
            task.config,
            task.policy,
            seed=task.seed,
            warmup=task.warmup,
            duration=task.duration,
            system_kind=task.system_kind,
            system_kwargs=task.system_kwargs,
            faults=task.faults,
            workload=task.workload,
        )
        assert grid.cell("policy:bnq").run_ids[0] == expected

    def test_unknown_cell_label(self):
        with pytest.raises(KeyError):
            expand(two_component_spec()).cell("policy:unknown")

    def test_faults_on_extension_kind_error_names_the_cell(self):
        from repro.faults.plan import FaultPlan, SiteOutage

        spec = two_component_spec()
        bad = StudySpec(
            name=spec.name,
            title=spec.title,
            description=spec.description,
            metric=spec.metric,
            config=spec.config,
            baseline=BaselineRun(policy="LOCAL", system_kind="updates"),
            settings=spec.settings,
            components=(
                Component(
                    name="broken",
                    description="",
                    variants=(
                        Variant(
                            name="updates-faulted",
                            faults=FaultPlan(
                                site_outages=(
                                    SiteOutage(site=0, at=60.0, duration=10.0),
                                )
                            ),
                        ),
                    ),
                ),
            ),
        )
        # Updates are the one mechanism a fault plan cannot run under.
        with pytest.raises(ValueError, match="updates-faulted"):
            expand(bad)


class TestGoldenRunIds:
    """The smoke study's run IDs are pinned bytes.

    If this test fails, the content-addressed key of some run changed:
    either the cache format version was bumped intentionally (regenerate
    the golden file) or a refactor silently changed simulated behavior.
    """

    def test_smoke_run_ids_match_golden(self):
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        grid = expand(build_study("smoke"))
        assert {label: list(ids) for label, ids in grid.run_ids()} == golden


class TestCrossProcessStability:
    def test_run_ids_identical_in_a_fresh_process(self):
        """Run IDs are stable across interpreter processes (no id()/hash
        seed dependence), which is what makes them valid cache keys."""
        grid = expand(build_study("smoke"))
        script = (
            "import json\n"
            "from repro.ablation import build_study, expand\n"
            "grid = expand(build_study('smoke'))\n"
            "print(json.dumps({l: list(i) for l, i in grid.run_ids()}))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={
                "PYTHONPATH": str(HERE.parents[1] / "src"),
                "PYTHONHASHSEED": "random",
            },
        )
        fresh = json.loads(out.stdout)
        assert fresh == {label: list(ids) for label, ids in grid.run_ids()}
