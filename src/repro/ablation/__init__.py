"""Declarative ablation studies (ROADMAP item 3).

A *study* is a frozen :class:`~repro.ablation.spec.StudySpec`: one
baseline run (:class:`~repro.ablation.spec.BaselineRun`) plus a set of
*components*, each listing the variants that toggle or re-range that
component while everything else stays at baseline.  The spec expands
deterministically into a grid of content-addressed runs
(:func:`~repro.ablation.grid.expand`; run IDs are the parallel runner's
cache keys), executes through the parallel runner with byte-identical
serial vs ``--jobs N`` results (:func:`~repro.ablation.study.run_study`),
and renders a ranked per-component importance report
(:func:`~repro.ablation.report.render_study_report`).

Typical use::

    from repro.ablation import build_study, run_study, render_study_report
    from repro.experiments import STANDARD, StudyContext

    spec = build_study("core", STANDARD)
    outcome = run_study(spec, context=StudyContext(jobs=4))
    print(render_study_report(outcome))

or, from a committed spec file::

    repro-experiments study studies/core.json --jobs 4

See ``docs/ablation.md`` for the spec format, the run-ID scheme, and the
report columns.
"""

from repro.ablation.catalog import build_study, study_names
from repro.ablation.grid import BASELINE_LABEL, StudyCell, StudyGrid, expand
from repro.ablation.report import (
    ComponentImportance,
    VariantEffect,
    metric_delta_pct,
    metric_value,
    rank_components,
    render_study_report,
    variant_effects,
)
from repro.ablation.spec import (
    BaselineRun,
    Component,
    StudySpec,
    Variant,
    load_study_spec,
    save_study_spec,
    study_spec_from_dict,
    study_spec_to_dict,
)
from repro.ablation.study import (
    CellOutcome,
    StudyOutcome,
    run_study,
)

__all__ = [
    "BaselineRun",
    "Variant",
    "Component",
    "StudySpec",
    "study_spec_to_dict",
    "study_spec_from_dict",
    "save_study_spec",
    "load_study_spec",
    "BASELINE_LABEL",
    "StudyCell",
    "StudyGrid",
    "expand",
    "CellOutcome",
    "StudyOutcome",
    "run_study",
    "VariantEffect",
    "ComponentImportance",
    "metric_delta_pct",
    "metric_value",
    "variant_effects",
    "rank_components",
    "render_study_report",
    "build_study",
    "study_names",
]
