"""Ranked per-component importance reports for executed studies.

Every variant's metrics are compared against the study baseline with
CRN-paired seeds (the grid gives replication *r* of every cell the same
master seed), so the deltas here are paired differences, not noise
between independent runs.

Delta convention: positive Δ% means the variant *improves* on the
baseline for that metric.  Response time, waiting time, fairness
(max/min ratio — 1.0 is perfect), and shed rate improve downward, so
their delta is the paper's ΔW-style :func:`~repro.experiments.report.improvement_pct`;
availability improves upward, so its delta is the signed relative gain.

A component's *importance* is the largest absolute primary-metric delta
any of its variants produces — "how much can toggling this component
move the headline number".  Components are ranked by descending
importance with the component name as tie-break, which (with the
deterministic execution contract) makes the rendered report a pure
function of the spec: byte-identical serial vs parallel, run to run,
machine to machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.ablation.spec import STUDY_METRIC_ATTRIBUTES
from repro.ablation.study import CellOutcome, StudyOutcome
from repro.experiments.report import TextTable, improvement_pct

#: Metrics where a smaller value beats the baseline.
_LOWER_IS_BETTER = frozenset(
    {"response_time", "waiting_time", "fairness", "shed_rate"}
)


def metric_value(cell: CellOutcome, metric: str) -> Optional[float]:
    """One study metric of *cell* by name (see ``STUDY_METRICS``)."""
    try:
        attribute = STUDY_METRIC_ATTRIBUTES[metric]
    except KeyError:
        raise KeyError(f"unknown study metric {metric!r}") from None
    return getattr(cell.averaged, attribute)


def metric_delta_pct(
    metric: str, value: Optional[float], base: Optional[float]
) -> Optional[float]:
    """Signed improvement of *value* over *base* (positive = better).

    ``None`` when either side is undefined (e.g. fairness without
    multiple query classes).
    """
    if value is None or base is None:
        return None
    if metric in _LOWER_IS_BETTER:
        return improvement_pct(value, base)
    # Higher is better (availability): signed relative gain, with the
    # same zero-baseline guard as improvement_pct.
    if base == 0:
        return 0.0
    return 100.0 * (value - base) / base


@dataclass(frozen=True)
class VariantEffect:
    """One variant's paired comparison against the baseline."""

    component: str
    variant: str
    label: str
    cell: CellOutcome
    delta_pct: Optional[float]  # primary metric; positive = better


@dataclass(frozen=True)
class ComponentImportance:
    """One component's ranked summary."""

    component: str
    description: str
    importance: float  # max |primary-metric delta| across variants
    largest_effect: VariantEffect


def variant_effects(outcome: StudyOutcome) -> Tuple[VariantEffect, ...]:
    """Every variant's effect vs baseline, in spec order."""
    metric = outcome.spec.metric
    base = metric_value(outcome.baseline, metric)
    effects: List[VariantEffect] = []
    for cell in outcome.cells:
        assert cell.component is not None and cell.variant is not None
        effects.append(
            VariantEffect(
                component=cell.component,
                variant=cell.variant,
                label=cell.label,
                cell=cell,
                delta_pct=metric_delta_pct(metric, metric_value(cell, metric), base),
            )
        )
    return tuple(effects)


def rank_components(outcome: StudyOutcome) -> Tuple[ComponentImportance, ...]:
    """Components ranked by descending importance (name tie-break)."""
    effects = variant_effects(outcome)
    ranked: List[ComponentImportance] = []
    for component in outcome.spec.components:
        component_effects = [
            e for e in effects if e.component == component.name
        ]
        largest = max(
            component_effects,
            key=lambda e: (
                abs(e.delta_pct) if e.delta_pct is not None else 0.0
            ),
        )
        importance = (
            abs(largest.delta_pct) if largest.delta_pct is not None else 0.0
        )
        ranked.append(
            ComponentImportance(
                component=component.name,
                description=component.description,
                importance=importance,
                largest_effect=largest,
            )
        )
    ranked.sort(key=lambda c: (-c.importance, c.component))
    return tuple(ranked)


def _fmt_optional(value: Optional[float], spec: str = ".2f") -> str:
    return "-" if value is None else format(value, spec)


def _fmt_delta(delta: Optional[float]) -> str:
    return "-" if delta is None else f"{delta:+.1f}"


def _metrics_line(cell: CellOutcome) -> str:
    m = cell.averaged
    return (
        f"response {m.mean_response_time:.2f}  "
        f"waiting {m.mean_waiting_time:.2f}  "
        f"fairness {_fmt_optional(m.fairness)}  "
        f"availability {m.availability:.4f}  "
        f"shed {100.0 * m.shed_rate:.2f}%"
    )


def render_study_report(outcome: StudyOutcome, *, markdown: bool = False) -> str:
    """The full study report (ranking + per-variant table) as text.

    A pure function of *outcome*: identical outcomes render to identical
    bytes.  ``markdown=True`` renders the tables as GitHub-flavored
    Markdown through the same cell-formatting path.
    """
    spec = outcome.spec
    baseline = spec.baseline
    ranking = TextTable(
        ["rank", "component", "importance |d%|", "largest effect", "d%"],
        title=f"Ranked component importance (primary metric: {spec.metric})",
    )
    for rank, entry in enumerate(rank_components(outcome), start=1):
        ranking.add_row(
            str(rank),
            entry.component,
            f"{entry.importance:.1f}",
            entry.largest_effect.variant,
            _fmt_delta(entry.largest_effect.delta_pct),
        )

    variants = TextTable(
        [
            "component",
            "variant",
            "response",
            "d resp %",
            "waiting",
            "d wait %",
            "fairness",
            "avail",
            "shed %",
        ],
        title="Per-variant effects vs baseline (positive d% = better)",
    )
    base = outcome.baseline.averaged
    for effect in variant_effects(outcome):
        m = effect.cell.averaged
        variants.add_row(
            effect.component,
            effect.variant,
            f"{m.mean_response_time:.2f}",
            _fmt_delta(
                metric_delta_pct(
                    "response_time", m.mean_response_time, base.mean_response_time
                )
            ),
            f"{m.mean_waiting_time:.2f}",
            _fmt_delta(
                metric_delta_pct(
                    "waiting_time", m.mean_waiting_time, base.mean_waiting_time
                )
            ),
            _fmt_optional(m.fairness),
            f"{m.availability:.4f}",
            f"{100.0 * m.shed_rate:.2f}",
        )

    render = (
        (lambda table: table.render_markdown())
        if markdown
        else (lambda table: table.render())
    )
    lines = [
        f"Study: {spec.title}",
        f"Cells: {1 + len(outcome.cells)} "
        f"({spec.settings.replications} replication(s) each, "
        f"base seed {spec.settings.base_seed})",
        f"Baseline: policy={baseline.policy} kind={baseline.system_kind}",
        f"Baseline metrics: {_metrics_line(outcome.baseline)}",
        "",
        render(ranking),
        "",
        render(variants),
    ]
    if spec.description:
        lines.insert(1, spec.description)
    return "\n".join(lines)


__all__ = [
    "VariantEffect",
    "ComponentImportance",
    "metric_delta_pct",
    "metric_value",
    "variant_effects",
    "rank_components",
    "render_study_report",
]
